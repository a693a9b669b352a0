"""pubtfp benchmark: end-to-end metrics per workload, or per-layer metrics traced.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; pubtfp is imported from ``src``.
With ``--trace 0`` the CLI runs as a subprocess (the sweep in a worker
process) and the end-to-end metrics of BENCHMARK.json are reported. With
``--trace 1`` a worker calls ``pubtfp.cli.main`` in process, alternating
untraced and traced operations, and reports the per-layer metrics. Every
output is checked by an independent oracle; an operation whose output is
wrong counts as failed. The last line of standard output is the result as
one JSON object.

End-to-end times are scaled to reference speed (see ``speed.py``): each
timed piece of work is divided by the slowdown of a fixed reference task
timed in the same process right before it. CLI calls start through
``launch.py``, which times the task and then execs the CLI. The raw
wall-clock figures are printed too, on lines above the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "latency_ms.p50": "ms",
    "items_per_s": "1/s",
}
ITEMS = {
    "cli-small": "CLI calls",
    "paradox-batch": "scenarios, process start included",
    "paradox-sweep": "scenarios, in process",
    "panel-pipeline": "panel rows simulated plus rows read by accounting",
}


def machine_info() -> dict:
    import yaml

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "yaml_with_libyaml": bool(getattr(yaml, "__with_libyaml__", False)),
        "nproc": os.cpu_count(),
        "cpu_model": model or platform.processor(),
    }


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_child(argv: list[str], stdout_path: Path, stderr_path: Path) -> tuple[float, int, int]:
    """Run a child to completion: (clock at its exit, exit code, peak RSS in KiB)."""
    with stdout_path.open("wb") as out, stderr_path.open("wb") as err:
        child = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        ended = time.perf_counter()
    child.returncode = os.waitstatus_to_exitcode(status)
    return ended, child.returncode, usage.ru_maxrss


def run_worker(mode: str, workdir: Path, *args: str) -> tuple[dict, int]:
    """Run worker.py in a fresh interpreter; return its JSON result and peak RSS."""
    out = workdir / f"{mode}.json"
    argv = [sys.executable, str(HERE / "worker.py"), mode, "--out", str(out), *args]
    _, code, rss = run_child(argv, workdir / f"{mode}.stdout", workdir / f"{mode}.stderr")
    if code != 0:
        tail = (workdir / f"{mode}.stderr").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"worker {mode} exited with {code}:\n{tail}")
    return json.loads(out.read_text(encoding="utf-8")), rss


def measure_setup(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Median set-up time over fresh interpreters: (at reference speed, raw)."""
    probes = [
        run_worker("setup", workdir, "--workload", workload, "--seed", str(seed))[0]
        for _ in range(SETUP_REPEATS)
    ]
    return (
        statistics.median(probe["setup_s"] / probe["slowdown"] for probe in probes),
        statistics.median(probe["setup_s"] for probe in probes),
    )


def run_cli_workload(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    ops = workloads.plan(workload, seed, ROOT, workdir)
    stamp = workdir / "call.stamp"
    latencies: list[float] = []
    scaled: list[float] = []
    reference: dict[str, dict[str, str]] = {}
    items = attempted = failed = peak_kb = 0
    deadline = time.perf_counter() + seconds
    while not latencies or time.perf_counter() < deadline:
        op = ops[attempted % len(ops)]
        elapsed = elapsed_scaled = 0.0
        ok, outputs = True, {}
        for call in op.calls:
            argv = [sys.executable, str(HERE / "launch.py"), str(stamp), *call.argv]
            ended, code, rss = run_child(argv, workdir / "call.stdout", workdir / "call.stderr")
            slowdown, started = map(float, stamp.read_text(encoding="utf-8").split())
            elapsed += ended - started
            elapsed_scaled += (ended - started) / slowdown
            peak_kb = max(peak_kb, rss)
            ok = ok and code == call.exit_code
            ok = ok and b"Traceback" not in (workdir / "call.stderr").read_bytes()
            for name in call.outputs:
                source = workdir / ("call.stdout" if name == "stdout" else name)
                outputs[name] = source.read_bytes()
        latencies.append(elapsed)
        scaled.append(elapsed_scaled)
        items += op.items
        attempted += 1
        digests = {name: workloads.digest(data) for name, data in outputs.items()}
        if op.label not in reference:
            reference[op.label] = digests
            problems = op.check(outputs)
            for problem in problems[:5]:
                print(f"oracle: {problem}", file=sys.stderr)
            ok = ok and not problems
        ok = ok and digests == reference[op.label]
        failed += not ok
    return {
        "latencies": latencies,
        "scaled": scaled,
        "items": items,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_kb": peak_kb,
        "digests": {name: value for per_op in reference.values() for name, value in per_op.items()},
    }


def _timing(seconds: list[float], items: int) -> tuple[float, float, float]:
    """Median and 90th-percentile latency in ms, and items per second."""
    ms = sorted(1000.0 * value for value in seconds)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return statistics.median(ms), p90, items / sum(seconds)


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict]:
    """Gated metrics at reference speed; ungated figures go in ``run["info"]``."""
    setup_s, raw_setup_s = measure_setup(workload, seed, workdir)
    if workload == "paradox-sweep":
        run, rss = run_worker("sweep", workdir, "--seed", str(seed), "--seconds", str(seconds))
        run["peak_rss_kb"] = rss
    else:
        run = run_cli_workload(workload, seed, seconds, workdir)
    p50, p90, rate = _timing(run["scaled"], run["items"])
    raw_p50, raw_p90, raw_rate = _timing(run["latencies"], run["items"])
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        "latency_ms.p50": p50,
        "items_per_s": rate,
    }
    # the 90th percentile of a few dozen operations spreads too widely
    # between runs on a shared host to gate on, so it is printed only
    run["info"] = {
        "operations": len(run["scaled"]),
        "latency_ms.p90": p90,
        "raw_wall.setup_s": raw_setup_s,
        "raw_wall.latency_ms.p50": raw_p50,
        "raw_wall.latency_ms.p90": raw_p90,
        "raw_wall.items_per_s": raw_rate,
    }
    return metrics, run


def traced(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict]:
    spans = WORK / "traces" / f"{workload}-seed{seed}.jsonl"
    result, _ = run_worker(
        "trace",
        workdir,
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--workdir",
        str(workdir),
        "--spans",
        str(spans),
    )
    return result["metrics"], result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "pubtfp" / "cli.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"perfbench: no pubtfp source tree under {ROOT}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            metrics, run = traced(args.workload, args.seed, args.seconds, workdir)
            units = {name: _layer_unit(name) for name in metrics}
        else:
            metrics, run = end_to_end(args.workload, args.seed, args.seconds, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("machine " + json.dumps(machine_info(), sort_keys=True))
    for name, value in sorted(run.get("digests", {}).items()):
        print(f"sha256 {args.workload} {name} {value}")
    if not args.trace:
        print(f"items counted in items_per_s: {ITEMS[args.workload]}")
        for name, value in run["info"].items():
            print(f"info {args.workload} {name} {value!r}")
    for name in sorted(metrics):
        print(f"{args.workload} {name} {metrics[name]!r} {units[name]}")
    print(f"error_rate {run['failed'] / run['attempted']!r} ({run['failed']}/{run['attempted']} operations)")
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name in ("trace.overhead_ratio", "efficiency.find_mpss.evals_per_call"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
