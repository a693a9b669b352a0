"""Child-process side of the benchmark: set-up probes, the sweep, traced runs.

Run by ``run.py`` in a fresh interpreter with the checkout's ``src`` on
``PYTHONPATH``. Results go to the JSON file named by ``--out``.

    worker.py setup --workload W --seed N --out FILE
    worker.py sweep --seed N --seconds S --out FILE
    worker.py trace --workload W --seed N --seconds S --workdir DIR --out FILE
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import logging
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import oracle
import speed
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


# ------------------------------------------------------------------ set-up


def setup(workload: str, seed: int) -> dict:
    """Seconds to import pubtfp and build the workload's inputs in memory,
    and the slowdown measured in this process just before."""
    slowdown = speed.slowdown()
    start = time.perf_counter()
    if workload == "paradox-sweep":
        import pubtfp.paradoxes  # noqa: F401

        build_scenarios(workloads.build_inputs(workload, seed)["entries"])
    else:
        import pubtfp.cli  # noqa: F401

        workloads.build_inputs(workload, seed)
    return {"setup_s": time.perf_counter() - start, "slowdown": slowdown}


# ------------------------------------------------------------------- sweep


def build_scenarios(entries: list[dict]) -> list:
    """Scenario objects from generated entries, through the public constructors."""
    from pubtfp import Ces, CobbDouglas, FactorPrices, HomotheticTranslog, InputBundle, Scenario

    classes = {"cobb-douglas": CobbDouglas, "ces": Ces, "homothetic-translog": HomotheticTranslog}
    scenarios = []
    for entry in entries:
        params = dict(entry["technology"])
        technology = classes[params.pop("family")](**params)
        scenarios.append(
            Scenario(
                name=entry["name"],
                paradox_id=entry["paradox"],
                technology=technology,
                bundle=InputBundle(**entry["bundle"]),
                prices=FactorPrices(**entry["prices"]),
            )
        )
    return scenarios


def report_text(outcomes: list) -> str:
    """The outcomes in the report CSV layout, for the oracle and the digest."""
    lines = [",".join(oracle.REPORT_COLUMNS)]
    for outcome in outcomes:
        r = outcome.report
        if r is None:
            lines.append(f"{outcome.name},{outcome.paradox_id},,,,,,,,{outcome.error!r}")
            continue
        values = (r.measured_before, r.measured_after, r.true_tfp_before, r.true_tfp_after)
        lines.append(
            ",".join(
                [outcome.name, str(outcome.paradox_id), r.convention]
                + [repr(float(v)) for v in values]
                + ["true" if r.paradox_confirmed else "false", r.welfare_direction, ""]
            )
        )
    return "\n".join(lines) + "\n"


class Sweep:
    """In-process batches over a shared pool; each operation gets a fresh batch."""

    def __init__(self, seed: int) -> None:
        from pubtfp import paradoxes

        self.paradoxes = paradoxes
        self.seed = seed
        self.pool = inputs.sweep_pool(seed)
        self.index = 0

    def next_batch(self) -> tuple[list[dict], list]:
        entries = inputs.sweep_batch(self.pool, self.seed, self.index, workloads.SWEEP_BATCH)
        self.index += 1
        return entries, build_scenarios(entries)

    def run(self, scenarios: list) -> tuple[float, list]:
        start = time.perf_counter()
        outcomes = self.paradoxes.run_all(scenarios)
        return time.perf_counter() - start, outcomes


def sweep(seed: int, seconds: float) -> dict:
    runner = Sweep(seed)
    latencies: list[float] = []
    scaled: list[float] = []
    failed = 0
    first_digest = ""
    deadline = time.perf_counter() + seconds
    while not latencies or time.perf_counter() < deadline:
        entries, scenarios = runner.next_batch()
        slowdown = speed.slowdown()
        elapsed, outcomes = runner.run(scenarios)
        latencies.append(elapsed)
        scaled.append(elapsed / slowdown)
        text = report_text(outcomes)
        failed += bool(oracle.check_report(text, entries))
        first_digest = first_digest or workloads.digest(text.encode("utf-8"))
    return {
        "latencies": latencies,
        "scaled": scaled,
        "items": len(latencies) * workloads.SWEEP_BATCH,
        "attempted": len(latencies),
        "failed": failed,
        "digests": {"sweep-batch-0.csv": first_digest},
    }


# ------------------------------------------------------------------- trace


def _median_wall(argv: list[str], repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_breakdown(repeats: int = 3) -> dict[str, float]:
    """Interpreter floor and ``import pubtfp.cli`` cost, split by ``-X importtime``."""
    python = sys.executable
    probe = "import time; t = time.perf_counter(); import pubtfp.cli; print(time.perf_counter() - t)"
    imports = []
    parts: dict[str, list[float]] = {"yaml": [], "stdlib": [], "pubtfp_self": []}
    for _ in range(repeats):
        done = subprocess.run([python, "-c", probe], check=True, capture_output=True, text=True)
        imports.append(float(done.stdout))
        marked = "import sys; sys.stderr.write('@@\\n'); import pubtfp.cli"
        done = subprocess.run([python, "-X", "importtime", "-c", marked], check=True, capture_output=True, text=True)
        sums = dict.fromkeys(parts, 0.0)
        for line in done.stderr.split("@@\n", 1)[1].splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (field.strip() for field in line[len("import time:") :].split("|"))
            if not self_us.isdigit():
                continue
            top = name.split(".")[0]
            kind = "yaml" if top in ("yaml", "_yaml") else "pubtfp_self" if top == "pubtfp" else "stdlib"
            sums[kind] += int(self_us) / 1000.0
        for kind, value in sums.items():
            parts[kind].append(value)
    result = {
        "cli.interpreter_ms": 1000.0 * _median_wall([python, "-c", "pass"], 5),
        "cli.import_ms": 1000.0 * statistics.median(imports),
    }
    for kind, values in parts.items():
        result[f"cli.import.{kind}_ms"] = statistics.median(values)
    return result


def _call_in_process(main, call: workloads.Call) -> tuple[int, bytes]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(call.argv))
    return code, stdout.getvalue().encode("utf-8")


def _run_ops(ops: list, main, workdir: Path) -> tuple[float, bool, dict[str, bytes]]:
    """One pass over the workload's operations through ``main``, in process."""
    elapsed, ok, outputs = 0.0, True, {}
    for op in ops:
        for call in op.calls:
            start = time.perf_counter()
            code, stdout = _call_in_process(main, call)
            elapsed += time.perf_counter() - start
            ok = ok and code == call.exit_code
            for name in call.outputs:
                outputs[name] = stdout if name == "stdout" else (workdir / name).read_bytes()
    return elapsed, ok, outputs


def trace(workload: str, seed: int, seconds: float, workdir: Path, spans_path: Path) -> dict:
    """Run each operation untraced and traced, in alternating order; report per-layer means.

    For the CLI workloads one traced operation is one pass over the
    workload's calls, made through ``pubtfp.cli.main`` in this process.
    """
    # renormalization warnings go to this process's stderr, as they would from the CLI
    logging.basicConfig(level=logging.WARNING)
    tracer = Tracer()
    if workload == "paradox-sweep":
        runner = Sweep(seed)

        def execute(batch: tuple, traced: bool) -> tuple[float, bool, str]:
            elapsed, outcomes = runner.run(batch[1])
            return elapsed, True, report_text(outcomes)

        def check(batch: tuple, output: str) -> list[str]:
            return oracle.check_report(output, batch[0])

        next_input = runner.next_batch
    else:
        import pubtfp.cli

        ops = workloads.plan(workload, seed, ROOT, workdir)

        def execute(_: None, traced: bool) -> tuple[float, bool, dict[str, bytes]]:
            main = tracer.span("cli.main", "cli", pubtfp.cli.main) if traced else pubtfp.cli.main
            elapsed, ok, outputs = _run_ops(ops, main, workdir)
            if traced:
                tracer.counts["cli.output_bytes"] += sum(len(data) for data in outputs.values())
            return elapsed, ok, outputs

        def check(_: None, outputs: dict[str, bytes]) -> list[str]:
            return [problem for op in ops for problem in op.check(outputs)]

        def next_input() -> None:
            return None

    attempted = failed = 0
    ratios: list[float] = []
    deadline = time.perf_counter() + seconds
    while not ratios or time.perf_counter() < deadline:
        data = next_input()
        results = {}
        for traced in (False, True) if len(ratios) % 2 == 0 else (True, False):
            if traced:
                tracer.install()
                tracer.begin_op()
            try:
                results[traced] = execute(data, traced)
            finally:
                if traced:
                    tracer.uninstall()
        (plain, plain_ok, plain_out), (timed, traced_ok, traced_out) = results[False], results[True]
        ratios.append(timed / plain)
        ok = plain_ok and traced_ok and plain_out == traced_out
        # the CLI workloads repeat one input, so checking the first pass covers the rest
        if workload == "paradox-sweep" or attempted == 0:
            ok = ok and not check(data, traced_out)
        attempted += 2
        failed += 0 if ok else 2
    tracer.write_spans(spans_path)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    metrics.update(_zero_cli() if workload == "paradox-sweep" else import_breakdown())
    return {"metrics": metrics, "attempted": attempted, "failed": failed}


def _zero_cli() -> dict[str, float]:
    names = ("interpreter", "import", "import.yaml", "import.stdlib", "import.pubtfp_self")
    return {f"cli.{name}_ms": 0.0 for name in names}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "sweep", "trace"))
    parser.add_argument("--workload", default="paradox-sweep")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if args.mode == "setup":
        result = setup(args.workload, args.seed)
    elif args.mode == "sweep":
        result = sweep(args.seed, args.seconds)
    else:
        result = trace(args.workload, args.seed, args.seconds, args.workdir, args.spans)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
