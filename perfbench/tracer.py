"""Span tracing around pubtfp's layer boundaries, installed from outside.

The tracer replaces public functions by wrappers at the names their
callers look them up under (``pubtfp.cli.load_scenarios``,
``pubtfp.paradoxes.find_mpss`` and so on), so the package itself is never
edited. Each wrapper records a span: name, layer, start, end, parent span
and the operation it belongs to. Hot methods that run thousands of times
per operation (``Technology.output``, ``InputBundle`` construction) are
only counted. Aggregates are kept as spans close; the full span list of
the first few operations is kept in memory and written out at the end.
"""

from __future__ import annotations

import importlib
import json
import logging
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name, layer). Names are patched where the caller
# looks them up; efficiency.min_cost_bundle is patched twice because
# paradox 2 calls it directly and allocative_gap calls it inside its module.
SPAN_SITES = (
    ("pubtfp.cli", "load_scenarios", "scenario_io.load_scenarios", "scenario_io"),
    ("pubtfp.cli", "load_simulation", "scenario_io.load_simulation", "scenario_io"),
    ("pubtfp.cli", "run_all", "paradoxes.run_all", "paradoxes"),
    ("pubtfp.paradoxes", "run_all", "paradoxes.run_all", "paradoxes"),
    ("pubtfp.paradoxes", "run_paradox_1", "paradoxes.p1", "paradoxes"),
    ("pubtfp.paradoxes", "run_paradox_2", "paradoxes.p2", "paradoxes"),
    ("pubtfp.paradoxes", "run_paradox_3", "paradoxes.p3", "paradoxes"),
    ("pubtfp.paradoxes", "run_paradox_4", "paradoxes.p4", "paradoxes"),
    ("pubtfp.paradoxes", "run_paradox_5", "paradoxes.p5", "paradoxes"),
    ("pubtfp.paradoxes", "min_cost_bundle", "efficiency.min_cost_bundle", "efficiency"),
    ("pubtfp.efficiency", "min_cost_bundle", "efficiency.min_cost_bundle", "efficiency"),
    ("pubtfp.paradoxes", "allocative_gap", "efficiency.allocative_gap", "efficiency"),
    ("pubtfp.paradoxes", "find_mpss", "efficiency.find_mpss", "efficiency"),
    ("pubtfp.paradoxes", "measured_tfp_cost_based", "measurement", "measurement"),
    ("pubtfp.paradoxes", "measured_tfp_revenue", "measurement", "measurement"),
    ("pubtfp.cli", "ingest_panel", "accounting.ingest_panel", "accounting"),
    ("pubtfp.cli", "build_indices", "accounting.build_indices", "accounting"),
    ("pubtfp.cli", "write_indices", "accounting.write_indices", "accounting"),
    ("pubtfp.cli", "simulate_sna_panel", "accounting.simulate_sna_panel", "accounting"),
    ("pubtfp.cli", "write_panel", "accounting.write_panel", "accounting"),
)
KEPT_OPS = 2  # operations whose full span list is written out


class _RenormalizationCounter(logging.Handler):
    def __init__(self, tracer: "Tracer") -> None:
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if "renormaliz" in record.msg:
            self.tracer.counts["accounting.rows_renormalized"] += 1


class Tracer:
    """Spans and counts for the traced operations of one benchmark run."""

    def __init__(self) -> None:
        self.op = -1  # index of the current traced operation
        self._next_id = 0
        self._stack: list[list] = []
        self.kept: list[tuple] = []
        self.total_s: dict[str, float] = defaultdict(float)
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.evals: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._patches: list[tuple] = []

    # ------------------------------------------------------------- spans

    def begin_op(self) -> None:
        self.op += 1

    def span(self, name: str, layer: str, fn, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            # [id, name, layer, start, child time, Technology.output calls]
            record = [tracer._next_id, name, layer, time.perf_counter(), 0.0, 0]
            tracer._stack.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._close(record, parent, end)
            if on_result is not None:
                on_result(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, record: list, parent: int | None, end: float) -> None:
        span_id, name, layer, start, child_s, evals = record
        duration = end - start
        self.total_s[name] += duration
        self.calls[name] += 1
        self.evals[name] += evals
        self.layer_self_s[layer] += duration - child_s
        if self._stack:
            self._stack[-1][4] += duration
            self._stack[-1][5] += evals
        if self.op < KEPT_OPS:
            self.kept.append((self.op, span_id, parent, name, start, end))

    def _count_output(self, fn):
        tracer = self

        def counted(self_, *args, **kwargs):
            tracer.counts["technology.output.calls"] += 1
            if tracer._stack:
                tracer._stack[-1][5] += 1
            return fn(self_, *args, **kwargs)

        return counted

    def _count_bundle(self, fn):
        tracer = self

        def counted(self_):
            tracer.counts["technology.bundles_built"] += 1
            return fn(self_)

        return counted

    # ------------------------------------------------------ installation

    def install(self) -> None:
        from pubtfp import technology

        hooks = {
            "scenario_io.load_scenarios": self._on_scenarios,
            "scenario_io.load_simulation": self._on_input_file,
            "paradoxes.run_all": self._on_outcomes,
            "accounting.ingest_panel": self._on_rows_read,
            "accounting.build_indices": self._on_series,
            "accounting.write_panel": self._on_rows_written,
        }
        for module_name, attribute, name, layer in SPAN_SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._patch(module, attribute, self.span(name, layer, original, hooks.get(name)))
        self._patch(technology.Technology, "output", self._count_output(technology.Technology.output))
        self._patch(
            technology.InputBundle,
            "__post_init__",
            self._count_bundle(technology.InputBundle.__post_init__),
        )
        self._handler = _RenormalizationCounter(self)
        logging.getLogger("pubtfp.accounting").addHandler(self._handler)

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        logging.getLogger("pubtfp.accounting").removeHandler(self._handler)

    # ------------------------------------------------------- result hooks

    def _on_scenarios(self, result, args) -> None:
        self.counts["scenario_io.entries"] += len(result)
        self.counts["scenario_io.failed_entries"] += sum(
            1 for item in result if type(item).__name__ == "FailedScenario"
        )
        self._on_input_file(result, args)

    def _on_input_file(self, result, args) -> None:
        self.counts["scenario_io.input_bytes"] += Path(args[0]).stat().st_size

    def _on_outcomes(self, result, args) -> None:
        for outcome in result:
            self.counts["paradoxes.scenarios"] += 1
            if outcome.report is not None:
                self.counts["paradoxes.confirmed"] += int(outcome.report.paradox_confirmed)
            elif outcome.error_kind == "internal":
                self.counts["paradoxes.errors_internal"] += 1
            else:
                self.counts["paradoxes.errors_input"] += 1

    def _on_rows_read(self, result, args) -> None:
        self.counts["accounting.rows_read"] += len(result)

    def _on_series(self, result, args) -> None:
        self.counts["accounting.series"] += len(result)

    def _on_rows_written(self, result, args) -> None:
        self.counts["accounting.rows_written"] += len(args[0])

    # ------------------------------------------------------------ output

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for op, span_id, parent, name, start, end in self.kept:
                record = {"op": op, "id": span_id, "parent": parent, "name": name, "start": start, "end": end}
                handle.write(json.dumps(record) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-operation means of every traced quantity, by metric name."""
        n = max(self.op + 1, 1)
        metrics: dict[str, float] = {}
        for name in (
            "scenario_io.load_scenarios",
            "scenario_io.load_simulation",
            "paradoxes.run_all",
            "efficiency.min_cost_bundle",
            "efficiency.allocative_gap",
            "efficiency.find_mpss",
            "accounting.ingest_panel",
            "accounting.build_indices",
            "accounting.write_indices",
            "accounting.simulate_sna_panel",
            "accounting.write_panel",
        ):
            metrics[f"{name}_s"] = self.total_s[name] / n
        for paradox in range(1, 6):
            metrics[f"paradoxes.p{paradox}_s"] = self.total_s[f"paradoxes.p{paradox}"] / n
        for name in ("efficiency.min_cost_bundle", "efficiency.allocative_gap", "efficiency.find_mpss"):
            metrics[f"{name}.calls"] = self.calls[name] / n
        metrics["efficiency.find_mpss.evals_per_call"] = self.evals["efficiency.find_mpss"] / max(
            self.calls["efficiency.find_mpss"], 1
        )
        metrics["measurement.calls"] = self.calls["measurement"] / n
        metrics["measurement_s"] = self.total_s["measurement"] / n
        metrics["paradoxes.self_s"] = self.layer_self_s["paradoxes"] / n
        metrics["cli.main_s"] = self.total_s["cli.main"] / n
        metrics["cli.self_s"] = self.layer_self_s["cli"] / n
        for name in (
            "scenario_io.entries",
            "scenario_io.failed_entries",
            "scenario_io.input_bytes",
            "paradoxes.scenarios",
            "paradoxes.confirmed",
            "paradoxes.errors_input",
            "paradoxes.errors_internal",
            "technology.output.calls",
            "technology.bundles_built",
            "accounting.rows_read",
            "accounting.rows_renormalized",
            "accounting.series",
            "accounting.rows_written",
            "cli.output_bytes",
        ):
            metrics[name] = self.counts[name] / n
        return metrics
