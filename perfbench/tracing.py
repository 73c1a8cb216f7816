"""Spans and work counters recorded around the public calls of each layer.

The program's files are not changed.  In the process of one traced op,
``Tracer.install`` replaces each traced callable, in every ``ballbound``
module namespace that holds it, by a wrapper (so
``ballbound.cli.run_until_converged`` and
``ballbound.compare.run_until_converged`` are both caught).  Calls of a
module to its own functions go through its namespace too, so they are caught
as well.

A span is ``{"op", "id", "parent", "name", "start", "end", "error"}``; all
spans of one op share ``op``.  High-frequency callables get a call count and
summed time instead of spans.  Spans stay in memory until the op ends.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import Counter

# (module, attribute) -> span name; the result hook turns a return value into counts.
SPANNED = {
    ("ballbound.cli", "main"): "cli.main",
    ("ballbound.cli", "render_report"): "cli.render_report",
    ("ballbound.geometry", "area_from_polar_metric"): "geometry.area_from_polar_metric",
    ("ballbound.geometry", "radiality_deviation"): "geometry.radiality_deviation",
    ("ballbound.moments", "run_until_converged"): "moments.run_until_converged",
    ("ballbound.oracle", "shoot_radial_lambda1"): "oracle.shoot_radial_lambda1",
    ("ballbound.oracle", "build_discrete_laplacian"): "oracle.build_discrete_laplacian",
    ("ballbound.oracle", "splu"): "oracle.splu",
    ("ballbound.oracle", "eigen_2d_polar"): "oracle.eigen_2d_polar",
    ("ballbound.compare", "cheng_report"): "compare.cheng_report",
    ("ballbound.compare", "equality_criterion"): "compare.equality_criterion",
}
COUNTED = {
    ("ballbound.exprparse", "evaluate"): "exprparse.evaluate",
    ("ballbound.geometry", "mean_curvature_field"): "geometry.mean_curvature_field",
}


def _levels(result, counts):
    norm, center, _ = result
    counts["moments.levels"] += len(center.values)
    counts["moments.unconverged"] += not norm.converged


RESULT_HOOKS = {
    "moments.run_until_converged": _levels,
    "oracle.shoot_radial_lambda1": lambda r, c: c.update({"oracle.shoot_bisection_sweeps": r.iterations}),
    "oracle.eigen_2d_polar": lambda r, c: c.update({"oracle.inverse_iterations": r.iterations}),
    "oracle.splu": lambda r, c: c.update({"oracle.lu_nnz": r.L.nnz + r.U.nnz}),
    "geometry.radiality_deviation": lambda r, c: c.update({"geometry.radiality_deviation_calls": 1}),
}

# Per-layer metrics: (name, unit).  Times are inclusive span time, except cli.self_s.
LAYER_METRICS = [
    ("import.wall_s", "s"),
    ("import.scipy_modules", "count"),
    ("cli.self_s", "s"),
    ("cli.render_report_s", "s"),
    ("exprparse.evaluate_calls", "count"),
    ("exprparse.evaluate_s", "s"),
    ("geometry.area_from_polar_metric_s", "s"),
    ("geometry.radiality_deviation_calls", "count"),
    ("geometry.radiality_deviation_s", "s"),
    ("geometry.mean_curvature_field_calls", "count"),
    ("moments.run_until_converged_s", "s"),
    ("moments.levels", "count"),
    ("moments.unconverged", "count"),
    ("oracle.shoot_radial_lambda1_s", "s"),
    ("oracle.shoot_bisection_sweeps", "count"),
    ("oracle.shoot_timeouts", "count"),
    ("oracle.build_discrete_laplacian_s", "s"),
    ("oracle.splu_s", "s"),
    ("oracle.lu_nnz", "count"),
    ("oracle.inverse_iterations", "count"),
    ("oracle.eigen_2d_polar_s", "s"),
    ("compare.cheng_report_s", "s"),
    ("compare.equality_criterion_s", "s"),
    ("trace.overhead_s", "s"),
]
# Counts that depend only on the inputs; a timed-out op contributes none of them.
WORK_COUNTS = (
    "import.scipy_modules",
    "exprparse.evaluate_calls",
    "geometry.radiality_deviation_calls",
    "geometry.mean_curvature_field_calls",
    "moments.levels",
    "moments.unconverged",
    "oracle.shoot_bisection_sweeps",
    "oracle.lu_nnz",
    "oracle.inverse_iterations",
)


class OpTimeout(BaseException):
    """Raised into an op whose wall-clock budget is spent.

    A BaseException, so that ``except Exception`` in the program cannot
    swallow it.
    """


class Tracer:
    """Spans and counts of one op."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def record(self) -> dict:
        return {"op": self.op, "spans": self.spans, "counts": dict(self.counts)}

    def add_span(self, name: str, start: float, end: float | None) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"op": self.op, "id": len(self.spans), "parent": parent, "name": name,
             "start": start, "end": end, "error": None}
        )

    def _span(self, name: str, fn):
        hook = RESULT_HOOKS.get(name)

        def wrapper(*args, **kwargs):
            self.add_span(name, time.perf_counter(), None)
            span = self.spans[-1]
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            except OpTimeout:
                span["error"] = "timeout"
                raise
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(result, self.counts)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counts[name + "_calls"] += 1
                self.counts[name + "_s"] += time.perf_counter() - start

        return wrapper

    def install(self) -> None:
        """Wrap every traced callable in every loaded ballbound namespace."""
        modules = [m for name, m in sys.modules.items() if name == "ballbound" or name.startswith("ballbound.")]
        for table, make in ((SPANNED, self._span), (COUNTED, self._counted)):
            for (module, attr), name in table.items():
                original = getattr(sys.modules[module], attr)
                wrapper = make(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)


def scipy_module_count() -> int:
    return sum(1 for name in sys.modules if name == "scipy" or name.startswith("scipy."))


def op_layers(record: dict, timed_out: bool) -> Counter:
    """Per-layer figures of one op record; a timed-out op keeps its times only."""
    spans = record["spans"]
    out: Counter = Counter()
    child_time: Counter = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        duration = s["end"] - s["start"]
        if s["name"] == "cli.main":
            out["cli.self_s"] += duration - child_time[s["id"]]
        elif s["name"] != "import":
            out[s["name"] + "_s"] += duration
        if s["name"] == "oracle.shoot_radial_lambda1" and s["error"] == "timeout":
            out["oracle.shoot_timeouts"] += 1
    for key, value in record["counts"].items():
        if not (timed_out and key in WORK_COUNTS):
            out[key] += value
    return out


def layer_metrics(records: list[tuple[dict, bool]], passes: int, overheads: list[float]) -> dict:
    """Per-layer metrics of a traced run: sums over one pass, averaged over passes.

    ``import.*`` are per process instead: the median import time and the
    scipy module count after import.  ``trace.overhead_s`` is the median of
    traced minus untraced wall over paired ops.
    """
    total: Counter = Counter()
    imports = []
    for record, timed_out in records:
        total.update(op_layers(record, timed_out))
        imports += [s["end"] - s["start"] for s in record["spans"] if s["name"] == "import"]
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name == "import.wall_s":
            value = statistics.median(imports) if imports else 0.0
        elif name == "import.scipy_modules":
            value = max((r["counts"].get(name, 0) for r, _ in records), default=0)
        elif name == "trace.overhead_s":
            value = statistics.median(overheads) if overheads else 0.0
        else:
            value = total[name] / passes
        metrics[name] = {"value": value, "unit": unit}
    return metrics
