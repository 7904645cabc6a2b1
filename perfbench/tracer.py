"""Outside-in layer tracing for the traced benchmark run.

recurlab has no spans of its own, so this module records them from the
outside.  Each hook names a public function of one layer.  While a traced op
runs, every module-level binding of that function inside the imported
``recurlab`` modules is replaced by a wrapper that records a span.  That
covers the call sites as well as the defining module: ``cli`` binds most of
what it calls with ``from ... import``, and a wrapper placed only on the
defining module would never fire for a CLI call.  The CPython cyclic GC is
recorded through ``gc.callbacks`` as the ``runtime`` layer.

A span is ``[name, parent index, start ns, end ns]``.  Spans stay in memory
and are written out when the run ends.  Self time is a span's duration minus
the time its child spans cover.  Counts are read only from call arguments and
return values.  Counting runs inside a ``trace`` span of its own, so the
instrument's cost inside an op is measured rather than charged to a layer.

Each hook is looked up by name at run time.  A hook whose function no longer
exists is reported as missing, and the metrics that only it feeds read null.
So do the counts of a hook whose arguments or result no longer have the
shape its counter reads.
"""

from __future__ import annotations

import gc
import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

ROOT = "op"
GC = "runtime.gc"
COUNTING = "trace"


def _kernel_counts(args, kwargs, hits, acc):
    # intersect_pairs(px, py, pw, lx, ly, lw, ca, cb, start, stop): the pairs
    # tested are (i, j) with start <= i < stop and i < j < len(ca).
    n, start, stop = len(args[6]), args[8], args[9]
    rows = stop - start
    acc.add("geometry.kernel.pairs", rows * (n - 1) - (start + stop - 1) * rows // 2)
    acc.add("geometry.kernel.crossings", len(hits))


def _merge_counts(args, kwargs, arr, acc):
    interior = arr.interior_points
    acc.add("geometry.arrangement.interior_points", len(interior))
    acc.add("geometry.arrangement.concurrent_points", sum(1 for p in interior if len(p.chords) >= 3))
    bits = max(
        (abs(c).bit_length() for triple in [p.triple for p in arr.points] + [p.triple for p in interior]
         for c in triple),
        default=0,
    )
    acc.maximum("geometry.points.max_coord_bits", bits)


def _table_counts(args, kwargs, table, acc):
    acc.add("difference_engine.cells", sum(len(row) for row in table.rows))


def _face_counts(args, kwargs, faces, acc):
    acc.add("geometry.facewalk.faces", faces)


@dataclass(frozen=True)
class Hook:
    """A wrapped function: span name, self-time metric, where to find it."""

    name: str
    metric: str
    locations: tuple[str, ...]
    count: Callable | None = None


def _hooks() -> tuple[Hook, ...]:
    moser = [
        "regions_binomial", "regions_polynomial", "regions_binomial_sum", "moser_polynomial",
        "chord_count", "intersection_count", "euler_counts", "moser_terms",
    ]
    rs, gf, de = "recurlab.recurrence_solver", "recurlab.genfunc_solver", "recurlab.difference_engine"
    arr, pts = "recurlab.geometry.arrangement", "recurlab.geometry.points"
    return (
        *(Hook(f"moser_formulas.{f}", "moser_formulas.s", (f"recurlab.moser_formulas:{f}",))
          for f in moser),
        Hook("difference_engine.build_difference_table", "difference_engine.build_s",
             (f"{de}:build_difference_table",), _table_counts),
        Hook("difference_engine.infer_recurrence", "difference_engine.infer_s",
             (f"{de}:infer_recurrence",)),
        Hook("difference_engine.iterate_recurrence", "difference_engine.iterate_s",
             (f"{de}:iterate_recurrence",)),
        Hook("difference_engine.predict_next", "difference_engine.predict_s", (f"{de}:predict_next",)),
        Hook("recurrence_solver.solve_charpoly", "recurrence_solver.charpoly_s", (f"{rs}:solve_charpoly",)),
        Hook("recurrence_solver.characteristic_polynomial", "recurrence_solver.charpoly_s",
             (f"{rs}:characteristic_polynomial",)),
        Hook("recurrence_solver.rational_roots", "recurrence_solver.rational_roots_s",
             (f"{rs}:rational_roots",)),
        Hook("recurrence_solver.particular_solution", "recurrence_solver.particular_solution_s",
             (f"{rs}:particular_solution",)),
        Hook("recurrence_solver.gaussian_solve", "recurrence_solver.gaussian_solve_s",
             (f"{rs}:gaussian_solve",)),
        Hook("recurrence_solver.to_moser_variable", "recurrence_solver.to_moser_variable_s",
             (f"{rs}:to_moser_variable",)),
        Hook("genfunc_solver.build_ogf", "genfunc_solver.build_ogf_s", (f"{gf}:build_ogf",)),
        Hook("genfunc_solver.partial_fractions", "genfunc_solver.partial_fractions_s",
             (f"{gf}:partial_fractions",)),
        Hook("genfunc_solver.extract_coefficient_formula", "genfunc_solver.extract_s",
             (f"{gf}:extract_coefficient_formula",)),
        Hook("geometry.points.seeded_parameters", "geometry.points.place_s", (f"{pts}:seeded_parameters",)),
        Hook("geometry.points.generic_parameters", "geometry.points.place_s", (f"{pts}:generic_parameters",)),
        # build_arrangement places the points: it builds, de-duplicates and
        # sorts the CirclePoints by angle.
        Hook("geometry.points.build_arrangement", "geometry.points.place_s", (f"{arr}:build_arrangement",)),
        Hook("geometry.arrangement.generic_arrangement", "geometry.arrangement.other_s",
             (f"{arr}:generic_arrangement",)),
        Hook("geometry.arrangement.verify_against_formula", "geometry.arrangement.other_s",
             (f"{arr}:verify_against_formula",)),
        Hook("geometry.arrangement.chord_lines", "geometry.arrangement.chord_lines_s",
             (f"{arr}:_chord_lines",)),
        Hook("geometry.arrangement.intersect_chords", "geometry.arrangement.merge_s",
             (f"{arr}:intersect_chords",), _merge_counts),
        Hook("geometry.arrangement.count_regions", "geometry.arrangement.count_regions_s",
             (f"{arr}:count_regions",)),
        Hook("geometry.kernel.intersect_pairs", "geometry.kernel.s",
             ("recurlab.geometry._kernel:intersect_pairs",
              "recurlab.geometry._intersect_py:intersect_pairs"), _kernel_counts),
        Hook("geometry.facewalk.count_faces", "geometry.facewalk.s",
             ("recurlab.geometry.facewalk:count_faces",), _face_counts),
    )


HOOKS = _hooks()

# Hooks (or GC) that must fire on every traced op of a workload.
EXPECTED = {
    "verify-sweep": (
        "geometry.points.seeded_parameters", "geometry.points.build_arrangement",
        "geometry.arrangement.generic_arrangement", "geometry.arrangement.verify_against_formula",
        "geometry.arrangement.chord_lines", "geometry.arrangement.intersect_chords",
        "geometry.arrangement.count_regions", "geometry.kernel.intersect_pairs",
        "moser_formulas.regions_binomial", "difference_engine.iterate_recurrence", GC,
    ),
    "regions-large": (
        "geometry.points.seeded_parameters", "geometry.points.build_arrangement",
        "geometry.arrangement.generic_arrangement", "geometry.arrangement.chord_lines",
        "geometry.arrangement.intersect_chords", "geometry.arrangement.count_regions",
        "geometry.kernel.intersect_pairs", GC,
    ),
    "algebra": (
        "difference_engine.build_difference_table", "difference_engine.infer_recurrence",
        "recurrence_solver.solve_charpoly", "recurrence_solver.characteristic_polynomial",
        "recurrence_solver.rational_roots", "recurrence_solver.particular_solution",
        "recurrence_solver.gaussian_solve", "recurrence_solver.to_moser_variable",
        "genfunc_solver.build_ogf", "genfunc_solver.partial_fractions",
        "genfunc_solver.extract_coefficient_formula",
    ),
    "facewalk": ("geometry.facewalk.count_faces",),
}

# Per-layer metrics: name -> (unit, better).  Self times come from spans,
# the rest from counts.
METRICS = {
    "cli.self_s": ("s", "lower"),
    "cli.out_bytes": ("bytes", "lower"),
    "moser_formulas.s": ("s", "lower"),
    "moser_formulas.calls": ("count", "lower"),
    "difference_engine.build_s": ("s", "lower"),
    "difference_engine.cells": ("count", "lower"),
    "difference_engine.infer_s": ("s", "lower"),
    "difference_engine.iterate_s": ("s", "lower"),
    "difference_engine.predict_s": ("s", "lower"),
    "recurrence_solver.charpoly_s": ("s", "lower"),
    "recurrence_solver.rational_roots_s": ("s", "lower"),
    "recurrence_solver.particular_solution_s": ("s", "lower"),
    "recurrence_solver.gaussian_solve_s": ("s", "lower"),
    "recurrence_solver.to_moser_variable_s": ("s", "lower"),
    "genfunc_solver.build_ogf_s": ("s", "lower"),
    "genfunc_solver.partial_fractions_s": ("s", "lower"),
    "genfunc_solver.extract_s": ("s", "lower"),
    "geometry.points.place_s": ("s", "lower"),
    "geometry.points.max_coord_bits": ("bits", "lower"),
    "geometry.arrangement.chord_lines_s": ("s", "lower"),
    "geometry.arrangement.merge_s": ("s", "lower"),
    "geometry.arrangement.count_regions_s": ("s", "lower"),
    "geometry.arrangement.other_s": ("s", "lower"),
    "geometry.arrangement.attempts": ("ratio", "lower"),
    "geometry.arrangement.interior_points": ("count", "lower"),
    "geometry.arrangement.concurrent_points": ("count", "lower"),
    "geometry.kernel.s": ("s", "lower"),
    "geometry.kernel.pairs": ("count", "lower"),
    "geometry.kernel.crossings": ("count", "lower"),
    "geometry.kernel.hit_ratio": ("ratio", "higher"),
    "geometry.facewalk.s": ("s", "lower"),
    "geometry.facewalk.faces": ("count", "lower"),
    "runtime.gc_s": ("s", "lower"),
    "runtime.gc_collections": ("count", "lower"),
    "trace.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Metrics computed from a hook's calls or counts, and that hook.
COUNT_SOURCES = {
    "moser_formulas.calls": "moser_formulas.regions_binomial",
    "difference_engine.cells": "difference_engine.build_difference_table",
    "geometry.points.max_coord_bits": "geometry.arrangement.intersect_chords",
    "geometry.arrangement.attempts": "geometry.arrangement.generic_arrangement",
    "geometry.arrangement.interior_points": "geometry.arrangement.intersect_chords",
    "geometry.arrangement.concurrent_points": "geometry.arrangement.intersect_chords",
    "geometry.kernel.pairs": "geometry.kernel.intersect_pairs",
    "geometry.kernel.crossings": "geometry.kernel.intersect_pairs",
    "geometry.kernel.hit_ratio": "geometry.kernel.intersect_pairs",
    "geometry.facewalk.faces": "geometry.facewalk.count_faces",
}


class _Counts:
    """Per-op counters: sums and maxima."""

    def __init__(self):
        self.values: dict[str, int] = {}

    def add(self, name: str, value: int) -> None:
        self.values[name] = self.values.get(name, 0) + value

    def maximum(self, name: str, value: int) -> None:
        self.values[name] = max(self.values.get(name, 0), value)


def _resolve(location: str):
    module_name, _, attr = location.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    fn = getattr(module, attr, None)
    return fn if callable(fn) else None


class Tracer:
    """Records spans and counts for one op at a time."""

    def __init__(self):
        self.clock = time.perf_counter_ns
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = _Counts()
        self.broken: list[str] = []
        self.uncountable: set[str] = set()
        self.originals = {}
        for hook in HOOKS:
            fn = next((f for f in map(_resolve, hook.locations) if f is not None), None)
            if fn is not None:
                self.originals[hook.name] = fn
        self.missing = [h.name for h in HOOKS if h.name not in self.originals]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, hook: Hook, fn):
        spans, stack, clock, count = self.spans, self.stack, self.clock, hook.count
        name = hook.name

        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1], clock(), 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                if stack.pop() != index:
                    self.broken.append(f"span stack out of order leaving {name}")
            if count is not None:
                self._count(name, count, args, kwargs, result)
            return result

        return wrapper

    def _count(self, name, count, args, kwargs, result):
        index = len(self.spans)
        span = [COUNTING, self.stack[-1], self.clock(), 0]
        self.spans.append(span)
        self.stack.append(index)
        try:
            count(args, kwargs, result, self.counts)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            if name not in self.uncountable:
                self.uncountable.add(name)
                print(f"trace: cannot count {name} ({exc!r}); its counts read null", file=sys.stderr)
        finally:
            span[3] = self.clock()
            self.stack.pop()

    def _on_gc(self, phase, info):
        if phase == "start":
            self.stack.append(len(self.spans))
            self.spans.append([GC, self.stack[-2], self.clock(), 0])
        else:
            self.spans[self.stack.pop()][3] = self.clock()

    # -- one op ----------------------------------------------------------

    def run(self, fn, *args):
        """Call ``fn(*args)`` with every hook installed; return its result."""
        self.spans.clear()
        self.stack.clear()
        self.counts = _Counts()
        self.broken.clear()
        wrappers = {id(fn_): self._wrap(hook, fn_) for hook in HOOKS
                    if (fn_ := self.originals.get(hook.name)) is not None}
        by_id = {id(f): f for f in self.originals.values()}
        for name, module in list(sys.modules.items()):
            if name != "recurlab" and not name.startswith("recurlab."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and by_id.get(id(value)) is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        root = [ROOT, -1, 0, 0]
        self.spans.append(root)
        self.stack.append(0)
        root[2] = self.clock()
        gc.callbacks.append(self._on_gc)
        try:
            return fn(*args)
        finally:
            gc.callbacks.remove(self._on_gc)
            root[3] = self.clock()
            self.stack.pop()
            for module, attr, value in self._patched:
                setattr(module, attr, value)
            self._patched.clear()

    def op_record(self, workload: str, scale: float, extra_counts: dict[str, int]) -> dict:
        """Per-op metrics of the op just run, and its self-check failures.

        Times are multiplied by ``scale``, the op's reference seconds per
        wall second.
        """
        spans = self.spans
        covered = [0] * len(spans)
        problems = list(self.broken)
        self.broken.clear()
        for i, (name, parent, start, end) in enumerate(spans):
            if end < start:
                problems.append(f"span {name} never closed")
            if parent >= 0:
                _, _, p_start, p_end = spans[parent]
                if start < p_start or end > p_end:
                    problems.append(f"span {name} lies outside its parent {spans[parent][0]}")
                covered[parent] += end - start
        metric_of = {h.name: h.metric for h in HOOKS}
        metric_of.update({ROOT: "cli.self_s", GC: "runtime.gc_s", COUNTING: "trace.self_s"})
        self_ns: dict[str, int] = {}
        fired: dict[str, int] = {}
        for i, (name, _, start, end) in enumerate(spans):
            own = end - start - covered[i]
            if own < 0:
                problems.append(f"span {name} has negative self time")
            metric = metric_of[name]
            self_ns[metric] = self_ns.get(metric, 0) + own
            fired[name] = fired.get(name, 0) + 1
        op_ns = spans[0][3] - spans[0][2]
        if sum(self_ns.values()) != op_ns:
            problems.append(f"layer self times add to {sum(self_ns.values())} ns, op took {op_ns} ns")
        for name in EXPECTED[workload]:
            if name not in self.missing and not fired.get(name):
                problems.append(f"hook {name} never fired")

        values = {metric: ns * scale / 1e9 for metric, ns in self_ns.items()}
        values.update(self.counts.values)
        values.update(extra_counts)
        values["moser_formulas.calls"] = sum(n for name, n in fired.items() if name.startswith("moser_formulas."))
        values["runtime.gc_collections"] = fired.get(GC, 0)
        arrangements = fired.get("geometry.arrangement.generic_arrangement", 0)
        tries = sum(1 for name, parent, _, _ in spans
                    if name == "geometry.arrangement.intersect_chords" and parent >= 0
                    and spans[parent][0] == "geometry.arrangement.generic_arrangement")
        values["geometry.arrangement.attempts"] = tries / arrangements if arrangements else 0
        pairs = values.get("geometry.kernel.pairs", 0)
        values["geometry.kernel.hit_ratio"] = values.get("geometry.kernel.crossings", 0) / pairs if pairs else 0
        return {"op_s": op_ns * scale / 1e9, "values": values, "problems": problems,
                "spans": [[n, p, s - spans[0][2], e - spans[0][2]] for n, p, s, e in spans]}

    # -- the run ---------------------------------------------------------

    def _available(self, metric: str) -> bool:
        if metric in COUNT_SOURCES:
            source = COUNT_SOURCES[metric]
            return source not in self.missing and source not in self.uncountable
        feeding = [h.name for h in HOOKS if h.metric == metric]
        return not feeding or any(name not in self.missing for name in feeding)

    def metrics(self, records: list[dict], untraced_op_s: list[float]) -> dict:
        """Median per op of each per-layer metric; null where a hook is missing."""
        out = {}
        for metric, (unit, _) in METRICS.items():
            if metric == "trace.overhead_ratio":
                traced = statistics.median(r["op_s"] for r in records)
                value = traced / statistics.median(untraced_op_s) - 1
            elif self._available(metric):
                value = statistics.median(r["values"].get(metric, 0) for r in records)
            else:
                value = None
            out[metric] = {"value": value, "unit": unit}
        return out
