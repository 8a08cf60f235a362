"""Span tracer that wraps k0heap's public functions from outside the library.

Each traced function is replaced at every binding where it is looked up
(the defining module and each module that imported the name), so a call
from anywhere in the package records a span.  Private helpers stay
unwrapped.  A span is ``[name, start, end, parent, op, counters]``; spans
stay in memory and are written out once, at the end of the run.  Size
counters are read from arguments and return values after the span closes,
and the time spent reading them is booked to a ``trace.counters`` span so
that it counts against no layer's self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

MODULES = ("category", "cli", "dsl", "heaps", "instances", "lattice", "presentation")


def _max_bits(*sequences) -> int:
    return max((abs(x).bit_length() for seq in sequences for x in seq), default=0)


def _hnf_counters(args, result):
    h, u = result
    nonzero = sum(1 for i in range(h.rows) if any(h.row(i)))
    return {"rows_in": args[0].rows, "rank_kept": nonzero, "max_bits": _max_bits(h.entries, u.entries)}


def _smith_counters(args, result):
    return {"max_bits": _max_bits(result.diagonal, result.left.entries, result.right.entries)}


# (span name, module, attribute or Class.method, counter reader)
TARGETS = (
    ("instances.generate", "instances", "finite_sets_spec", None),
    ("instances.generate", "instances", "vect_spec", None),
    ("instances.generate", "instances", "swindle_spec", None),
    ("instances.generate", "instances", "bounded_abelian_groups_file", None),
    ("dsl.parse_spec", "dsl", "parse_spec", lambda a, r: {"lines": a[0].text.count("\n")}),
    ("dsl.print_spec", "dsl", "print_spec", None),
    ("dsl.parse_bracket_word", "dsl", "parse_bracket_word", None),
    ("category.validate_spec", "category", "validate_spec", None),
    ("category.k0_presentation", "category", "k0_presentation", lambda a, r: {"relations": len(r.relations)}),
    ("category.compare_projection", "category", "compare_projection", None),
    ("presentation.in_relation_lattice", "presentation", "in_relation_lattice", None),
    ("presentation.word_equal", "presentation", "word_equal", None),
    ("presentation.normalize_affine", "presentation", "normalize_affine", None),
    ("presentation.class_coordinates", "presentation", "GroupStructure.class_coordinates", None),
    ("presentation.truss_from_table", "presentation", "truss_from_table", None),
    ("presentation.retract_group_structure", "presentation", "retract_group_structure", None),
    ("lattice.hnf", "lattice", "hnf", _hnf_counters),
    ("lattice.residue", "lattice", "residue", None),
    ("lattice.smith_decomposition", "lattice", "smith_decomposition", _smith_counters),
    ("heaps.FiniteHeapModel", "heaps", "FiniteHeapModel.__post_init__", lambda a, r: {"table_entries": len(a[0].ternary)}),
    ("heaps.GroupModel", "heaps", "GroupModel.__post_init__", lambda a, r: {"table_entries": len(a[0].op)}),
    ("heaps.heap_from_group", "heaps", "heap_from_group", None),
    ("heaps.retract_group", "heaps", "retract_group", None),
    ("heaps.check_heap_morphism", "heaps", "check_heap_morphism", None),
    ("heaps.reduce_word", "heaps", "reduce_word", None),
    ("cli.run_cli", "cli", "run_cli", None),
)

# Spans each workload must record at least once in its traced run.
PREDICTED = {
    "warm-queries": (
        "instances.generate", "dsl.parse_spec", "dsl.print_spec", "dsl.parse_bracket_word",
        "category.validate_spec", "category.k0_presentation", "presentation.in_relation_lattice",
        "presentation.word_equal", "presentation.normalize_affine", "presentation.class_coordinates",
        "presentation.retract_group_structure", "lattice.hnf", "lattice.residue",
        "lattice.smith_decomposition",
    ),
    "cold-cli": (
        "instances.generate", "dsl.parse_spec", "dsl.print_spec", "dsl.parse_bracket_word",
        "category.validate_spec", "category.k0_presentation", "category.compare_projection",
        "presentation.in_relation_lattice", "presentation.word_equal", "presentation.class_coordinates",
        "presentation.truss_from_table", "presentation.retract_group_structure", "lattice.hnf",
        "lattice.residue", "lattice.smith_decomposition", "heaps.reduce_word", "cli.run_cli",
    ),
    "heap-models": (
        "heaps.FiniteHeapModel", "heaps.GroupModel", "heaps.heap_from_group", "heaps.retract_group",
        "heaps.check_heap_morphism",
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1  # id of the benchmark op in flight; -1 during setup
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, result)
                spans.append(["trace.counters", span[2], clock(), span[3], self.op, None])
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target; return the targets the package no longer has."""
        modules = [importlib.import_module("k0heap")]
        modules += [importlib.import_module(f"k0heap.{m}") for m in MODULES]
        owners = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        missing = []
        for name, module, attr, counter in TARGETS:
            owner = owners[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is None or method not in vars(cls):
                    missing.append(f"{module}.{attr}")
                    continue
                setattr(cls, method, self.wrap(name, vars(cls)[method], counter))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module}.{attr}")
                continue
            wrapped = self.wrap(name, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        return missing

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path: str) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def aggregate(spans: list[list]) -> dict[str, dict]:
    """Calls, total and self seconds, summed counters and durations per span name.

    Self time is a span's duration minus that of its direct children.
    ``under_truss`` counts spans nested anywhere inside a truss check.
    """
    child_time = [0.0] * len(spans)
    under_truss = [False] * len(spans)
    for i, (name, start, end, parent, _op, _c) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            under_truss[i] = under_truss[parent] or spans[parent][0] == "presentation.truss_from_table"
    stats: dict[str, dict] = {}
    for i, (name, start, end, _parent, _op, counters) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "under_truss": 0, "durations": []})
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child_time[i]
        s["durations"].append(end - start)
        s["under_truss"] += under_truss[i]
        for key, value in (counters or {}).items():
            if key == "max_bits":
                s[key] = max(s.get(key, 0), value)
            else:
                s[key] = s.get(key, 0) + value
    return stats


def _get(stats, name, key):
    return stats.get(name, {}).get(key, 0)


def _ratio(a, b):
    return a / b if b else 0.0


def _span_metrics(prefix: str, keys: tuple[str, ...]):
    units = {"calls": "count", "self_s": "s"}
    return [(f"{prefix}.{k}", units[k], lambda st, p=prefix, k=k: _get(st, p, k)) for k in keys]


# Per-layer metrics: (name, unit, reader over aggregate()).  cli.startup_ms and
# trace.overhead_ratio need the untraced run too; run.py adds them.
PER_LAYER = [
    *_span_metrics("instances.generate", ("calls", "self_s")),
    *_span_metrics("dsl.parse_spec", ("self_s",)),
    ("dsl.parse_spec.lines", "count", lambda st: _get(st, "dsl.parse_spec", "lines")),
    *_span_metrics("dsl.print_spec", ("self_s",)),
    *_span_metrics("dsl.parse_bracket_word", ("calls", "self_s")),
    *_span_metrics("category.validate_spec", ("self_s",)),
    *_span_metrics("category.k0_presentation", ("self_s",)),
    ("category.relations", "count", lambda st: _get(st, "category.k0_presentation", "relations")),
    *_span_metrics("category.compare_projection", ("self_s",)),
    *_span_metrics("presentation.in_relation_lattice", ("calls", "self_s")),
    (
        "presentation.basis_reuse",
        "ratio",
        lambda st: _ratio(_get(st, "presentation.in_relation_lattice", "calls"), _get(st, "lattice.hnf", "calls")),
    ),
    *_span_metrics("presentation.word_equal", ("self_s",)),
    *_span_metrics("presentation.normalize_affine", ("self_s",)),
    *_span_metrics("presentation.class_coordinates", ("self_s",)),
    *_span_metrics("presentation.truss_from_table", ("self_s",)),
    (
        "presentation.truss_from_table.membership_queries",
        "count",
        lambda st: _get(st, "presentation.in_relation_lattice", "under_truss"),
    ),
    *_span_metrics("presentation.retract_group_structure", ("calls", "self_s")),
    *_span_metrics("lattice.hnf", ("calls", "self_s")),
    ("lattice.hnf.rows_in", "count", lambda st: _get(st, "lattice.hnf", "rows_in")),
    ("lattice.hnf.rank_kept", "count", lambda st: _get(st, "lattice.hnf", "rank_kept")),
    (
        "lattice.hnf.rank_ratio",
        "ratio",
        lambda st: _ratio(_get(st, "lattice.hnf", "rank_kept"), _get(st, "lattice.hnf", "rows_in")),
    ),
    ("lattice.hnf.max_bits", "bits", lambda st: _get(st, "lattice.hnf", "max_bits")),
    *_span_metrics("lattice.residue", ("calls", "self_s")),
    *_span_metrics("lattice.smith_decomposition", ("calls", "self_s")),
    ("lattice.smith_decomposition.max_bits", "bits", lambda st: _get(st, "lattice.smith_decomposition", "max_bits")),
    *_span_metrics("heaps.FiniteHeapModel", ("calls", "self_s")),
    *_span_metrics("heaps.GroupModel", ("self_s",)),
    *_span_metrics("heaps.heap_from_group", ("self_s",)),
    *_span_metrics("heaps.retract_group", ("self_s",)),
    *_span_metrics("heaps.check_heap_morphism", ("self_s",)),
    (
        "heaps.table_entries",
        "count",
        lambda st: _get(st, "heaps.FiniteHeapModel", "table_entries") + _get(st, "heaps.GroupModel", "table_entries"),
    ),
    *_span_metrics("heaps.reduce_word", ("self_s",)),
    *_span_metrics("cli.run_cli", ("self_s",)),
]


def median_duration(stats, name: str) -> float:
    durations = stats.get(name, {}).get("durations")
    return statistics.median(durations) if durations else 0.0
