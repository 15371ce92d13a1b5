"""Outside-in tracer: timing wrappers installed on the program's module
attributes for the traced run only.

Each wrapper replaces a name where its caller looks it up (for example
`slabsum.slab.quantize`, which `decide` calls through its module globals),
so no file of the program changes.  Spans carry a parent and an operation
id, stay in memory, and are written out when the run ends.  A name that a
later commit no longer has is reported as absent instead of failing.
"""

from __future__ import annotations

import importlib
import json
import time

# (module, attribute, span name); the span name's prefix is the layer
WRAPS = (
    ("slabsum.cli", "main", "cli.main"),
    ("slabsum.cli", "read_instance", "instance.read_instance"),
    ("slabsum.slab", "decide", "slab.decide"),
    ("slabsum.slab", "decide_epsilon", "slab.decide_epsilon"),
    ("slabsum.slab", "quantize", "quantize.quantize"),
    ("slabsum.slab", "solve_family", "dp.solve_family"),
    ("slabsum.dp", "dp_run", "dp.dp_run"),
    ("slabsum.dp", "ReachTable", "dp.ReachTable"),
    ("slabsum.sssp", "solve", "sssp.solve"),
    ("slabsum.sssp", "build_shells", "sssp.build_shells"),
    ("slabsum.sssp", "merge_tree", "sssp.merge_tree"),
    ("slabsum.sssp", "correction_grids", "sssp.correction_grids"),
    ("slabsum.sssp", "grid_cardinality", "sssp.grid_cardinality"),
    ("slabsum.sssp", "dp_decide", "sssp.dp_decide"),
    ("slabsum.sssp", "cross_sum", "sssp.cross_sum"),
    ("slabsum.sssp", "exact_l0", "sssp.exact_l0"),
)

GEOMETRY = frozenset({"sssp.build_shells", "sssp.merge_tree",
                      "sssp.correction_grids", "sssp.grid_cardinality"})

CALL_COUNTS = {"sssp.dp_decide": "sssp.witness_calls",
               "sssp.cross_sum": "sssp.cross_sum_calls",
               "sssp.exact_l0": "sssp.l0_checks"}

# per-layer metric -> the span names it needs; absent when any is missing
NEEDS = {
    "cli.self_ms": ("cli.main",),
    "instance.read_ms": ("instance.read_instance",),
    "quantize.ms": ("quantize.quantize",),
    "slab.self_ms": ("slab.decide", "slab.decide_epsilon"),
    "dp.family_ms": ("dp.solve_family",),
    "dp.fill_ms": ("dp.ReachTable",),
    "dp.reconstruct_ms": ("dp.dp_run", "dp.ReachTable"),
    "dp.tables": ("dp.ReachTable",),
    "dp.cells": ("dp.dp_run",),
    "dp.witnesses": ("dp.dp_run",),
    "dp.max_row_bits": ("dp.ReachTable",),
    "dp.wide_tables": ("dp.ReachTable", "ARRAY_KERNEL_MIN_BITS"),
    "dp.cell_rate": ("dp.dp_run", "dp.ReachTable"),
    "sssp.geometry_ms": tuple(sorted(GEOMETRY)),
    "sssp.search_self_ms": ("sssp.solve",),
    "sssp.witness_ms": ("sssp.dp_decide",),
    "sssp.witness_calls": ("sssp.dp_decide",),
    "sssp.cross_sum_ms": ("sssp.cross_sum",),
    "sssp.cross_sum_calls": ("sssp.cross_sum",),
    "sssp.l0_ms": ("sssp.exact_l0",),
    "sssp.l0_checks": ("sssp.exact_l0",),
}

# every per-layer metric a traced run reports, with its unit
PER_LAYER = {
    "cli.self_ms": "ms",
    "instance.read_ms": "ms",
    "quantize.ms": "ms",
    "slab.self_ms": "ms",
    "dp.family_ms": "ms",
    "dp.fill_ms": "ms",
    "dp.reconstruct_ms": "ms",
    "dp.tables": "count",
    "dp.cells": "count",
    "dp.targets_scanned": "count",
    "dp.witnesses": "count",
    "dp.max_row_bits": "bits",
    "dp.wide_tables": "count",
    "dp.cell_rate": "cells/ms",
    "sssp.geometry_ms": "ms",
    "sssp.search_self_ms": "ms",
    "sssp.witness_ms": "ms",
    "sssp.witness_calls": "count",
    "sssp.cross_sum_ms": "ms",
    "sssp.cross_sum_calls": "count",
    "sssp.l0_ms": "ms",
    "sssp.l0_checks": "count",
    "sssp.grid_leaves": "count",
    "sssp.found": "count",
    "trace.overhead_pct": "%",
}

_MISSING = object()


class Tracer:
    """Span recorder; `install` patches the program, `uninstall` restores it."""

    def __init__(self):
        # span: [name, parent index or -1, op id, start ns, end ns, child ns]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self.wide_bits: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.op, time.perf_counter_ns(), 0, 0])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span[4] = time.perf_counter_ns()
        self.stack.pop()
        if span[1] >= 0:
            self.spans[span[1]][5] += span[4] - span[3]

    def _bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, name in WRAPS:
            module = importlib.import_module(module_name)
            orig = getattr(module, attr, _MISSING)
            if orig is _MISSING:
                self.absent.append(name)
                continue
            wrapper = self._wrap_table(orig, name) if isinstance(orig, type) \
                else self._wrap_function(orig, name)
            setattr(module, attr, wrapper)
            self._patches.append((module, attr, orig))
        dp = importlib.import_module("slabsum.dp")
        self.wide_bits = getattr(dp, "ARRAY_KERNEL_MIN_BITS", None)
        if self.wide_bits is None:
            self.absent.append("ARRAY_KERNEL_MIN_BITS")

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    def _wrap_function(self, orig, name: str):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "dp.dp_run":
                tracer._bump("dp.cells", getattr(result, "cells", 0))
                tracer._bump("dp.witnesses", getattr(result, "x", None) is not None)
            elif name in CALL_COUNTS:
                tracer._bump(CALL_COUNTS[name])
            return result

        traced.__wrapped__ = orig
        return traced

    def _wrap_table(self, orig, name: str):
        """Subclass `ReachTable` (the only wrapped class) so isinstance holds."""
        tracer = self

        class Traced(orig):
            def __init__(self, *args, **kwargs):
                idx = tracer._open(name)
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer._close(idx)
                bits = getattr(self, "cap", -1) + 1
                tracer._bump("dp.tables")
                tracer.counts["dp.max_row_bits"] = max(
                    tracer.counts.get("dp.max_row_bits", 0), bits)
                if tracer.wide_bits is not None:
                    tracer._bump("dp.wide_tables", bits >= tracer.wide_bits)

        Traced.__name__ = orig.__name__
        Traced.__qualname__ = orig.__qualname__
        return Traced

    # -- aggregation --------------------------------------------------------

    def take_counts(self) -> dict[str, int]:
        """Counts since the last call: the work of one operation."""
        counts, self.counts = self.counts, {}
        return counts

    def layer_ms(self, ops: int) -> dict[str, float]:
        """Milliseconds per operation in each layer, over every span recorded."""
        total: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        geometry = 0
        for name, parent, _op, start, end, child in self.spans:
            dur = end - start
            total[name] = total.get(name, 0) + dur
            self_ns[name] = self_ns.get(name, 0) + dur - child
            if name in GEOMETRY and (parent < 0 or self.spans[parent][0] not in GEOMETRY):
                geometry += dur
        ns = {
            "cli.self_ms": self_ns.get("cli.main", 0),
            "instance.read_ms": total.get("instance.read_instance", 0),
            "quantize.ms": total.get("quantize.quantize", 0),
            "slab.self_ms": self_ns.get("slab.decide", 0) + self_ns.get("slab.decide_epsilon", 0),
            "dp.family_ms": total.get("dp.solve_family", 0),
            "dp.fill_ms": total.get("dp.ReachTable", 0),
            "dp.reconstruct_ms": self_ns.get("dp.dp_run", 0),
            "sssp.geometry_ms": geometry,
            "sssp.search_self_ms": self_ns.get("sssp.solve", 0),
            "sssp.witness_ms": total.get("sssp.dp_decide", 0),
            "sssp.cross_sum_ms": total.get("sssp.cross_sum", 0),
            "sssp.l0_ms": total.get("sssp.exact_l0", 0),
        }
        return {key: value / 1e6 / ops for key, value in ns.items()}

    def absent_metrics(self) -> set[str]:
        """Per-layer metrics that need a name this commit does not have."""
        missing = set(self.absent)
        return {metric for metric, needs in NEEDS.items() if missing.intersection(needs)}

    def write(self, path, header: dict) -> None:
        """Spans as JSON lines after one header line; times in ms from the first."""
        origin = self.spans[0][3] if self.spans else 0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for idx, (name, parent, op, start, end, _child) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": idx, "name": name, "parent": parent if parent >= 0 else None,
                    "op": op, "start_ms": (start - origin) / 1e6,
                    "end_ms": (end - origin) / 1e6}) + "\n")
