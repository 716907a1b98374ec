"""Outside-in tracing of kcat0 for the benchmark's traced run.

The benchmark records spans around calls into each kcat0 layer by
replacing, from this file, the functions and methods those layers expose;
nothing under ``src/`` knows it is being traced.  A module function is
replaced at every binding in the package, because ``from .metric import
distance`` copies the name into ``kcat0.cat0`` and ``kcat0.limits``.  The
private sandwich helpers are wrapped too, since ``_sandwich`` looks them up
in its module at call time; a rename under ``src/`` moves their spans.

Spans stay in memory until the run ends.  Each holds its name, start, end,
parent span and query id.  Hot scalar oracles (``DefiningFunction.value``,
the path objective) get counters, not spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# module functions: (home module, attribute, span name)
FUNCTIONS = [
    ("kcat0.planar", "exact_chart", "planar.exact_chart"),
    ("kcat0.planar", "planar_distance", "planar.planar_distance"),
    ("kcat0.metric", "distance", "metric.distance"),
    ("kcat0.metric", "exact_distance", "metric.exact_distance"),
    ("kcat0.metric", "metric_bounds_batch", "metric.metric_bounds_batch"),
    ("kcat0.metric", "_half_plane_lower", "metric.half_plane_lower"),
    ("kcat0.metric", "_slice_upper", "metric.slice_upper"),
    ("kcat0.metric", "_product_inclusion_upper", "metric.inclusion_upper"),
    ("kcat0.metric", "geodesic_approx", "metric.geodesic_approx"),
    ("kcat0.metric", "midpoint_search", "metric.midpoint_search"),
    ("kcat0.cat0", "midpoint_defect", "cat0.midpoint_defect"),
    ("kcat0.cat0", "product_certificate", "cat0.product_certificate"),
    ("kcat0.convexity", "local_m_convex_check", "convexity.local_m_convex_check"),
    ("kcat0.convexity", "line_type", "convexity.line_type"),
    ("kcat0.limits", "hausdorff", "limits.hausdorff"),
    ("kcat0.limits", "frankel_2b", "limits.frankel_2b"),
    ("kcat0.limits", "convergence_check", "limits.convergence_check"),
]

# domain-node methods: attribute -> span name; the scalar and batched
# directional distances share one span name so nesting counts rows once
METHODS = {
    "contains_batch": "domains.contains_batch",
    "delta": "domains.delta",
    "delta_dir": "domains.delta_dir",
    "delta_dir_batch": "domains.delta_dir",
    "slice": "domains.slice",
    "support_upper": "domains.support_upper",
    "boundary_points": "domains.boundary_points",
}

# rows handled by a batched call, read from its arguments
_ROWS = {
    "contains_batch": lambda args: len(args[1]),
    "delta_dir_batch": lambda args: len(args[1]),
    "metric_bounds_batch": lambda args: len(args[1]),
}

_EXACT_TAGS = {"exact-chart", "product-max"}


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, query, rows]
        self.counters: Counter = Counter()
        self.query = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._last_slice_upper: float | None = None
        self._graph_keys: set = set()
        self._graph_ids: dict[int, int] = {}
        self._graph_refs: list = []   # keeps ids unique for the whole pass

    # -- spans ----------------------------------------------------------------

    def begin(self, name: str, rows: int = 1) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.query, rows])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, rows=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name, rows(args) if rows else 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- result hooks (fallback counters read from results) --------------------

    def _after_distance(self, args, iv):
        if iv.lo == iv.hi and not (iv.methods & _EXACT_TAGS):
            self.counters["metric.sandwich.collapsed"] += 1

    def _after_slice_upper(self, args, out):
        self._last_slice_upper = out[0]

    def _after_inclusion_upper(self, args, out):
        # _sandwich keeps the inclusion bound when it beats the slice bound
        # it has just computed
        if out is not None and self._last_slice_upper is not None \
                and out < self._last_slice_upper:
            self.counters["metric.inclusion_upper.wins"] += 1

    def _after_geodesic(self, args, out):
        if "optimizer-no-improvement" in out[1].methods:
            self.counters["metric.geodesic_approx.no_improvement"] += 1

    def _after_graph_support(self, args, out):
        graph, a = args[0], args[1]
        serial = self._graph_ids.setdefault(id(graph), len(self._graph_ids))
        if serial == len(self._graph_refs):
            self._graph_refs.append(graph)
        self.counters["domains.graph_support.calls"] += 1
        self._graph_keys.add((serial, np.asarray(a, dtype=complex).tobytes()))

    def _count(self, fn, counter: str):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_objective(self, fn):
        count = self._count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return count(fn(*args, **kwargs), "metric.path_objective.evals")

        return wrapper

    # -- installation -----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Replace kcat0's entry points with traced wrappers."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "kcat0" or n.startswith("kcat0."))]
        hooks = {"distance": self._after_distance,
                 "_slice_upper": self._after_slice_upper,
                 "_product_inclusion_upper": self._after_inclusion_upper,
                 "geodesic_approx": self._after_geodesic}
        for home, attr, name in FUNCTIONS:
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(original, name, _ROWS.get(attr), hooks.get(attr))
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapper)
        metric = sys.modules["kcat0.metric"]
        self._patch(metric, "_path_objective", self._counting_objective(metric._path_objective))

        domains = sys.modules["kcat0.domains"]
        classes, todo = [], [domains.ConvexDomain]
        while todo:
            cls = todo.pop()
            classes.append(cls)
            todo.extend(cls.__subclasses__())
        for cls in classes:
            for attr, name in METHODS.items():
                if attr in vars(cls):
                    after = self._after_graph_support if (
                        cls is domains.Graph and attr == "support_upper") else None
                    self._patch(cls, attr, self._wrap(vars(cls)[attr], name,
                                                      _ROWS.get(attr), after))
        df = domains.DefiningFunction
        self._patch(df, "value", self._count(df.value, "domains.r_evals"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------

    def graph_distinct_ratio(self) -> float:
        calls = self.counters["domains.graph_support.calls"]
        return len(self._graph_keys) / calls if calls else 0.0

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "query", "rows"],
                       "spans": [[index[s[0]], *s[1:]] for s in self.spans],
                       "counters": dict(self.counters)}, fh, separators=(",", ":"))


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    return [s[2] - s[1] - covered_length(children[i], s[1], s[2])
            for i, s in enumerate(spans)]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, rows and busy time of outermost spans; self time of all.

    A span whose parent has the same name (a node delegating to its members,
    say) is work already counted by that parent, so it adds self time only.
    """
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "rows": 0, "busy_s": 0.0, "self_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        entry = out[s[0]]
        entry["self_s"] += own
        if s[3] < 0 or spans[s[3]][0] != s[0]:
            entry["calls"] += 1
            entry["rows"] += s[5]
            entry["busy_s"] += s[2] - s[1]
    return out
