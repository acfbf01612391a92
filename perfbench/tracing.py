"""Spans around the library's public functions, and the per-layer metrics.

``install`` wraps every public function of the six library modules and
rebinds it under every name a caller resolves at call time: the defining
module, each module that did ``from x import y``, and the package
namespace.  Spans (name, start, end, parent) go to flat arrays in memory;
counts are taken at the same boundaries.  ``layer_metrics`` derives the
per-layer times after the run.
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from array import array
from collections import Counter

LAYERS = ("generators", "pagerank", "graph", "census", "limits", "cli")
WORKLOAD_SPAN = "bench.workload"

# per-layer metric -> unit; BENCHMARK.json lists the same names
UNITS = {
    "census.graph_s": "s", "census.roots": "count", "census.classes": "count",
    "census.distinct_ratio": "ratio", "census.limit_s": "s", "census.limit_trees": "count",
    "graph.explore_s": "s", "graph.explore_calls": "count",
    "graph.canonical_s": "s", "graph.canonical_calls": "count",
    "limits.pool_s": "s", "limits.pool_samples": "count", "limits.tree_sample_s": "s",
    "limits.trees": "count", "limits.tree_nodes": "count", "limits.root_rank_s": "s",
    "pagerank.solve_s": "s", "pagerank.truncated_s": "s", "pagerank.check_s": "s",
    "pagerank.iterations": "count", "pagerank.matvecs": "count",
    "pagerank.bytes_computed": "bytes",
    "graph.read_edgelist_s": "s", "graph.write_edgelist_s": "s",
    "graph.edgelist_bytes": "bytes", "pagerank.io_s": "s", "census.io_s": "s",
    "limits.io_s": "s", "generators.generate_s": "s", "generators.edges": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.total_s": "s", "trace.spans": "count", "trace.main_share": "ratio",
    "trace.overhead_s": "s",
    "outputs.identical": "count", "outputs.digested": "count",
}

# span groups whose outermost spans give the inclusive-time metrics
GROUPS = {
    "census.graph_s": {"census.census"},
    "census.limit_s": {"census.census_limit"},
    "graph.explore_s": {"graph.explore_neighborhood"},
    "graph.canonical_s": {"graph.canonical_code"},
    "limits.pool_s": {"cli.limit_pool", "limits.solve_fixed_point_mc",
                      "limits.gw_root_rank_pool"},
    "limits.tree_sample_s": {"limits.sample_gw_limit", "limits.sample_polya_limit",
                             "limits.sample_ctbp_limit"},
    "limits.root_rank_s": {"limits.root_pagerank", "limits.root_pagerank_generalized"},
    "pagerank.solve_s": {"pagerank.solve_pagerank", "pagerank.solve_generalized"},
    "pagerank.truncated_s": {"pagerank.pagerank_truncated"},
    "pagerank.check_s": {"pagerank.truncation_gap", "pagerank.lower_bound_check"},
    "graph.read_edgelist_s": {"graph.read_edgelist"},
    "graph.write_edgelist_s": {"graph.write_edgelist"},
    "pagerank.io_s": {"pagerank.write_scores_csv", "pagerank.read_scores_csv"},
    "census.io_s": {"census.write_census_csv", "census.read_census_csv",
                    "census.write_tail_csv", "census.read_tail_csv"},
    "limits.io_s": {"limits.write_pool_csv", "limits.read_pool_csv",
                    "limits.write_tree_edgelist"},
}
# span counts reported as call counts
CALLS = {"graph.explore_calls": "graph.explore_neighborhood",
         "graph.canonical_calls": "graph.canonical_code"}


def _matvec_bytes(g, count):
    """Computed bytes of `count` CSR mat-vecs plus the offset add: data and
    int32 indices per stored entry, the row pointer, and five n-vectors."""
    return count * (12 * int(g.src.size) + 4 * (g.n + 1) + 40 * g.n)


def _count_solve(counts, args, kwargs, vec):
    counts["pagerank.iterations"] += vec.iterations
    counts["pagerank.matvecs"] += vec.iterations
    counts["pagerank.bytes_computed"] += _matvec_bytes(args[0], vec.iterations)


def _count_truncated(counts, args, kwargs, vec):
    counts["pagerank.matvecs"] += vec.iterations
    counts["pagerank.bytes_computed"] += _matvec_bytes(args[0], vec.iterations)


def _count_generalized(counts, args, kwargs, vec):
    if vec.order == "exact":
        counts["pagerank.iterations"] += vec.iterations
    _count_truncated(counts, args, kwargs, vec)


def _count_census(counts, args, kwargs, result):
    counts["census.roots"] += result.total
    counts["census.classes"] += len(result.counts)


def _count_limit_census(counts, args, kwargs, result):
    counts["census.limit_trees"] += result.total


def _count_tree(counts, args, kwargs, tree):
    counts["limits.tree_nodes"] += tree.size


def _count_file(counts, args, kwargs, result):
    path = kwargs.get("path", args[-1])
    counts["graph.edgelist_bytes"] += os.path.getsize(path)


def _count_edges(counts, args, kwargs, result):
    g = result[0] if isinstance(result, tuple) else result
    counts["generators.edges"] += g.total_multiplicity


def _count_pool(counts, args, kwargs, result):
    values = result[0] if isinstance(result, tuple) else result
    counts["limits.pool_samples"] += len(values)


# span name -> (counter, count only when no enclosing span is in this set)
COUNTERS = {
    "pagerank.solve_pagerank": (_count_solve, None),
    "pagerank.pagerank_truncated": (_count_truncated, None),
    "pagerank.solve_generalized": (_count_generalized, None),
    "census.census": (_count_census, None),
    "census.census_limit": (_count_limit_census, None),
    "limits.sample_gw_limit": (_count_tree, None),
    "limits.sample_polya_limit": (_count_tree, None),
    "limits.sample_ctbp_limit": (_count_tree, None),
    "graph.read_edgelist": (_count_file, None),
    "graph.write_edgelist": (_count_file, None),
    "generators.gen_dcm": (_count_edges, None),
    "generators.gen_irg": (_count_edges, None),
    "generators.gen_dpa": (_count_edges, None),
    "generators.gen_ctbp_tree": (_count_edges, None),
    **{name: (_count_pool, GROUPS["limits.pool_s"]) for name in GROUPS["limits.pool_s"]},
}


class Tracer:
    """In-memory span recorder; parents are the spans open at call time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _inside(self, names):
        return any(self.names[self.name[i]] in names for i in self._stack[1:])

    def wrap(self, span_name, fn):
        name_id = self.name_id(span_name)
        counter, outer_only = COUNTERS.get(span_name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None and not (outer_only and self._inside(outer_only)):
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def write_tsv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]!r}\t"
                         f"{self.end[i]!r}\t{self.parent[i]}\n")


def install(tracer: Tracer):
    """Wrap the library's public functions; returns an undo function."""
    package = sys.modules["pagerank_limits"]
    # the package attribute `census` is the function, so take modules from sys.modules
    modules = {layer: sys.modules[f"pagerank_limits.{layer}"] for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    undo = []
    for ns in (package, *modules.values()):
        for attr, obj in list(vars(ns).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, hit[1])
                undo.append((ns, attr, obj))

    def uninstall():
        for ns, attr, obj in undo:
            setattr(ns, attr, obj)

    return uninstall


def layer_metrics(tracer: Tracer, main_metrics) -> dict:
    """Per-layer times and counts from the spans of one traced workload."""
    names = [tracer.names[i] for i in tracer.name]
    parent, start, end = tracer.parent, tracer.start, tracer.end
    group_of = {name: key for key, group in GROUPS.items() for name in group}
    keys = [group_of.get(n) or ("generators.generate_s" if n.startswith("generators.")
                                else None) for n in names]
    solves = {"pagerank.solve_s", "pagerank.truncated_s"}
    m = dict.fromkeys([*GROUPS, "generators.generate_s"], 0.0)
    m.update({f"{layer}.self_s": 0.0 for layer in LAYERS})
    layer_of = [n.split(".", 1)[0] for n in names]
    self_time = [end[i] - start[i] for i in range(len(names))]
    # groups open among each span's ancestors; parents precede their children
    above = [frozenset()] * len(names)
    for i, key in enumerate(keys):
        dur = end[i] - start[i]
        p = parent[i]
        if p >= 0:
            self_time[p] -= dur
            above[i] = above[p] | {keys[p]} if keys[p] else above[p]
        if key and key not in above[i]:
            m[key] += dur
            # checks re-solve when not handed a solution; that is solve time
            if key in solves and "pagerank.check_s" in above[i] and not solves & above[i]:
                m["pagerank.check_s"] -= dur
    for i, layer in enumerate(layer_of):
        if layer in LAYERS:
            m[f"{layer}.self_s"] += self_time[i]
    span_counts = Counter(names)
    for key, span in CALLS.items():
        m[key] = span_counts[span]
    m["limits.trees"] = sum(span_counts[n] for n in GROUPS["limits.tree_sample_s"])
    for key in ("census.roots", "census.classes", "census.limit_trees",
                "limits.pool_samples", "limits.tree_nodes", "pagerank.iterations",
                "pagerank.matvecs", "pagerank.bytes_computed", "graph.edgelist_bytes",
                "generators.edges"):
        m[key] = tracer.counts[key]
    m["census.distinct_ratio"] = (m["census.classes"] / m["census.roots"]
                                  if m["census.roots"] else 0.0)
    total = sum(end[i] - start[i] for i, n in enumerate(names) if n == WORKLOAD_SPAN)
    m["trace.total_s"] = total
    m["trace.spans"] = len(names)
    m["trace.main_share"] = sum(m[k] for k in main_metrics) / total if total else 0.0
    return m


def median_metrics(samples: list[dict]) -> dict:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}
