"""Empirical-distribution machinery: neighborhood censuses, TV/KS, tail index.

A census maps canonical neighborhood codes at a fixed depth to counts, either
over every vertex of a graph or over sampled roots; the same codes tally
truncations of sampled limit trees, so graph and limit sides are directly
comparable by total-variation distance.  Tree roots of a graph are found from
its in-edges alone, tree classes on both sides by level-wise color refinement,
which composes their codes as it goes.  Tail samples carry sorted values for
the CCDF, two-sample Kolmogorov-Smirnov distance and Hill tail-index estimate.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._textio import write_table
from .errors import InputError, SizeError, UsageError
from .graph import (
    _INT64_MAX,
    DEFAULT_CODE_NODE_LIMIT,
    TREE_PREFIX,
    DirectedMultigraph,
    _run_starts,
    canonical_code,
    explore_neighborhood,
    tree_code,
)
from .limits import _FOREST_TREES

__all__ = [
    "NeighborhoodCensus",
    "TailSample",
    "census",
    "censuses",
    "census_limit",
    "tv_distance",
    "ks_distance",
    "ccdf",
    "hill_estimator",
    "write_census_csv",
    "read_census_csv",
    "write_tail_csv",
]


@dataclass
class NeighborhoodCensus:
    """Counts of canonical codes at one depth.

    ``paths`` says how many roots took the batched tree path and how many
    the exact per-root path (empty for censuses read back from CSV).
    """

    depth: int
    counts: Counter
    total: int
    paths: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if sum(self.counts.values()) != self.total:
            raise UsageError("census counts do not sum to the stated total")

    def frequencies(self) -> dict:
        return {code: cnt / self.total for code, cnt in self.counts.items()}


def _census_chunk(g, k, roots):
    counts = Counter()
    for v in roots:
        nbhd = explore_neighborhood(g, int(v), k)
        try:
            counts[canonical_code(nbhd)] += 1
        except SizeError as e:
            raise SizeError(f"root {int(v)}: {e}") from None
    return counts


def census(g: DirectedMultigraph, k: int, sample_count: int | None = None,
           rng=None, workers: int = 1) -> NeighborhoodCensus:
    """Tally canonical codes of depth-k neighborhoods, marks = out-degrees:
    the one-depth case of :func:`censuses`, which says how roots are drawn
    and classed."""
    [(_, cen)] = censuses(g, [k], sample_count, rng, workers)
    return cen


def censuses(g: DirectedMultigraph, depths, sample_count: int | None = None,
             rng=None, workers: int = 1):
    """Census of every depth in ``depths`` over one root set, as an iterator
    of ``(k, NeighborhoodCensus)`` in the order of ``depths``.

    Full sweep over all vertices by default; with ``sample_count`` the roots
    are drawn uniformly without replacement, once for all depths (and not at
    all for an empty ``depths``).  Roots whose depth-k neighborhood is a
    tree of at most ``DEFAULT_CODE_NODE_LIMIT`` nodes take the batched path:
    level-wise color refinement classes them and composes each class's code
    from its children's (see :func:`_tree_codes`).  Every other root takes
    the exact per-root path, explored and canonicalized one by one, which
    ``workers > 1`` splits across processes.

    The depths share their work.  The in-edges are expanded once; the tree
    test runs at the deepest depth, and each shallower depth re-tests only
    the roots that failed a deeper one (a tree at depth K is one at every
    j < K); one refinement to the deepest batched depth feeds every depth's
    codes.  That shared work runs before the first census is yielded, so a
    caller timing each step charges it to the first depth of ``depths``.
    """
    depths = list(depths)
    for k in depths:
        if k < 0:
            raise UsageError(f"depth must be >= 0, got {k}")
    if workers < 1:
        raise UsageError(f"workers must be >= 1, got {workers}")
    if sample_count is not None:
        if rng is None:
            raise UsageError("sampled census needs an rng")
        if not 1 <= sample_count <= g.n:
            raise UsageError(f"sample_count must be in [1, {g.n}]")
    if not depths:
        return iter(())
    roots = (np.arange(g.n) if sample_count is None
             else rng.choice(g.n, size=sample_count, replace=False))
    return _census_steps(g, depths, roots, workers)


def _census_steps(g, depths, roots, workers):
    # in (target, source) order, one edge per unit of multiplicity
    mult = g.mult[g.in_order]
    src = np.repeat(g.src[g.in_order], mult)
    tgt = np.repeat(g.tgt[g.in_order], mult)
    # every tree test before the refinement, whose levels outweigh the test's
    # chunks; a tree at a deeper depth is one here, so only the rest are tested
    tree, deeper = {}, None
    for k in sorted(set(depths), reverse=True):
        if k == 0:
            tree[k] = np.ones(roots.size, dtype=bool)
        elif deeper is None:
            tree[k] = _tree_roots(src, tgt, g.n, k, roots)
        else:
            tree[k] = deeper.copy()
            rest = np.flatnonzero(~deeper)
            if rest.size:
                tree[k][rest] = _tree_roots(src, tgt, g.n, k, roots[rest])
        deeper = tree[k]
    depth = max((k for k in tree if tree[k].any()), default=0)
    levels, ptr, src = _refine(g.d_out, src, tgt, depth)
    del tgt
    for k in depths:
        exact, batched = roots[~tree[k]], roots[tree[k]]
        counts = _exact_counts(g, k, exact, workers)
        if batched.size:
            counts += _tree_codes(g.d_out, levels, ptr, src, k, batched)
        yield k, NeighborhoodCensus(depth=k, counts=counts, total=int(roots.size),
                                    paths={"batched": int(batched.size),
                                           "exact": int(exact.size)})


def _exact_counts(g, k, roots, workers):
    """Counter of the roots' canonical codes, one exploration per root."""
    if workers > 1 and roots.size > 4 * workers:
        # imported here: multiprocessing costs every other caller start-up time
        from concurrent.futures import ProcessPoolExecutor

        chunks = np.array_split(roots, workers)
        counts = Counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_census_chunk, [g] * len(chunks), [k] * len(chunks), chunks):
                counts += part
        return counts
    return _census_chunk(g, k, roots)


def _walk_sums(src, tgt, n, k, cap):
    """Per vertex v, the numbers of walks u -> ... -> v over the edges
    src -> tgt of length <= k and of length <= k + 1, saturated at ``cap``."""
    w = total = np.ones(n)
    for _ in range(k + 1):
        shorter = total
        w = np.minimum(np.bincount(tgt, weights=w[src], minlength=n), cap)
        total = np.minimum(total + w, cap)
    return shorter.astype(np.int64), total.astype(np.int64)


def _in_edges(ptr, v):
    """Back-to-back positions of the in-edges of the vertices ``v``, and their numbers."""
    lo, lens = ptr[v], ptr[v + 1] - ptr[v]
    ends = np.cumsum(lens)
    return np.repeat(lo - (ends - lens), lens) + np.arange(lens.sum()), lens


# budget of walk keys per root chunk when testing for tree neighborhoods
_CHUNK_KEYS = 1 << 16


def _tree_roots(src, tgt, n, k, roots, limit=DEFAULT_CODE_NODE_LIMIT):
    """Mask of roots whose depth-k neighborhood is a tree of <= limit nodes,
    given edges ``src -> tgt`` grouped by target, one per unit of multiplicity:
    the root's in-walks of length <= k end at distinct vertices, at most
    ``limit``, and none of length k + 1 ends at one of them (any other edge
    among them points into a depth-k vertex).
    """
    walks, cost = _walk_sums(src, tgt, n, k, limit + _CHUNK_KEYS)
    cand = np.flatnonzero(walks[roots] <= limit)
    cost = cost[roots[cand]]  # the keys of a root's walks of length <= k + 1
    ptr = np.concatenate(([0], np.cumsum(np.bincount(tgt, minlength=n))))
    mask = np.zeros(roots.size, dtype=bool)
    bounds = np.searchsorted(np.cumsum(cost), np.arange(_CHUNK_KEYS, int(cost.sum()),
                                                        _CHUNK_KEYS))
    for part in np.split(cand, bounds):
        mask[part] = True
        mask[part[_failed_slots(src, ptr, n, k, roots[part])]] = False
    return mask


def _failed_slots(src, ptr, n, k, starts):
    """Positions in ``starts`` of the roots that fail :func:`_tree_roots`'
    test (a repeat among the ends of their in-walks of length <= k, or a
    walk of length k + 1 ending at one of them), given the sources of v's
    in-edges at ``src[ptr[v]:ptr[v+1]]``.

    Walks run as keys ``2 * (slot * n + v)``, plus one for a walk of length
    k + 1, so one sort of all of them puts each closing walk right after its
    end's key: a key equal to the one before it, or a closing key one above
    it, fails its slot.
    """
    slot, v = np.arange(starts.size), starts
    levels = [slot * (2 * n) + 2 * v]
    for length in range(1, k + 2):
        edges, lens = _in_edges(ptr, v)
        slot, v = np.repeat(slot, lens), src[edges]
        levels.append(slot * (2 * n) + 2 * v + (length > k))
    # drop each chunk-sized array before the next is made: they set the peak
    slot = v = edges = lens = None
    keys = np.concatenate(levels)
    levels = None
    keys.sort()
    step = np.diff(keys)
    step -= keys[1:] & 1
    return keys[1:][step == 0] // (2 * n)


def _refine(marks, src, tgt, k, prefix=None):
    """Colors of every depth 0..k by level-wise color refinement of edges
    src -> tgt, which must come grouped by target (``tgt`` non-decreasing).

    ``col_0 = mark`` and ``col_j(v)`` ranks (mark(v), sorted multiset of
    ``col_{j-1}(u)`` over the edges u -> v), one edge per unit of
    multiplicity.  The ranking is exact, with no hashing: vertices are
    grouped by in-degree and their rows ranked whole by :func:`_rank_rows`,
    so two vertices share a color iff their depth-j in-unfoldings are
    isomorphic marked rooted trees.  Each level sorts its neighbour colors
    within each target by one int64 sort of ``tgt * base + color``, which
    keeps the grouping.  Level j >= 1 colors are dense from 0.

    ``prefix[j]``, when given, limits level j to the vertices
    ``0..prefix[j]-1``, whose in-edges must come first and whose sources
    must lie in ``0..prefix[j-1]-1`` (a level-order forest read to a depth
    cut, where level j only needs the nodes within ``k - j`` of a root);
    ``levels[j]`` then holds those vertices' colors alone.  Without it every
    level colors all vertices.  Returns ``(levels, ptr, src)``: the color
    arrays ``levels[j]``, and the sources of v's in-edges at
    ``src[ptr[v]:ptr[v+1]]`` (both None when k is 0).
    """
    n = marks.size
    col = np.asarray(marks, dtype=np.int64)
    levels = [col]
    if k == 0:
        return levels, None, None
    prefix = [n] * (k + 1) if prefix is None else [int(p) for p in prefix]
    indeg = np.bincount(tgt, minlength=n)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(indeg, out=ptr[1:])
    # stable, so each group lists its vertices in increasing order; numpy
    # sorts 16-bit keys by radix, 6-7 times faster than int64 ones
    key = indeg[:prefix[1]]
    if key.size and key.max() < 1 << 16:
        key = key.astype(np.uint16)
    by_deg = np.argsort(key, kind="stable")
    firsts = np.flatnonzero(np.diff(indeg[by_deg], prepend=-1))
    groups = list(zip(indeg[by_deg[firsts]].tolist(), np.split(by_deg, firsts[1:])))
    for j in range(1, k + 1):
        size = prefix[j]
        edges = ptr[size]
        nb = _sorted_by_target(col[src[:edges]], tgt[:edges])
        new = np.empty(size, dtype=np.int64)
        offset = 0
        for d, verts in groups:
            if size < n:
                verts = verts[:np.searchsorted(verts, size)]
                if not verts.size:
                    continue
            # row i is vertex verts[i]'s mark and sorted neighbour colors, column-major
            cols = np.empty((d + 1, verts.size), dtype=np.int64)
            cols[0] = marks[verts]
            cols[1:] = nb[ptr[verts] + np.arange(d)[:, None]]
            ranks, distinct = _rank_rows(cols.T)
            new[verts] = offset + ranks
            offset += distinct
        col = new
        levels.append(col)
    return levels, ptr, src


def _sorted_by_target(vals, tgt):
    """``vals`` sorted within each run of equal ``tgt`` (non-decreasing).

    One sort of the int64 keys ``tgt * base + (vals - lo)``, with ``lo`` and
    ``base - 1`` the least value and the values' span.  Values too wide for
    that (only marks can be) are replaced by their dense ranks first, which
    sort the same.
    """
    if vals.size == 0:
        return vals
    lo, hi, runs = int(vals.min()), int(vals.max()), int(tgt[-1]) + 1
    if runs * (hi - lo + 1) > _INT64_MAX:
        uniq, ranks = np.unique(vals, return_inverse=True)
        if runs * uniq.size > _INT64_MAX:
            raise SizeError(f"{runs} targets with {uniq.size} colors overflow int64 sort keys")
        return uniq[_sorted_by_target(ranks, tgt)]
    off = tgt * (hi - lo + 1) - lo
    key = off + vals
    key.sort()
    key -= off
    return key


def _rank_rows(rows):
    """Dense lexicographic ranks of the rows and their number of distinct
    values (``np.unique(rows, axis=0)`` without its slow void-typed sort).

    A single row has rank 0.  Rows that :func:`_packed_rows` packs into one
    int64 key each are ranked through the keys: by counting when the key
    range is at most twice the number of rows, else by one ``np.unique``
    (counting is 2-3.5 times faster at that range for 100 to 30 000 rows
    and breaks even near 8 times the rows; BENCH_13.json).
    Only rows too wide to pack (the product of their column spans reaches
    2^62, which takes hub in-degrees or wide marks) fall back to a
    multi-key ``np.lexsort``.  Column-major ``rows`` are the fast layout.
    """
    m = len(rows)
    if m == 1:
        return np.zeros(1, dtype=np.int64), 1
    packed = _packed_rows(rows)
    if packed is None:
        order = np.lexsort(rows.T[::-1])
        srt = rows[order]
        step = np.zeros(m, dtype=np.int64)
        step[1:] = (srt[1:] != srt[:-1]).any(axis=1)
        ranks = np.empty(m, dtype=np.int64)
        ranks[order] = np.cumsum(step)
        return ranks, int(step.sum()) + 1
    keys, size = packed
    if size <= 2 * m:
        # mark the keys present, then number them in increasing order
        rank = np.zeros(size, dtype=np.int64)
        rank[keys] = 1
        np.cumsum(rank, out=rank)
        return rank[keys] - 1, int(rank[-1])
    uniq, ranks = np.unique(keys, return_inverse=True)
    return ranks, uniq.size


def _packed_rows(rows):
    """``(keys, size)``: one mixed-radix int64 key in [0, size) per row,
    ordered as the rows are lexicographically, or None when they do not fit.

    Column c contributes ``(rows[:, c] - lo_c) * radix_c``, with ``radix_c``
    the product of the spans ``max - min + 1`` of the columns after c, and
    ``size`` is the product of all spans.  The keys fit when ``size`` stays
    below 2^62 (checked in floating point, far from the int64 limit).
    """
    cols = rows.T
    lo = cols.min(axis=1)
    span = cols.max(axis=1) - lo + 1
    if np.log2(span).sum() >= 62:
        return None
    radix = np.ones_like(span)
    np.cumprod(span[:0:-1], out=radix[-2::-1])
    return radix @ (cols - lo[:, None]), int(radix[0] * span[0])


def _tree_codes(marks, levels, ptr, src, k, roots):
    """Counter of the canonical codes of the roots' depth-k in-unfoldings,
    given :func:`_refine`'s ``(levels, ptr, src)`` to depth k or deeper.

    A level-j color's code is :func:`~pagerank_limits.graph.tree_code` of its
    mark and its children's level-(j-1) codes, read off one representative
    vertex per color.  Only the colors the roots reach get a code: a walk
    down from the roots' level-k colors collects them, since a vertex off
    the roots' tree neighborhoods may unfold exponentially.  Codes are then
    built bottom-up, one level at a time, so depth costs no recursion.
    """
    top, sizes = np.unique(levels[k][roots], return_counts=True)
    reached, steps = top, []
    for j in range(k, 0, -1):
        rep = np.empty(int(levels[j].max()) + 1, dtype=np.int64)
        rep[levels[j]] = np.arange(levels[j].size)
        v = rep[reached]
        edges, lens = _in_edges(ptr, v)
        ends = np.cumsum(lens)
        kids = levels[j - 1][src[edges]]
        steps.append((reached, marks[v], ends, kids))
        # np.unique(kids) without its np.ma check, which imports numpy.ma
        reached = np.sort(kids)
        reached = reached[_run_starts(reached)]
    codes = {c: tree_code(c, ()) for c in reached.tolist()}  # level-0 colors are marks
    for colors, mks, ends, kids in reversed(steps):
        kid_codes = [codes[c] for c in kids.tolist()]
        bounds = zip([0, *ends[:-1].tolist()], ends.tolist())
        codes = {c: tree_code(m, kid_codes[a:b])
                 for c, m, (a, b) in zip(colors.tolist(), mks.tolist(), bounds)}
    return Counter({TREE_PREFIX + codes[c]: size for c, size in zip(top.tolist(), sizes.tolist())})


def census_limit(law, k: int, M: int, rng) -> NeighborhoodCensus:
    """Sample M trees of a limit law (see ``limits.limit_law``), truncated to
    depth k, and tally their codes.  ``law.forest(k, m, rng)`` draws them a
    block at a time, stacked in level order, whose levels list their nodes
    by parent: the child -> parent edges come grouped by target, as the
    refinement of :func:`census`'s batched path takes them, and it composes
    the same codes.  A root's depth-k code reads level-j colors only of the
    nodes within k - j of it, which form a prefix of the stack
    (``node_depth`` is non-decreasing), so level j refines that prefix alone.
    """
    if M < 1:
        raise UsageError(f"M must be >= 1, got {M}")
    counts = Counter()
    for first in range(0, M, _FOREST_TREES):
        m = min(_FOREST_TREES, M - first)
        trees = law.forest(k, m, rng)
        # prefix[j]: the nodes at depth <= k - j
        prefix = np.searchsorted(trees.node_depth, np.arange(k, -1, -1), side="right")
        # update, not +=, which rescans the whole tally for nonpositive counts
        counts.update(_tree_codes(trees.mark, *_refine(trees.mark, np.arange(m, trees.size),
                                                       trees.parent[m:], k, prefix),
                                  k, np.arange(m)))
    return NeighborhoodCensus(depth=k, counts=counts, total=M,
                              paths={"batched": M, "exact": 0})


def tv_distance(a: NeighborhoodCensus, b: NeighborhoodCensus) -> float:
    """Half the L1 distance between class frequencies."""
    if a.total == 0 or b.total == 0:
        raise UsageError("TV distance needs nonempty censuses")
    if a.depth != b.depth:
        raise UsageError(f"census depths differ: {a.depth} vs {b.depth}")
    fa = a.frequencies()
    fb = b.frequencies()
    # sorted keys pin the float summation order: symmetric and run-to-run stable
    keys = sorted(set(fa) | set(fb))
    return 0.5 * sum(abs(fa.get(c, 0.0) - fb.get(c, 0.0)) for c in keys)


@dataclass
class TailSample:
    """Sorted nonnegative values."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.sort(np.asarray(self.values, dtype=np.float64))

    @property
    def size(self) -> int:
        return self.values.size


def ks_distance(a: TailSample, b: TailSample) -> float:
    """sup_r |fraction(a > r) - fraction(b > r)| by one merge.

    A stable sort merges the two sorted samples; at the end of each run of
    equal values the running counts of a's and of b's values are those of
    values <= r, and the sup is taken over those run ends only.
    """
    if a.size == 0 or b.size == 0:
        raise UsageError("KS distance needs nonempty samples")
    pts = np.concatenate([a.values, b.values])
    order = np.argsort(pts, kind="stable")
    merged = pts[order]
    tie = merged[1:] == merged[:-1]
    if np.isnan(merged[-1]):
        tie |= np.isnan(merged[:-1])  # NaNs sort last and tie, as in a binary search
    ends = np.flatnonzero(np.append(~tie, True))
    count_a = np.cumsum(order < a.size)[ends]
    fa = count_a / a.size
    fb = (ends + 1 - count_a) / b.size
    return float(np.abs(fa - fb).max())


def ccdf(a: TailSample, thresholds) -> np.ndarray:
    """Fraction of the sample strictly exceeding each threshold."""
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if thresholds.size > 1 and (np.diff(thresholds) < 0).any():
        raise UsageError("thresholds must be sorted ascending")
    if a.size == 0:
        raise UsageError("ccdf needs a nonempty sample")
    above = a.size - np.searchsorted(a.values, thresholds, side="right")
    return above / a.size


def hill_estimator(a: TailSample, top_k: int) -> float:
    """Classical Hill tail-index estimate over the top_k order statistics."""
    if not 2 <= top_k <= a.size // 2:
        raise UsageError(f"top_k must be in [2, {a.size // 2}], got {top_k}")
    ref = float(a.values[a.size - top_k - 1])
    if ref <= 0:
        raise UsageError("nonpositive value in the tail block")
    logs = np.log(a.values[a.size - top_k:] / ref)
    mean = float(logs.mean())
    if mean <= 0:
        raise UsageError("zero log spacings: tail index undefined")
    return 1.0 / mean


# ---------------------------------------------------------------------------
# CSV export


def write_census_csv(c: NeighborhoodCensus, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("code_hex,count\n")
        for code in sorted(c.counts):
            fh.write(f"{code.hex()},{c.counts[code]}\n")


def write_tail_csv(a: TailSample, thresholds, path) -> None:
    """Write the empirical CCDF at the given thresholds as `r,ccdf` rows."""
    write_table(path, "r,ccdf", [np.asarray(thresholds), ccdf(a, thresholds)])


def read_census_csv(path, depth: int) -> NeighborhoodCensus:
    """Read :func:`write_census_csv`'s format; a bad row raises
    ``InputError("<path>: line L: ...")``."""
    counts = Counter()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if header.strip() != "code_hex,count":
            raise UsageError(f"{path}: expected 'code_hex,count' header")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 2:
                raise InputError(f"{path}: line {lineno}: expected 2 fields, got {len(fields)}")
            hexcode, cnt = fields
            try:
                code = bytes.fromhex(hexcode)
            except ValueError:
                raise InputError(f"{path}: line {lineno}: bad hex code {hexcode!r}") from None
            if not (cnt.isascii() and cnt.isdigit() and int(cnt) >= 1):
                raise InputError(f"{path}: line {lineno}: count must be an integer >= 1, "
                                 f"got {cnt!r}")
            if code in counts:
                raise InputError(f"{path}: line {lineno}: repeated code {hexcode}")
            counts[code] = int(cnt)
    return NeighborhoodCensus(depth=depth, counts=counts, total=sum(counts.values()))
