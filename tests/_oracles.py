"""Independent oracles: brute-force and exact-arithmetic reference routes.

Everything here is deliberately dumb: exhaustive bijection search for
isomorphism, literal walk enumeration for truncated scores, dense linear
solves for exact scores, scipy's sparse pull matrix for the vertex-order
PageRank recurrence, Fraction arithmetic for the branching-tree mean,
one exploration plus one canonical code per root or tree for censuses,
color refinement ranked by multi-key ``lexsort``, the line-by-line
str-method edge-list parser, the line-at-a-time file writers and
float-CSV readers, the float writer's word tables from formatted strings,
the dense IRG sampler, the per-edge preferential attachment and event-heap
branching-population samplers (with the enumerated law of their graphs on a
few vertices), and the argsort-and-gather graph build.
None of these shares code with the implementation paths it checks.

It also holds what only tests call: the local pseudodistance and the
truncations it compares, the node-at-a-time branching-tree sampler that
the gw law's forests must match (and a law drawing with it), the per-tree
point-tree and branching-population samplers, the per-tree root rank and
the per-tree limit law they make up (the references for the level-wise
laws), limit trees as neighborhoods, small views of library objects (edge
triples, dangling vertices, the star law, parsed edge lists, neighborhood
invariants), the tail-CSV reader, and the identity checks with any missing
score vector solved for.
"""

import heapq
import math
import re
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np
import scipy.sparse as sp

from pagerank_limits._textio import parse_edges, read_table
from pagerank_limits.errors import (
    ConfigError,
    InputError,
    InvariantViolation,
    ResourceError,
    UsageError,
)
from pagerank_limits.graph import (
    DirectedMultigraph,
    MarkedNeighborhood,
    build_graph,
    canonical_code,
    explore_neighborhood,
)
from pagerank_limits.limits import (
    DEFAULT_NODE_CAP,
    POSITION_FLOOR,
    LimitForest,
    LimitTree,
    PolyaParams,
)
from pagerank_limits.pagerank import (
    GeneralizedWeights,
    PageRankParams,
    check_invariants,
    solve_pagerank,
)


def brute_force_isomorphic(a: MarkedNeighborhood, b: MarkedNeighborhood) -> bool:
    """Try every root-fixing bijection, comparing marks and edge multisets."""
    if a.size != b.size:
        return False
    if sorted(a.marks) != sorted(b.marks):
        return False
    ea = {}
    for u, v, m in a.edges:
        ea[(u, v)] = ea.get((u, v), 0) + m
    eb = {}
    for u, v, m in b.edges:
        eb[(u, v)] = eb.get((u, v), 0) + m
    if len(ea) != len(eb) or sum(ea.values()) != sum(eb.values()):
        return False
    others_a = [i for i in range(a.size) if i != a.root]
    others_b = [i for i in range(b.size) if i != b.root]
    for perm in permutations(others_b):
        gamma = {a.root: b.root}
        gamma.update(zip(others_a, perm))
        if any(a.marks[i] != b.marks[gamma[i]] for i in range(a.size)):
            continue
        if all(ea.get((u, v), 0) == eb.get((gamma[u], gamma[v]), 0) for u, v in ea):
            return True
    return False


def enum_truncated_pagerank(g: DirectedMultigraph, c: float, N: int) -> np.ndarray:
    """Literal enumeration of every walk of length <= N ending at each vertex."""
    preds = [[] for _ in range(g.n)]
    for s, t, m in edge_triples(g):
        preds[t].append((s, m))

    def walk_weights(end, k):
        if k == 0:
            return [1.0]
        out = []
        for j, m in preds[end]:
            w = m / g.d_out[j]
            for rest in walk_weights(j, k - 1):
                out.append(w * rest)
        return out

    scores = np.empty(g.n)
    for i in range(g.n):
        total = 1.0
        for k in range(1, N + 1):
            total += (c ** k) * sum(walk_weights(i, k))
        scores[i] = (1.0 - c) * total
    return scores


def dense_exact_pagerank(g: DirectedMultigraph, c: float) -> np.ndarray:
    """Solve (I - c Q^T) R = (1-c) 1 densely."""
    q = np.zeros((g.n, g.n))
    for s, t, m in edge_triples(g):
        q[s, t] = m / g.d_out[s]
    return np.linalg.solve(np.eye(g.n) - c * q.T, np.full(g.n, 1.0 - c))


def pull_matrix(g: DirectedMultigraph) -> sp.csr_matrix:
    """Sparse P with P[i, j] = e_{j,i} / d_out_j (dangling columns are zero),
    in vertex order: scipy's CSR of the (target, source) coordinates, whose
    rows list their sources in ascending order."""
    return sp.csr_matrix((g.mult / g.d_out[g.src], (g.tgt, g.src)), shape=(g.n, g.n))


def dense_generalized(g: DirectedMultigraph, C, B) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for s, t, m in edge_triples(g):
        a[s, t] = C[s] * m / g.d_out[s]
    return np.linalg.solve(np.eye(g.n) - a.T, np.asarray(B, dtype=float))


def random_small_graph(rng, max_n=8):
    """Random multigraph on <= max_n vertices with mixed density and dangling."""
    n = int(rng.integers(1, max_n + 1))
    edges = []
    density = rng.uniform(0.1, 0.5)
    for s in range(n):
        if rng.random() < 0.2:
            continue  # leave some vertices dangling
        for t in range(n):
            if rng.random() < density:
                edges.append((s, t, int(rng.integers(1, 4))))
    return build_graph(edges, n)


def tree_root_rank_enum(tree, c: float, N: int) -> float:
    """Sum reversed-path weights prod(c/mark) over paths of length <= N."""
    children = [[] for _ in range(tree.size)]
    for i in range(1, tree.size):
        children[int(tree.parent[i])].append(i)

    def down(v, depth):
        total = 1.0
        if depth == N:
            return total
        for u in children[v]:
            total += (c / int(tree.mark[u])) * down(u, depth + 1)
        return total

    return (1.0 - c) * down(0, 0)


def tree_root_rank_enum_generalized(tree, C, B, N: int) -> float:
    """Depth-N root rank with per-node weights ``C``, ``B``, by recursion."""
    children = [[] for _ in range(tree.size)]
    for i in range(1, tree.size):
        children[int(tree.parent[i])].append(i)

    def down(v, depth):
        total = float(B[v])
        if depth == N:
            return total
        for u in children[v]:
            total += (float(C[u]) / int(tree.mark[u])) * down(u, depth + 1)
        return total

    return down(0, 0)


def tree_root_rank_descending(tree, c) -> float:
    """Root rank of the whole tree by one scalar push per node, last node
    first: each parent sums its children's terms from the last child to
    the first.  Standard with damping ``c``, or generalized when ``c`` is a
    (C, B) pair of per-node sequences."""
    C, B = c if isinstance(c, tuple) else ([c] * tree.size, [1.0 - c] * tree.size)
    vals = [float(b) for b in B]
    for i in range(tree.size - 1, 0, -1):
        vals[int(tree.parent[i])] += (float(C[i]) / int(tree.mark[i])) * vals[i]
    return vals[0]


def exact_gw_mean(entries, c: Fraction, N: int) -> Fraction:
    """Exact mean of the depth-N root rank of the branching-tree limit.

    ``entries`` are (h, l, Fraction) triples.  Derivation: one generation
    contributes E[in]*(factor)^{k-1}*t0 per path level, with
    t0 = P(out>=1)/E[out] and factor = E[in * 1{out>=1}]/E[out]; under the
    balanced-mean condition with no mass at out = 0 this collapses to
    1 - c^(N+1).
    """
    mean_out = sum(Fraction(h) * p for h, _, p in entries)
    mean_in = sum(Fraction(l) * p for _, l, p in entries)
    t0 = sum(p for h, _, p in entries if h >= 1) / mean_out
    beta = sum(Fraction(l) * p for h, l, p in entries if h >= 1) / mean_out
    one = Fraction(1)
    if N == 0:
        return one - c
    xi = (one - c) * t0
    for _ in range(N - 1):
        xi = (one - c) * t0 + c * beta * xi
    return (one - c) + c * mean_in * xi


def per_root_census(g: DirectedMultigraph, k: int, roots=None) -> Counter:
    """Canonical-code counts with one exploration per root (all by default)."""
    roots = range(g.n) if roots is None else roots
    return Counter(canonical_code(explore_neighborhood(g, int(v), k)) for v in roots)


def tree_census(trees, k: int) -> Counter:
    """Canonical-code counts of the trees, each truncated to depth k."""
    return Counter(canonical_code(tree_neighborhood(t, k)) for t in trees)


def rank_rows_lexsort(rows):
    """Dense lexicographic ranks of the rows by one multi-key ``lexsort``,
    and the number of distinct rows."""
    order = np.lexsort(rows.T[::-1])
    srt = rows[order]
    step = np.zeros(len(rows), dtype=np.int64)
    step[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    ranks = np.empty(len(rows), dtype=np.int64)
    ranks[order] = np.cumsum(step)
    return ranks, int(step.sum()) + 1


def refine_lexsort(marks, src, tgt, k):
    """Level-wise color refinement of edges src -> tgt in any order.

    Returns ``(levels, ptr, src)`` like ``census._refine``: the edges are
    grouped by a stable sort on the target, each vertex's neighbour colors
    sorted by a two-key ``lexsort``, and each in-degree group's rows
    (mark, sorted colors) ranked by :func:`rank_rows_lexsort`.
    """
    n = marks.size
    col = np.asarray(marks, dtype=np.int64)
    levels = [col]
    if k == 0:
        return levels, None, None
    indeg = np.bincount(tgt, minlength=n)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(indeg, out=ptr[1:])
    by_tgt = np.argsort(tgt, kind="stable")
    src, tgt = src[by_tgt], tgt[by_tgt]
    by_deg = np.argsort(indeg, kind="stable")
    degs, firsts = np.unique(indeg[by_deg], return_index=True)
    groups = list(zip(degs.tolist(), np.split(by_deg, firsts[1:])))
    for _ in range(k):
        nb = col[src]
        nb = nb[np.lexsort((nb, tgt))]
        new = np.empty(n, dtype=np.int64)
        offset = 0
        for d, verts in groups:
            rows = np.empty((verts.size, d + 1), dtype=np.int64)
            rows[:, 0] = marks[verts]
            rows[:, 1:] = nb[ptr[verts, None] + np.arange(d)]
            ranks, distinct = rank_rows_lexsort(rows)
            new[verts] = offset + ranks
            offset += distinct
        col = new
        levels.append(col)
    return levels, ptr, src


_HEADER_RE = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")


def parse_edgelist_reference(text: str):
    """The edge-list grammar spelled with str methods, one line at a time.

    Returns ``(edges, n)`` like ``parse_edgelist``.  Fields go through
    ``int``, so values are unbounded and ``int``'s extras (``_`` separators,
    non-ASCII digits) are accepted.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HEADER_RE.match(line)
            if m:
                n = int(m.group(1))
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise InputError(f"line {lineno}: expected '<source> <target> [multiplicity]'")
        try:
            vals = [int(p) for p in parts]
        except ValueError:
            raise InputError(f"line {lineno}: non-integer field in {line!r}") from None
        edges.append((vals[0], vals[1], vals[2] if len(vals) == 3 else 1))
    return edges, n


def write_edgelist_reference(n, triples, path) -> None:
    """One ``fh.write`` per (source, target, multiplicity) triple."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={n}\n")
        for s, t, m in triples:
            if m == 1:
                fh.write(f"{s} {t}\n")
            else:
                fh.write(f"{s} {t} {m}\n")


def write_tree_edgelist_reference(t, path) -> None:
    """Header, one ``# mark`` line per node, then one child-parent line per node."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={t.size}\n")
        for v in range(t.size):
            fh.write(f"# mark {v} {int(t.mark[v])}\n")
        for v in range(1, t.size):
            fh.write(f"{v} {int(t.parent[v])}\n")


def write_scores_csv_reference(values, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("vertex,score\n")
        for i, v in enumerate(values.tolist()):
            fh.write(f"{i},{v!r}\n")


def write_pool_csv_reference(values, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("value\n")
        for v in np.asarray(values).tolist():
            fh.write(f"{v!r}\n")


def write_tail_csv_reference(thresholds, fractions, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,ccdf\n")
        for r, f in zip(np.asarray(thresholds).tolist(), fractions.tolist()):
            fh.write(f"{r!r},{f!r}\n")


def layout_tables_reference():
    """``_textio._layout_tables`` from formatted strings: ``f"{i:04d}"`` for
    the quads and their trailing zeros, byte strings for the masks, and
    ``f"e{i:+03d}"`` for the exponents, each NUL-padded to its word."""
    def words(texts, size):
        return b"".join(t.encode().ljust(size, b"\0") for t in texts)

    fours = [f"{i:04d}" for i in range(10000)]
    quads = np.frombuffer(words(fours, 4), dtype="<u4")
    zeros = np.array([len(t) - len(t.rstrip("0")) for t in fours], dtype=np.uint8)
    keep = np.frombuffer(b"".join(bytes([255] * min(max(shown - first, 0), 8)).ljust(8, b"\0")
                                  for first in (1, 9) for shown in range(18)),
                         dtype="<u8").reshape(2, 18)
    exponents = np.frombuffer(words([""] + [f"e{i:+03d}" for i in range(-330, 331)], 8),
                              dtype="<u8")
    return quads, zeros, keep, exponents


def read_float_csv_reference(path, header) -> np.ndarray:
    """``float`` of every comma-separated field of each stripped nonblank line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        if fh.readline().strip() != header:
            raise InputError(f"{path}: expected '{header}' header")
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(f) for f in line.split(",")])
    return np.asarray(rows, dtype=np.float64).reshape(len(rows), header.count(",") + 1)


def read_tail_csv(path):
    """The (r, ccdf) columns of ``census.write_tail_csv``'s file."""
    table = read_table(path, "r,ccdf")
    return table[:, 0], table[:, 1]


def irg_cell_probabilities(w_out, w_in, theta, start=0, stop=None):
    """Rows ``[start, stop)`` of the IRG edge probabilities:
    ``p_ij = min(1, (w_out_i w_in_j) / (theta n))`` (NaN where the scale
    overflows against a product that underflows) and ``p_ii = 0``."""
    w_out = np.asarray(w_out, dtype=np.float64)
    w_in = np.asarray(w_in, dtype=np.float64)
    n = w_out.size
    stop = n if stop is None else stop
    scale = 1.0 / (theta * n)
    probs = np.minimum(1.0, np.outer(w_out[start:stop], w_in) * scale)
    rows = np.arange(start, stop)
    probs[rows - start, rows] = 0.0
    return probs


def gen_irg_dense(w_out, w_in, theta, rng):
    """IRG edges from the full probability matrix and one uniform per cell.

    Cells are decided in row-major order, row blocks of about 4M cells at a
    time, each by ``rng.random() < p_ij`` with ``p_ij`` from
    :func:`irg_cell_probabilities`.
    """
    n = np.size(w_out)
    block = max(1, 4_000_000 // max(n, 1))
    srcs, tgts = [], []
    for start in range(0, n, block):
        stop = min(n, start + block)
        probs = irg_cell_probabilities(w_out, w_in, theta, start, stop)
        hit = rng.random(probs.shape) < probs
        bi, bj = np.nonzero(hit)
        srcs.append(bi + start)
        tgts.append(bj)
    src = np.concatenate(srcs) if srcs else np.zeros(0, dtype=np.int64)
    tgt = np.concatenate(tgts) if tgts else np.zeros(0, dtype=np.int64)
    return build_graph((src.astype(np.int64), tgt.astype(np.int64)), n)


def gen_dpa_sequential(n: int, p, rng) -> DirectedMultigraph:
    """Sequential preferential attachment, edges directed young -> old.

    Starts from two vertices with m edges 1 -> 0; each new vertex attaches m
    edges one at a time to old vertex i with probability proportional to
    (total degree of i) + delta, degrees updating within the batch.
    Multi-edges arise naturally; self-loops never.
    """
    if n < 2:
        raise ConfigError(f"n must be >= 2, got {n}")
    m, delta = p.m, p.delta
    srcs = np.empty(m * (n - 1), dtype=np.int64)
    tgts = np.empty(m * (n - 1), dtype=np.int64)
    srcs[:m] = 1
    tgts[:m] = 0
    # one pool entry per unit of old-vertex degree; P(i) ~ degree_i + delta
    pool = [0] * m + [1] * m
    deg = [m, m] + [0] * (n - 2)
    nxt = m
    uniform = rng.random
    randint = rng.integers
    for v in range(2, n):
        for l in range(1, m + 1):
            T = len(pool)
            if delta >= 0:
                r = uniform() * (T + v * delta)
                tgt = pool[int(r)] if r < T else int(randint(v))
            else:
                while True:
                    tgt = pool[int(randint(T))]
                    if uniform() * deg[tgt] < deg[tgt] + delta:
                        break
            srcs[nxt] = v
            tgts[nxt] = tgt
            nxt += 1
            pool.append(tgt)
            deg[tgt] += 1
        pool.extend([v] * m)
        deg[v] += m
    return build_graph((srcs, tgts), n)


def gen_ctbp_tree_sequential(p, target_n: int, rng):
    """Simulate the branching population to target_n individuals.

    Returns the genealogical tree (edges child -> parent) and per-vertex
    birth times.  Event ordering uses exact exponential clocks via a global
    priority queue; no discretization.
    """
    if target_n < 1:
        raise ConfigError(f"target_n must be >= 1, got {target_n}")
    theta = p.rate_base
    parents = [-1]
    births = [0.0]
    state = [0]
    heap = [(rng.exponential(1.0 / theta), 0, 0)]
    seq = 1
    while len(parents) < target_n:
        t, _, parent = heapq.heappop(heap)
        child = len(parents)
        parents.append(parent)
        births.append(t)
        state[parent] += 1
        heapq.heappush(
            heap, (t + rng.exponential(1.0 / (state[parent] + theta)), seq, parent)
        )
        seq += 1
        state.append(0)
        heapq.heappush(heap, (t + rng.exponential(1.0 / theta), seq, child))
        seq += 1
    if target_n == 1:
        g = build_graph([], 1)
    else:
        child_ids = np.arange(1, target_n, dtype=np.int64)
        g = build_graph((child_ids, np.asarray(parents[1:], dtype=np.int64)), target_n)
    return g, np.asarray(births, dtype=np.float64)


def affine_graph_probabilities(n: int, m: int, first_weights, w: float) -> dict:
    """Every graph of the sequential attachment definition on n vertices,
    mapped to its probability: edge triples ``(src, tgt, mult)`` in
    (src, tgt) order.

    Vertices 2..n-1 (``first_weights`` given for vertices 0 and 1 at the
    start) or 1..n-1 (``first_weights`` of vertex 0 alone) each attach m
    edges one at a time to an older vertex i with probability proportional
    to its weight, and each attached edge adds 1 to its target's weight;
    each new vertex starts at weight w.  Preferential attachment with
    (m, delta) is ``first_weights = (m + delta, m + delta)`` and
    ``w = m + delta``, prefixed by the m edges 1 -> 0; the branching
    population's genealogy with rate_base theta is m = 1,
    ``first_weights = (theta,)`` and ``w = theta``.
    """
    start = len(first_weights)
    init = [(1, 0)] * m if start == 2 else []
    out = Counter()

    def grow(v, weights, edges, prob):
        if v == n:
            out[tuple((s, t, k) for (s, t), k in sorted(Counter(edges).items()))] += prob
            return

        def attach(left, weights, edges, prob):
            if not left:
                grow(v + 1, weights + [w], edges, prob)
                return
            total = sum(weights)
            for i, x in enumerate(weights):
                bumped = weights[:i] + [x + 1] + weights[i + 1:]
                attach(left - 1, bumped, edges + [(v, i)], prob * x / total)

        attach(m, weights, edges, prob)

    grow(start, list(first_weights), init, 1.0)
    return dict(out)


_INT64_MAX = 2**63 - 1


def build_graph_reference(edge_list, n: int) -> DirectedMultigraph:
    """``build_graph`` spelled with copies: every input cast by ``astype``,
    the pair keys argsorted and gathered, repeated pairs summed by segment,
    the in-order argsorted from (target, source) keys."""
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")
    if isinstance(edge_list, tuple) and len(edge_list) in (2, 3) and all(
        isinstance(a, np.ndarray) for a in edge_list
    ):
        src = edge_list[0].astype(np.int64)
        tgt = edge_list[1].astype(np.int64)
        mult = (edge_list[2].astype(np.int64) if len(edge_list) == 3
                else np.ones(src.size, dtype=np.int64))
        if src.shape != tgt.shape or src.shape != mult.shape:
            raise InputError("edge arrays must have equal length")
    else:
        triples = []
        for i, e in enumerate(edge_list):
            if len(e) not in (2, 3):
                raise InputError(f"edge {i}: expected (source, target[, multiplicity])")
            triples.append((*e, 1) if len(e) == 2 else tuple(e))
        src, tgt, mult = (np.asarray([t[j] for t in triples], dtype=np.int64)
                          for j in range(3))
    bad = np.nonzero((src < 0) | (src >= n) | (tgt < 0) | (tgt >= n))[0]
    if bad.size:
        i = int(bad[0])
        raise InputError(
            f"edge {i}: vertex id out of range for n={n}: ({int(src[i])}, {int(tgt[i])})"
        )
    bad = np.nonzero(mult < 1)[0]
    if bad.size:
        i = int(bad[0])
        raise InputError(f"edge {i}: multiplicity must be >= 1, got {int(mult[i])}")

    keys = src * np.int64(n) + tgt
    order = np.argsort(keys)
    keys, umult = keys[order], mult[order]
    if keys.size > 1 and not (keys[1:] != keys[:-1]).all():
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        keys = keys[first]
        umult = _segment_sums_reference(
            umult, np.append(first, src.size),
            lambda i: f"pair {divmod(int(keys[i]), n)}: multiplicity")
    usrc, utgt = np.divmod(keys, max(n, 1))

    out_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(usrc, minlength=n), out=out_indptr[1:])
    in_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(utgt, minlength=n), out=in_indptr[1:])
    in_order = np.argsort(utgt * np.int64(n) + usrc)
    d_out = _segment_sums_reference(umult, out_indptr, lambda v: f"vertex {v}: out-degree")
    d_in = _segment_sums_reference(umult[in_order], in_indptr,
                                   lambda v: f"vertex {v}: in-degree")
    return DirectedMultigraph(
        n=n, src=usrc, tgt=utgt, mult=umult, d_in=d_in, d_out=d_out,
        out_indptr=out_indptr, in_indptr=in_indptr, in_order=in_order,
    )


def _segment_sums_reference(values, bounds, name):
    """Python-int sums of ``values[bounds[i]:bounds[i + 1]]``; a sum beyond
    int64 raises ``InputError`` naming ``name(i)``."""
    sums = []
    for i, (a, b) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        total = sum(values[a:b].tolist())
        if total > _INT64_MAX:
            raise InputError(f"{name(i)} {total} exceeds int64")
        sums.append(total)
    return np.asarray(sums, dtype=np.int64)


def edge_triples(g: DirectedMultigraph):
    """Distinct (source, target, multiplicity) triples, lexicographic."""
    return zip(g.src.tolist(), g.tgt.tolist(), g.mult.tolist())


def has_dangling(g: DirectedMultigraph) -> bool:
    return bool((g.d_out == 0).any())


def star_entries(law):
    """Support of p*(h,l) = h p(h,l)/E[out] as (h, l, p*) triples, read
    from the arrays the law samples p* by."""
    law._require_star()
    return list(zip(law._Hs.tolist(), law._Ls.tolist(), law._Ps.tolist()))


def parse_edgelist(text):
    """``(edges, n)`` of the edge-list text: edges as a list of (src, tgt,
    mult), ``n`` the declared vertex count or None."""
    src, tgt, mult, n = parse_edges(text)
    return list(zip(src.tolist(), tgt.tolist(), mult.tolist())), n


def checks(g, params, exact):
    """Each check of ``check_invariants`` on ``exact`` by name, as ``(error,
    value)``: ``error`` None when the identity holds, ``value`` a truncation
    order's ``(mean_gap, bound)``."""
    return {name: (error, value) for name, error, value in check_invariants(g, params, exact)}


def checked_gap(g, params, exact, N):
    """The ``(mean_gap, bound)`` of ``check_invariants`` at order N; raises
    :class:`InvariantViolation` with its error when the bound fails."""
    error, gap = checks(g, params, exact)[f"truncation-bound-N{N}"]
    if error is not None:
        raise InvariantViolation(error)
    return gap


def solved_truncation_gap(g, params, N):
    """:func:`checked_gap` at order N of a solve that records the means up to N."""
    return checked_gap(g, params, solve_pagerank(g, params, with_order=N), N)


def solved_lower_bound_error(g, params, exact=None):
    """The lower-bound error of ``check_invariants``, None when it holds, with
    a missing exact vector solved for."""
    exact = solve_pagerank(g, params) if exact is None else exact
    return checks(g, params, exact)["lower-bound"][0]


def validate_neighborhood(nbhd: MarkedNeighborhood) -> None:
    """Assert the defining invariants: every mark dominates the node's local
    out-degree, and every node is reached from the root by reversed edges
    within the exploration depth."""
    out_mult = [0] * nbhd.size
    children = [[] for _ in range(nbhd.size)]
    for u, v, m in nbhd.edges:
        out_mult[u] += m
        children[v].append(u)
    for i in range(nbhd.size):
        assert nbhd.marks[i] >= out_mult[i], f"node {i}: mark below local out-degree"
    dist = {nbhd.root: 0}
    frontier = [nbhd.root]
    while frontier:
        nxt = []
        for v in frontier:
            for u in children[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    assert len(dist) == nbhd.size, "node unreachable from the root by reversed edges"
    assert max(dist.values()) <= nbhd.depth, "node beyond exploration depth"


def truncate_neighborhood(nbhd: MarkedNeighborhood, j: int) -> MarkedNeighborhood:
    """Depth-j truncation; equals exploring to depth j (discovery order is BFS)."""
    if j >= nbhd.depth and not nbhd.complete:
        if j == nbhd.depth:
            return nbhd
        raise InputError(f"cannot truncate to depth {j}: explored only to {nbhd.depth}")
    cut = next((i for i, d in enumerate(nbhd.node_depths) if d > j), nbhd.size)
    edges = [] if j == 0 else [(u, v, m) for u, v, m in nbhd.edges if u < cut and v < cut]
    return MarkedNeighborhood(
        marks=nbhd.marks[:cut],
        orig_ids=nbhd.orig_ids[:cut],
        node_depths=nbhd.node_depths[:cut],
        edges=edges,
        depth=j,
        complete=nbhd.complete and cut == nbhd.size and len(edges) == len(nbhd.edges),
    )


def local_distance(a: MarkedNeighborhood, b: MarkedNeighborhood) -> Fraction:
    """The local pseudodistance: 1/(1+kappa) for the first depth kappa >= 1
    at which the truncations' canonical codes differ.

    Returns 0 when every comparable truncation agrees; by construction this
    is the distance-zero equivalence of explorable neighborhoods, not
    whole-graph isomorphism.
    """
    horizon = min(math.inf if a.complete else a.depth, math.inf if b.complete else b.depth)
    if horizon is math.inf:
        horizon = max(a.node_depths + b.node_depths) + 1
    for k in range(1, horizon + 1):
        if (canonical_code(truncate_neighborhood(a, k))
                != canonical_code(truncate_neighborhood(b, k))):
            return Fraction(1, 1 + k)
    return Fraction(0)


def sample_gw_trees(law, depth: int, M: int, rng, on_level=None) -> list:
    """M marked branching trees, one Python node at a time, in the draw order
    of the gw law's forests: the M roots' (mark, in-degree) ~ p, then each
    level of all M trees at once ~ p*, every node spawning in-degree
    children, cut at ``depth`` (nodes there keep their marks but spawn
    nothing).  ``on_level(n)``, when given, is called after each level's n
    nodes are drawn."""
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    on_level = on_level or (lambda n: None)
    h, l = law.sample(rng, M)
    on_level(M)
    trees = [([int(h[i])], [-1], [0]) for i in range(M)]  # marks, parents, depths
    level = [(i, 0, int(l[i])) for i in range(M)]  # (tree, node, in-degree)
    for d in range(1, depth + 1):
        total = sum(cnt for _, _, cnt in level)
        if total == 0:
            break
        hs, ls = law.sample_star(rng, total)
        on_level(total)
        pos, nxt = 0, []
        for i, node, cnt in level:
            marks, parents, depths = trees[i]
            for _ in range(cnt):
                nxt.append((i, len(parents), int(ls[pos])))
                parents.append(node)
                marks.append(int(hs[pos]))
                depths.append(d)
                pos += 1
        level = nxt
    return [LimitTree(parent=np.asarray(parents, dtype=np.int64),
                      mark=np.asarray(marks, dtype=np.int64),
                      node_depth=np.asarray(depths, dtype=np.int32),
                      truncation_depth=depth)
            for marks, parents, depths in trees]


def sample_gw_limit(law, depth: int, rng) -> LimitTree:
    """One marked branching tree: :func:`sample_gw_trees` with M = 1."""
    return sample_gw_trees(law, depth, 1, rng)[0]


class GwOracleLaw:
    """``GwLaw``'s trees and forests drawn by :func:`sample_gw_trees`."""

    def __init__(self, law):
        self.law = law

    def tree(self, depth, rng):
        return sample_gw_limit(self.law, depth, rng)

    def forest(self, depth, M, rng):
        return forest_of_trees(sample_gw_trees(self.law, depth, M, rng), depth)


def tree_neighborhood(t: LimitTree, k: int) -> MarkedNeighborhood:
    """Depth-k truncation of the tree as a rooted marked neighborhood."""
    if k < 0:
        raise UsageError(f"depth must be >= 0, got {k}")
    if t.truncation_depth is not None and k > t.truncation_depth:
        raise UsageError(f"tree truncated at depth {t.truncation_depth}, cannot take depth {k}")
    keep = np.nonzero(t.node_depth <= k)[0].tolist()
    local = {v: i for i, v in enumerate(keep)}
    edges = [] if k == 0 else [(i, local[int(t.parent[v])], 1)
                               for i, v in enumerate(keep) if v != 0]
    return MarkedNeighborhood(
        marks=[int(t.mark[v]) for v in keep],
        orig_ids=keep,
        node_depths=[int(t.node_depth[v]) for v in keep],
        edges=edges,
        depth=k,
        complete=t.truncation_depth is None and k >= t.max_depth,
    )


def forest_of_trees(trees, k: int) -> LimitForest:
    """Depth-k truncations of the given trees, back to back."""
    parents, marks, depths = [], [], []
    for t in trees:
        if t.truncation_depth is not None and k > t.truncation_depth:
            raise UsageError(f"tree truncated at depth {t.truncation_depth}, "
                             f"cannot take depth {k}")
        cut = int(np.searchsorted(t.node_depth, k, side="right"))
        parents.append(t.parent[:cut])
        marks.append(t.mark[:cut])
        depths.append(t.node_depth[:cut])
    sizes = np.array([p.size for p in parents], dtype=np.int64)
    start = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=start[1:])
    parent = np.concatenate(parents) + np.repeat(start[:-1], sizes)
    parent[start[:-1]] = -1
    return LimitForest(parent=parent, mark=np.concatenate(marks),
                       node_depth=np.concatenate(depths), start=start, truncation_depth=k)


def trees_of_levels(levels, depth) -> list:
    """The trees whose levels ``levels`` yields (``limits._gw_levels``'
    contract: ``(parent_ptr, mark)`` per level, parents in order), one
    Python node at a time: each tree's nodes listed level by level, in the
    order the levels list them."""
    levels = list(levels)
    trees = [([int(m)], [-1], [0]) for m in levels[0][1]]  # marks, parents, depths
    where = [(i, 0) for i in range(len(trees))]  # each level's (tree, node)
    for d, (parent_ptr, mark) in enumerate(levels[1:], 1):
        nxt = []
        for p, m in zip(parent_ptr.tolist(), mark.tolist()):
            i, node = where[p]
            marks, parents, depths = trees[i]
            nxt.append((i, len(parents)))
            marks.append(m)
            parents.append(node)
            depths.append(d)
        where = nxt
    return [LimitTree(parent=np.asarray(parents, dtype=np.int64),
                      mark=np.asarray(marks, dtype=np.int64),
                      node_depth=np.asarray(depths, dtype=np.int32),
                      truncation_depth=depth)
            for marks, parents, depths in trees]


@dataclass
class SampledTree(LimitTree):
    """A per-tree sampler's tree with its model's columns: positions and
    strengths for the point tree, birth times (plus the window) for the
    branching population."""

    position: np.ndarray | None = None
    strength: np.ndarray | None = None
    birth_time: np.ndarray | None = None
    window: float | None = None


def sample_ctbp_limit(rate_base: float, alpha_star: float, rng,
                      max_nodes: int = DEFAULT_NODE_CAP) -> SampledTree:
    """Branching population restricted to an Exp(alpha_star) window, one
    Python node at a time.

    Draws T ~ Exp(alpha_star) and grows the genealogy of the pure-birth
    process (rate k + rate_base after k children) keeping births before T.
    All marks are 1, including the root.  Finite almost surely; a runaway
    population beyond ``max_nodes`` raises and the caller may redraw.
    """
    theta = rate_base
    if not theta > 0 or not alpha_star > 0:
        raise ConfigError("rate_base and alpha_star must be positive")
    T = rng.exponential(1.0 / alpha_star)
    parents = [-1]
    depths = [0]
    births = [0.0]
    queue = [0]
    qpos = 0
    while qpos < len(queue):
        v = queue[qpos]
        qpos += 1
        t = births[v]
        k = 0
        while True:
            t += rng.exponential(1.0 / (k + theta))
            if t >= T:
                break
            child = len(parents)
            parents.append(v)
            depths.append(depths[v] + 1)
            births.append(t)
            queue.append(child)
            k += 1
            if len(parents) > max_nodes:
                raise ResourceError(
                    f"population exceeded {max_nodes} nodes within the window"
                )
    size = len(parents)
    return SampledTree(
        parent=np.asarray(parents, dtype=np.int64),
        mark=np.ones(size, dtype=np.int64),
        node_depth=np.asarray(depths, dtype=np.int32),
        truncation_depth=None,
        birth_time=np.asarray(births, dtype=np.float64),
        window=float(T),
    )


def sample_polya_limit(p: PolyaParams, depth: int, rng) -> SampledTree:
    """Point tree, one Python node at a time: positions in (0,1], Gamma
    strengths, Poisson offspring.

    The root sits at U^chi; a node at position x with strength g spawns
    Poisson(g (x^-psi - 1)) children, positions i.i.d. with CDF
    (t^psi - x^psi)/(1 - x^psi) on [x, 1].  All marks equal m.  Nodes at the
    truncation depth still draw strengths so their marks stay defined.
    """
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    chi, psi, shape = p.chi, p.psi, p.gamma_shape
    x0 = rng.random() ** chi
    while x0 < POSITION_FLOOR:
        x0 = rng.random() ** chi
    parents = [-1]
    depths = [0]
    positions = [x0]
    strengths = [float(rng.gamma(shape))]
    queue = [0]
    qpos = 0
    while qpos < len(queue):
        v = queue[qpos]
        qpos += 1
        if depths[v] >= depth:
            continue
        x = positions[v]
        lam = strengths[v] * (x ** (-psi) - 1.0)
        count = int(rng.poisson(lam))
        if count == 0:
            continue
        u = rng.random(count)
        xp = x ** psi
        child_pos = (xp + u * (1.0 - xp)) ** (1.0 / psi)
        for i in range(count):
            child = len(parents)
            parents.append(v)
            depths.append(depths[v] + 1)
            positions.append(float(child_pos[i]))
            strengths.append(float(rng.gamma(shape)))
            queue.append(child)
    size = len(parents)
    return SampledTree(
        parent=np.asarray(parents, dtype=np.int64),
        mark=np.full(size, p.m, dtype=np.int64),
        node_depth=np.asarray(depths, dtype=np.int32),
        truncation_depth=depth,
        position=np.asarray(positions, dtype=np.float64),
        strength=np.asarray(strengths, dtype=np.float64),
    )


def root_pagerank(t: LimitTree, c, N: int | None = None) -> float:
    """Truncated root rank R_v = B_v + sum_children (C_u / mark_u) R_u, the
    reversed-path weights up to length N, by one vectorized push per level.

    ``c`` is the damping factor, read as C = c, B = 1 - c at every node, or
    :class:`~pagerank_limits.pagerank.GeneralizedWeights` with one (C, B)
    entry per tree node.  N defaults to the truncation depth, or the whole
    tree when it was not cut.  Each level is pushed in descending node
    order, so a parent sums its children's terms from the last child to the
    first.
    """
    if isinstance(c, GeneralizedWeights):
        if c.C.size != t.size:
            raise ConfigError(f"tree has {t.size} nodes but the weights have {c.C.size}")
        vals, C = c.B.copy(), c.C
    else:
        c = PageRankParams(c=c).c
        vals, C = np.full(t.size, 1.0 - c), np.full(t.size, c)
    if N is None:
        N = t.truncation_depth if t.truncation_depth is not None else t.max_depth
    elif N < 0:
        raise UsageError(f"depth must be >= 0, got {N}")
    elif t.truncation_depth is not None and N > t.truncation_depth:
        raise UsageError(f"tree truncated at depth {t.truncation_depth}, cannot take depth {N}")
    order = np.argsort(t.node_depth, kind="stable")
    starts = np.searchsorted(t.node_depth[order], np.arange(N + 2))
    for d in range(N, 0, -1):
        idx = order[starts[d]:starts[d + 1]][::-1]
        np.add.at(vals, t.parent[idx], C[idx] / t.mark[idx] * vals[idx])
    return float(vals[0])


@dataclass(frozen=True)
class TreeLaw:
    """A limit law drawn one tree at a time by ``tree(depth, rng)``, the
    per-tree reference for ``limits.LimitLaw``: its forest cuts sequential
    draws at the depth, and its pool ranks each tree with
    :func:`root_pagerank` at damping ``c``."""

    tree: Callable

    def forest(self, depth: int, M: int, rng) -> LimitForest:
        return forest_of_trees((self.tree(depth, rng) for _ in range(M)), depth)

    def pool(self, c, depth: int, M: int, rng) -> np.ndarray:
        return np.array([root_pagerank(self.tree(depth, rng), c) for _ in range(M)])
