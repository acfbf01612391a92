"""Directed multigraphs, incoming-neighborhood exploration, canonical codes.

The central object is an immutable :class:`DirectedMultigraph` stored as
compressed out- and in-adjacency with per-pair edge multiplicities.
Neighborhoods of a root are explored *against* edge direction (an edge
``j -> i`` is traversed from ``i`` to ``j``), breadth first, and every edge
between two discovered vertices is included in the result.  Each discovered
vertex carries an integer mark, by default its out-degree in the full graph,
which is what makes truncated neighborhoods of different graphs comparable.

Canonical codes realize isomorphism classes of marked rooted neighborhoods:
two neighborhoods map to equal byte strings exactly when a mark- and
root-preserving directed-multigraph isomorphism exists.  Trees (the typical
case for sampled neighborhoods) use a sorted-subtree encoding; everything
else falls back to color refinement with backtracking over residual
symmetry, which is exact but worst-case factorial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._textio import parse_edges, write_edges
from .errors import InputError, SizeError

__all__ = [
    "DirectedMultigraph",
    "MarkedNeighborhood",
    "build_graph",
    "explore_neighborhood",
    "canonical_code",
    "tree_code",
    "read_edgelist",
    "write_edgelist",
]

DEFAULT_CODE_NODE_LIMIT = 10_000
# prefix of a whole tree neighborhood's canonical code (``G`` marks the general path)
TREE_PREFIX = b"T"
_INT64_MAX = 2**63 - 1


@dataclass(frozen=True)
class DirectedMultigraph:
    """Immutable sparse directed multigraph.

    ``src``, ``tgt``, ``mult`` hold the distinct (source, target) pairs in
    lexicographic order together with their multiplicities.  ``in_order``
    is the permutation re-sorting those pairs by (target, source), from
    which the in-adjacency is sliced.
    """

    n: int
    src: np.ndarray
    tgt: np.ndarray
    mult: np.ndarray
    d_in: np.ndarray
    d_out: np.ndarray
    out_indptr: np.ndarray
    in_indptr: np.ndarray
    in_order: np.ndarray

    @property
    def total_multiplicity(self) -> int:
        """Total edge multiplicity (equals total out-degree and total in-degree)."""
        return int(self.mult.sum())

    def out_slice(self, v):
        """(targets, multiplicities) of the out-edges of v."""
        a, b = self.out_indptr[v], self.out_indptr[v + 1]
        return self.tgt[a:b], self.mult[a:b]

    def in_slice(self, v):
        """(sources, multiplicities) of the in-edges of v."""
        a, b = self.in_indptr[v], self.in_indptr[v + 1]
        idx = self.in_order[a:b]
        return self.src[idx], self.mult[idx]


def build_graph(edge_list, n: int) -> DirectedMultigraph:
    """Build an immutable multigraph from (source, target[, multiplicity]) entries.

    Duplicate pairs accumulate multiplicity.  ``edge_list`` may be a sequence
    of tuples or a tuple of parallel arrays ``(src, tgt[, mult])``; arrays
    are read, never written or frozen.  Pairs already in strictly increasing
    (source, target) order, as every edge list this package writes, are not
    sorted.
    """
    if n < 0:
        raise InputError(f"vertex count must be nonnegative, got {n}")
    src, tgt, mult = _normalize_edges(edge_list)
    if src.size and (min(src.min(), tgt.min()) < 0 or max(src.max(), tgt.max()) >= n):
        i = int(np.argmax((src < 0) | (src >= n) | (tgt < 0) | (tgt >= n)))
        raise InputError(
            f"edge {i}: vertex id out of range for n={n}: ({int(src[i])}, {int(tgt[i])})"
        )
    if mult is not None and (mult != 1).any():
        if mult.min() < 1:
            i = int(np.argmax(mult < 1))
            raise InputError(f"edge {i}: multiplicity must be >= 1, got {int(mult[i])}")
    else:
        mult = None  # every multiplicity is 1

    keys = src * np.int64(n)
    keys += tgt
    del src, tgt
    umult = None
    if keys.size > 1 and not (keys[1:] > keys[:-1]).all():
        if mult is None:  # a pair's multiplicity is its run length
            keys.sort()
            first = _run_starts(keys)
            if first.size < keys.size:
                umult = np.diff(first, append=keys.size)
                keys = keys[first]
        else:
            order = np.argsort(keys)
            keys, umult = keys[order], mult[order]
            del order
            first = _run_starts(keys)
            if first.size < keys.size:
                keys = keys[first]
                umult = _segment_sums(umult, np.append(first, umult.size),
                                      lambda i: f"pair {divmod(int(keys[i]), n)}: multiplicity")
        del first
    if umult is None and mult is not None:
        umult = mult.copy()
    del mult
    usrc = keys // max(n, 1)
    utgt = np.remainder(keys, max(n, 1), out=keys)
    del keys

    out_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(usrc, minlength=n), out=out_indptr[1:])
    in_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(utgt, minlength=n), out=in_indptr[1:])
    # the pairs in (target, source) order; the keys are distinct, so any sort
    # gives this one order
    in_keys = utgt * np.int64(n)
    in_keys += usrc
    in_order = np.argsort(in_keys)
    del in_keys
    if umult is None:  # every pair once
        umult = np.ones(usrc.size, dtype=np.int64)
    # degrees: the pair counts, plus m - 1 for each pair of multiplicity m > 1
    d_out, d_in = np.diff(out_indptr), np.diff(in_indptr)
    multi = np.flatnonzero(umult > 1)
    if multi.size and int(umult[multi].max()) > _INT64_MAX // umult.size:
        # a degree may exceed int64
        d_out = _segment_sums(umult, out_indptr, lambda v: f"vertex {v}: out-degree")
        d_in = _segment_sums(umult[in_order], in_indptr, lambda v: f"vertex {v}: in-degree")
    else:
        extra = umult[multi] - 1
        np.add.at(d_out, usrc[multi], extra)
        np.add.at(d_in, utgt[multi], extra)

    for arr in (usrc, utgt, umult, d_in, d_out, out_indptr, in_indptr, in_order):
        arr.setflags(write=False)
    return DirectedMultigraph(
        n=n, src=usrc, tgt=utgt, mult=umult, d_in=d_in, d_out=d_out,
        out_indptr=out_indptr, in_indptr=in_indptr, in_order=in_order,
    )


def _run_starts(keys):
    """Indices where a run of equal entries of the sorted ``keys`` starts."""
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    return np.flatnonzero(new)


def _segment_sums(values, bounds, name):
    """Sums of the nonnegative int64 ``values[bounds[i]:bounds[i + 1]]``, exact.

    Wrapping int64 prefix sums give every segment's sum modulo 2**64, which
    is the sum itself whenever it fits int64.  Only when the total might not
    fit are the segments screened by their float sums and those near 2**63
    summed exactly; one beyond int64 raises ``InputError`` naming ``name(i)``.
    """
    prefix = np.empty(values.size + 1, dtype=np.int64)
    prefix[0] = 0
    np.cumsum(values, out=prefix[1:])
    sums = np.diff(prefix[bounds])
    if values.size and int(values.max()) > _INT64_MAX // values.size:
        segment = np.repeat(np.arange(bounds.size - 1), np.diff(bounds))
        rough = np.bincount(segment, weights=values, minlength=bounds.size - 1)
        for i in np.flatnonzero(rough >= 2.0**62).tolist():
            total = sum(values[bounds[i]:bounds[i + 1]].tolist())
            if total > _INT64_MAX:
                raise InputError(f"{name(i)} {total} exceeds int64")
    return sums


def _normalize_edges(edge_list):
    """(src, tgt, mult) as int64 arrays, int64 input arrays not copied;
    ``mult`` is None for a pair of arrays."""
    if isinstance(edge_list, tuple) and len(edge_list) in (2, 3) and all(
        isinstance(a, np.ndarray) for a in edge_list
    ):
        src, tgt, *mult = (np.asarray(a, dtype=np.int64) for a in edge_list)
        mult = mult[0] if mult else None
        if src.shape != tgt.shape or mult is not None and mult.shape != src.shape:
            raise InputError("edge arrays must have equal length")
        return src, tgt, mult
    srcs, tgts, mults = [], [], []
    for i, e in enumerate(edge_list):
        if len(e) == 2:
            s, t = e
            m = 1
        elif len(e) == 3:
            s, t, m = e
        else:
            raise InputError(f"edge {i}: expected (source, target[, multiplicity])")
        srcs.append(s)
        tgts.append(t)
        mults.append(m)
    return (
        np.asarray(srcs, dtype=np.int64),
        np.asarray(tgts, dtype=np.int64),
        np.asarray(mults, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# edge-list text format


def read_edgelist(path) -> DirectedMultigraph:
    with open(path, "rb") as fh:
        data = fh.read()
    src, tgt, mult, n = parse_edges(data)
    del data
    if n is None:
        n = 1 + int(max(src.max(), tgt.max())) if src.size else 0
    try:
        return build_graph((src, tgt, mult), n)
    except InputError as e:
        raise InputError(f"{path}: {e}") from None


def write_edgelist(g: DirectedMultigraph, path) -> None:
    write_edges(path, g.n, g.src, g.tgt, g.mult)


# ---------------------------------------------------------------------------
# exploration


@dataclass
class MarkedNeighborhood:
    """Finite rooted marked directed multigraph produced by exploration.

    Local node indices follow discovery order, the root is local index 0.
    ``node_depths[i]`` is the number of reversed-edge steps from the root at
    which node i was discovered.  ``complete`` records that the exploration
    exhausted the explorable part strictly within ``depth`` steps, so deeper
    truncations would be identical.
    """

    marks: list
    orig_ids: list
    node_depths: list
    edges: list  # (src_local, tgt_local, multiplicity)
    depth: int
    complete: bool
    root: int = 0

    @property
    def size(self) -> int:
        return len(self.marks)


def explore_neighborhood(g: DirectedMultigraph, root: int, k: int, marks=None) -> MarkedNeighborhood:
    """Breadth-first incoming exploration of depth ``k`` from ``root``.

    At each step the sources of in-edges of active vertices become active
    unless already found; afterwards every edge between two found vertices is
    included.  ``marks`` defaults to the out-degrees of the full graph and
    must dominate them entrywise when given.
    """
    if not 0 <= root < g.n:
        raise InputError(f"root {root} out of range for n={g.n}")
    if k < 0:
        raise InputError(f"depth must be nonnegative, got {k}")
    if marks is None:
        marks_arr = g.d_out
    else:
        marks_arr = np.asarray(marks, dtype=np.int64)
        if marks_arr.shape != (g.n,):
            raise InputError("marks must have one entry per vertex")
        if (marks_arr < g.d_out).any():
            bad = int(np.nonzero(marks_arr < g.d_out)[0][0])
            raise InputError(f"mark of vertex {bad} below its out-degree")

    local = {root: 0}
    order = [root]
    node_depths = [0]
    frontier = [root]
    complete = False
    for h in range(1, k + 1):
        nxt = []
        for v in frontier:
            for u in g.in_slice(v)[0].tolist():
                if u not in local:
                    local[u] = len(order)
                    order.append(u)
                    node_depths.append(h)
                    nxt.append(u)
        frontier = nxt
        if not frontier:
            complete = True
            break
    if k == 0:
        # depth 0 draws no edges, so even a root self-loop makes depth 1 differ
        complete = int(g.in_indptr[root + 1] - g.in_indptr[root]) == 0
    elif not complete:
        complete = all(
            u in local for v in frontier for u in g.in_slice(v)[0].tolist()
        )

    edges = []
    if k > 0:
        for u in order:
            lu = local[u]
            tgts, mults = g.out_slice(u)
            for t, m in zip(tgts.tolist(), mults.tolist()):
                lt = local.get(t)
                if lt is not None:
                    edges.append((lu, lt, m))
    return MarkedNeighborhood(
        marks=[int(marks_arr[v]) for v in order],
        orig_ids=order,
        node_depths=node_depths,
        edges=edges,
        depth=k,
        complete=complete,
    )


# ---------------------------------------------------------------------------
# canonical codes


def canonical_code(nbhd: MarkedNeighborhood, node_limit: int = DEFAULT_CODE_NODE_LIMIT) -> bytes:
    """Deterministic byte encoding, equal iff the neighborhoods are isomorphic.

    Trees (every non-root with a single unit out-edge, root with none) use a
    sorted-subtree encoding prefixed ``T``; the general path prefixed ``G``
    canonicalizes by color refinement with backtracking.  The two prefixes
    keep the code spaces disjoint, and a tree is never isomorphic to a
    non-tree, so the split preserves the iff guarantee.
    """
    size = nbhd.size
    if size > node_limit:
        raise SizeError(f"neighborhood has {size} nodes, above limit {node_limit}")
    tree_children = _as_tree(nbhd)
    if tree_children is not None:
        return TREE_PREFIX + _tree_code(nbhd, tree_children)
    return b"G" + _general_code(nbhd)


def _as_tree(nbhd):
    """Children lists if the neighborhood is a child->parent tree, else None."""
    size = nbhd.size
    out_mult = [0] * size
    parent = [-1] * size
    for u, v, m in nbhd.edges:
        out_mult[u] += m
        parent[u] = v
    if out_mult[nbhd.root] != 0:
        return None
    for i in range(size):
        if i != nbhd.root and out_mult[i] != 1:
            return None
    children = [[] for _ in range(size)]
    for i in range(size):
        if i != nbhd.root:
            children[parent[i]].append(i)
    # reachability from the root along child edges (rules out parent cycles)
    stack = [nbhd.root]
    seen = 1
    visited = [False] * size
    visited[nbhd.root] = True
    while stack:
        v = stack.pop()
        for u in children[v]:
            if not visited[u]:
                visited[u] = True
                seen += 1
                stack.append(u)
    if seen != size:
        return None
    return children


def tree_code(mark: int, child_codes) -> bytes:
    """Code of a marked rooted subtree from its root's mark and the codes of
    its children's subtrees: ``(mark:`` + the child codes, sorted and
    comma-joined, + ``)``.  The one definition of the tree-code format."""
    return b"(%d:" % mark + b",".join(sorted(child_codes)) + b")"


def _tree_code(nbhd, children) -> bytes:
    size = nbhd.size
    # bottom-up by depth; node_depths equal tree depths for tree neighborhoods
    by_depth = {}
    for i, d in enumerate(nbhd.node_depths):
        by_depth.setdefault(d, []).append(i)
    code = [b""] * size
    for d in sorted(by_depth, reverse=True):
        for v in by_depth[d]:
            code[v] = tree_code(nbhd.marks[v], [code[u] for u in children[v]])
    return code[nbhd.root]


_BRANCH_BUDGET = 20_000
_COMPONENT_LIMIT = 8


def _general_code(nbhd) -> bytes:
    size = nbhd.size
    out_adj = [[] for _ in range(size)]
    in_adj = [[] for _ in range(size)]
    for u, v, m in nbhd.edges:
        out_adj[u].append((v, m))
        in_adj[v].append((u, m))
    out_mult = [sum(m for _, m in out_adj[i]) for i in range(size)]
    in_mult = [sum(m for _, m in in_adj[i]) for i in range(size)]

    init = [
        (0 if i == nbhd.root else 1, nbhd.marks[i], nbhd.node_depths[i], out_mult[i], in_mult[i])
        for i in range(size)
    ]
    budget = [_BRANCH_BUDGET]

    def refine(colors):
        ncolors = len(set(colors))
        while True:
            sig = [
                (
                    colors[i],
                    tuple(sorted((colors[v], m) for v, m in out_adj[i])),
                    tuple(sorted((colors[v], m) for v, m in in_adj[i])),
                )
                for i in range(size)
            ]
            colors = _dense_rank(sig)
            new_n = len(set(colors))
            if new_n == ncolors:
                return colors
            ncolors = new_n

    def canon(colors):
        budget[0] -= 1
        if budget[0] < 0:
            raise SizeError("residual symmetry too large to canonicalize")
        colors = refine(colors)
        cells = {}
        for i, c in enumerate(colors):
            cells.setdefault(c, []).append(i)
        if len(cells) == size:
            return _serialize(nbhd, sorted(range(size), key=colors.__getitem__))

        # After refinement every edge leaving the non-singleton set lands on a
        # singleton, so weakly-connected components of that set can only map
        # onto whole components; equal-signature components are automorphic
        # images of each other and their relative order is immaterial.
        loose = [i for i in range(size) if len(cells[colors[i]]) > 1]
        comps = _components(loose, out_adj, in_adj)
        if max(len(c) for c in comps) <= _COMPONENT_LIMIT:
            singles = sorted(
                (i for i in range(size) if len(cells[colors[i]]) == 1),
                key=colors.__getitem__,
            )
            tagged = []
            for comp in comps:
                sig, order = _component_canon(comp, colors, out_adj, in_adj)
                tagged.append((sig, order))
            tagged.sort(key=lambda t: t[0])
            order = singles + [v for _, comp_order in tagged for v in comp_order]
            return _serialize(nbhd, order)

        # oversized entangled component: individualize through the first
        # non-singleton cell and recurse (each step shrinks the components)
        target = cells[min(c for c in cells if len(cells[c]) > 1)]
        best = None
        for v in target:
            branched = [(colors[i], 0 if i == v else 1) for i in range(size)]
            cand = canon(_dense_rank(branched))
            if best is None or cand < best:
                best = cand
        return best

    return canon(refine(_dense_rank(init)))


def _components(vertices, out_adj, in_adj):
    member = set(vertices)
    seen = set()
    comps = []
    for start in vertices:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u, _ in out_adj[v]:
                if u in member and u not in seen:
                    seen.add(u)
                    stack.append(u)
            for u, _ in in_adj[v]:
                if u in member and u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(comp)
    return comps


def _component_canon(comp, colors, out_adj, in_adj):
    """Minimal serialization of one component over color-respecting orders.

    The key records per-position colors, internal edges, and attachment rows
    to (singleton) outside vertices identified by their colors; the minimum
    over permutations within equal-color runs is isomorphism-invariant.
    """
    from itertools import permutations as _perms
    from itertools import product as _product

    comp_set = set(comp)
    members = sorted(comp, key=lambda v: (colors[v], v))
    runs = []
    start = 0
    for i in range(1, len(members) + 1):
        if i == len(members) or colors[members[i]] != colors[members[start]]:
            runs.append(members[start:i])
            start = i
    attach = {}
    for v in comp:
        out_row = tuple(sorted((colors[w], m) for w, m in out_adj[v] if w not in comp_set))
        in_row = tuple(sorted((colors[w], m) for w, m in in_adj[v] if w not in comp_set))
        attach[v] = (out_row, in_row)

    best_key = None
    best_perm = None
    for pieces in _product(*[_perms(run) for run in runs]):
        perm = [v for piece in pieces for v in piece]
        pos = {v: i for i, v in enumerate(perm)}
        internal = sorted(
            (pos[u], pos[w], m)
            for u in comp
            for w, m in out_adj[u]
            if w in comp_set
        )
        key = (
            tuple(colors[v] for v in perm),
            tuple(internal),
            tuple(attach[v] for v in perm),
        )
        if best_key is None or key < best_key:
            best_key = key
            best_perm = perm
    return repr(best_key).encode(), best_perm


def _dense_rank(values):
    ranking = {v: r for r, v in enumerate(sorted(set(values)))}
    return [ranking[v] for v in values]


def _serialize(nbhd, order) -> bytes:
    pos = [0] * nbhd.size
    for canon_idx, node in enumerate(order):
        pos[node] = canon_idx
    marks = ",".join(str(nbhd.marks[v]) for v in order)
    triples = sorted((pos[u], pos[v], m) for u, v, m in nbhd.edges)
    edges = ";".join(f"{a},{b},{m}" for a, b, m in triples)
    return f"{nbhd.size}|{marks}|{edges}".encode()
