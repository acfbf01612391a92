"""Samplers of limiting rooted objects and root-rank evaluation on them.

Three limit laws are implemented: the marked branching tree with root law p
and size-biased non-root law p* (configuration-model limit), the branching
population observed over an exponential window (continuous-time trees), and
the position/strength-driven point tree limiting preferential attachment.
The truncated root rank is evaluated by the backward recursion

    R(0) = 1 - c,    R(j)_v = (1 - c) + sum_children (c / mark_u) R(j-1)_u,

identical to summing reversed-path weights, and its generalized form with
per-node (C, B) replaces (c, 1 - c).  Two Monte Carlo routes produce pools
of root-rank samples: direct independent tree sampling (vectorized level by
level) and the endogenous backward pool recursion with resampling; they are
deliberately distinct so each can check the other.  Each law is an object
(:class:`GwLaw`, :class:`TreeLaw`) that :func:`limit_law` looks up by name.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from ._textio import read_table, write_edges, write_table
from .errors import ConfigError, ResourceError, UsageError
from .generators import BiDegreeLaw
from .pagerank import GeneralizedWeights, PageRankParams

__all__ = [
    "LimitTree",
    "LimitForest",
    "GwLaw",
    "TreeLaw",
    "LIMIT_LAWS",
    "limit_law",
    "PolyaParams",
    "malthusian",
    "sample_gw_forest",
    "sample_ctbp_limit",
    "sample_polya_limit",
    "root_pagerank",
    "solve_fixed_point_mc",
    "gw_root_rank_pool",
    "write_pool_csv",
    "read_pool_csv",
    "write_tree_edgelist",
]

logger = logging.getLogger(__name__)

DEFAULT_CTBP_NODE_CAP = 10_000_000
# a polya root below this position is redrawn: its offspring rate x^-psi - 1 explodes
POSITION_FLOOR = 1e-12


@dataclass
class LimitTree:
    """Rooted marked tree sampled from a limiting law.

    Nodes are indexed in breadth-first order (parents before children), node
    0 is the root, ``parent[0] = -1``.  ``truncation_depth`` is the depth at
    which sampling was cut off, or None for a fully sampled finite tree.
    Optional per-node columns carry model-specific data: positions and
    strengths for the point-tree law, birth times (plus the window ``T``)
    for branching populations.
    """

    parent: np.ndarray
    mark: np.ndarray
    node_depth: np.ndarray
    truncation_depth: int | None
    position: np.ndarray | None = None
    strength: np.ndarray | None = None
    birth_time: np.ndarray | None = None
    window: float | None = None

    @property
    def size(self) -> int:
        return self.parent.size

    @property
    def max_depth(self) -> int:
        return int(self.node_depth.max()) if self.size else 0


@dataclass
class LimitForest:
    """Rooted marked trees stored back to back.

    Tree i is nodes ``start[i]:start[i+1]``, parents before children, rooted
    at node ``start[i]``; ``parent`` holds forest-wide indices and -1 at the
    roots.  ``truncation_depth`` is as for :class:`LimitTree`, shared by all
    trees.
    """

    parent: np.ndarray
    mark: np.ndarray
    node_depth: np.ndarray
    start: np.ndarray
    truncation_depth: int | None

    @property
    def roots(self) -> np.ndarray:
        return self.start[:-1]

    def tree(self, i: int) -> LimitTree:
        a, b = int(self.start[i]), int(self.start[i + 1])
        parent = self.parent[a:b] - a
        parent[0] = -1
        return LimitTree(parent=parent, mark=self.mark[a:b],
                         node_depth=self.node_depth[a:b],
                         truncation_depth=self.truncation_depth)

    @classmethod
    def of_trees(cls, trees, k: int) -> "LimitForest":
        """Depth-k truncations of the given trees, back to back."""
        parents, marks, depths = [], [], []
        for t in trees:
            _check_depth(t.truncation_depth, k)
            cut = int(np.searchsorted(t.node_depth, k, side="right"))
            parents.append(t.parent[:cut])
            marks.append(t.mark[:cut])
            depths.append(t.node_depth[:cut])
        sizes = np.array([p.size for p in parents], dtype=np.int64)
        start = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=start[1:])
        parent = np.concatenate(parents) + np.repeat(start[:-1], sizes)
        parent[start[:-1]] = -1
        return cls(parent=parent, mark=np.concatenate(marks),
                   node_depth=np.concatenate(depths), start=start, truncation_depth=k)


@dataclass(frozen=True)
class PolyaParams:
    """Parameters of the point-tree limit of preferential attachment."""

    m: int
    delta: float

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 2:
            raise ConfigError(f"point-tree limit requires integer m >= 2, got {self.m}")
        if not self.delta > -self.m:
            raise ConfigError(f"delta must exceed -m, got {self.delta}")

    @property
    def chi(self) -> float:
        return (self.m + self.delta) / (2 * self.m + self.delta)

    @property
    def psi(self) -> float:
        return (1.0 - self.chi) / self.chi

    @property
    def gamma_shape(self) -> float:
        return self.m + self.delta


# ---------------------------------------------------------------------------
# Malthusian parameter


def malthusian(rate_base: float, tol: float = 1e-12) -> float:
    """Rate a* with E[births before an Exp(a*) time] = 1, by bisection.

    The expected count is m(a) = sum_{k>=1} prod_{i<k} (i+t)/(i+t+a) for
    t = rate_base.  Terms are summed until small; the remainder is added in
    closed form (the sum telescopes exactly), so the evaluation is accurate
    for every a > 1 without astronomically many terms.
    """
    theta = rate_base
    if not theta > 0:
        raise ConfigError(f"rate_base must be positive, got {theta}")
    if not tol > 0:
        raise ConfigError("tol must be positive")

    def mhat(alpha):
        total = 0.0
        term = 1.0
        k = 0
        while True:
            term *= (k + theta) / (k + theta + alpha)
            k += 1
            total += term
            # telescoped remainder sum_{j>k} a_j = a_k (k+theta)/(alpha-1) is
            # exact, so truncation leaves only roundoff; 64 terms is plenty
            rest = term * (k + theta) / (alpha - 1.0)
            if rest < tol * max(total, 1.0) or k >= 64:
                return total + rest

    lo, hi = 1.0 + 1e-12, 1.0 + 2.0 * theta
    if mhat(hi) > 1.0:
        raise ConfigError(f"bisection bracket failed for rate_base={theta}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mhat(mid) > 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    alpha_star = 0.5 * (lo + hi)
    if abs(mhat(alpha_star) - 1.0) > 10.0 * max(tol, 1e-15):
        raise ConfigError(
            f"root verification failed: |m(a*)-1| > 10 tol at a*={alpha_star}"
        )
    return alpha_star


# ---------------------------------------------------------------------------
# limit samplers


def sample_gw_forest(law: BiDegreeLaw, depth: int, M: int, rng) -> LimitForest:
    """M marked branching trees, drawn level by level: root (mark, in-degree)
    ~ p, other nodes ~ p*, every node spawning in-degree children down to
    ``depth`` (nodes there keep their marks but spawn nothing).

    Draws with :func:`_gw_levels`, as :func:`gw_root_rank_pool` does: the
    M roots from p, then one draw from p* per level for the nodes of every
    tree at once.  A stable sort by tree then puts each tree's nodes back
    to back, in breadth-first order.  A forest of one tree draws as that
    tree alone would.
    """
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    if M < 1:
        raise ConfigError(f"forest needs M >= 1 trees, got {M}")
    levels = list(_gw_levels(law, depth, M, rng))
    first = np.cumsum([0] + [mark.size for _, mark in levels])
    # per level: each node's tree, and its parent's index in level order
    tree, up = [np.arange(M)], [np.full(M, -1)]
    for d, (ptr, _) in enumerate(levels[1:]):
        tree.append(tree[-1][ptr])
        up.append(first[d] + ptr)
    # each level lists its nodes by parent, so a stable sort by tree keeps
    # every tree's nodes in breadth-first order
    order = np.argsort(np.concatenate(tree), kind="stable")
    pos = np.empty_like(order)
    pos[order] = np.arange(order.size)
    up = np.concatenate(up)[order]
    node_depth = np.repeat(np.arange(len(levels), dtype=np.int32), np.diff(first))
    return LimitForest(parent=np.where(up < 0, -1, pos[up]),
                       mark=np.concatenate([mark for _, mark in levels])[order],
                       node_depth=node_depth[order], start=np.append(pos[:M], first[-1]),
                       truncation_depth=depth)


def _gw_levels(law, depth, M, rng):
    """Yield ``(parent_ptr, mark)`` for each level 0..depth of M marked
    branching trees, until a level is empty: the roots' (mark, in-degree)
    drawn from p, then each next level's from p*, one draw per level in
    parent order.  ``parent_ptr`` indexes the previous level (None for the
    roots).  Each level is drawn when the generator resumes, so a consumer
    may draw values of its own for a level before asking for the next.
    """
    mark, kids = law.sample(rng, M)
    yield None, mark
    for _ in range(depth):
        if not kids.any():
            return
        parent_ptr = np.repeat(np.arange(kids.size), kids)
        mark, kids = law.sample_star(rng, parent_ptr.size)
        yield parent_ptr, mark


def sample_ctbp_limit(rate_base: float, alpha_star: float, rng,
                      max_nodes: int = DEFAULT_CTBP_NODE_CAP) -> LimitTree:
    """Branching population restricted to an Exp(alpha_star) window.

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
    return LimitTree(
        parent=np.asarray(parents, dtype=np.int64),
        mark=np.ones(size, dtype=np.int64),
        node_depth=np.asarray(depths, dtype=np.int32),
        truncation_depth=None,
        birth_time=np.asarray(births, dtype=np.float64),
        window=float(T),
    )


def sample_polya_limit(p: PolyaParams, depth: int, rng) -> LimitTree:
    """Point tree: positions in (0,1], Gamma strengths, Poisson offspring.

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
        logger.info("root position %g below floor %g; resampling", x0, POSITION_FLOOR)
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
    return LimitTree(
        parent=np.asarray(parents, dtype=np.int64),
        mark=np.full(size, p.m, dtype=np.int64),
        node_depth=np.asarray(depths, dtype=np.int32),
        truncation_depth=depth,
        position=np.asarray(positions, dtype=np.float64),
        strength=np.asarray(strengths, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# root rank evaluation


def _resolve_depth(t: LimitTree, N):
    if N is None:
        return t.truncation_depth if t.truncation_depth is not None else t.max_depth
    _check_depth(t.truncation_depth, N)
    return N


def root_pagerank(t: LimitTree, c, N: int | None = None) -> float:
    """Truncated root rank R_v = B_v + sum_children (C_u / mark_u) R_u, the
    reversed-path weights up to length N.

    ``c`` is the damping factor, read as C = c, B = 1 - c at every node, or
    :class:`~pagerank_limits.pagerank.GeneralizedWeights` with one (C, B)
    entry per tree node.
    """
    if isinstance(c, GeneralizedWeights):
        if c.C.size != t.size:
            raise ConfigError(f"tree has {t.size} nodes but the weights have {c.C.size}")
        vals, C = c.B.copy(), c.C  # _fold adds into vals
    else:
        c = PageRankParams(c=c).c
        vals, C = np.full(t.size, 1.0 - c), np.full(t.size, c)
    _fold(t, vals, C, _resolve_depth(t, N))
    return float(vals[0])


def _fold(forest, vals, C, top: int):
    """Push (C/mark) times each node's value into its parent's, in place,
    from depth ``top`` up; deeper nodes are left out.

    ``forest`` is a :class:`LimitForest`, or a :class:`LimitTree` as a
    forest of one tree, with each tree's nodes in BFS order.  Each level is
    pushed in descending node order, so a parent sums its children's terms
    from the last child to the first: a forest folds bit for bit as each of
    its trees alone.
    """
    order = np.argsort(forest.node_depth, kind="stable")
    starts = np.searchsorted(forest.node_depth[order], np.arange(top + 2))
    for d in range(top, 0, -1):
        idx = order[starts[d]:starts[d + 1]][::-1]
        np.add.at(vals, forest.parent[idx], C[idx] / forest.mark[idx] * vals[idx])


# ---------------------------------------------------------------------------
# Monte Carlo pools of root-rank samples


def _weight_samplers(c, c_sampler, b_sampler):
    """The (C, B) samplers: constant c and 1 - c unless both are given."""
    if c_sampler is None or b_sampler is None:
        if c is None or not 0.0 < c < 1.0:
            raise ConfigError("need damping c in (0,1) when samplers are not given")
        c_sampler = c_sampler or (lambda rng, size: np.full(size, c))
        b_sampler = b_sampler or (lambda rng, size: np.full(size, 1.0 - c))
    return c_sampler, b_sampler


def _check_pool_size(M):
    if M < 1:
        raise ConfigError(f"pool size must be >= 1, got {M}")


def _node_c(C):
    """A pool's drawn node C values as float64, rejected unless all are below 1."""
    C = np.asarray(C, dtype=np.float64)
    if C.size and not float(C.max()) < 1.0:  # NaN fails too
        raise ConfigError(f"max node C must be < 1, got {float(C.max())}")
    return C


def solve_fixed_point_mc(law: BiDegreeLaw, c: float | None, depth: int,
                         pool_size: int, rng,
                         c_sampler=None, b_sampler=None) -> np.ndarray:
    """Endogenous solution of the branching fixed-point equation, by pooling.

    Builds depth-1 backward iterations of the inner recursion

        R* = sum_{i<=N*} (C_i / mark_i) R*_i + B

    starting from the constant pool B (= 1-c by default), resampling child
    (mark, value) pairs jointly from the previous pool, then applies the root
    equation with the un-size-biased law.  The output is distributed as the
    depth-``depth`` root rank; marks are drawn jointly with offspring counts
    so dependent size-biased laws are handled.
    """
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    _check_pool_size(pool_size)
    c_sampler, b_sampler = _weight_samplers(c, c_sampler, b_sampler)
    M = pool_size
    if depth == 0:
        return np.asarray(b_sampler(rng, M), dtype=np.float64)
    marks, _ = law.sample_star(rng, M)
    vals = np.asarray(b_sampler(rng, M), dtype=np.float64)
    for _ in range(depth - 1):
        marks, vals = _pool_step(law.sample_star(rng, M), marks, vals,
                                 c_sampler, b_sampler, rng, M)
    _, vals = _pool_step(law.sample(rng, M), marks, vals, c_sampler, b_sampler, rng, M)
    return vals


def _pool_step(draw, prev_marks, prev_vals, c_sampler, b_sampler, rng, M):
    h, l = draw
    owners = np.repeat(np.arange(M), l)
    idx = rng.integers(0, M, owners.size)
    coef = _node_c(c_sampler(rng, owners.size)) / prev_marks[idx]
    new_vals = np.asarray(b_sampler(rng, M), dtype=np.float64)
    if owners.size:
        new_vals += np.bincount(owners, weights=coef * prev_vals[idx], minlength=M)
    return h, new_vals


def gw_root_rank_pool(law: BiDegreeLaw, c: float | None, depth: int, M: int, rng,
                      c_sampler=None, b_sampler=None) -> np.ndarray:
    """M independent root-rank samples by direct level-wise tree sampling.

    Draws the trees of :func:`sample_gw_forest` level by level with
    :func:`_gw_levels`, each level's B values right after its nodes, then
    folds the levels from the deepest up, drawing each level's C values.
    Mathematically root_pagerank over sample_gw_forest, vectorized across
    trees; independent of the pool-resampling route, which it serves as an
    oracle for.  Memory grows with mean offspring^depth.
    """
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    _check_pool_size(M)
    c_sampler, b_sampler = _weight_samplers(c, c_sampler, b_sampler)
    levels = [(parent_ptr, mark, np.asarray(b_sampler(rng, mark.size), dtype=np.float64))
              for parent_ptr, mark in _gw_levels(law, depth, M, rng)]
    for d in range(len(levels) - 1, 0, -1):
        parent_ptr, mark, vals = levels[d]
        coef = _node_c(c_sampler(rng, vals.size)) / mark
        np.add.at(levels[d - 1][2], parent_ptr, coef * vals)
    return levels[0][2]


# ---------------------------------------------------------------------------
# limit laws


@dataclass(frozen=True)
class GwLaw:
    """Branching-tree limit of the configuration model; its pools come from
    :func:`gw_root_rank_pool` when ``direct``, else :func:`solve_fixed_point_mc`."""

    law: BiDegreeLaw
    direct: bool = False

    @property
    def meta(self) -> dict:
        return {"law": self.law.entries}

    def tree(self, depth: int, rng) -> LimitTree:
        return sample_gw_forest(self.law, depth, 1, rng).tree(0)

    def forest(self, depth: int, M: int, rng) -> LimitForest:
        return sample_gw_forest(self.law, depth, M, rng)

    def pool(self, c, depth, M, rng, c_sampler=None, b_sampler=None) -> np.ndarray:
        fn = gw_root_rank_pool if self.direct else solve_fixed_point_mc
        return fn(self.law, c, depth, M, rng, c_sampler=c_sampler, b_sampler=b_sampler)


# trees drawn together by census_limit or a TreeLaw pool, which bounds their memory
_FOREST_TREES = 1 << 12


@dataclass(frozen=True)
class TreeLaw:
    """A limit law drawn one tree at a time by ``tree(depth, rng) -> LimitTree``.

    ``pool`` draws each tree and then its nodes' C and B, and folds the
    trees a block at a time, as per-tree :func:`root_pagerank` does.
    """

    tree: Callable[[int, np.random.Generator], LimitTree]
    meta: dict = field(default_factory=dict)

    def forest(self, depth: int, M: int, rng) -> LimitForest:
        return LimitForest.of_trees((self.tree(depth, rng) for _ in range(M)), depth)

    def pool(self, c, depth, M, rng, c_sampler=None, b_sampler=None) -> np.ndarray:
        _check_pool_size(M)
        c_sampler, b_sampler = _weight_samplers(c, c_sampler, b_sampler)
        vals = np.empty(M)
        for first in range(0, M, _FOREST_TREES):
            trees, C, ranks = [], [], []
            for _ in range(min(_FOREST_TREES, M - first)):
                trees.append(self.tree(depth, rng))
                C.append(_node_c(c_sampler(rng, trees[-1].size)))
                ranks.append(np.asarray(b_sampler(rng, trees[-1].size), dtype=np.float64))
            top = max(t.max_depth for t in trees)
            ranks = np.concatenate(ranks)
            forest = LimitForest.of_trees(trees, top)
            _fold(forest, ranks, np.concatenate(C), top)
            vals[first:first + len(trees)] = ranks[forest.roots]
        return vals

    @classmethod
    def ctbp(cls, rate_base: float) -> "TreeLaw":
        """Branching population over an Exp(a*) window, a* the Malthusian rate.

        Its trees are finite, so ``tree`` and ``pool`` ignore ``depth`` and
        give whole trees; ``forest`` cuts them.  A draw that overruns the
        node cap is redrawn, up to 10 attempts.
        """
        alpha = malthusian(rate_base)

        def tree(depth, rng):
            for _ in range(10):
                try:
                    return sample_ctbp_limit(rate_base, alpha, rng)
                except ResourceError:
                    pass
            raise ResourceError("limit population kept exceeding the node cap")
        return cls(tree, {"alpha_star": alpha})

    @classmethod
    def polya(cls, m: int, delta: float) -> "TreeLaw":
        """Point tree limiting preferential attachment, truncated at ``depth``."""
        params = PolyaParams(m=m, delta=delta)
        return cls(lambda depth, rng: sample_polya_limit(params, depth, rng))


# limit sampler name -> (the model whose local limit it samples, its law from
# that model's parameters); a model's first sampler is its default
LIMIT_LAWS = {
    "fixed_point": ("dcm", lambda model: GwLaw(model["law"])),
    "fixed-point": ("dcm", lambda model: GwLaw(model["law"])),
    "gw": ("dcm", lambda model: GwLaw(model["law"], direct=True)),
    "ctbp": ("ctbp", lambda model: TreeLaw.ctbp(model["theta"])),
    "polya": ("dpa", lambda model: TreeLaw.polya(model["m"], model["delta"])),
}


def limit_law(sampler: str, model: dict):
    """The law ``sampler`` names for ``model``: its ``name`` and parameters
    (dcm: ``law``, a :class:`BiDegreeLaw`; ctbp: ``theta``; dpa: ``m``, ``delta``)."""
    name, make = LIMIT_LAWS.get(str(sampler), (None, None))
    if name != model["name"]:
        by_model = {}
        for s, (m, _) in LIMIT_LAWS.items():
            by_model.setdefault(m, []).append(s)
        known = ", ".join(f"{m}: {' or '.join(names)}" for m, names in by_model.items())
        raise ConfigError(f"the {model['name']} model has no sampler {sampler!r} "
                          f"({known}; any other model is generate-only)")
    return make(model)


# ---------------------------------------------------------------------------
# conversions and I/O


def _check_depth(truncation_depth, k):
    if k < 0:
        raise UsageError(f"depth must be >= 0, got {k}")
    if truncation_depth is not None and k > truncation_depth:
        raise UsageError(
            f"tree truncated at depth {truncation_depth}, cannot take depth {k}"
        )


def write_tree_edgelist(t: LimitTree, path) -> None:
    """Export a sampled tree in the edge-list text format, marks as comments.

    `# mark <node> <value>` lines carry the mark column; graph readers skip
    them, so the file doubles as a loadable edge list for census cross-checks.
    """
    parent = np.asarray(t.parent).astype(np.int64)
    write_edges(path, t.size, np.arange(1, t.size), parent[1:],
                marks=np.asarray(t.mark).astype(np.int64))


def write_pool_csv(values: np.ndarray, path) -> None:
    write_table(path, "value", [np.asarray(values)])


def read_pool_csv(path) -> np.ndarray:
    return read_table(path, "value")[:, 0]
