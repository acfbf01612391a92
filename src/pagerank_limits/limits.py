"""Samplers of limiting rooted objects and root-rank evaluation on them.

Three limit laws are implemented: the marked branching tree with root law p
and size-biased non-root law p* (configuration-model limit), the branching
population observed over an exponential window (continuous-time trees), and
the position/strength-driven point tree limiting preferential attachment.
Each law draws its trees level by level, for every tree of a block at once:
a private generator (:func:`_gw_levels`, :func:`_ctbp_levels`,
:func:`_polya_levels`) yields each level's parents and marks.  One builder
stacks the levels of a block's trees in level order, and one pool folds
them by the backward recursion

    R(0) = B,    R(j)_v = B_v + sum_children (C_u / mark_u) R(j-1)_u,

with C = c and B = 1 - c, or per-node (C, B) drawn from given laws, which
sums the weights of reversed paths up to the depth.  The branching-tree
limit has a second pool, the endogenous backward pool recursion with
resampling (:func:`solve_fixed_point_mc`); the two are deliberately
distinct so each can check the other.  Each law is a :class:`LimitLaw`,
which :func:`limit_law` looks up by name.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from ._textio import read_table, write_edges, write_table
from .errors import ConfigError, ResourceError
from .generators import BiDegreeLaw, CtbpParams

__all__ = [
    "LimitTree",
    "LimitLaw",
    "LIMIT_LAWS",
    "limit_law",
    "PolyaParams",
    "malthusian",
    "solve_fixed_point_mc",
    "write_pool_csv",
    "read_pool_csv",
    "write_tree_edgelist",
]

logger = logging.getLogger(__name__)

DEFAULT_NODE_CAP = 10_000_000
# a polya root below this position is redrawn: its offspring rate x^-psi - 1 explodes
POSITION_FLOOR = 1e-12


@dataclass
class LimitTree:
    """Rooted marked trees sampled from a limiting law, in level order.

    The roots come first, with parent -1, then each level's nodes listed by
    parent, so parents come before children.  A single tree is in
    breadth-first order with its root at node 0.  ``truncation_depth`` is
    the depth at which sampling was cut off, or None for fully sampled
    finite trees.
    """

    parent: np.ndarray
    mark: np.ndarray
    node_depth: np.ndarray
    truncation_depth: int | None

    @property
    def size(self) -> int:
        return self.parent.size

    @property
    def max_depth(self) -> int:
        return int(self.node_depth.max()) if self.size else 0


@dataclass(frozen=True)
class PolyaParams:
    """Parameters of the point-tree limit of preferential attachment."""

    m: int
    delta: float

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 2:
            raise ConfigError(f"point-tree limit requires integer m >= 2, got {self.m}")
        if not -self.m < self.delta < np.inf:
            raise ConfigError(f"delta must be finite and exceed -m, got {self.delta}")

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
# Malthusian parameter of the affine birth process, in closed form


def malthusian(rate_base: float) -> float:
    """Rate a* with E[births before an Exp(a*) time] = 1: exactly 1 + rate_base.

    With t = rate_base the expected count is m(a) = sum_{k>=1} a_k, a_k =
    prod_{i<k} (i+t)/(i+t+a), and a_k (k+t) - a_{k+1} (k+1+t) = (a-1) a_{k+1},
    so for a > 1 the sum telescopes to m(a) = a_1 + a_1 (1+t)/(a-1) = t/(a-1).
    """
    return 1.0 + CtbpParams(rate_base).rate_base  # CtbpParams checks the rate


# ---------------------------------------------------------------------------
# limit samplers: one level generator per law, one stacker of levels


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


def _ctbp_levels(rate_base, alpha_star, M, rng, max_nodes=DEFAULT_NODE_CAP):
    """Yield ``(parent_ptr, mark)`` for each level of M branching
    populations, until a level is empty, as :func:`_gw_levels` does.

    Each root draws its window T ~ Exp(alpha_star).  A node born at t has
    children at t plus the partial sums of independent Exp(k + rate_base)
    gaps, k = 0, 1, ..., up to T.  A level draws them in rounds, one gap per
    node whose window is still open, so every gap of round k has rate
    k + rate_base and each node's children come in birth order.  All marks
    are 1.  Finite almost surely; past ``max_nodes`` nodes it raises
    ``ResourceError``, and the caller may redraw.
    """
    window = rng.exponential(1.0 / alpha_star, M)
    birth = np.zeros(M)
    nodes = M
    yield None, np.ones(M, dtype=np.int64)
    while True:
        owner, t, end = np.arange(birth.size), birth, window
        owners, births = [], []
        k = 0
        while owner.size:
            t = t + rng.exponential(1.0 / (k + rate_base), owner.size)
            born = t < end
            owner, t, end = owner[born], t[born], end[born]
            nodes += owner.size
            if nodes > max_nodes:
                raise ResourceError(f"population exceeded {max_nodes} nodes within the window")
            owners.append(owner)
            births.append(t)
            k += 1
        parent_ptr = np.concatenate(owners)
        if not parent_ptr.size:
            return
        # round k holds each parent's (k+1)-th child: a stable sort by parent
        # keeps every parent's children in birth order
        order = np.argsort(parent_ptr, kind="stable")
        parent_ptr = parent_ptr[order]
        birth, window = np.concatenate(births)[order], window[parent_ptr]
        yield parent_ptr, np.ones(order.size, dtype=np.int64)


def _polya_levels(params, depth, M, rng, max_nodes=DEFAULT_NODE_CAP):
    """Yield ``(parent_ptr, mark)`` for each level 0..depth of M point trees,
    until a level is empty, as :func:`_gw_levels` does.

    The roots sit at U^chi; a root below ``POSITION_FLOOR`` is redrawn.
    Each next level draws Gamma(m + delta) strengths g for the nodes of the
    last one, Poisson(g (x^-psi - 1)) children of a node at x, and child
    positions i.i.d. with CDF (t^psi - x^psi)/(1 - x^psi) on [x, 1].  All
    marks equal m.  Positions are kept as y = x^psi, which takes no power
    per node: the root's y is U^(chi psi) = U^(1 - chi), and a child's y is
    uniform on [y, 1].  Tree sizes are heavy-tailed: past ``max_nodes``
    nodes it raises ``ResourceError``, and the caller may redraw.
    """
    y = rng.random(M) ** (1.0 - params.chi)
    floor = POSITION_FLOOR ** params.psi
    low = np.flatnonzero(y < floor)
    while low.size:
        logger.info("%d root positions below floor %g; resampling", low.size, POSITION_FLOOR)
        y[low] = rng.random(low.size) ** (1.0 - params.chi)
        low = low[y[low] < floor]
    yield None, np.full(M, params.m, dtype=np.int64)
    nodes = M
    for _ in range(depth):
        strength = rng.gamma(params.gamma_shape, size=y.size)
        parent_ptr = np.repeat(np.arange(y.size), rng.poisson(strength * (1.0 / y - 1.0)))
        if not parent_ptr.size:
            return
        nodes += parent_ptr.size
        if nodes > max_nodes:
            raise ResourceError(f"point trees exceeded {max_nodes} nodes")
        y = y[parent_ptr]
        y += rng.random(y.size) * (1.0 - y)
        yield parent_ptr, np.full(y.size, params.m, dtype=np.int64)


def _stack(levels, depth) -> LimitTree:
    """The trees whose levels ``levels`` yields, stacked in level order and
    cut at ``depth`` (None for whole trees).  One tree stacks as it draws
    alone, in breadth-first order."""
    levels = list(levels)
    first = np.cumsum([0] + [mark.size for _, mark in levels])
    parent = [np.full(first[1], -1)] + [first[d] + ptr for d, (ptr, _) in enumerate(levels[1:])]
    return LimitTree(parent=np.concatenate(parent),
                     mark=np.concatenate([mark for _, mark in levels]),
                     node_depth=np.repeat(np.arange(len(levels), dtype=np.int32), np.diff(first)),
                     truncation_depth=depth)


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


def _root_ranks(levels, rng, c_sampler, b_sampler) -> np.ndarray:
    """Root ranks of the trees whose levels ``levels`` yields.

    Each level's B values are drawn right after its nodes; then, from the
    deepest level up, each level draws its C values and pushes (C / mark)
    times each node's value into its parent's.
    """
    levels = [(parent_ptr, mark, np.asarray(b_sampler(rng, mark.size), dtype=np.float64))
              for parent_ptr, mark in levels]
    for d in range(len(levels) - 1, 0, -1):
        parent_ptr, mark, vals = levels[d]
        coef = _node_c(c_sampler(rng, vals.size)) / mark
        np.add.at(levels[d - 1][2], parent_ptr, coef * vals)
    return levels[0][2]


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

    With constant c (no samplers) a level forms (c / mark) R* once per pool
    member, gathers it per child and adds 1 - c to each owner's sum.  Each
    term and sum is the same float as in the per-child form, which drawn
    (C, B) keep, since they draw C per child.
    """
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    _check_pool_size(pool_size)
    constant = c_sampler is None and b_sampler is None
    c_sampler, b_sampler = _weight_samplers(c, c_sampler, b_sampler)
    step = (partial(_constant_step, c) if constant
            else partial(_pool_step, c_sampler, b_sampler))
    M = pool_size
    if depth == 0:
        return np.asarray(b_sampler(rng, M), dtype=np.float64)
    marks, _ = law.sample_star(rng, M)
    vals = np.asarray(b_sampler(rng, M), dtype=np.float64)
    for _ in range(depth - 1):
        marks, vals = step(law.sample_star(rng, M), marks, vals, rng, M)
    return step(law.sample(rng, M), marks, vals, rng, M)[1]


def _children(l, M, rng):
    """Each child's owner (pool members with ``l`` children each) and the
    previous pool's member it resamples."""
    owners = np.repeat(np.arange(M), l)
    return owners, rng.integers(0, M, owners.size)


def _pool_step(c_sampler, b_sampler, draw, prev_marks, prev_vals, rng, M):
    h, l = draw
    owners, idx = _children(l, M, rng)
    coef = _node_c(c_sampler(rng, owners.size)) / prev_marks[idx]
    new_vals = np.asarray(b_sampler(rng, M), dtype=np.float64)
    if owners.size:
        new_vals += np.bincount(owners, weights=coef * prev_vals[idx], minlength=M)
    return h, new_vals


def _constant_step(c, draw, prev_marks, prev_vals, rng, M):
    h, l = draw
    owners, idx = _children(l, M, rng)
    weighed = (c / prev_marks) * prev_vals
    sums = np.bincount(owners, weights=weighed.take(idx), minlength=M)
    # bincount of no children is int64 zeros
    sums = sums.astype(np.float64, copy=False)
    sums += 1.0 - c
    return h, sums


# ---------------------------------------------------------------------------
# limit laws


# roots drawn together by a forest or a pool block, which bounds their memory
_FOREST_TREES = 1 << 12


def _check_depth(depth):
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")


def _redrawn(draw):
    """``draw()``, drawn again while it overruns a node cap, up to 10 attempts."""
    for _ in range(10):
        try:
            return draw()
        except ResourceError:
            pass
    raise ResourceError("limit population kept exceeding the node cap")


@dataclass(frozen=True)
class LimitLaw:
    """A limit law whose trees are drawn level by level, a block at a time.

    ``levels(depth, M, rng)`` yields ``(parent_ptr, mark)`` for each level
    of M trees down to ``depth``, as :func:`_gw_levels` does.  A ``finite``
    law's trees end almost surely: ``tree`` and ``pool`` draw them whole
    (depth None) whatever the depth, and ``forest`` cuts every law's trees.
    ``pool`` folds the levels, or calls :func:`solve_fixed_point_mc` for a
    law with a ``fixed_point`` bi-degree law.  A block whose draw overruns
    a node cap is redrawn, up to 10 attempts.  ``meta`` holds the law's
    fields for a pool's sidecar.
    """

    levels: Callable
    meta: dict = field(default_factory=dict)
    finite: bool = False
    fixed_point: BiDegreeLaw | None = None

    def _reach(self, depth):
        """The checked ``depth``, or None (whole trees) for a finite law."""
        _check_depth(depth)
        return None if self.finite else depth

    def tree(self, depth: int, rng) -> LimitTree:
        depth = self._reach(depth)
        return _redrawn(lambda: _stack(self.levels(depth, 1, rng), depth))

    def forest(self, depth: int, M: int, rng) -> LimitTree:
        """M trees cut at ``depth``, stacked in level order (roots 0..M-1)."""
        _check_depth(depth)
        if M < 1:
            raise ConfigError(f"forest needs M >= 1 trees, got {M}")
        return _redrawn(lambda: _stack(self.levels(depth, M, rng), depth))

    def pool(self, c, depth, M, rng, c_sampler=None, b_sampler=None) -> np.ndarray:
        """M independent root ranks, a block of ``_FOREST_TREES`` trees at a
        time; see :func:`_root_ranks` for the order of the (C, B) draws."""
        depth = self._reach(depth)
        if self.fixed_point is not None:
            return solve_fixed_point_mc(self.fixed_point, c, depth, M, rng,
                                        c_sampler=c_sampler, b_sampler=b_sampler)
        _check_pool_size(M)
        c_sampler, b_sampler = _weight_samplers(c, c_sampler, b_sampler)
        vals = np.empty(M)
        for first in range(0, M, _FOREST_TREES):
            m = min(_FOREST_TREES, M - first)
            vals[first:first + m] = _redrawn(
                lambda: _root_ranks(self.levels(depth, m, rng), rng, c_sampler, b_sampler))
        return vals

    @classmethod
    def gw(cls, law: BiDegreeLaw, fixed_point: bool = False) -> "LimitLaw":
        """Branching-tree limit of the configuration model; its pools come
        from :func:`solve_fixed_point_mc` when ``fixed_point``."""
        return cls(lambda depth, M, rng: _gw_levels(law, depth, M, rng), {"law": law.entries},
                   fixed_point=law if fixed_point else None)

    @classmethod
    def ctbp(cls, rate_base: float) -> "LimitLaw":
        """Branching population over an Exp(a*) window, a* the Malthusian rate."""
        alpha = malthusian(rate_base)

        def levels(depth, M, rng):
            return islice(_ctbp_levels(rate_base, alpha, M, rng),
                          None if depth is None else depth + 1)
        return cls(levels, {"alpha_star": alpha}, finite=True)

    @classmethod
    def polya(cls, m: int, delta: float) -> "LimitLaw":
        """Point tree limiting preferential attachment."""
        params = PolyaParams(m=m, delta=delta)
        return cls(lambda depth, M, rng: _polya_levels(params, depth, M, rng))


# limit sampler name -> (the model whose local limit it samples, its law from
# that model's parameters); a model's first sampler is its default
LIMIT_LAWS = {
    "fixed_point": ("dcm", lambda model: LimitLaw.gw(model["law"], fixed_point=True)),
    "fixed-point": ("dcm", lambda model: LimitLaw.gw(model["law"], fixed_point=True)),
    "gw": ("dcm", lambda model: LimitLaw.gw(model["law"])),
    "ctbp": ("ctbp", lambda model: LimitLaw.ctbp(model["theta"])),
    "polya": ("dpa", lambda model: LimitLaw.polya(model["m"], model["delta"])),
}


def limit_law(sampler: str, model: dict) -> LimitLaw:
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
