"""Random directed-graph generators and reproducible RNG streams.

Four models: the directed configuration model (uniform matching of out- to
in-half-edges), a directed inhomogeneous random graph with independent
edges (sampled exactly in O(n + E) work by geometric skips over targets
sorted by in-weight), directed preferential attachment with affine weights,
and genealogical trees of a continuous-time pure-birth branching process.
The last two are one affine attachment process, a vertex's weight being
its in-degree plus a constant, and share one array sampler: each edge
copies the target of a uniform earlier edge or takes a uniform older
vertex, and the copies are resolved by pointer jumping.

Every generator consumes a ``numpy.random.Generator`` of any bit generator
and gives the same output from the same generator state; use
:class:`RngStream` to derive independent, reproducible generators from a
(master seed, stream id) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  numpy loads it on first use; load it with the package

from .errors import ConfigError, ResourceError
from .graph import DirectedMultigraph, build_graph

__all__ = [
    "RngStream",
    "BiDegreeLaw",
    "BiDegreeSequence",
    "PamParams",
    "CtbpParams",
    "sample_bidegree_sequence",
    "gen_dcm",
    "gen_irg",
    "gen_dpa",
    "gen_ctbp_tree",
]


@dataclass(frozen=True)
class RngStream:
    """Counter-based substream: (seed, stream path) -> independent generator.

    Built on Philox under a SeedSequence spawn key, so identical
    (master_seed, stream) pairs reproduce identical draws across runs and
    platforms for a fixed numpy version.
    """

    master_seed: int
    stream: tuple = (0,)

    def __post_init__(self):
        if isinstance(self.stream, int):
            object.__setattr__(self, "stream", (self.stream,))

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.stream)
        return np.random.Generator(np.random.Philox(seq))

    def substream(self, k: int) -> "RngStream":
        return RngStream(self.master_seed, self.stream + (k,))


# supports up to this size invert the CDF by counting, larger ones by
# bisection: counting takes k passes, and past about 100 entries it is no
# faster than searchsorted on 1e4 to 1e6 draws (it must stay below 256,
# where the uint8 count would wrap)
_COUNT_SUPPORT = 64


@dataclass
class BiDegreeLaw:
    """Joint law of (out-degree, in-degree) with its size-biased companion.

    ``entries`` is a list of (h, l, p).  The size-biased law
    p*(h, l) = h p(h, l) / E[out] drops all mass at h = 0.
    """

    entries: list
    mean_tol: float = 1e-9

    def __post_init__(self):
        if not self.entries:
            raise ConfigError("bi-degree law needs at least one entry")
        H, L, P = [], [], []
        seen = set()
        for h, l, p in self.entries:
            if int(h) != h or int(l) != l or h < 0 or l < 0:
                raise ConfigError(f"degrees must be nonnegative integers, got ({h},{l})")
            if p < 0:
                raise ConfigError(f"probability must be nonnegative, got {p}")
            if (h, l) in seen:
                raise ConfigError(f"duplicate support point ({h},{l})")
            seen.add((h, l))
            H.append(int(h))
            L.append(int(l))
            P.append(float(p))
        self._H = np.asarray(H, dtype=np.int64)
        self._L = np.asarray(L, dtype=np.int64)
        self._P = np.asarray(P, dtype=np.float64)
        total = float(self._P.sum())
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"probabilities sum to {total}, expected 1")
        self._P = self._P / total
        self.mean_out = float((self._H * self._P).sum())
        self.mean_in = float((self._L * self._P).sum())
        if abs(self.mean_in - self.mean_out) > self.mean_tol:
            raise ConfigError(
                f"mean in-degree {self.mean_in} != mean out-degree {self.mean_out} "
                f"(tolerance {self.mean_tol})"
            )
        self._cum = np.cumsum(self._P)
        star_mask = self._H > 0
        if self.mean_out > 0:
            ps = self._H[star_mask] * self._P[star_mask] / self.mean_out
            self._Hs = self._H[star_mask]
            self._Ls = self._L[star_mask]
            self._Ps = ps
            self._cum_star = np.cumsum(ps)
        else:
            self._Hs = self._Ls = self._Ps = self._cum_star = None

    def _require_star(self):
        if self._Hs is None:
            raise ConfigError("size-biased law undefined: mean out-degree is 0")

    def sample(self, rng, size):
        return self.from_uniforms(rng.random(size))

    def sample_star(self, rng, size):
        self._require_star()
        return self.from_uniforms(rng.random(size), star=True)

    def from_uniforms(self, u, star: bool = False):
        """(h, l) by inverse CDF of p (or p* when ``star``), one pair per uniform."""
        if star:
            self._require_star()
            cum, H, L = self._cum_star, self._Hs, self._Ls
        else:
            cum, H, L = self._cum, self._H, self._L
        if cum.size <= _COUNT_SUPPORT:
            # the number of cum[:-1] entries <= u: searchsorted(side="right")
            # clamped to the last index, counted in one pass per entry
            idx = np.zeros(np.shape(u), dtype=np.uint8)
            for edge in cum[:-1].tolist():
                idx += u >= edge
        else:
            idx = np.minimum(np.searchsorted(cum, u, side="right"), H.size - 1)
        return H[idx], L[idx]


@dataclass
class BiDegreeSequence:
    d_out: np.ndarray
    d_in: np.ndarray

    def __post_init__(self):
        self.d_out = np.asarray(self.d_out, dtype=np.int64)
        self.d_in = np.asarray(self.d_in, dtype=np.int64)
        if self.d_out.shape != self.d_in.shape:
            raise ConfigError("degree arrays must have equal length")
        if int(self.d_out.sum()) != int(self.d_in.sum()):
            raise ConfigError("sum of out-degrees must equal sum of in-degrees")

    @property
    def n(self) -> int:
        return self.d_out.size

    @property
    def L(self) -> int:
        return int(self.d_out.sum())


def sample_bidegree_sequence(law: BiDegreeLaw, n: int, rng) -> BiDegreeSequence:
    """Draw n i.i.d. pairs from the law, then repair the in/out sum deficit.

    The deficit D = |sum in - sum out| is removed by incrementing the degree
    of D distinct uniformly chosen vertices on the deficient side; a fresh
    sample is drawn in the (astronomically unlikely) event D > n.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    while True:
        h, l = law.sample(rng, n)
        deficit = int(l.sum()) - int(h.sum())
        if abs(deficit) <= n:
            break
    d_out = h.copy()
    d_in = l.copy()
    if deficit > 0:
        d_out[rng.choice(n, size=deficit, replace=False)] += 1
    elif deficit < 0:
        d_in[rng.choice(n, size=-deficit, replace=False)] += 1
    return BiDegreeSequence(d_out=d_out, d_in=d_in)


def gen_dcm(seq: BiDegreeSequence, rng) -> DirectedMultigraph:
    """Uniformly random matching of out-half-edges to in-half-edges."""
    out_stubs = np.repeat(np.arange(seq.n, dtype=np.int64), seq.d_out)
    matched = np.repeat(np.arange(seq.n, dtype=np.int64), seq.d_in)[rng.permutation(seq.L)]
    return build_graph((out_stubs, matched), seq.n)


def gen_irg(w_out, w_in, theta: float, rng) -> DirectedMultigraph:
    """Independent edges i->j (i != j) with probability min{1, w_out_i w_in_j/(theta n)}.

    Exact, in O(n + E) work: the skip sampler of Miller and Hagberg,
    "Efficient generation of networks with given expected degrees" (WAW
    2011), run on all rows at once.  The targets are sorted once by
    ``w_in``, largest first, so along a row p_ij never increases.  A row's
    certain cells (p_ij = 1) are then a prefix, found by bisection and
    emitted in bulk.  From there the row goes in rounds: at candidate k,
    with p = p_ik bounding every later p_ij, it skips a Geometric(p) number
    of targets, keeps the target it lands on with probability p_ij / p
    (never j = i), and moves to the next target.  It ends when it runs past
    the last target or p is 0.  p_ij is computed as
    ``min(1, (w_out_i * w_in_j) * scale)`` wherever it is read, so a NaN p
    (``0 * inf`` where ``scale = 1 / (theta n)`` overflows) means no edge,
    and ``np.errstate(invalid="raise")`` raises on it.

    ``rng`` may be any ``numpy.random.Generator``; the same state gives the
    same graph, and ``rng`` advances by O(n + E) draws.
    """
    w_out = np.asarray(w_out, dtype=np.float64)
    w_in = np.asarray(w_in, dtype=np.float64)
    if w_out.shape != w_in.shape or w_out.ndim != 1:
        raise ConfigError("weight arrays must be 1-d and of equal length")
    if not all(((w > 0) & (w < np.inf)).all() for w in (w_out, w_in)):
        raise ConfigError("weights must be positive and finite")
    if not 0 < theta < np.inf:
        raise ConfigError(f"theta must be positive and finite, got {theta}")
    n = w_out.size
    if n == 0:
        return build_graph([], 0)
    # the sampler's arrays are freed before the graph is built
    return build_graph(_irg_edges(w_out, w_in, 1.0 / (theta * n), rng), n)


def _irg_edges(w_out, w_in, scale, rng):
    """(src, tgt) of :func:`gen_irg`'s edges, p_ij = min(1, (w_out_i * w_in_j) * scale)."""
    n = w_out.size
    order = np.argsort(-w_in, kind="stable")  # ties in index order on every platform
    w_sorted = w_in[order]

    def p_at(rows, k):
        """p of rows ``rows`` at sorted target positions ``k``."""
        return np.minimum(1.0, (w_out[rows] * w_sorted[k]) * scale)

    # certain prefixes: bisect [lo, hi) down to the first position with p < 1
    rows = np.arange(n)
    pos = np.zeros(n, dtype=np.int64)
    certain = np.flatnonzero(p_at(rows, 0) == 1.0)
    lo = np.ones(certain.size, dtype=np.int64)
    hi = np.full(certain.size, n, dtype=np.int64)
    while (open_ := np.flatnonzero(lo < hi)).size:
        mid = (lo[open_] + hi[open_]) // 2
        one = p_at(certain[open_], mid) == 1.0
        lo[open_[one]] = mid[one] + 1
        hi[open_[~one]] = mid[~one]
    pos[certain] = lo
    src = np.repeat(certain, lo)
    tgt = order[np.arange(src.size) - np.repeat(np.cumsum(lo) - lo, lo)]
    keep = src != tgt
    srcs, tgts = [src[keep]], [tgt[keep]]

    # one geometric skip per live row and round
    live = pos < n
    rows, pos = rows[live], pos[live]
    while rows.size:
        p = p_at(rows, pos)
        live = p > 0  # 0, or NaN: no later edge
        rows, pos, p = rows[live], pos[live], p[live]
        # the skip G = floor(log(1 - U) / log(1 - p)) is Geometric(p); it
        # passes the n - pos targets left iff log(1 - U) <= (n - pos) log(1 - p)
        log_u = np.log1p(-rng.random(rows.size))
        log_miss = np.log1p(-p)
        live = log_u > (n - pos) * log_miss
        rows, pos, p = rows[live], pos[live], p[live]
        land = pos + np.floor(log_u[live] / log_miss[live]).astype(np.int64)
        live = land < n  # the division can round up to n - pos
        rows, land, p = rows[live], land[live], p[live]
        target = order[land]
        hit = (rng.random(rows.size) < p_at(rows, land) / p) & (target != rows)
        srcs.append(rows[hit])
        tgts.append(target[hit])
        pos = land + 1
        live = pos < n
        rows, pos = rows[live], pos[live]
    return np.concatenate(srcs), np.concatenate(tgts)


@dataclass(frozen=True)
class PamParams:
    m: int
    delta: float

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise ConfigError(f"m must be an integer >= 1, got {self.m}")
        if not -self.m < self.delta < np.inf:
            raise ConfigError(f"delta must be finite and exceed -m, got delta={self.delta}, "
                              f"m={self.m}")


def gen_dpa(n: int, p: PamParams, rng) -> DirectedMultigraph:
    """Sequential preferential attachment, edges directed young -> old.

    Starts from two vertices with m edges 1 -> 0; each new vertex v attaches
    m edges one at a time to old vertex i with probability proportional to
    (total degree of i) + delta, degrees updating within the batch.  Vertex
    i's out-degree is m (for vertex 0, its m initial in-edges stand in), so
    its weight is m + delta plus its in-edges from vertices 2, 3, ...: the
    affine attachment of :func:`_affine_targets` with w = m + delta, whose
    copies skip the m initial edges.  Valid for every delta > -m.
    Multi-edges arise naturally; self-loops never.
    """
    if n < 2:
        raise ConfigError(f"n must be >= 2, got {n}")
    owner = np.repeat(np.arange(1, n, dtype=np.int64), p.m)
    return build_graph((owner, _affine_targets(owner, p.m, p.m + p.delta, rng)), n)


def _affine_targets(owner, first, w, rng):
    """Targets of edges owned by the nondecreasing vertices ``owner``, each
    attaching to vertex i < owner with probability proportional to w plus
    the number of edges in [first, e) that point to i.

    Edge e, owned by v, copies the target of a uniform edge in [first, e)
    with probability A / (A + v w), A = max(e - first, 0), and otherwise
    takes a uniform vertex in [0, v); one uniform per edge decides both.
    Every copy points to an earlier edge, so pointer jumping resolves the
    copies in log2(longest copy chain) rounds.  This is the pool-array
    method of Batagelj and Brandes, "Efficient generation of large random
    networks" (Phys. Rev. E 2005), with every edge drawn at once.
    """
    e = np.arange(owner.size)
    a = np.maximum(e - first, 0)
    r = rng.random(owner.size)
    r *= a + owner * w
    copy = r < a
    ptr = e  # a direct edge points to itself
    ptr[copy] = first + r[copy].astype(np.int64)
    r -= a
    # copies, which the pointer jumping overwrites, hold negative values,
    # which a tiny w takes past int64 or to -inf; the division can round up to v
    with np.errstate(over="ignore"):
        r /= w
    target = np.clip(r, 0, owner - 1, out=r).astype(np.int64)
    live = np.flatnonzero(copy)
    while live.size:
        ptr[live] = ptr[ptr[live]]
        live = live[copy[ptr[live]]]
    return target[ptr]


@dataclass(frozen=True)
class CtbpParams:
    """Pure-birth process with rate k + rate_base after k children."""

    rate_base: float

    def __post_init__(self):
        if not (0 < self.rate_base < np.inf and 1.0 / float(self.rate_base) < np.inf):
            raise ConfigError("rate_base must be positive and finite with a finite reciprocal, "
                              f"got {self.rate_base}")


def gen_ctbp_tree(p: CtbpParams, target_n: int, rng):
    """Simulate the branching population to target_n individuals.

    Returns the genealogical tree (edges child -> parent) and per-vertex
    birth times, exact in law with no discretization.  With N individuals
    alive, k_i children each, the next birth comes after an Exp((N - 1) +
    N rate_base) gap and its parent is i with probability proportional to
    k_i + rate_base: the affine random recursive tree (Rudas, Toth and
    Valko, "Random trees and general branching processes", Random Struct.
    Algorithms 2007), drawn by :func:`_affine_targets` with one edge per
    child, every edge copyable, and w = rate_base.
    """
    if target_n < 1:
        raise ConfigError(f"target_n must be >= 1, got {target_n}")
    theta = p.rate_base
    child = np.arange(1, target_n, dtype=np.int64)
    g = build_graph((child, _affine_targets(child, 0, theta, rng)), target_n)
    births = np.zeros(target_n)
    with np.errstate(over="ignore"):  # the first gap, Exp(theta), can overflow
        np.cumsum(rng.standard_exponential(child.size) / ((child - 1) + child * theta),
                  out=births[1:])
    if not np.isfinite(births[-1]):
        raise ResourceError(f"birth times overflow at rate_base={theta}")
    return g, births
