"""Random directed-graph generators and reproducible RNG streams.

Four models: the directed configuration model (uniform matching of out- to
in-half-edges), a directed inhomogeneous random graph with independent
edges, sequential directed preferential attachment with affine weights, and
genealogical trees of a continuous-time pure-birth branching process.

Every generator consumes a ``numpy.random.Generator``; use
:class:`RngStream` to derive independent, reproducible generators from a
(master seed, stream id) pair.
"""

from __future__ import annotations

import contextvars
import heapq
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
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

# cells (rows x n raw words) drawn per block when sampling IRG edges, 8 MB
# of words.  Measured with perfbench irg-generate (n = 12 000, two threads,
# 2-core Xeon, 20 s runs): median wall_norm_s 0.63 / 0.59 / 0.56 / 0.64 s and
# peak RSS 67 / 70 / 78 / 96 MB at 2^18 / 2^19 / 2^20 / 2^21 cells over 9
# seeds (2^17: 0.69 s, 64 MB over 3), and 2^20 beat 2^18 in 16 of 19 paired
# seeds.  The 2 MB blocks that fit L2 took no more thread CPU time, but the
# threads sat idle longer.
_IRG_BLOCK_CELLS = 1 << 20


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

    def star_entries(self):
        """Support of p*(h,l) = h p(h,l)/E[out] as (h, l, p*) triples."""
        self._require_star()
        return list(zip(self._Hs.tolist(), self._Ls.tolist(), self._Ps.tolist()))

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
    in_stubs = np.repeat(np.arange(seq.n, dtype=np.int64), seq.d_in)
    matched = in_stubs[rng.permutation(seq.L)]
    return build_graph((out_stubs, matched), seq.n)


def gen_irg(w_out, w_in, theta: float, rng) -> DirectedMultigraph:
    """Independent edges i->j (i != j) with probability min{1, w_out_i w_in_j/(theta n)}.

    Cell (i, j) is decided by uniform number i n + j of ``rng``, which must be
    Philox-backed (as :class:`RngStream` generators are), and the edge is
    present when that uniform is below p_ij.  The raw 64-bit words x are
    screened per row against the row's largest probability (the double is
    ``(x >> 11) 2^-53``, so ``u < p`` iff ``x >> 11 < ceil(p 2^53)``); only
    the few words that pass get p_ij computed.  Blocks of rows are drawn in
    parallel threads, each on its own Philox copy positioned at its first
    cell, and ``rng`` is left n^2 draws further on: the graph and every later
    draw are those of drawing all n^2 uniforms in order, whatever the thread
    count.
    """
    w_out = np.asarray(w_out, dtype=np.float64)
    w_in = np.asarray(w_in, dtype=np.float64)
    if w_out.shape != w_in.shape or w_out.ndim != 1:
        raise ConfigError("weight arrays must be 1-d and of equal length")
    if not all(((w > 0) & (w < np.inf)).all() for w in (w_out, w_in)):
        raise ConfigError("weights must be positive and finite")
    if not 0 < theta < np.inf:
        raise ConfigError(f"theta must be positive and finite, got {theta}")
    bit_gen = getattr(rng, "bit_generator", None)
    if not isinstance(bit_gen, np.random.Philox):
        raise ConfigError(
            f"gen_irg needs a Philox-backed generator, got {type(bit_gen or rng).__name__}")
    n = w_out.size
    if n == 0:
        return build_graph([], 0)
    scale = 1.0 / (theta * n)
    # fmin takes a NaN row bound (0 * inf where scale overflows) to 1 instead
    # of casting NaN below; that row's p_ij are all NaN, so it has no edges
    rowmax = np.fmin(1.0, (w_out * w_in.max()) * scale)
    # u < rowmax iff x >> 11 < t = ceil(rowmax 2^53) iff x <= bound = t 2^11 - 1;
    # t >= 1 only adds candidates, and t = 2^53 (rowmax 1) wraps bound to 2^64 - 1
    t = np.maximum(np.ceil(rowmax * 2.0**53).astype(np.uint64), np.uint64(1))
    bound = (t << np.uint64(11)) - np.uint64(1)
    rows = max(1, _IRG_BLOCK_CELLS // n)

    def draw(r0):
        r1 = min(n, r0 + rows)
        words = _philox_at(start, r0 * n).random_raw((r1 - r0) * n)
        # flat row-major indices: np.nonzero on the 2-D mask costs 6 to 10 times as much
        flat = np.flatnonzero(words.reshape(r1 - r0, n) <= bound[r0:r1, None])
        u = (words[flat] >> np.uint64(11)) * 2.0**-53
        bi, bj = np.divmod(flat, n)
        bi += r0
        hit = (u < np.minimum(1.0, (w_out[bi] * w_in[bj]) * scale)) & (bi != bj)
        return bi[hit], bj[hit]

    start = bit_gen.state
    starts = range(0, n, rows)
    with ThreadPoolExecutor(min(_usable_cpus(), len(starts), 8)) as pool:
        # each block runs in a copy of the caller's context, which holds np.errstate
        futures = [pool.submit(contextvars.copy_context().run, draw, r0) for r0 in starts]
        parts = [f.result() for f in futures]
    end = _philox_at(start, n * n).state
    # advance() clears the cached half word of 32-bit draws; uniforms never touch it
    end["has_uint32"], end["uinteger"] = start["has_uint32"], start["uinteger"]
    bit_gen.state = end
    src = np.concatenate([bi for bi, _ in parts])
    tgt = np.concatenate([bj for _, bj in parts])
    return build_graph((src.astype(np.int64), tgt.astype(np.int64)), n)


def _usable_cpus() -> int:
    """CPUs this process may run on; ``sched_getaffinity`` exists only on Linux."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _philox_at(state, k: int) -> np.random.Philox:
    """A Philox bit generator ``k`` 64-bit words past ``state``.

    Philox keeps a buffer of 4 words; ``advance(j)`` skips j whole buffers
    and empties the current one, so drain it first.
    """
    bg = np.random.Philox()
    bg.state = state
    head = min(k, 4 - state["buffer_pos"])
    bg.random_raw(head)
    if k > head:
        bg.advance((k - head) // 4)
        bg.random_raw((k - head) % 4)
    return bg


@dataclass(frozen=True)
class PamParams:
    m: int
    delta: float

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise ConfigError(f"m must be an integer >= 1, got {self.m}")
        if not self.delta > -self.m:
            raise ConfigError(f"delta must exceed -m, got delta={self.delta}, m={self.m}")


def gen_dpa(n: int, p: PamParams, rng) -> DirectedMultigraph:
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


@dataclass(frozen=True)
class CtbpParams:
    """Pure-birth process with rate k + rate_base after k children."""

    rate_base: float

    def __post_init__(self):
        if not self.rate_base > 0:
            raise ConfigError(f"rate_base must be positive, got {self.rate_base}")


def gen_ctbp_tree(p: CtbpParams, target_n: int, rng):
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
