"""Exact, truncated, and generalized graph-normalized PageRank.

All solvers run the synchronous Jacobi (pull) iteration

    R <- C P R + B,        P[i, j] = e_{j,i} / d_out_j,

with per-vertex damping C_j and offsets B_i from :class:`GeneralizedWeights`,
or C = c and B = 1 - c from :class:`PageRankParams`; every entry point takes
either.  N iterations from R = B equal the weighted sum over directed paths
of length at most N ending at each vertex, exactly.  Vertices with
out-degree zero absorb score and forward none, which keeps the standard
mean score at most 1.  The exact solve starts from the same vector, so its
iterate N is R^(N): one pass yields both, with the means of R^(0), ...,
R^(N) that the truncation bound checks, and every variant runs the one
kernel, :class:`_OrderedSystem`.

The kernel stores the pull system in jagged-diagonal storage (Saad,
"Krylov subspace methods on supercomputers", SIAM J. Sci. Stat. Comput.
1989), in numpy alone: the vertices in order of in-degree, and per
diagonal j one gather and one add over the rows longer than j, which form
a suffix of that order.  Diagonals too short to pay for their calls are
left to ``np.add.at``.  Every row keeps its terms in their order, so the
outputs, which come back in vertex order, are bit for bit those of the
vertex-order recurrence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._textio import read_table, write_json, write_table
from .errors import ConfigError, ConvergenceError
from .graph import DirectedMultigraph

__all__ = [
    "PageRankParams",
    "PageRankVector",
    "GeneralizedWeights",
    "solve_pagerank",
    "pagerank_truncated",
    "check_invariants",
    "write_scores_csv",
    "read_scores_csv",
]


@dataclass(frozen=True)
class PageRankParams:
    c: float
    tol: float = 1e-12
    max_iter: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.c < 1.0:
            raise ConfigError(f"damping factor must be in (0,1), got {self.c}")
        _check_stopping(self.tol, self.max_iter)


def _check_stopping(tol, max_iter):
    if not tol > 0:
        raise ConfigError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ConfigError("max_iter must be >= 1")


@dataclass
class PageRankVector:
    values: np.ndarray
    order: object  # int for a truncated solve, "exact" otherwise
    params: object
    iterations: int
    residual: float | None = None
    truncated: PageRankVector | None = None  # R^(N) of the same pass, on request
    # with ``truncated``: the means of R^(0), ..., R^(N) of the same pass and,
    # last, of this vector, each numpy's pairwise mean over the iterate in the
    # solver's row order
    means: tuple = ()

    @property
    def mean(self) -> float:
        return float(self.values.mean())


@dataclass
class GeneralizedWeights:
    """Per-vertex damping C_i in [0, c_max], c_max < 1, and offsets B_i >= 0.

    By convention the B population mean is 1 - c_max, which keeps the
    generalized scores on the same scale as standard PageRank; the convention
    is not enforced.  ``tol`` and ``max_iter`` are the stopping rule, as in
    :class:`PageRankParams`.
    """

    C: np.ndarray
    B: np.ndarray
    tol: float = 1e-12
    max_iter: int = 10_000

    def __post_init__(self):
        self.C = np.asarray(self.C, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64)
        if self.C.shape != self.B.shape:
            raise ConfigError("C and B must have equal length")
        if not (np.isfinite(self.C).all() and np.isfinite(self.B).all()):
            raise ConfigError("C and B entries must be finite")
        if self.C.size and (self.C < 0).any():
            raise ConfigError("C entries must be nonnegative")
        if self.C.size and float(self.C.max()) >= 1.0:
            raise ConfigError(f"max C must be < 1, got {float(self.C.max())}")
        if self.B.size and (self.B < 0).any():
            raise ConfigError("B entries must be nonnegative")
        _check_stopping(self.tol, self.max_iter)

    @property
    def c_max(self) -> float:
        return float(self.C.max()) if self.C.size else 0.0


# the fewest rows of a stored diagonal: one costs about 2 us of calls a mat-vec,
# and ``np.add.at`` about 2.3 ns an entry more than a diagonal, so the two
# break even near 1000 rows (2-core Xeon, n = 150 000)
_MIN_DIAGONAL = 1024
# the rows whose step the solve takes before the full one
_PROBE_ROWS = 4096


class _OrderedSystem:
    """The recurrence R <- M R + offset, M[i, j] = C_j e_{j,i} / d_out_j, in
    jagged-diagonal storage.

    The vertices are relabelled in order of in-row length, ties kept in
    vertex order.  Diagonal j holds entry j of every row longer than j; those
    rows form a suffix of that order.  A mat-vec weighs each source once,
    z_j = ((1/d_out_j) C_j) r_j, where an m-fold multi-edge has a slot of its
    own holding ((m/d_out_j) C_j) r_j; then it adds the diagonals into their
    row suffixes.  Diagonals of fewer than ``_MIN_DIAGONAL`` rows are not
    stored: ``np.add.at`` finishes the rows longer than the stored ones, in row
    order.  So every row adds its products in entry order, from 0, and then
    the offset: each iterate, and each sup-norm step, is the vertex-order one
    permuted, float for float.  :meth:`in_vertex_order` takes an iterate back.

    ``damping`` is c, or C_j per source j.
    """

    def __init__(self, g, damping, offset):
        n = g.n
        lengths = np.diff(g.in_indptr)
        # numpy's stable sort is a radix sort on 8- and 16-bit integers
        self.perm = np.argsort(lengths.astype(np.min_scalar_type(lengths.max(initial=0))),
                               kind="stable")
        label = np.empty(n, dtype=np.intp)
        label[self.perm] = np.arange(n)
        damping = np.broadcast_to(damping, (n,))
        # dangling vertices source no edge, so their weight is never read
        d_out = g.d_out[self.perm]
        self.weight = np.divide(1.0, np.maximum(d_out, 1, out=d_out))
        del d_out
        self.weight *= damping[self.perm]
        # the in-edge slots of multi-edges, and their sources
        multi = np.flatnonzero((g.mult > 1)[g.in_order])
        pair = g.in_order[multi]
        source = g.src[pair]
        self.multi_src = label[source]
        self.multi_weight = g.mult[pair] / g.d_out[source] * damping[source]
        # the z entry each in-edge slot reads
        cols = g.src[g.in_order]
        np.take(label, cols, out=cols)
        cols[multi] = n + np.arange(multi.size)
        del label

        first = g.in_indptr[self.perm]
        lengths = lengths[self.perm]
        starts = np.searchsorted(lengths, np.arange(max(lengths.max(initial=0), 1)),
                                 side="right").tolist()
        stored = max(1, sum(s <= n - _MIN_DIAGONAL for s in starts))
        self.diagonals = [(s, cols[first[s:] + j]) for j, s in enumerate(starts[:stored])]
        # the rest of each longer row, row by row, in entry order
        extra = lengths - stored
        rows = np.flatnonzero(extra > 0)
        extra = extra[rows]
        self.tail_rows = np.repeat(rows, extra)
        within = np.arange(self.tail_rows.size) - np.repeat(np.cumsum(extra) - extra, extra)
        self.tail_cols = cols[first[self.tail_rows] + stored + within]

        self._z = np.empty(n + multi.size)
        self._part = np.empty(self.diagonals[1][1].size if stored > 1 else 0)
        # a scalar offset, the standard 1 - c, spares each mat-vec a stream
        self.offset = offset if np.isscalar(offset) else offset[self.perm]
        # a row's sum starts at +0, so the recurrence never holds a -0 sum
        # where this one can; adding a -0 offset as +0 makes both results +0
        self.addend = self.offset + 0.0 if np.signbit(self.offset).any() else self.offset

    def apply(self, r):
        """M r + offset, a new array."""
        n = r.size
        z = self._z
        np.multiply(self.weight, r, out=z[:n])
        np.multiply(self.multi_weight, r[self.multi_src], out=z[n:])
        y = np.empty_like(r)
        # the columns are in range, and "wrap" spares take its bounds check
        (start, cols), *rest = self.diagonals
        y[:start] = 0.0
        np.take(z, cols, out=y[start:], mode="wrap")
        for start, cols in rest:
            part = self._part[:cols.size]
            np.take(z, cols, out=part, mode="wrap")
            y[start:] += part
        if self.tail_rows.size:
            np.add.at(y, self.tail_rows, z[self.tail_cols])
        y += self.addend
        return y

    def in_vertex_order(self, r):
        out = np.empty_like(r)
        out[self.perm] = r
        return out

    def iterates(self):
        """R^(0) = offset, then R^(k) = M @ R^(k-1) + offset; each a new array."""
        r = np.full(self.perm.size, self.offset)
        while True:
            yield r
            r = self.apply(r)

    def solve(self, params, order=None):
        """The fixed point, iterated until the sup-norm step is below
        ``params.tol``.  With an ``order`` N its ``truncated`` is R^(N) of the
        same pass and its ``means`` are those of R^(0), ..., R^(N) and of the
        fixed point, taken in row order as each iterate comes.

        An iteration first takes the step over the last ``_PROBE_ROWS`` rows
        only, and the full step over all rows when that one is below tol, or
        at ``max_iter``: so the iteration count and ``residual`` are those of a
        full step every iteration.  When N exceeds the iteration count the
        same recurrence runs on to it.
        """
        N = -1 if order is None else order
        iterates = self.iterates()
        r = next(iterates)
        means = [_mean(r)] if N >= 0 else []
        kept = r if N == 0 else None
        # the last rows of the in-degree order: their largest step bounds the
        # sup-norm step from below, so while it reaches tol the solve cannot
        # stop and the full step is skipped
        probe = slice(r.size - _PROBE_ROWS, None) if r.size > _PROBE_ROWS else None
        for k in range(1, params.max_iter + 1):
            prev, r = r, next(iterates)
            if k <= N:
                means.append(_mean(r))
                if k == N:
                    kept = r
            if (probe is not None and k < params.max_iter
                    and _rise(r[probe], prev[probe]) >= params.tol):
                del prev  # so the next mat-vec runs with one iterate fewer held
                continue
            # the step overwrites the previous iterate, still cached from the
            # mat-vec, unless that iterate is kept
            delta = _rise(r, prev, out=None if prev is kept else prev)
            del prev
            if delta < params.tol:
                truncated = None
                if N >= 0:
                    for kept in islice(iterates, max(N - k, 0)):
                        means.append(_mean(kept))
                    truncated = PageRankVector(values=self.in_vertex_order(kept), order=N,
                                               params=params, iterations=N)
                    means.append(_mean(r))
                return PageRankVector(values=self.in_vertex_order(r), order="exact",
                                      params=params, iterations=k, residual=delta,
                                      truncated=truncated, means=tuple(means))
        desc = (f"pagerank(c={params.c})" if isinstance(params, PageRankParams)
                else f"generalized(c_max={params.c_max})")
        raise ConvergenceError(
            f"{desc} iteration did not reach tol={params.tol} in {params.max_iter} steps "
            f"(last residual {delta:.3e})",
            residual=delta,
            iterations=params.max_iter,
        )


def _rise(r, prev, out=None):
    """The sup-norm step from ``prev`` to ``r``: max(r - prev), with no abs,
    since the iterates rise (C, B >= 0, and every rounding is monotone)."""
    return float(np.subtract(r, prev, out=out).max()) if r.size else 0.0


def _system(g, params):
    """The ordered system of :class:`PageRankParams` or :class:`GeneralizedWeights`:
    damping c or C_j (per source j), offset 1 - c or B.

    Constant C reproduces the standard system bit for bit.
    """
    if isinstance(params, PageRankParams):
        return _OrderedSystem(g, params.c, 1.0 - params.c)
    C, B = _coefficients(g, params)
    return _OrderedSystem(g, C, B)


def solve_pagerank(g: DirectedMultigraph, params, with_order: int | None = None
                   ) -> PageRankVector:
    """Unique fixed point of R_i = sum_j (C_j e_{j,i}/d_out_j) R_j + B_i.

    ``params`` is :class:`GeneralizedWeights`, or :class:`PageRankParams`
    read as C = c, B = 1 - c; either carries the stopping rule.  With
    ``with_order=N`` the result's ``truncated`` is R^(N), iterate N of this
    same pass: bit for bit what :func:`pagerank_truncated` returns.  Its
    ``means`` are those of R^(0), ..., R^(N) and R, which
    :func:`check_invariants` checks the truncation bound on at every order.

    The solve stops at the first iterate whose sup-norm step max |R^(k) -
    R^(k-1)| is below ``tol``; that step is its ``residual``.  It takes the
    full step over all n vertices only when the step over the 4096
    highest-in-degree vertices, a lower bound, is below ``tol``, and at
    ``max_iter``.
    """
    if with_order is not None:
        _check_order(with_order)
    return _system(g, params).solve(params, with_order)


def _check_order(N):
    if N < 0:
        raise ConfigError(f"truncation order must be >= 0, got {N}")


def pagerank_truncated(g: DirectedMultigraph, params, N: int) -> PageRankVector:
    """Weighted sum over directed paths of length <= N, via N pull iterations
    from R = B."""
    _check_order(N)
    system = _system(g, params)
    r = deque(islice(system.iterates(), N + 1), maxlen=1)[0]
    return PageRankVector(values=system.in_vertex_order(r), order=N, params=params,
                          iterations=N)


# ---------------------------------------------------------------------------
# identity checks


def check_invariants(g: DirectedMultigraph, params, exact: PageRankVector):
    """Check every identity on ``exact``, and the truncation bound at each order
    whose mean ``exact`` recorded (``solve_pagerank(..., with_order=N)``).

    ``params`` is :class:`GeneralizedWeights`, or :class:`PageRankParams`
    read as C = c, B = 1 - c.  Yields ``(name, error, gap)`` (``error`` None
    when it holds) for ``teleport-floor`` (R >= B), ``mass-identity``,
    ``truncation-bound-N<k>`` for k = 0..N (``gap`` the ``(mean_gap, bound)``
    of a bound that holds) and ``lower-bound``.  The coefficients and
    :func:`_slack`'s tolerances, derived in README, are taken once for the
    whole pass.
    """
    C, B = _coefficients(g, params)
    below = int((exact.values < B).sum())
    yield "teleport-floor", f"{below} vertices below B" if below else None, None
    rounding, mass, lag = _slack(g, params, exact)
    yield "mass-identity", _mass_error(g, C, B, exact, rounding, mass), None
    for k in range(len(exact.means) - 1):
        yield f"truncation-bound-N{k}", *_truncation_outcome(params, exact, k, rounding, lag)
    yield "lower-bound", _lower_bound_error(g, params, C, B, exact, rounding), None


def _coefficients(g, params):
    """Per-vertex (C, B): the generalized weights, which must have one entry
    per vertex, or C = c and B = 1 - c."""
    if isinstance(params, GeneralizedWeights):
        if params.C.shape != (g.n,):
            raise ConfigError(f"weights have length {params.C.size}, graph has {g.n} vertices")
        return params.C, params.B
    # read-only views, not copies: every use reads them
    return np.broadcast_to(params.c, (g.n,)), np.broadcast_to(1.0 - params.c, (g.n,))


def _mean(values):
    return float(values.mean()) if values.size else 0.0


def _slack(g, params, exact):
    """Every check's tolerance: ``rounding``, the relative float error of a
    mat-vec row or a vertex sum; the last iterate's miss of the mass identity,
    c_max n residual; its mean lag behind later iterates, residual c_max /
    (1 - c_max).  The floor R >= B needs none."""
    rounding = (4 * (int(np.diff(g.in_indptr).max(initial=0)) + g.n.bit_length() + 2)
                * np.finfo(np.float64).eps)
    c_max = params.c if isinstance(params, PageRankParams) else params.c_max
    residual = exact.residual or 0.0
    return rounding, c_max * g.n * residual, residual * c_max / (1.0 - c_max)


def _mass_error(g, C, B, exact, rounding, mass):
    """The error of sum R = sum B + sum_{d_out_j > 0} C_j R_j, None when it
    holds within the slack.

    Column j of the pull system sums to C_j when j has out-edges and to 0
    otherwise, so a fixed point satisfies the identity exactly.  With
    standard params and no dangling vertex it reads (1-c) sum R = (1-c) n.
    """
    linked = g.d_out > 0
    total = float(exact.values.sum())
    # einsum, not BLAS: a threaded ddot costs more than all the other checks
    rhs = float(B.sum()) + float(np.einsum("i,i->", C[linked], exact.values[linked]))
    if abs(total - rhs) <= mass + rounding * (abs(total) + abs(rhs)):
        return None
    return f"sum R = {total!r} off the identity"


def _truncation_outcome(params, exact, N, rounding, lag):
    """(error, (mean_gap, bound)) at order N: mean(R) - mean(R^(N)) must lie in
    [0, bound], bound = sum_{k>N} c_max^k mean(B), which is c^(N+1) for
    standard params; a gap that fails has no value.

    Both means are those ``exact`` recorded in its solve, each numpy's pairwise
    mean over the iterate in the solver's row order.  Summed in one order over
    iterates that rise entry by entry, the gap is exactly >= 0 for N up to the
    iteration count; past it, the mean of R lags by at most ``_slack``'s lag.
    """
    mean_gap = exact.means[-1] - exact.means[N]
    if isinstance(params, PageRankParams):
        bound = params.c ** (N + 1)
    else:
        bound = params.c_max ** (N + 1) * _mean(params.B) / (1.0 - params.c_max)
    scale = 2 * rounding * abs(exact.means[-1])
    if not -(lag + scale) <= mean_gap <= bound + scale:
        return f"truncation gap {mean_gap!r} outside [0, {bound!r}]", None
    return None, (mean_gap, bound)


def _lower_bound_error(g, params, C, B, exact, rounding):
    """The vertices with R_i < R^(1)_i = B_i + sum_j C_j e_{j,i}/d_out_j B_j,
    past the rounding.

    The bound is the order-1 truncation, hence valid by monotonicity of the
    path sums.
    """
    # the rows of the pull system times B, added in the same (source) order;
    # the edge weight mult / d_out * C B is formed in place, and standard
    # params' C B is the one product c (1 - c).  np.add.at sums in edge
    # order as np.bincount does, without bincount's copy of a read-only tgt
    weight = np.divide(g.mult, g.d_out[g.src])
    if isinstance(params, PageRankParams):
        weight *= params.c * (1.0 - params.c)
    else:
        weight *= (C * B)[g.src]
    bound = np.zeros(g.n)
    np.add.at(bound, g.tgt, weight)
    del weight
    bound += B
    bad = np.nonzero(exact.values < bound - rounding * bound)[0]
    if not bad.size:
        return None
    head = ", ".join(str(int(v)) for v in bad[:10])
    return f"{bad.size} vertices below the order-1 lower bound (first: {head})"


# ---------------------------------------------------------------------------
# score export


def write_scores_csv(vec: PageRankVector, path, gap=None) -> None:
    """Write `vertex,score` at full precision plus a JSON metadata sidecar,
    with a truncation order's ``(mean_gap, gap_bound)`` from
    :func:`check_invariants` if given."""
    write_table(path, "vertex,score", [np.arange(vec.values.size), vec.values])
    meta = {
        "order": vec.order,
        "iterations": vec.iterations,
        "residual": vec.residual,
    }
    if gap is not None:
        meta["mean_gap"], meta["gap_bound"] = gap
    if isinstance(vec.params, PageRankParams):
        meta["c"] = vec.params.c
        meta["tol"] = vec.params.tol
    elif isinstance(vec.params, GeneralizedWeights):
        meta["c"] = None
        meta["c_max"] = vec.params.c_max
    write_json(str(path) + ".meta.json", meta)


def read_scores_csv(path) -> np.ndarray:
    return read_table(path, "vertex,score", usecols=[1])[:, 0]
