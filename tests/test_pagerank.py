import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pagerank_limits import PamParams, RngStream, gen_dpa, gen_irg
from pagerank_limits import pagerank as pr
from pagerank_limits.errors import (
    ConfigError,
    ConvergenceError,
    InvariantViolation,
)
from pagerank_limits.graph import build_graph
from pagerank_limits.pagerank import (
    GeneralizedWeights,
    PageRankParams,
    PageRankVector,
    pagerank_truncated,
    read_scores_csv,
    solve_pagerank,
    write_scores_csv,
)

from _oracles import (
    checked_gap,
    checks,
    dense_exact_pagerank,
    dense_generalized,
    enum_truncated_pagerank,
    has_dangling,
    pull_matrix,
    random_small_graph,
    solved_lower_bound_error,
    solved_truncation_gap,
)


def cycle3():
    return build_graph([(0, 1), (1, 2), (2, 0)], 3)


def star():
    return build_graph([(1, 0), (2, 0)], 3)


class TestParams:
    def test_c_range(self):
        with pytest.raises(ConfigError, match="damping"):
            PageRankParams(c=1.0)
        with pytest.raises(ConfigError, match="damping"):
            PageRankParams(c=0.0)
        with pytest.raises(ConfigError, match="tol"):
            PageRankParams(c=0.5, tol=0.0)
        with pytest.raises(ConfigError, match="tol"):
            PageRankParams(c=0.5, tol=float("nan"))


class TestExactSolve:
    def test_empty_graph(self):
        v = solve_pagerank(build_graph([], 3), PageRankParams(c=0.85))
        assert np.allclose(v.values, 0.15, atol=1e-12)

    def test_cycle_symmetric(self):
        for c in (0.3, 0.5, 0.85):
            v = solve_pagerank(cycle3(), PageRankParams(c=c))
            assert np.allclose(v.values, 1.0, atol=1e-10)

    def test_star_dense_oracle(self):
        v = solve_pagerank(star(), PageRankParams(c=0.5))
        assert np.allclose(v.values, [1.0, 0.5, 0.5], atol=1e-10)
        assert np.allclose(v.values, dense_exact_pagerank(star(), 0.5), atol=1e-10)

    def test_matches_dense_on_random_graphs(self):
        rng = RngStream(11).generator()
        for _ in range(30):
            g = random_small_graph(rng)
            c = float(rng.choice([0.3, 0.5, 0.85]))
            v = solve_pagerank(g, PageRankParams(c=c))
            assert np.abs(v.values - dense_exact_pagerank(g, c)).max() < 1e-10

    def test_teleport_floor(self):
        rng = RngStream(12).generator()
        for _ in range(10):
            g = random_small_graph(rng)
            v = solve_pagerank(g, PageRankParams(c=0.85))
            assert v.values.min() >= 0.15 - 1e-12

    def test_nonconvergence_raises(self):
        with pytest.raises(ConvergenceError) as exc:
            solve_pagerank(cycle3(), PageRankParams(c=0.85, tol=1e-12, max_iter=3))
        assert exc.value.residual is not None and exc.value.residual > 0

    def test_degenerate_sizes(self):
        assert solve_pagerank(build_graph([], 0), PageRankParams(c=0.5)).values.size == 0
        lone = solve_pagerank(build_graph([], 1), PageRankParams(c=0.5))
        assert lone.values.tolist() == [0.5]
        # self-loop: R = cR + (1-c) has the symmetric solution 1
        looped = solve_pagerank(build_graph([(0, 0)], 1), PageRankParams(c=0.5))
        assert looped.values == pytest.approx([1.0], abs=1e-12)


class TestTruncated:
    def test_order_zero(self):
        v = pagerank_truncated(cycle3(), PageRankParams(c=0.85), 0)
        assert np.allclose(v.values, 0.15, atol=0)

    def test_cycle_n2(self):
        v = pagerank_truncated(cycle3(), PageRankParams(c=0.5), 2)
        assert np.allclose(v.values, 0.875, atol=1e-15)
        assert np.allclose(v.values, enum_truncated_pagerank(cycle3(), 0.5, 2), atol=1e-12)

    def test_star_n1_equals_exact(self):
        p = PageRankParams(c=0.5)
        v1 = pagerank_truncated(star(), p, 1)
        exact = solve_pagerank(star(), p)
        assert np.allclose(v1.values, exact.values, atol=1e-12)
        assert np.allclose(v1.values, enum_truncated_pagerank(star(), 0.5, 1), atol=1e-12)

    def test_matches_walk_enumeration(self):
        rng = RngStream(13).generator()
        for _ in range(25):
            g = random_small_graph(rng, max_n=6)
            c = float(rng.choice([0.3, 0.5, 0.85]))
            N = int(rng.integers(0, 5))
            v = pagerank_truncated(g, PageRankParams(c=c), N)
            assert np.abs(v.values - enum_truncated_pagerank(g, c, N)).max() < 1e-12

    def test_monotone_in_order(self):
        rng = RngStream(14).generator()
        for _ in range(10):
            g = random_small_graph(rng)
            p = PageRankParams(c=0.7)
            exact = solve_pagerank(g, p)
            prev = pagerank_truncated(g, p, 0).values
            for N in range(1, 8):
                cur = pagerank_truncated(g, p, N).values
                assert (cur >= prev - 1e-12).all()
                assert (cur <= exact.values + 1e-12).all()
                prev = cur


def random_graph(rng, n, dangling):
    """Random multigraph with self-loops; every vertex has an out-edge unless
    ``dangling``, in which case vertices 0, 5, 10, ... have none."""
    src = rng.integers(0, n, 4 * n)
    if dangling:
        src = src[src % 5 != 0]
    else:
        src = np.concatenate([np.arange(n), src])
    tgt = rng.integers(0, n, src.size)
    return build_graph((src, tgt), n)


class TestTruncationSweep:
    """R^(N) for every order N = 0..20, each solved from scratch."""

    @pytest.mark.parametrize("dangling", [True, False])
    def test_iterates_bitwise_equal_per_order_solves(self, dangling):
        rng = RngStream(15).generator()
        for n in (1, 7, 300):
            g = random_graph(rng, n, dangling)
            assert has_dangling(g) == dangling
            p = PageRankParams(c=float(rng.choice([0.5, 0.85])))
            mat = p.c * pull_matrix(g)
            offset = np.full(g.n, 1.0 - p.c)
            r = offset.copy()
            for N in range(21):
                vec = pagerank_truncated(g, p, N)
                assert np.array_equal(vec.values, r)
                assert vec.order == vec.iterations == N
                r = mat @ r + offset

    def test_bad_order_raises_on_call(self):
        with pytest.raises(ConfigError, match="order"):
            pagerank_truncated(cycle3(), PageRankParams(c=0.5), -1)


class TestOnePass:
    """R^(N) handed out by the exact solve's own pass, bit for bit."""

    @staticmethod
    def orders(iterations):
        return (0, 5, iterations, iterations + 7)

    @pytest.mark.parametrize("dangling", [True, False])
    def test_standard_pass_equals_separate_solves(self, dangling):
        rng = RngStream(31).generator()
        for n in (1, 9, 300):
            g = random_graph(rng, n, dangling)
            p = PageRankParams(c=0.85)
            exact = solve_pagerank(g, p)
            for N in self.orders(exact.iterations):
                both = solve_pagerank(g, p, with_order=N)
                assert np.array_equal(both.values, exact.values)
                assert (both.iterations, both.residual) == (exact.iterations, exact.residual)
                assert both.truncated.order == both.truncated.iterations == N
                assert np.array_equal(both.truncated.values,
                                      pagerank_truncated(g, p, N).values)

    @pytest.mark.parametrize("dangling", [True, False])
    def test_generalized_pass_equals_separate_solves(self, dangling):
        rng = RngStream(32).generator()
        for n in (1, 9, 300):
            g = random_graph(rng, n, dangling)
            w = GeneralizedWeights(C=rng.uniform(0, 0.85, n), B=rng.exponential(0.15, n))
            exact = solve_pagerank(g, w)
            for N in self.orders(exact.iterations):
                both = solve_pagerank(g, w, with_order=N)
                assert np.array_equal(both.values, exact.values)
                assert (both.iterations, both.residual) == (exact.iterations, exact.residual)
                assert both.truncated.order == N
                assert np.array_equal(both.truncated.values,
                                      pagerank_truncated(g, w, N).values)

    @pytest.mark.parametrize("generalized", [False, True])
    def test_means_are_those_of_the_truncated_solves(self, generalized):
        # one mean per order, past convergence too, then the fixed point's;
        # taken in the solver's row order, each is the vertex-order mean up
        # to the rounding of a sum
        rng = RngStream(35).generator()
        for n in (1, 9, 300):
            g = random_graph(rng, n, True)
            p = (GeneralizedWeights(C=rng.uniform(0, 0.85, n), B=rng.exponential(0.15, n))
                 if generalized else PageRankParams(c=0.85))
            exact = solve_pagerank(g, p)
            N = exact.iterations + 7
            both = solve_pagerank(g, p, with_order=N)
            assert len(both.means) == N + 2
            want = [pagerank_truncated(g, p, k).values.mean() for k in range(N + 1)]
            assert np.allclose(both.means, [*want, exact.values.mean()], rtol=1e-14, atol=0)

    def test_without_order_nothing_is_kept(self):
        assert solve_pagerank(cycle3(), PageRankParams(c=0.5)).truncated is None
        w = GeneralizedWeights(C=np.full(3, 0.5), B=np.full(3, 0.5))
        assert solve_pagerank(cycle3(), w).truncated is None
        assert solve_pagerank(cycle3(), w).means == ()

    def test_bad_orders_rejected(self):
        w = GeneralizedWeights(C=np.full(3, 0.5), B=np.full(3, 0.5))
        with pytest.raises(ConfigError, match="order"):
            solve_pagerank(cycle3(), PageRankParams(c=0.5), with_order=-1)
        with pytest.raises(ConfigError, match="order"):
            solve_pagerank(cycle3(), w, with_order=-1)


def kernel_rows(system):
    """Each row of an ordered system as (source vertices, coefficients) in
    entry order, read back from its diagonals, its tail and its z slots."""
    rows = [[] for _ in system.perm]
    for start, cols in system.diagonals:
        for i, col in enumerate(cols.tolist(), start):
            rows[i].append(col)
    for i, col in zip(system.tail_rows.tolist(), system.tail_cols.tolist()):
        rows[i].append(col)
    source = np.concatenate([system.perm, system.perm[system.multi_src]])
    coef = np.concatenate([system.weight, system.multi_weight])
    return [(source[row], coef[row]) for row in (np.array(r, dtype=np.intp) for r in rows)]


def assert_rows_equal(system, mat):
    """The ordered system's row i is row perm[i] of the vertex-order CSR ``mat``,
    entry for entry and bit for bit."""
    for (sources, coefs), v in zip(kernel_rows(system), system.perm, strict=True):
        want = slice(mat.indptr[v], mat.indptr[v + 1])
        assert np.array_equal(sources, mat.indices[want])
        assert np.array_equal(coefs, mat.data[want])


class TestPullMatrix:
    @pytest.mark.parametrize("dangling", [True, False])
    def test_equals_the_coordinate_route(self, dangling):
        # the kernel's rows are the CSR scipy builds from (target, source)
        # coordinates, scaled by c or by C[source]
        rng = RngStream(34).generator()
        for n in (0, 1, 9, 300, 3000):
            g = random_graph(rng, n, dangling) if n else build_graph([], 0)
            shares = g.mult / g.d_out[g.src]
            C = rng.uniform(0, 0.85, n)
            for damping, data in ((0.85, shares * 0.85), (C, shares * C[g.src])):
                system = pr._OrderedSystem(g, damping, np.zeros(n))
                assert_rows_equal(system, sp.csr_matrix((data, (g.tgt, g.src)), shape=(n, n)))
                if n == 3000:  # both stored diagonals and an np.add.at tail
                    assert len(system.diagonals) > 1 and system.tail_rows.size


@st.composite
def multigraphs(draw):
    """A multigraph with self-loops and multi-edges on n in {0, 1, 2..12}
    vertices; sources and targets come from random subsets, so some vertices
    are dangling and some have in-degree zero."""
    n = draw(st.sampled_from([0, 1]) | st.integers(2, 12))
    if n == 0:
        return build_graph([], 0)
    vertex = st.integers(0, n - 1)
    sources = draw(st.lists(vertex, min_size=1, max_size=n, unique=True))
    targets = draw(st.lists(vertex, min_size=1, max_size=n, unique=True))
    edges = draw(st.lists(st.tuples(st.sampled_from(sources), st.sampled_from(targets),
                                    st.integers(1, 3)), max_size=4 * n))
    return build_graph(edges, n)


def vertex_order_run(mat, offset, tol, N):
    """The pull recurrence ``mat @ r + offset`` in vertex order, run to the
    sup-norm tolerance and on to iterate N: (R, iterations, residual,
    [R^(0), ..., R^(max(iterations, N))])."""
    iterates = [offset.copy()]
    while True:
        iterates.append(mat @ iterates[-1] + offset)
        k = len(iterates) - 1
        delta = float(np.abs(iterates[k] - iterates[k - 1]).max()) if offset.size else 0.0
        if delta < tol:
            break
    while len(iterates) <= N:
        iterates.append(mat @ iterates[-1] + offset)
    # the iterates rise, which is why the solve's sup-norm step takes no abs
    for prev, r in zip(iterates, iterates[1:]):
        assert (r - prev >= 0).all()
    return iterates[k], k, delta, iterates


def check_against_recurrence(g, params, mat, offset, N):
    """Every kernel output for ``params`` on ``g`` equals the vertex-order
    recurrence ``mat @ r + offset`` bit for bit: the solve with R^(N) and
    the truncated solve; the solve's means are the iterates' up to the
    rounding of a sum."""
    r, it, delta, iterates = vertex_order_run(mat, offset, params.tol, N)
    got = solve_pagerank(g, params, with_order=N)
    assert np.array_equal(got.values, r)
    assert (got.iterations, got.residual) == (it, delta)
    assert np.array_equal(got.truncated.values, iterates[N])
    assert np.array_equal(pagerank_truncated(g, params, N).values, iterates[N])
    want = [float(v.mean()) if v.size else 0.0 for v in [*iterates[:N + 1], r]]
    assert np.allclose(got.means, want, rtol=1e-14, atol=0)


def generalized_matrix(g, w):
    """The vertex-order pull matrix with C[source] folded into its data."""
    pull = pull_matrix(g)
    return sp.csr_matrix((pull.data * w.C[pull.indices], pull.indices, pull.indptr),
                         shape=pull.shape)


ORDERED = settings(max_examples=60, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])
# the default keeps small graphs' rows past diagonal 0 in the np.add.at tail;
# 1 stores every diagonal
MIN_DIAGONALS = (pr._MIN_DIAGONAL, 1)


class TestOrderedKernel:
    """The kernel iterates in in-degree order; every output is bit for bit
    the vertex-order recurrence ``c * pull_matrix(g) @ r + offset``."""

    @ORDERED
    @given(multigraphs(), st.sampled_from([0.3, 0.5, 0.85]), st.integers(0, 200))
    def test_standard_outputs_equal_the_vertex_order_recurrence(self, g, c, N):
        for minimum in MIN_DIAGONALS:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(pr, "_MIN_DIAGONAL", minimum)
                check_against_recurrence(g, PageRankParams(c=c), c * pull_matrix(g),
                                         np.full(g.n, 1.0 - c), N)

    @ORDERED
    @given(multigraphs(), st.integers(0, 2**32 - 1), st.integers(0, 200))
    def test_generalized_outputs_equal_the_vertex_order_recurrence(self, g, seed, N):
        rng = np.random.default_rng(seed)
        w = GeneralizedWeights(C=rng.uniform(0, 0.85, g.n), B=rng.exponential(0.15, g.n))
        for minimum in MIN_DIAGONALS:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(pr, "_MIN_DIAGONAL", minimum)
                check_against_recurrence(g, w, generalized_matrix(g, w), w.B, N)

    @ORDERED
    @given(multigraphs())
    def test_rows_sorted_by_length_keep_their_entries(self, g):
        mat = pull_matrix(g)
        for minimum in MIN_DIAGONALS:
            with pytest.MonkeyPatch.context() as m:
                m.setattr(pr, "_MIN_DIAGONAL", minimum)
                system = pr._OrderedSystem(g, 1.0, np.arange(g.n, dtype=np.float64))
            lengths = [sources.size for sources, _ in kernel_rows(system)]
            assert (np.diff(lengths) >= 0).all()
            assert np.array_equal(system.offset, system.perm)
            assert np.array_equal(np.sort(system.perm), np.arange(g.n))
            # relabelled back, row i is row perm[i] of the vertex-order matrix
            assert_rows_equal(system, mat)

    def test_signed_zero_offsets_sum_as_the_recurrence_does(self):
        # -0.0 passes B >= 0; a row's sum starts at +0, so each iterate
        # after R^(0) holds +0 where the recurrence does
        g = build_graph([(0, 1), (1, 2), (3, 2)], 4)
        w = GeneralizedWeights(C=np.array([0.5, 0.5, 0.0, -0.0]), B=np.full(4, -0.0))
        r, _, _, iterates = vertex_order_run(generalized_matrix(g, w), w.B, w.tol, 2)
        for N in range(3):
            vec = pagerank_truncated(g, w, N)
            assert np.array_equal(np.signbit(vec.values), np.signbit(iterates[N]))
        assert np.array_equal(np.signbit(solve_pagerank(g, w).values), np.signbit(r))


class TestLongRows:
    """Graphs whose longest in-rows run past the stored diagonals into the
    ``np.add.at`` tail: every output is bit for bit the vertex-order recurrence
    ``mat @ r + offset``."""

    @pytest.fixture(scope="class", params=["dpa", "irg"])
    def graph(self, request):
        rng = RngStream(41).generator()
        if request.param == "dpa":
            return gen_dpa(20_000, PamParams(m=2, delta=1.0), rng)
        w_out, w_in = rng.pareto(2.5, 6000) + 1.0, rng.pareto(2.5, 6000) + 1.0
        return gen_irg(w_out, w_in, float(w_in.mean()), rng)

    def test_rows_reach_the_tail(self, graph):
        system = pr._OrderedSystem(graph, 0.85, np.zeros(graph.n))
        assert len(system.diagonals) > 1 and system.tail_rows.size > 500
        assert_rows_equal(system, 0.85 * pull_matrix(graph))

    def test_standard_outputs_equal_the_vertex_order_recurrence(self, graph):
        check_against_recurrence(graph, PageRankParams(c=0.85), 0.85 * pull_matrix(graph),
                                 np.full(graph.n, 1.0 - 0.85), 20)

    def test_generalized_outputs_equal_the_vertex_order_recurrence(self, graph):
        rng = RngStream(42).generator()
        w = GeneralizedWeights(C=rng.uniform(0, 0.85, graph.n),
                               B=rng.exponential(0.15, graph.n))
        check_against_recurrence(graph, w, generalized_matrix(graph, w), w.B, 20)


class TestGeneralizedMass:
    def test_fixed_points_satisfy_the_identity(self):
        rng = RngStream(35).generator()
        for dangling in (True, False):
            g = random_graph(rng, 300, dangling)
            w = GeneralizedWeights(C=rng.uniform(0, 0.85, 300), B=rng.exponential(0.15, 300))
            exact = solve_pagerank(g, w)
            assert checks(g, w, exact)["mass-identity"][0] is None
            linked = g.d_out > 0
            rhs = w.B.sum() + (w.C[linked] * exact.values[linked]).sum()
            assert exact.values.sum() == pytest.approx(rhs, rel=1e-12)

    def test_perturbed_solution_fails(self):
        rng = RngStream(36).generator()
        g = random_graph(rng, 300, True)
        w = GeneralizedWeights(C=rng.uniform(0, 0.85, 300), B=rng.exponential(0.15, 300))
        exact = solve_pagerank(g, w)
        exact.values = exact.values.copy()
        exact.values[7] += 1e-6
        assert checks(g, w, exact)["mass-identity"][0] is not None

    def test_empty_graph(self):
        w = GeneralizedWeights(C=np.zeros(0), B=np.zeros(0))
        g = build_graph([], 0)
        assert checks(g, w, solve_pagerank(g, w))["mass-identity"][0] is None


class TestTruncationGap:
    def test_cycle_tight(self):
        gap, bound = solved_truncation_gap(cycle3(), PageRankParams(c=0.5), 2)
        assert bound == 0.125
        assert abs(gap - 0.125) < 1e-10

    def test_star_zero_gap(self):
        gap, bound = solved_truncation_gap(star(), PageRankParams(c=0.5), 1)
        assert abs(gap) < 1e-12 and bound == 0.25

    def test_gap_shrinks_geometrically(self):
        p = PageRankParams(c=0.5)
        gaps = [solved_truncation_gap(cycle3(), p, N)[0] for N in range(8)]
        assert all(g2 <= g1 * 0.5 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))

    def test_violation_raises(self):
        p = PageRankParams(c=0.5)
        exact = solve_pagerank(cycle3(), p, with_order=5)
        # corrupt R^(5)'s mean to exceed the exact solution's
        exact.means = (*exact.means[:5], exact.means[5] + 1.0, *exact.means[6:])
        with pytest.raises(InvariantViolation, match="truncation gap .* outside"):
            checked_gap(cycle3(), p, exact, 5)

    def test_unrecorded_orders_are_not_checked(self):
        p = PageRankParams(c=0.5)
        for exact, orders in ((solve_pagerank(cycle3(), p), 0),
                              (solve_pagerank(cycle3(), p, with_order=3), 4)):
            names = [n for n in checks(cycle3(), p, exact) if n.startswith("truncation")]
            assert names == [f"truncation-bound-N{k}" for k in range(orders)]


class TestGapBoundEverywhere:
    def test_bound_on_every_random_instance(self):
        # the size-free mean-gap bound holds on arbitrary multigraphs
        rng = RngStream(120).generator()
        for _ in range(40):
            g = random_small_graph(rng)
            for c in (0.3, 0.85):
                p = PageRankParams(c=c)
                exact = solve_pagerank(g, p, with_order=8)
                for N in range(0, 9, 2):
                    gap, bound = checked_gap(g, p, exact, N)
                    assert -1e-10 <= gap <= bound + 1e-10


class TestMassIdentity:
    def test_dangling_free(self):
        rng = RngStream(15).generator()
        seen = 0
        for _ in range(40):
            g = random_small_graph(rng)
            if g.n == 0 or has_dangling(g):
                continue
            seen += 1
            v = solve_pagerank(g, PageRankParams(c=0.85))
            assert abs(v.values.sum() - g.n) <= 1e-8 * g.n
        assert seen >= 3

    def test_dangling_bounded(self):
        rng = RngStream(16).generator()
        for _ in range(20):
            g = random_small_graph(rng)
            v = solve_pagerank(g, PageRankParams(c=0.85))
            assert v.values.sum() <= g.n * (1 + 1e-12)


class TestGeneralized:
    def test_constant_reduction_bitwise(self):
        rng = RngStream(17).generator()
        for _ in range(10):
            g = random_small_graph(rng)
            c = 0.6
            std = solve_pagerank(g, PageRankParams(c=c))
            w = GeneralizedWeights(C=np.full(g.n, c), B=np.full(g.n, 1 - c))
            gen = solve_pagerank(g, w)
            assert np.array_equal(std.values, gen.values)

    def test_zero_c_returns_b(self):
        g = cycle3()
        w = GeneralizedWeights(C=np.zeros(3), B=np.array([2.0, 3.0, 4.0]))
        v = solve_pagerank(g, w)
        assert np.allclose(v.values, [2.0, 3.0, 4.0], atol=0)

    def test_two_cycle_exact(self):
        g = build_graph([(0, 1), (1, 0)], 2)
        w = GeneralizedWeights(C=np.array([0.5, 0.5]), B=np.array([1.0, 0.0]))
        v = solve_pagerank(g, w)
        assert np.allclose(v.values, [4 / 3, 2 / 3], atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = RngStream(18).generator()
        for _ in range(20):
            g = random_small_graph(rng)
            C = rng.uniform(0, 0.85, g.n)
            B = rng.exponential(0.15, g.n)
            v = solve_pagerank(g, GeneralizedWeights(C=C, B=B))
            assert np.abs(v.values - dense_generalized(g, C, B)).max() < 1e-10

    def test_multiplicity_counts(self):
        # double edge contributes twice: R_0 = 2 (C_1/d_1) R_1 + B_0
        g = build_graph([(1, 0, 2), (1, 2)], 3)  # d_out_1 = 3
        C = np.array([0.0, 0.9, 0.0])
        B = np.array([1.0, 1.0, 1.0])
        v = solve_pagerank(g, GeneralizedWeights(C=C, B=B))
        assert np.isclose(v.values[0], 1.0 + 2 * (0.9 / 3) * 1.0, atol=1e-12)

    def test_weights_of_another_length_rejected(self):
        w = GeneralizedWeights(C=np.full(2, 0.5), B=np.full(2, 0.5))
        for solve in (solve_pagerank, lambda g, w: pagerank_truncated(g, w, 2)):
            with pytest.raises(ConfigError, match="weights have length 2, graph has 3"):
                solve(cycle3(), w)

    def test_convergence_error_names_the_weights(self):
        w = GeneralizedWeights(C=np.full(3, 0.5), B=np.full(3, 0.5), max_iter=2)
        with pytest.raises(ConvergenceError, match=r"generalized\(c_max=0.5\) iteration"):
            solve_pagerank(cycle3(), w)

    def test_invalid_c(self):
        with pytest.raises(ConfigError, match="max C"):
            GeneralizedWeights(C=np.array([1.0]), B=np.array([0.0]))

    @pytest.mark.parametrize("tol,max_iter,field", [
        (1e-12, 0, "max_iter"), (0.0, 100, "tol"), (-1e-3, 100, "tol"),
        (float("nan"), 100, "tol"),
    ])
    def test_bad_stopping_rule_rejected(self, tol, max_iter, field):
        with pytest.raises(ConfigError, match=field):
            GeneralizedWeights(C=np.full(3, 0.5), B=np.full(3, 0.5), tol=tol, max_iter=max_iter)

    def test_truncated_order(self):
        g = cycle3()
        c = 0.5
        w = GeneralizedWeights(C=np.full(3, c), B=np.full(3, 1 - c))
        for N in range(4):
            gen = pagerank_truncated(g, w, N)
            std = pagerank_truncated(g, PageRankParams(c=c), N)
            assert np.array_equal(gen.values, std.values)


class TestLowerBound:
    def test_bound_is_order_one_from_pull_matrix(self):
        rng = RngStream(16).generator()
        for dangling in (True, False):
            g = random_graph(rng, 300, dangling)
            p = PageRankParams(c=0.85)
            bound = (1.0 - p.c) * (1.0 + p.c * (pull_matrix(g) @ np.ones(g.n)))
            on = PageRankVector(bound, "exact", p, 0)
            assert solved_lower_bound_error(g, p, exact=on) is None
            below = PageRankVector(bound - 1e-9 * (1.0 + bound), "exact", p, 0)
            assert solved_lower_bound_error(g, p, exact=below).startswith(
                "300 vertices below the order-1 lower bound")

    def test_examples(self):
        assert solved_lower_bound_error(build_graph([], 3), PageRankParams(c=0.85)) is None
        assert solved_lower_bound_error(cycle3(), PageRankParams(c=0.5)) is None

    def test_random_graphs(self):
        rng = RngStream(19).generator()
        for _ in range(20):
            g = random_small_graph(rng)
            assert solved_lower_bound_error(g, PageRankParams(c=0.85)) is None

    def test_violation_detected(self):
        g = cycle3()
        p = PageRankParams(c=0.5)
        fake = solve_pagerank(g, p)
        fake.values = fake.values * 0.5
        assert "vertices below" in solved_lower_bound_error(g, p, exact=fake)


class TestScoresCsv:
    def test_roundtrip_full_precision(self, tmp_path):
        g = random_small_graph(RngStream(20).generator())
        v = solve_pagerank(g, PageRankParams(c=0.85))
        path = tmp_path / "scores.csv"
        write_scores_csv(v, path)
        back = read_scores_csv(path)
        assert np.array_equal(back, v.values)
        meta = (tmp_path / "scores.csv.meta.json").read_text()
        assert '"c": 0.85' in meta and '"order": "exact"' in meta
