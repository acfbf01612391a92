import numpy as np
import pytest
import scipy.stats
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pagerank_limits import generators
from pagerank_limits.errors import ConfigError
from pagerank_limits.generators import (
    BiDegreeLaw,
    BiDegreeSequence,
    CtbpParams,
    PamParams,
    RngStream,
    gen_ctbp_tree,
    gen_dcm,
    gen_dpa,
    gen_irg,
    sample_bidegree_sequence,
)
from pagerank_limits.graph import write_edgelist

from _oracles import (
    affine_graph_probabilities,
    edge_triples,
    gen_ctbp_tree_sequential,
    gen_dpa_sequential,
    gen_irg_dense,
    irg_cell_probabilities,
    star_entries,
)

UNIFORM33 = BiDegreeLaw([(h, l, 1 / 9) for h in (1, 2, 3) for l in (1, 2, 3)])


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(123, 4).generator().random(5)
        b = RngStream(123, 4).generator().random(5)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator().random(5)
        b = RngStream(123, 1).generator().random(5)
        assert not np.array_equal(a, b)

    def test_substream(self):
        s = RngStream(9)
        assert np.array_equal(s.substream(2).generator().random(3),
                              s.substream(2).generator().random(3))
        assert not np.array_equal(s.substream(1).generator().random(3),
                                  s.substream(2).generator().random(3))


class TestBiDegreeLaw:
    def test_validation(self):
        with pytest.raises(ConfigError, match="sum"):
            BiDegreeLaw([(1, 1, 0.5)])
        with pytest.raises(ConfigError, match="mean"):
            BiDegreeLaw([(1, 2, 1.0)])
        with pytest.raises(ConfigError, match="integers"):
            BiDegreeLaw([(1.5, 1.5, 1.0)])
        with pytest.raises(ConfigError, match="duplicate"):
            BiDegreeLaw([(1, 1, 0.5), (1, 1, 0.5)])

    def test_star_law_drops_dangling(self):
        law = BiDegreeLaw([(0, 2, 0.5), (2, 0, 0.5)])
        assert star_entries(law) == [(2, 0, 1.0)]

    def test_star_law_size_biases(self):
        stars = dict(((h, l), p) for h, l, p in star_entries(UNIFORM33))
        assert stars[(3, 1)] == pytest.approx(3 / 18)
        assert stars[(1, 1)] == pytest.approx(1 / 18)

    def test_sampling_matches_law(self):
        rng = RngStream(21).generator()
        h, l = UNIFORM33.sample(rng, 20000)
        for hv in (1, 2, 3):
            assert abs((h == hv).mean() - 1 / 3) < 0.02


class TestFromUniforms:
    """The inverse CDF against searchsorted(side="right"), the bisection it replaces
    on small supports."""

    @staticmethod
    def oracle(cum, u):
        return np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)

    @pytest.mark.parametrize("law", [
        UNIFORM33,
        BiDegreeLaw([(0, 2, 0.25), (2, 0, 0.25), (1, 1, 0.5)]),
        BiDegreeLaw([(k, k, 1 / 64) for k in range(1, 65)]),  # largest counted
        BiDegreeLaw([(k, k, 1 / 80) for k in range(1, 81)]),  # bisection
    ])
    def test_matches_searchsorted(self, law):
        rng = RngStream(22).generator()
        for star, H, L, cum in ((False, law._H, law._L, law._cum),
                                (True, law._Hs, law._Ls, law._cum_star)):
            u = np.concatenate([
                rng.random(5000), cum, np.nextafter(cum, 0), np.nextafter(cum, 2),
                [0.0, 1.0, np.nextafter(1.0, 0), 2.0],  # clamped above cum[-1]
            ])
            idx = self.oracle(cum, u)
            h, l = law.from_uniforms(u, star=star)
            assert np.array_equal(h, H[idx]) and np.array_equal(l, L[idx])
            for v in u[-8:]:
                assert law.from_uniforms(v, star=star) == (H[self.oracle(cum, v)],
                                                           L[self.oracle(cum, v)])


class TestBidegreeSequence:
    def test_deterministic_law(self):
        law = BiDegreeLaw([(1, 1, 1.0)])
        seq = sample_bidegree_sequence(law, 5, RngStream(22).generator())
        assert seq.d_out.tolist() == [1] * 5 and seq.d_in.tolist() == [1] * 5

    def test_sums_match(self):
        rng = RngStream(23).generator()
        for n in (1, 7, 500):
            seq = sample_bidegree_sequence(UNIFORM33, n, rng)
            assert seq.d_out.sum() == seq.d_in.sum()

    def test_mismatched_sums_rejected(self):
        with pytest.raises(ConfigError, match="sum"):
            BiDegreeSequence(d_out=np.array([2]), d_in=np.array([1]))

    def test_empirical_pmf_and_repair_size(self):
        law = BiDegreeLaw([(1, 2, 0.5), (2, 1, 0.5)])
        n = 10_000
        repair_counts = []
        rng = RngStream(24).generator()
        for _ in range(100):
            h, l = law.sample(rng, n)
            repair_counts.append(abs(int(l.sum()) - int(h.sum())))
        # CLT oracle: the deficit is a sum of n iid +-1 steps, E|D| = sqrt(2n/pi)
        expected = np.sqrt(2 * n / np.pi)
        assert abs(np.mean(repair_counts) - expected) < 0.25 * expected

        seq = sample_bidegree_sequence(law, n, RngStream(25).generator())
        pairs = {}
        for h, l in zip(seq.d_out.tolist(), seq.d_in.tolist()):
            pairs[(h, l)] = pairs.get((h, l), 0) + 1
        tv = 0.5 * (
            abs(pairs.get((1, 2), 0) / n - 0.5)
            + abs(pairs.get((2, 1), 0) / n - 0.5)
            + sum(v / n for k, v in pairs.items() if k not in ((1, 2), (2, 1)))
        )
        assert tv < 0.02


class TestDcm:
    def test_degrees_exact(self):
        rng = RngStream(26).generator()
        seq = sample_bidegree_sequence(UNIFORM33, 300, rng)
        g = gen_dcm(seq, rng)
        assert np.array_equal(g.d_out, seq.d_out)
        assert np.array_equal(g.d_in, seq.d_in)

    def test_two_vertex_matching_frequencies(self):
        # degrees all 1 on two vertices: the 2-cycle and the double self-loop
        # each arise from one of the two matchings
        seq = BiDegreeSequence(d_out=np.array([1, 1]), d_in=np.array([1, 1]))
        rng = RngStream(27).generator()
        trials = 4000
        selfloops = 0
        for _ in range(trials):
            g = gen_dcm(seq, rng)
            if (g.src == g.tgt).all():
                selfloops += 1
        p = selfloops / trials
        sigma = np.sqrt(0.25 / trials)
        assert abs(p - 0.5) < 3 * sigma

    def test_permutation_digraph(self):
        law = BiDegreeLaw([(1, 1, 1.0)])
        rng = RngStream(28).generator()
        seq = sample_bidegree_sequence(law, 50, rng)
        g = gen_dcm(seq, rng)
        assert (g.d_out == 1).all() and (g.d_in == 1).all()


class TestIrg:
    def test_constant_weights_reduce_to_er(self):
        n = 400
        rng = RngStream(29).generator()
        w = np.full(n, 2.0)
        counts = [gen_irg(w, w, 2.0, rng).total_multiplicity for _ in range(30)]
        # edge probability 2/n on n(n-1) ordered pairs
        expected = 2.0 / n * n * (n - 1)
        sigma = np.sqrt(expected)
        assert abs(np.mean(counts) - expected) < 3 * sigma / np.sqrt(30)

    def test_clamping(self):
        n = 2
        g = gen_irg(np.array([2 * n, 1.0]), np.array([1.0, 2 * n]), 1.0,
                    RngStream(30).generator())
        assert (0, 1, 1) in list(edge_triples(g))

    def test_empty(self):
        rng = RngStream(30).generator()
        g = gen_irg(np.zeros(0), np.zeros(0), 1.0, rng)
        assert g.n == 0 and g.total_multiplicity == 0
        assert np.array_equal(rng.random(3), RngStream(30).generator().random(3))

    def test_no_self_loops(self):
        g = gen_irg(np.full(100, 10.0), np.full(100, 10.0), 1.0,
                    RngStream(31).generator())
        assert not (g.src == g.tgt).any()

    def test_mean_in_degree_analytic(self):
        # heavy-tailed weights: mean in-degree ~ E[Wout] E[Win] / theta
        rng = RngStream(32).generator()
        n = 2000
        means = []
        for _ in range(50):
            w_out = rng.pareto(2.5, n) + 1.0
            w_in = rng.pareto(2.5, n) + 1.0
            g = gen_irg(w_out, w_in, 3.0, rng)
            # conditional mean given weights, clamping negligible here
            means.append(g.d_in.mean() - w_out.mean() * w_in.mean() / 3.0)
        assert abs(np.mean(means)) < 3 * np.std(means) / np.sqrt(50) + 0.01

    def test_validation(self):
        with pytest.raises(ConfigError):
            gen_irg(np.array([1.0]), np.array([-1.0]), 1.0, RngStream(1).generator())
        with pytest.raises(ConfigError):
            gen_irg(np.array([1.0]), np.array([1.0]), 0.0, RngStream(1).generator())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        w = np.full(50, 2.0)
        w_bad = w.copy()
        w_bad[7] = bad
        for args in ((w_bad, w, 1.0), (w, w_bad, 1.0)):
            with pytest.raises(ConfigError, match="finite"):
                gen_irg(*args, RngStream(1).generator())
        with pytest.raises(ConfigError, match="theta"):
            gen_irg(w, w, bad, RngStream(1).generator())

    def test_accepts_any_generator(self):
        # the same state gives the same graph, from any bit generator
        w = 10.0 ** np.random.default_rng(8).uniform(-1.0, 2.0, 300)
        for bit_generator in (np.random.PCG64, np.random.MT19937, np.random.Philox):
            a, b = (np.random.Generator(bit_generator(8)) for _ in range(2))
            ga, gb = gen_irg(w, w, 1.0, a), gen_irg(w, w, 1.0, b)
            assert ga.total_multiplicity > 0
            assert list(edge_triples(ga)) == list(edge_triples(gb))
            assert a.random() == b.random()


def _irg_weights(rng, n):
    """Log-uniform from 1e-12 to 1e3, and about a tenth at 1e-170, whose
    products underflow to 0.  With theta n <= 3000 the largest products
    clamp to p = 1."""
    w = 10.0 ** rng.uniform(-12.0, 3.0, n)
    w[rng.random(n) < 0.1] = 1e-170
    return w


class TestIrgAgainstDense:
    """``gen_irg`` draws each cell (i, j) with the probability that
    ``_oracles.irg_cell_probabilities`` defines, as the dense sampler
    ``_oracles.gen_irg_dense`` (one ``rng.random()`` per cell) does."""

    @pytest.mark.parametrize("theta", [1e-3, 0.1, 1.0, 10.0])
    def test_cell_frequencies(self, theta):
        # n = 20 with the weights' clamped, underflowing and mid-range cells;
        # the 4 thetas' 2 tests each share a family-wise level of 1e-6
        n, graphs = 20, 2000
        w_out = _irg_weights(np.random.default_rng([7, 0]), n)
        w_in = _irg_weights(np.random.default_rng([7, 1]), n)
        p = irg_cell_probabilities(w_out, w_in, theta)
        counts = np.zeros((n, n), dtype=np.int64)
        rng = RngStream(17).generator()
        for _ in range(graphs):
            g = gen_irg(w_out, w_in, theta, rng)
            assert (g.mult == 1).all()
            counts[g.src, g.tgt] += 1
        assert (counts[p == 0] == 0).all()
        assert (counts[p == 1] == graphs).all()
        # cells with 5 or more expected hits and misses: chi-square; the
        # hits of the rarer ones pooled against their Poisson law
        mean = graphs * p
        wide = (mean >= 5) & (graphs - mean >= 5)
        rare = (p > 0) & (mean < 5)
        assert (wide | rare)[(p > 0) & (p < 1)].all() and wide.sum() >= 10
        chi2 = float(((counts[wide] - mean[wide]) ** 2 / (mean[wide] * (1 - p[wide]))).sum())
        pooled, pooled_mean = counts[rare].sum(), mean[rare].sum()
        pvalues = [scipy.stats.chi2.sf(chi2, wide.sum()),
                   2 * min(scipy.stats.poisson.cdf(pooled, pooled_mean),
                           scipy.stats.poisson.sf(pooled - 1, pooled_mean))]
        assert min(pvalues) >= 1e-6 / 8, pvalues

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           theta=st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
    def test_certain_and_impossible_cells(self, n, seed, theta):
        # every p = 1 cell is an edge, no p = 0 cell or diagonal cell is,
        # and the same generator state gives the same graph and end state
        w_out = _irg_weights(np.random.default_rng([seed, 0]), n)
        w_in = _irg_weights(np.random.default_rng([seed, 1]), n)
        p = irg_cell_probabilities(w_out, w_in, theta)
        a, b = RngStream(seed).generator(), RngStream(seed).generator()
        g = gen_irg(w_out, w_in, theta, a)
        edges = np.zeros((n, n), dtype=bool)
        edges[g.src, g.tgt] = True
        assert (g.mult == 1).all()
        assert (p[edges] > 0).all()
        assert edges[p == 1].all()
        assert list(edge_triples(g)) == list(edge_triples(gen_irg(w_out, w_in, theta, b)))
        assert a.random() == b.random()

    @pytest.mark.parametrize("n,certain", [(8, 0), (8, 1), (8, 2), (8, 7), (8, 8),
                                           (1024, 1), (1024, 500), (1024, 1023), (1024, 1024)])
    def test_certain_prefix_at_the_threshold(self, n, certain):
        # theta n = 1: row 0 has p_0j = w_in_j, exactly 1 on `certain`
        # random cells (its own perhaps among them) and 1e-12 elsewhere; a
        # prefix one cell too long or too short shows as a wrong edge set
        w_in = np.full(n, 1e-12)
        w_in[np.random.default_rng([n, certain]).permutation(n)[:certain]] = 1.0
        w_out = np.full(n, 1e-12)
        w_out[0] = 1.0
        g = gen_irg(w_out, w_in, 1.0 / n, RngStream(certain).generator())
        assert list(edge_triples(g)) == [(0, int(j), 1) for j in np.flatnonzero(w_in == 1.0)
                                         if j != 0]

    def test_certain_rows_draw_nothing(self):
        # p = 1 everywhere: each row is one bulk prefix and no round runs
        rng = RngStream(5).generator()
        g = gen_irg(np.full(300, 1e3), np.full(300, 1e3), 1.0, rng)
        assert g.total_multiplicity == 300 * 299
        assert rng.random() == RngStream(5).generator().random()

    def test_overflowing_scale(self):
        # 1/(theta n) = inf: rows 1 and 3 have p = 1, rows 0 and 2 p = 0 * inf = NaN
        w_out = np.array([1e-170, 1e100, 1e-170, 1.0])
        w_in = np.full(4, 1e-170)
        with pytest.raises(FloatingPointError), np.errstate(invalid="raise"):
            gen_irg(w_out, w_in, 1e-320, RngStream(3).generator())
        with np.errstate(invalid="ignore"):
            ga = gen_irg(w_out, w_in, 1e-320, RngStream(3).generator())
            gb = gen_irg_dense(w_out, w_in, 1e-320, RngStream(3).generator())
        assert ga.total_multiplicity == 6
        assert list(edge_triples(ga)) == list(edge_triples(gb))


class TestDpa:
    def test_params(self):
        with pytest.raises(ConfigError):
            PamParams(m=0, delta=0.0)
        with pytest.raises(ConfigError):
            PamParams(m=2, delta=-2.0)

    def test_two_vertices(self):
        g = gen_dpa(2, PamParams(m=3, delta=0.5), RngStream(33).generator())
        assert list(edge_triples(g)) == [(1, 0, 3)]
        assert g.d_out[1] == 3 and g.d_in[0] == 3

    def test_attachment_probability_n3(self):
        # m=1, delta=0: the third vertex picks either old vertex with prob 1/2
        rng = RngStream(34).generator()
        hits = 0
        trials = 4000
        for _ in range(trials):
            g = gen_dpa(3, PamParams(m=1, delta=0.0), rng)
            if (2, 0, 1) in list(edge_triples(g)):
                hits += 1
        assert abs(hits / trials - 0.5) < 3 * np.sqrt(0.25 / trials)

    def test_structure(self):
        for delta in (0.0, 1.0, -0.5):
            g = gen_dpa(500, PamParams(m=2, delta=delta), RngStream(35).generator())
            assert g.total_multiplicity == 2 * 499
            assert not (g.src == g.tgt).any()
            assert (g.src > g.tgt).all()  # young -> old
            assert (g.d_out[1:] == 2).all() and g.d_out[0] == 0

    def test_multi_edges_occur(self):
        g = gen_dpa(300, PamParams(m=3, delta=0.0), RngStream(36).generator())
        assert (g.mult > 1).any()


class TestCtbp:
    def test_params(self):
        with pytest.raises(ConfigError):
            CtbpParams(rate_base=0.0)

    def test_first_birth(self):
        rng = RngStream(37).generator()
        times = []
        for _ in range(2000):
            g, births = gen_ctbp_tree(CtbpParams(2.0), 2, rng)
            assert list(edge_triples(g)) == [(1, 0, 1)]
            times.append(births[1])
        # birth time ~ Exp(theta); mean within 3 sigma
        assert abs(np.mean(times) - 0.5) < 3 * 0.5 / np.sqrt(2000)

    def test_competing_clocks(self):
        # theta=1: after the first birth, root (1 child) has rate 2, child rate 1
        rng = RngStream(38).generator()
        hits = 0
        trials = 4000
        for _ in range(trials):
            g, _ = gen_ctbp_tree(CtbpParams(1.0), 3, rng)
            if (2, 0, 1) in list(edge_triples(g)):
                hits += 1
        assert abs(hits / trials - 2 / 3) < 3 * np.sqrt(2 / 9 / trials)

    def test_tree_structure(self):
        g, births = gen_ctbp_tree(CtbpParams(1.0), 800, RngStream(39).generator())
        assert g.total_multiplicity == 799
        assert g.d_out[0] == 0 and (g.d_out[1:] == 1).all()
        assert (np.diff(births) > 0).all()  # birth order is the vertex order


# the sequential definition's graphs on 4 vertices: (name, sampler, first
# vertex weights, m, new-vertex weight)
AFFINE_CASES = [
    *((f"dpa-m{m}-delta{delta}", lambda r, m=m, delta=delta: gen_dpa(4, PamParams(m, delta), r),
       (m + delta,) * 2, m, m + delta)
      for m, deltas in ((1, (-0.5, 0.0, 1.0)), (2, (-1.5, 0.0, 1.0))) for delta in deltas),
    ("ctbp-theta0.5", lambda r: gen_ctbp_tree(CtbpParams(0.5), 4, r)[0], (0.5,), 1, 0.5),
]


def _affine_pvalue(sample, first_weights, m, w, graphs=2000):
    """Chi-square p-value of ``graphs`` draws of ``sample`` against the
    enumerated law of the sequential definition at n = 4; every graph has
    at least 5 expected draws."""
    law = affine_graph_probabilities(4, m, first_weights, w)
    counts = dict.fromkeys(law, 0)
    rng = RngStream(41).generator()
    for _ in range(graphs):
        key = tuple(edge_triples(sample(rng)))
        assert key in counts, key
        counts[key] += 1
    expected = graphs * np.array(list(law.values()))
    assert expected.min() >= 5
    return scipy.stats.chisquare(list(counts.values()), expected).pvalue


class TestAffineAgainstSequential:
    """``gen_dpa`` and ``gen_ctbp_tree`` against the sequential definition:
    the per-edge and event-heap samplers of ``_oracles`` and the enumerated
    law of every graph on 4 vertices."""

    # the 7 cases share a family-wise level of 1e-6
    LEVEL = 1e-6 / len(AFFINE_CASES)

    @pytest.mark.parametrize("case", AFFINE_CASES, ids=[c[0] for c in AFFINE_CASES])
    def test_exact_law_n4(self, case):
        assert _affine_pvalue(*case[1:]) >= self.LEVEL

    def test_copying_initial_edges_fails(self, monkeypatch):
        # a planted defect: the m initial edges 1 -> 0 join the copy pool,
        # which gives vertex 0 m extra units of weight; half the graphs of
        # the exact-law test suffice to reject it
        affine_targets = generators._affine_targets
        monkeypatch.setattr(generators, "_affine_targets",
                            lambda owner, first, w, rng: affine_targets(owner, 0, w, rng))
        for case in AFFINE_CASES[:-1]:
            assert _affine_pvalue(*case[1:], graphs=1000) < self.LEVEL, case[0]

    @pytest.mark.parametrize("ours,oracle", [
        pytest.param(lambda r: gen_dpa(20_000, PamParams(2, -1.0), r),
                     lambda r: gen_dpa_sequential(20_000, PamParams(2, -1.0), r),
                     id="dpa-m2-delta-1"),
        pytest.param(lambda r: gen_dpa(20_000, PamParams(1, 0.5), r),
                     lambda r: gen_dpa_sequential(20_000, PamParams(1, 0.5), r),
                     id="dpa-m1-delta0.5"),
        pytest.param(lambda r: gen_ctbp_tree(CtbpParams(1.0), 20_000, r)[0],
                     lambda r: gen_ctbp_tree_sequential(CtbpParams(1.0), 20_000, r)[0],
                     id="ctbp-theta1"),
    ])
    def test_in_degree_histograms(self, ours, oracle):
        # in-degrees 0..11 and a pooled tail, over two graphs of each
        # sampler; the 3 cases share a family-wise level of 1e-6
        hists = []
        for k, sample in enumerate((ours, oracle)):
            d_in = np.concatenate([sample(RngStream(42, (k, i)).generator()).d_in
                                   for i in range(2)])
            hists.append(np.bincount(np.minimum(d_in, 12), minlength=13))
        table = np.array(hists)
        table = table[:, table.min(axis=0) >= 5]
        assert table.shape[1] >= 6
        assert scipy.stats.chi2_contingency(table).pvalue >= 1e-6 / 3, table

    def test_last_birth_time(self):
        # the last of 50 birth times: two-sample KS over 300 seeds each, and
        # both means against E = sum of 1 / ((N - 1) + N theta), N = 1..49
        theta, n, runs = 0.5, 50, 300
        ours, oracle = (
            np.array([make(CtbpParams(theta), n, RngStream(43, (k, i)).generator())[1][-1]
                      for i in range(runs)])
            for k, make in enumerate((gen_ctbp_tree, gen_ctbp_tree_sequential)))
        assert scipy.stats.ks_2samp(ours, oracle).pvalue >= 1e-6
        N = np.arange(1, n)
        mean = (1.0 / ((N - 1) + N * theta)).sum()
        for times in (ours, oracle):
            assert abs(times.mean() - mean) < 5 * times.std() / np.sqrt(runs)


class TestReproducibility:
    def test_byte_identical_exports(self, tmp_path):
        for name, make in {
            "dcm": lambda r: gen_dcm(sample_bidegree_sequence(UNIFORM33, 200, r), r),
            "irg": lambda r: gen_irg(np.full(150, 2.0), np.full(150, 2.0), 2.0, r),
            "dpa": lambda r: gen_dpa(200, PamParams(m=2, delta=1.0), r),
            "ctbp": lambda r: gen_ctbp_tree(CtbpParams(1.0), 200, r)[0],
        }.items():
            paths = []
            for run in (0, 1):
                g = make(RngStream(99, 5).generator())
                p = tmp_path / f"{name}_{run}.txt"
                write_edgelist(g, p)
                paths.append(p.read_bytes())
            assert paths[0] == paths[1], name
