import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
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

from _oracles import gen_irg_dense

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
        assert law.star_entries() == [(2, 0, 1.0)]

    def test_star_law_size_biases(self):
        stars = dict(((h, l), p) for h, l, p in UNIFORM33.star_entries())
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
        assert (0, 1, 1) in list(g.edge_triples())

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

    def test_needs_philox(self):
        w = np.full(10, 2.0)
        with pytest.raises(ConfigError, match="PCG64"):
            gen_irg(w, w, 1.0, np.random.default_rng(1))


def _irg_weights(rng, n):
    """Log-uniform from 1e-12 to 1e3, and about a tenth at 1e-170, whose
    products underflow to 0.  With theta n <= 3000 the largest products
    clamp to p = 1."""
    w = 10.0 ** rng.uniform(-12.0, 3.0, n)
    w[rng.random(n) < 0.1] = 1e-170
    return w


class TestIrgAgainstDense:
    """``gen_irg`` makes the decisions and leaves the rng where the dense
    sampler (``_oracles.gen_irg_dense``: one ``rng.random()`` per cell)
    does, from any Philox buffer position and with any block split."""

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1),
           theta=st.sampled_from([1e-3, 0.1, 1.0, 10.0]), skip=st.integers(0, 7),
           half_word=st.booleans(), block_cells=st.integers(1, 3000))
    def test_identical_draws(self, n, seed, theta, skip, half_word, block_cells):
        w_out = _irg_weights(np.random.default_rng([seed, 0]), n)
        w_in = _irg_weights(np.random.default_rng([seed, 1]), n)
        fast, dense = RngStream(seed).generator(), RngStream(seed).generator()
        for rng in (fast, dense):
            rng.random(skip)
            if half_word:
                rng.integers(2**32, dtype=np.uint32)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(generators, "_IRG_BLOCK_CELLS", block_cells)
            for _ in range(2):
                a = gen_irg(w_out, w_in, theta, fast)
                b = gen_irg_dense(w_out, w_in, theta, dense)
                assert np.array_equal(a.src, b.src)
                assert np.array_equal(a.tgt, b.tgt)
                assert np.array_equal(a.mult, b.mult)
                assert np.array_equal(fast.random(5), dense.random(5))
        assert fast.integers(2**32, dtype=np.uint32) == dense.integers(2**32, dtype=np.uint32)

    @pytest.mark.parametrize("above", [0, 1])
    @pytest.mark.parametrize("diagonal", [1.0, 2.0])
    def test_word_at_the_threshold(self, above, diagonal):
        # cell (0, 1) gets u = m 2^-53 from the word x = m 2^11 + 2047 and
        # p = (m + above) 2^-53, an edge iff above; the row bound is p itself
        # (x is then the largest word the screen passes when above = 1) or,
        # through p_00, 2p (the exact test decides)
        rng = RngStream(7).generator()
        probe = np.random.Philox()
        probe.state = rng.bit_generator.state
        words = probe.random_raw(1 << 14)
        k = int(np.flatnonzero((words[1:] & np.uint64(2047)) == 2047)[0]) + 1
        dense = RngStream(7).generator()
        for r in (rng, dense):
            r.random(k - 1)  # word k decides cell (0, 1)
        w_out = np.array([float((int(words[k]) >> 11) + above) * 2.0**-53, 1.0])
        w_in = np.array([diagonal, 1.0])
        g = gen_irg(w_out, w_in, 0.5, rng)
        assert list(g.edge_triples()) == list(gen_irg_dense(w_out, w_in, 0.5, dense).edge_triples())
        assert ((0, 1, 1) in list(g.edge_triples())) == bool(above)

    def test_overflowing_scale(self):
        # 1/(theta n) = inf: rows 1 and 3 have p = 1, rows 0 and 2 p = 0 * inf = NaN
        w_out = np.array([1e-170, 1e100, 1e-170, 1.0])
        w_in = np.full(4, 1e-170)
        a, b = RngStream(3).generator(), RngStream(3).generator()
        with pytest.raises(FloatingPointError), np.errstate(invalid="raise"):
            gen_irg(w_out, w_in, 1e-320, RngStream(3).generator())
        with np.errstate(invalid="ignore"):  # also in gen_irg's threads
            ga = gen_irg(w_out, w_in, 1e-320, a)
            gb = gen_irg_dense(w_out, w_in, 1e-320, b)
        assert ga.total_multiplicity == 6
        assert list(ga.edge_triples()) == list(gb.edge_triples())
        assert np.array_equal(a.random(5), b.random(5))

    def _assert_matches_dense(self, n, seed):
        w_out = _irg_weights(np.random.default_rng([seed, 0]), n)
        w_in = _irg_weights(np.random.default_rng([seed, 1]), n)
        fast, dense = RngStream(seed).generator(), RngStream(seed).generator()
        for rng in (fast, dense):
            rng.random(3)
        a = gen_irg(w_out, w_in, 1.0, fast)
        b = gen_irg_dense(w_out, w_in, 1.0, dense)
        assert a.total_multiplicity > 0
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.tgt, b.tgt)
        assert np.array_equal(a.mult, b.mult)
        assert np.array_equal(fast.random(5), dense.random(5))
        assert fast.integers(2**32, dtype=np.uint32) == dense.integers(2**32, dtype=np.uint32)

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_thread_count_does_not_matter(self, cpus, monkeypatch):
        # n = 2048 at the default block size is 4 blocks, so with 4 usable
        # CPUs they run in 4 threads
        pools = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(generators, "ThreadPoolExecutor", RecordingPool)
        self._assert_matches_dense(2048, 41)
        assert pools == [cpus]

    def test_without_sched_getaffinity(self, monkeypatch):
        # os.sched_getaffinity exists only on Linux; elsewhere os.cpu_count() is used
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        self._assert_matches_dense(2048, 42)

    def test_working_memory_bounded(self, monkeypatch):
        # two threads each hold one block of 2^20 cells at about 9 bytes a
        # cell (the 64-bit word and the screen's bool), measured 18.3 MiB;
        # 2^21-cell blocks peaked at 36.5 MiB, the whole matrix needs 144 MiB
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        n = 4096
        rng = np.random.default_rng(43)
        w_out = rng.pareto(2.5, n) + 1.0
        w_in = rng.pareto(2.5, n) + 1.0
        gen = RngStream(43).generator()
        tracemalloc.start()
        try:
            g = gen_irg(w_out, w_in, float(w_in.mean()), gen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.total_multiplicity > 0
        assert peak < 3 * 10 * 2**20


class TestDpa:
    def test_params(self):
        with pytest.raises(ConfigError):
            PamParams(m=0, delta=0.0)
        with pytest.raises(ConfigError):
            PamParams(m=2, delta=-2.0)

    def test_two_vertices(self):
        g = gen_dpa(2, PamParams(m=3, delta=0.5), RngStream(33).generator())
        assert list(g.edge_triples()) == [(1, 0, 3)]
        assert g.d_out[1] == 3 and g.d_in[0] == 3

    def test_attachment_probability_n3(self):
        # m=1, delta=0: the third vertex picks either old vertex with prob 1/2
        rng = RngStream(34).generator()
        hits = 0
        trials = 4000
        for _ in range(trials):
            g = gen_dpa(3, PamParams(m=1, delta=0.0), rng)
            if (2, 0, 1) in list(g.edge_triples()):
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
            assert list(g.edge_triples()) == [(1, 0, 1)]
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
            if (2, 0, 1) in list(g.edge_triples()):
                hits += 1
        assert abs(hits / trials - 2 / 3) < 3 * np.sqrt(2 / 9 / trials)

    def test_tree_structure(self):
        g, births = gen_ctbp_tree(CtbpParams(1.0), 800, RngStream(39).generator())
        assert g.total_multiplicity == 799
        assert g.d_out[0] == 0 and (g.d_out[1:] == 1).all()
        assert (np.diff(births) > 0).all()  # birth order is the vertex order


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
