import hashlib
from fractions import Fraction

import numpy as np
import pytest

from pagerank_limits.census import census_limit, tv_distance, write_census_csv
from pagerank_limits.errors import ConfigError, ResourceError, UsageError
from pagerank_limits.generators import BiDegreeLaw, CtbpParams, PamParams, RngStream
from pagerank_limits.graph import canonical_code
from pagerank_limits.pagerank import GeneralizedWeights
from pagerank_limits import limits
from pagerank_limits.limits import (
    LIMIT_LAWS,
    LimitLaw,
    LimitTree,
    PolyaParams,
    _ctbp_levels,
    _polya_levels,
    _stack,
    limit_law,
    malthusian,
    read_pool_csv,
    solve_fixed_point_mc,
    write_pool_csv,
    write_tree_edgelist,
)

from _oracles import (
    TreeLaw,
    exact_gw_mean,
    fixed_point_pool_per_child,
    forest_of_trees,
    root_pagerank,
    sample_ctbp_limit,
    sample_gw_limit,
    sample_gw_trees,
    sample_polya_limit,
    tree_census,
    tree_index,
    tree_neighborhood,
    tree_root_rank_enum,
    tree_root_rank_enum_generalized,
    trees_of_levels,
    validate_neighborhood,
)

UNIFORM33 = BiDegreeLaw([(h, l, 1 / 9) for h in (1, 2, 3) for l in (1, 2, 3)])
PATH_LAW = BiDegreeLaw([(1, 1, 1.0)])
TREE_COLUMNS = ("parent", "mark", "node_depth")


def assert_same_forest(got, want):
    for name in TREE_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestMalthusian:
    def test_closed_form_oracle(self):
        # the defining series telescopes to rate/(a-1), so a* = 1 + rate
        assert malthusian(1.0) == pytest.approx(2.0, abs=1e-9)
        assert malthusian(1.5) == pytest.approx(2.5, abs=1e-9)

    def test_random_rates(self):
        rng = RngStream(41).generator()
        for _ in range(20):
            theta = float(rng.uniform(0.1, 5.0))
            alpha = malthusian(theta)
            assert alpha == pytest.approx(1.0 + theta, abs=1e-8)
            # defining equation via the closed form
            assert theta / (alpha - 1.0) == pytest.approx(1.0, abs=1e-7)

    def test_bad_rate(self):
        with pytest.raises(ConfigError):
            malthusian(0.0)


@pytest.mark.parametrize("theta", [1e-300, 1e-20, 1e-9, 1e-6, 0.5, 1.0, 1.5, 1e6, 1e300])
def test_malthusian_is_exactly_one_plus_rate(theta):
    assert malthusian(theta) == 1.0 + theta


@pytest.mark.parametrize("make", [malthusian, LimitLaw.ctbp, CtbpParams,
                                  lambda v: PolyaParams(m=2, delta=v),
                                  lambda v: PamParams(m=2, delta=v)])
def test_infinite_attachment_constant_rejected(make):
    with pytest.raises(ConfigError, match="finite"):
        make(np.inf)


@pytest.mark.parametrize("make", [malthusian, LimitLaw.ctbp, CtbpParams])
@pytest.mark.parametrize("theta", [1e-320, np.float64(5e-324)])
def test_rate_with_overflowing_reciprocal_rejected(make, theta):
    with pytest.raises(ConfigError, match="finite reciprocal"):
        make(theta)


class TestGwSampler:
    def test_deterministic_path(self):
        rng = RngStream(42).generator()
        t = sample_gw_limit(PATH_LAW, 4, rng)
        assert t.size == 5
        assert t.mark.tolist() == [1] * 5
        assert t.node_depth.tolist() == [0, 1, 2, 3, 4]
        assert root_pagerank(t, 0.5, 4) == pytest.approx(1 - 0.5 ** 5, abs=1e-15)

    def test_star_law_kills_dangling_marks(self):
        law = BiDegreeLaw([(0, 2, 0.5), (2, 0, 0.5)])
        rng = RngStream(43).generator()
        for _ in range(50):
            t = sample_gw_limit(law, 3, rng)
            assert (t.mark[1:] >= 1).all()  # non-root marks never 0

    def test_truncation_leaves_spawn_nothing(self):
        rng = RngStream(44).generator()
        t = sample_gw_limit(UNIFORM33, 2, rng)
        assert t.max_depth <= 2

    def test_mean_matches_exact_fraction_oracle(self):
        entries = [(h, l, Fraction(1, 9)) for h in (1, 2, 3) for l in (1, 2, 3)]
        want = exact_gw_mean(entries, Fraction(1, 2), 3)
        assert want == 1 - Fraction(1, 2) ** 4  # balanced dangling-free law
        rng = RngStream(45).generator()
        vals = [root_pagerank(sample_gw_limit(UNIFORM33, 3, rng), 0.5, 3)
                for _ in range(4000)]
        se = np.std(vals) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - float(want)) < 3 * se

    def test_dangling_law_mean_oracle(self):
        # mass at out-degree 0 breaks the geometric-series identity
        entries = [(0, 1, Fraction(1, 4)), (1, 1, Fraction(1, 2)),
                   (2, 1, Fraction(1, 4)), (1, 0, Fraction(0))]
        entries = [(h, l, p) for h, l, p in entries if p > 0]
        law = BiDegreeLaw([(0, 1, 0.25), (1, 1, 0.5), (2, 1, 0.25)])
        want = exact_gw_mean(entries, Fraction(1, 2), 2)
        assert want != 1 - Fraction(1, 2) ** 3
        rng = RngStream(46).generator()
        vals = [root_pagerank(sample_gw_limit(law, 2, rng), 0.5, 2)
                for _ in range(4000)]
        se = np.std(vals) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - float(want)) < 3 * se


class TestGwForest:
    LAWS = [
        UNIFORM33,
        BiDegreeLaw([(1, 1, 0.5), (2, 2, 0.5)]),
        BiDegreeLaw([(0, 0, 0.3), (1, 1, 0.4), (2, 2, 0.3)]),  # extinct trees
        BiDegreeLaw([(1, 3, 0.5), (3, 1, 0.5)]),
    ]

    @pytest.mark.parametrize("depth", [0, 1, 2, 4])
    def test_trees_and_stream_match_sequential_calls(self, depth):
        # the forest, and census_limit's census of it, are bit for bit the
        # node-at-a-time oracle's M trees, and the stream ends where its does
        for i, law in enumerate(self.LAWS):
            for M in (1, 400):
                rf, rs = RngStream(60, i).generator(), RngStream(60, i).generator()
                forest = LimitLaw.gw(law).forest(depth, M, rf)
                trees = sample_gw_trees(law, depth, M, rs)
                assert np.flatnonzero(forest.parent < 0).tolist() == list(range(M))
                assert forest.truncation_depth == depth
                assert_same_forest(forest, forest_of_trees(trees, depth))
                assert rf.random() == rs.random()
                rc, ro = RngStream(61, i).generator(), RngStream(61, i).generator()
                got = census_limit(LimitLaw.gw(law), depth, M, rc)
                assert got.counts == tree_census(sample_gw_trees(law, depth, M, ro), depth)
                assert rc.random() == ro.random()

    def test_rare_large_trees(self):
        # mostly single nodes, now and then a tree of thousands
        law = BiDegreeLaw([(1, 0, 0.9), (10, 19, 0.1)])
        rf, rs = RngStream(61).generator(), RngStream(61).generator()
        forest = LimitLaw.gw(law).forest(3, 50, rf)
        assert_same_forest(forest, forest_of_trees(sample_gw_trees(law, 3, 50, rs), 3))
        assert forest.size > 1000 and rf.random() == rs.random()

    def test_of_trees_truncates(self):
        # the oracle forest of given trees, which the per-tree laws draw
        rng = RngStream(62).generator()
        trees = [sample_ctbp_limit(1.0, 2.0, rng) for _ in range(30)]
        cuts = [int((t.node_depth <= 2).sum()) for t in trees]
        assert np.bincount(tree_index(forest_of_trees(trees, 2))).tolist() == cuts
        for t, cut in zip(trees, cuts):
            assert np.array_equal(forest_of_trees([t], 2).parent, t.parent[:cut])
        with pytest.raises(UsageError):
            forest_of_trees([sample_gw_limit(UNIFORM33, 1, rng)], 2)

    def test_bad_arguments(self):
        with pytest.raises(ConfigError):
            LimitLaw.gw(UNIFORM33).forest(-1, 5, RngStream(63).generator())
        with pytest.raises(ConfigError):
            LimitLaw.gw(UNIFORM33).forest(2, 0, RngStream(63).generator())


class TestGwTreeStarts:
    """Forests whose nodes have few or no children."""

    def test_roots_only_law(self):
        law = BiDegreeLaw([(0, 0, 1.0)])
        rf, rs = RngStream(71).generator(), RngStream(71).generator()
        forest = LimitLaw.gw(law).forest(3, 50, rf)
        assert forest.parent.tolist() == [-1] * 50 and not forest.mark.any()
        assert all(t.size == 1 for t in sample_gw_trees(law, 3, 50, rs))
        assert rf.random() == rs.random()

    def test_non_roots_need_star_law(self):
        # mean out-degree 0 leaves p* undefined, yet roots may have in-degree 1
        law = BiDegreeLaw([(0, 1, 0.5), (0, 0, 0.5)], mean_tol=1.0)
        with pytest.raises(ConfigError, match="size-biased law undefined"):
            LimitLaw.gw(law).forest(1, 50, RngStream(72).generator())
        assert LimitLaw.gw(law).forest(0, 50, RngStream(72).generator()).size == 50


class TestRootRank:
    def test_root_only(self):
        t = LimitTree(parent=np.array([-1]), mark=np.array([3]),
                      node_depth=np.array([0]), truncation_depth=None)
        assert root_pagerank(t, 0.3) == pytest.approx(0.7)

    def test_matches_path_enumeration(self):
        rng = RngStream(47).generator()
        for _ in range(40):
            t = sample_gw_limit(UNIFORM33, 3, rng)
            for N in range(4):
                got = root_pagerank(t, 0.5, N)
                want = tree_root_rank_enum(t, 0.5, N)
                assert abs(got - want) < 1e-12

    def test_monotone_in_depth(self):
        rng = RngStream(48).generator()
        for _ in range(20):
            t = sample_gw_limit(UNIFORM33, 4, rng)
            vals = [root_pagerank(t, 0.7, N) for N in range(5)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_lower_bound(self):
        rng = RngStream(49).generator()
        for _ in range(30):
            t = sample_gw_limit(UNIFORM33, 2, rng)
            kids = np.nonzero(t.node_depth == 1)[0]
            bound = 0.5 * (1 + 0.5 * sum(1.0 / t.mark[k] for k in kids))
            assert root_pagerank(t, 0.5, 2) >= bound - 1e-12

    def test_depth_beyond_truncation_rejected(self):
        t = sample_gw_limit(UNIFORM33, 2, RngStream(50).generator())
        with pytest.raises(UsageError):
            root_pagerank(t, 0.5, 3)

    def test_bad_damping_rejected(self):
        t = sample_gw_limit(UNIFORM33, 1, RngStream(59).generator())
        for c in (0.0, 1.0, np.nan):
            with pytest.raises(ConfigError, match=r"damping factor must be in \(0,1\)"):
                root_pagerank(t, c)


def _draw_weights(t, c_sampler, b_sampler, rng):
    """Per-node (C, B) of tree ``t``, C drawn before B."""
    return GeneralizedWeights(C=c_sampler(rng, t.size), B=b_sampler(rng, t.size))


class TestGeneralizedRank:
    def test_constant_reduction(self):
        rng = RngStream(51).generator()
        const_c = lambda r, size: np.full(size, 0.5)
        const_b = lambda r, size: np.full(size, 0.5)
        for _ in range(20):
            t = sample_gw_limit(UNIFORM33, 3, rng)
            w = _draw_weights(t, const_c, const_b, rng)
            assert root_pagerank(t, w, 3) == pytest.approx(
                root_pagerank(t, 0.5, 3), abs=1e-12)

    def test_zero_c_returns_root_b(self):
        t = sample_gw_limit(UNIFORM33, 2, RngStream(52).generator())
        w = _draw_weights(t, lambda r, s: np.zeros(s), lambda r, s: np.full(s, 7.0),
                          RngStream(53).generator())
        assert root_pagerank(t, w, 2) == pytest.approx(7.0)

    def test_two_level_hand_recursion(self):
        # root with two children, marks 2 and 4
        t = LimitTree(parent=np.array([-1, 0, 0]), mark=np.array([1, 2, 4]),
                      node_depth=np.array([0, 1, 1]), truncation_depth=1)
        w = GeneralizedWeights(C=[0.9, 0.5, 0.8], B=[0.1, 0.2, 0.3])
        want = 0.1 + (0.5 / 2) * 0.2 + (0.8 / 4) * 0.3
        assert root_pagerank(t, w, 1) == pytest.approx(want, abs=1e-15)

    def test_matches_enumeration(self):
        rng = RngStream(54).generator()
        for _ in range(25):
            t = sample_gw_limit(UNIFORM33, 3, rng)
            w = _draw_weights(t, lambda r, s: r.uniform(0, 0.9, s),
                              lambda r, s: r.exponential(0.2, s), rng)
            got = root_pagerank(t, w, 3)
            want = tree_root_rank_enum_generalized(t, w.C, w.B, 3)
            assert abs(got - want) < 1e-12

    def test_c_at_least_one_rejected(self):
        t = sample_gw_limit(UNIFORM33, 1, RngStream(55).generator())
        with pytest.raises(ConfigError):
            root_pagerank(t, _draw_weights(
                t, lambda r, s: np.full(s, 1.0), lambda r, s: np.zeros(s),
                RngStream(56).generator()), 1)

    def test_nan_c_rejected(self):
        t = sample_gw_limit(UNIFORM33, 1, RngStream(55).generator())
        with pytest.raises(ConfigError, match="must be finite"):
            root_pagerank(t, _draw_weights(
                t, lambda r, s: np.full(s, np.nan), lambda r, s: np.zeros(s),
                RngStream(56).generator()), 1)

    def test_weights_of_the_wrong_length(self):
        t = sample_gw_limit(UNIFORM33, 1, RngStream(57).generator())
        for size in (t.size - 1, t.size + 1):
            w = GeneralizedWeights(C=np.full(size, 0.5), B=np.full(size, 0.5))
            with pytest.raises(ConfigError, match=f"{t.size} nodes .* have {size}$"):
                root_pagerank(t, w, 1)

    def test_weights_left_unchanged(self):
        rng = RngStream(58).generator()
        t = sample_gw_limit(UNIFORM33, 3, rng)
        w = _draw_weights(t, lambda r, s: r.uniform(0, 0.9, s),
                          lambda r, s: r.exponential(0.2, s), rng)
        C, B = w.C.copy(), w.B.copy()
        first = root_pagerank(t, w)
        assert w.C.tobytes() == C.tobytes() and w.B.tobytes() == B.tobytes()
        assert root_pagerank(t, w) == first


def _levels_and_b(levels, b_sampler, rng):
    """The levels ``levels`` yields, each level's B drawn right after it, as
    a level pool draws them."""
    drawn, B = [], []
    for level in levels:
        drawn.append(level)
        B.append(b_sampler(rng, level[1].size))
    return drawn, B


def _ranks_with_level_weights(trees, B, c_sampler, rng):
    """:func:`root_pagerank` of each of ``trees`` with the level pool's
    weights: level d's nodes, tree by tree in breadth-first order, take
    level d's B values ``B`` and C values, which are drawn here, one level
    at a time from the deepest up (the roots draw none)."""
    C = [np.zeros(B[0].size)] + [c_sampler(rng, b.size) for b in B[:0:-1]][::-1]
    seen = [0] * len(B)  # each level's nodes of the trees so far
    want = []
    for t in trees:
        weights = [np.empty(t.size), np.empty(t.size)]
        for d in range(t.max_depth + 1):
            idx = np.flatnonzero(t.node_depth == d)
            for w, drawn in zip(weights, (C, B)):
                w[idx] = drawn[d][seen[d]:seen[d] + idx.size]
            seen[d] += idx.size
        want.append(root_pagerank(t, GeneralizedWeights(*weights)))
    assert seen == [b.size for b in B]
    return want


class TestFold:
    """Level pools rank a block of trees at once, as :func:`root_pagerank`
    ranks the trees their levels make; only the summation order differs."""

    POLYA = PolyaParams(m=2, delta=1.0)
    C_LAW = staticmethod(lambda r, s: r.uniform(0.0, 0.85, s))
    B_LAW = staticmethod(lambda r, s: r.exponential(0.15, s))

    def test_polya_block_matches_per_tree(self):
        # constant weights draw nothing: the pool's stream is its levels'
        got = LimitLaw.polya(2, 1.0).pool(0.85, 9, 300, RngStream(150).generator())
        trees = trees_of_levels(_polya_levels(self.POLYA, 9, 300, RngStream(150).generator()), 9)
        assert max(t.size for t in trees) > 256
        assert got.tolist() == pytest.approx([root_pagerank(t, 0.85) for t in trees], rel=1e-12)

    def test_polya_generalized_block_matches_per_tree(self):
        rp, rng = RngStream(151).generator(), RngStream(151).generator()
        got = LimitLaw.polya(2, 1.0).pool(0.85, 7, 300, rp,
                                          c_sampler=self.C_LAW, b_sampler=self.B_LAW)
        levels, B = _levels_and_b(_polya_levels(self.POLYA, 7, 300, rng), self.B_LAW, rng)
        trees = trees_of_levels(levels, 7)
        assert max(t.size for t in trees) > 256
        want = _ranks_with_level_weights(trees, B, self.C_LAW, rng)
        assert rp.random() == rng.random()
        assert got.tolist() == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("law", [LimitLaw.gw(UNIFORM33), LimitLaw.polya(2, 1.0),
                                     LimitLaw.ctbp(1.0)], ids=["gw", "polya", "ctbp"])
    def test_blocks_draw_as_pools_in_turn(self, law, monkeypatch):
        # 100-root blocks: a pool of 350 draws as pools of 100, 100, 100 and 50
        monkeypatch.setattr(limits, "_FOREST_TREES", 100)
        ra, rb = RngStream(159).generator(), RngStream(159).generator()
        got = law.pool(None, 4, 350, ra, c_sampler=self.C_LAW, b_sampler=self.B_LAW)
        want = [law.pool(None, 4, m, rb, c_sampler=self.C_LAW, b_sampler=self.B_LAW)
                for m in (100, 100, 100, 50)]
        assert got.tobytes() == np.concatenate(want).tobytes()
        assert ra.random() == rb.random()

    def test_depth_zero(self):
        got = LimitLaw.polya(2, 1.0).pool(0.85, 0, 50, RngStream(152).generator())
        assert np.all(got == 1.0 - 0.85)

    def test_one_node_tree(self):
        # a law of lone roots of mark 3: each rank is its root's B
        law = LimitLaw(lambda depth, M, r: iter([(None, np.full(M, 3))]))
        assert law.pool(0.3, 4, 5, RngStream(153).generator()).tolist() == [1.0 - 0.3] * 5
        got = law.pool(0.3, 4, 5, RngStream(154).generator(),
                       c_sampler=self.C_LAW, b_sampler=self.B_LAW)
        assert got.tolist() == self.B_LAW(RngStream(154).generator(), 5).tolist()

    @pytest.mark.parametrize("value", [1.0, np.nan])
    def test_pool_rejects_c_at_least_one(self, value):
        with pytest.raises(ConfigError, match="max node C must be < 1"):
            LimitLaw.polya(2, 1.0).pool(0.5, 3, 50, RngStream(155).generator(),
                                        c_sampler=lambda r, s: np.full(s, value),
                                        b_sampler=self.B_LAW)

    @pytest.mark.parametrize("value", [1.0, np.nan])
    @pytest.mark.parametrize("direct", [False, True], ids=["fixed_point", "gw"])
    def test_gw_pools_reject_c_at_least_one(self, direct, value):
        law = LimitLaw.gw(UNIFORM33, fixed_point=not direct)
        with pytest.raises(ConfigError, match="max node C must be < 1"):
            law.pool(None, 3, 50, RngStream(157).generator(),
                     c_sampler=lambda r, s: np.full(s, value), b_sampler=self.B_LAW)

    def test_pool_rejects_bad_damping(self):
        with pytest.raises(ConfigError, match="need damping c in"):
            LimitLaw.ctbp(1.0).pool(1.0, 3, 5, RngStream(156).generator())

    @pytest.mark.parametrize("M", [0, -1])
    def test_every_pool_rejects_empty_sizes(self, M):
        laws = [LimitLaw.gw(UNIFORM33, fixed_point=True), LimitLaw.gw(UNIFORM33),
                LimitLaw.polya(2, 1.0), LimitLaw.ctbp(1.0)]
        for law in laws:
            with pytest.raises(ConfigError, match=rf"^pool size must be >= 1, got {M}$"):
                law.pool(0.5, 3, M, RngStream(158).generator())

    @pytest.mark.parametrize("sampler,model", [
        ("fixed_point", {"name": "dcm", "law": UNIFORM33}),
        ("gw", {"name": "dcm", "law": UNIFORM33}),
        ("ctbp", {"name": "ctbp", "theta": 1.0}),
        ("polya", {"name": "dpa", "m": 2, "delta": 1.0}),
    ])
    def test_every_law_rejects_negative_depth(self, sampler, model):
        law = limit_law(sampler, model)
        draws = [lambda r: law.tree(-3, r), lambda r: law.forest(-3, 5, r),
                 lambda r: law.pool(0.5, -3, 5, r)]
        for draw in draws:
            with pytest.raises(ConfigError, match=r"^depth must be >= 0, got -3$"):
                draw(RngStream(160).generator())


class TestCtbpLimit:
    def test_root_only_probability(self):
        # P(no birth before the window) = a*/(a* + theta) = 2/3 for theta=1,
        # read from the level-wise forest
        M = 6000
        forest = LimitLaw.ctbp(1.0).forest(1, M, RngStream(58).generator())
        lone = int((np.bincount(tree_index(forest)) == 1).sum())
        assert abs(lone / M - 2 / 3) < 3 * np.sqrt(2 / 9 / M)

    def test_window_distribution(self):
        rng = RngStream(59).generator()
        windows = [sample_ctbp_limit(1.0, 2.0, rng).window for _ in range(4000)]
        assert abs(np.mean(windows) - 0.5) < 3 * 0.5 / np.sqrt(4000)

    def test_all_marks_one(self):
        rng = RngStream(60).generator()
        for _ in range(50):
            t = sample_ctbp_limit(1.0, 2.0, rng)
            assert (t.mark == 1).all()
            assert (t.birth_time < t.window).all()

    def test_rank_collapses_to_generation_sum(self):
        # the pool ranks whole trees, whatever the depth
        c, law = 0.5, LimitLaw.ctbp(1.0)
        got = law.pool(c, 0, 300, RngStream(61).generator())
        forest = _stack(law.levels(None, 300, RngStream(61).generator()), None)
        assert forest.node_depth.max() >= 3
        tree = tree_index(forest)
        for i, value in enumerate(got.tolist()):
            zs = np.bincount(forest.node_depth[tree == i])
            want = (1 - c) * sum((c ** k) * z for k, z in enumerate(zs.tolist()))
            assert value == pytest.approx(want, abs=1e-12)

    def test_node_cap(self):
        # past its cap a level generator raises, and a law draws the block
        # again, up to 10 attempts, each from where the last left the stream
        polya = PolyaParams(2, 1.0)
        cases = {  # name: (levels with a cap, whether the law is finite)
            "ctbp": (lambda depth, M, rng, cap: _ctbp_levels(1.0, 2.0, M, rng, max_nodes=cap),
                     True),
            "polya": (lambda depth, M, rng, cap: _polya_levels(polya, depth, M, rng,
                                                               max_nodes=cap), False),
        }
        for name, (capped, finite) in cases.items():
            with pytest.raises(ResourceError, match="exceeded 3 nodes"):
                list(capped(5, 50, RngStream(62).generator(), 3))
            attempts = []

            def levels(depth, M, rng):
                attempts.append(M)
                return capped(depth, M, rng, 2)

            law = LimitLaw(levels, finite=finite)
            ra, rb = RngStream(66).generator(), RngStream(66).generator()
            tree = law.tree(5, ra)
            depth = None if finite else 5
            for failed in range(10):
                try:
                    want = _stack(capped(depth, 1, rb, 2), depth)
                    break
                except ResourceError:
                    pass
            assert failed == 2 and attempts == [1] * 3 and ra.random() == rb.random(), name
            assert_same_forest(tree, want)
            with pytest.raises(ResourceError,
                               match="^limit population kept exceeding the node cap$"):
                law.forest(2, 50, ra)
            assert attempts == [1] * 3 + [50] * 10

    def test_rank_monotone_up_to_full_value(self):
        rng = RngStream(76).generator()
        for _ in range(30):
            t = sample_ctbp_limit(1.0, 2.0, rng)
            full = root_pagerank(t, 0.5)
            prev = 0.0
            for N in range(t.max_depth + 1):
                v = root_pagerank(t, 0.5, N)
                assert prev - 1e-12 <= v <= full + 1e-12
                prev = v
            assert prev == pytest.approx(full, abs=1e-12)


class TestLevelLaws:
    """The level-wise polya and ctbp laws against the per-tree samplers
    they replaced, kept in tests/_oracles.py: the same laws, drawn in
    another order."""

    POLYA = PolyaParams(m=2, delta=1.0)
    LAWS = {"polya": (LimitLaw.polya(2, 1.0), 2,
                      TreeLaw(lambda depth, r: sample_polya_limit(PolyaParams(2, 1.0), depth, r))),
            "ctbp": (LimitLaw.ctbp(1.0), 1,
                     TreeLaw(lambda depth, r: sample_ctbp_limit(1.0, 2.0, r)))}

    @staticmethod
    def _ks_critical(n, m):
        """Two-sample KS critical value at the 1% level."""
        return 1.628 * np.sqrt((n + m) / (n * m))

    @pytest.mark.parametrize("sampler,depth", [("polya", 1), ("polya", 3), ("polya", 5),
                                               ("ctbp", 3)])
    def test_pool_matches_per_tree_pool(self, sampler, depth):
        from pagerank_limits.census import TailSample, ks_distance

        law, _, oracle = self.LAWS[sampler]
        new = law.pool(0.5, depth, 20_000, RngStream(170, depth).generator())
        old = oracle.pool(0.5, depth, 3000, RngStream(171, depth).generator())
        ks = ks_distance(TailSample(new), TailSample(old))
        assert ks < self._ks_critical(new.size, old.size), ks

    @pytest.mark.parametrize("sampler", ["polya", "ctbp"])
    def test_tree_sizes_match_per_tree_sizes(self, sampler):
        # depth-3 tree sizes see where children sit, which the root's census
        # class and the damped ranks barely do
        from pagerank_limits.census import TailSample, ks_distance

        law, _, oracle = self.LAWS[sampler]
        new = np.bincount(tree_index(law.forest(3, 20_000, RngStream(174).generator())))
        old = np.bincount(tree_index(oracle.forest(3, 3000, RngStream(175).generator())))
        ks = ks_distance(TailSample(new.astype(float)), TailSample(old.astype(float)))
        assert ks < self._ks_critical(new.size, old.size), ks

    @pytest.mark.parametrize("sampler,bound", [("polya", 0.045), ("ctbp", 0.035)])
    def test_census_matches_per_tree_census(self, sampler, bound):
        # two per-tree censuses of 5000 trees each, over 15 seed pairs, were
        # at most 0.034 (polya) and 0.026 (ctbp) apart in TV at k = 1
        law, _, oracle = self.LAWS[sampler]
        new = census_limit(law, 1, 5000, RngStream(172, 0).generator())
        old = census_limit(oracle, 1, 5000, RngStream(172, 1).generator())
        assert tv_distance(new, old) < bound

    @pytest.mark.parametrize("sampler", ["polya", "ctbp"])
    def test_forest_structure(self, sampler):
        # trees in level order: the roots first, then each level's nodes
        # listed by parent, each parent one level up, every mark the law's;
        # the node-at-a-time assembly of the same levels, stacked, agrees
        law, mark, _ = self.LAWS[sampler]
        forest = law.forest(4, 500, RngStream(173).generator())
        sizes = np.bincount(tree_index(forest))
        assert sizes.size == 500 and sizes.max() > 20
        inner = forest.node_depth > 0
        assert (forest.parent[:500] == -1).all() and inner.sum() == forest.parent.size - 500
        assert (np.diff(forest.node_depth) >= 0).all()
        parent = forest.parent[inner]
        assert (forest.node_depth[parent] == forest.node_depth[inner] - 1).all()
        assert (parent[1:] >= parent[:-1]).all() and (parent < np.flatnonzero(inner)).all()
        assert (forest.mark == mark).all() and forest.truncation_depth == 4
        assert forest.node_depth.max() == 4
        want = forest_of_trees(trees_of_levels(law.levels(4, 500, RngStream(173).generator()), 4), 4)
        assert_same_forest(forest, want)


class TestPolyaLimit:
    def test_params(self):
        with pytest.raises(ConfigError, match="m >= 2"):
            PolyaParams(m=1, delta=0.0)
        p = PolyaParams(m=2, delta=1.0)
        assert p.chi == pytest.approx(0.6)
        assert p.psi == pytest.approx(2 / 3)

    def test_root_position_law(self):
        # P(x <= t) = t^(1/chi)
        rng = RngStream(63).generator()
        p = PolyaParams(m=2, delta=1.0)
        xs = np.array([sample_polya_limit(p, 0, rng).position[0] for _ in range(4000)])
        for t in (0.2, 0.5, 0.8):
            want = t ** (1 / p.chi)
            got = (xs <= t).mean()
            assert abs(got - want) < 3 * np.sqrt(want * (1 - want) / xs.size) + 1e-3

    def test_root_offspring_mean_given_position(self):
        # conditional mean (m+delta)(x^-psi - 1); forced x = 0.25 with delta=0
        p = PolyaParams(m=2, delta=0.0)

        class ForcedFirstUniform:
            def __init__(self, inner, value):
                self.inner = inner
                self.value = value

            def random(self, *args, **kw):
                if self.value is not None:
                    v, self.value = self.value, None
                    return v
                return self.inner.random(*args, **kw)

            def __getattr__(self, name):
                return getattr(self.inner, name)

        rng = RngStream(64).generator()
        forced = 0.25 ** (1 / p.chi)
        counts = []
        for _ in range(3000):
            t = sample_polya_limit(p, 1, ForcedFirstUniform(rng, forced))
            assert t.position[0] == pytest.approx(0.25)
            counts.append(t.size - 1)
        want = (p.m + p.delta) * (0.25 ** (-p.psi) - 1.0)  # = 3m = 6
        assert want == pytest.approx(6.0)
        se = np.std(counts) / np.sqrt(len(counts))
        assert abs(np.mean(counts) - want) < 3 * se

    def test_marks_and_positions(self):
        rng = RngStream(65).generator()
        p = PolyaParams(m=3, delta=-0.5)
        for _ in range(30):
            t = sample_polya_limit(p, 2, rng)
            assert (t.mark == 3).all()
            for i in range(1, t.size):
                assert t.position[i] > t.position[int(t.parent[i])]
                assert t.position[i] <= 1.0
            assert t.strength.size == t.size  # leaves carry strengths too


class TestFixedPointPool:
    def test_deterministic_law_converges_to_one(self):
        rng = RngStream(66).generator()
        for depth in (0, 1, 3, 8):
            pool = solve_fixed_point_mc(PATH_LAW, 0.5, depth, 200, rng)
            assert np.allclose(pool, 1 - 0.5 ** (depth + 1), atol=1e-12)

    def test_leaf_only_law(self):
        law = BiDegreeLaw([(1, 0, 1.0)], mean_tol=float("inf"))
        pool = solve_fixed_point_mc(law, 0.3, 4, 200, RngStream(67).generator())
        assert np.allclose(pool, 0.7, atol=1e-12)

    def test_matches_direct_sampler(self):
        from pagerank_limits.census import TailSample, ks_distance

        rng = RngStream(68).generator()
        pool = solve_fixed_point_mc(UNIFORM33, 0.5, 4, 30_000, rng)
        direct = LimitLaw.gw(UNIFORM33).pool(0.5, 4, 30_000, rng)
        assert ks_distance(TailSample(pool), TailSample(direct)) < 0.02

    def test_direct_matches_object_sampler(self):
        from pagerank_limits.census import TailSample, ks_distance

        rng = RngStream(69).generator()
        direct = LimitLaw.gw(UNIFORM33).pool(0.5, 3, 5000, rng)
        objs = np.array([
            root_pagerank(sample_gw_limit(UNIFORM33, 3, rng), 0.5, 3)
            for _ in range(5000)
        ])
        assert ks_distance(TailSample(direct), TailSample(objs)) < 0.04

    @pytest.mark.parametrize("law", [UNIFORM33, TestGwForest.LAWS[2]], ids=["law33", "extinct"])
    def test_direct_pool_ranks_the_oracle_trees(self, law):
        # each level's B is drawn right after its nodes, then each level's C
        # from the deepest up; only the summation order differs from the oracle
        cs, bs = TestFold.C_LAW, TestFold.B_LAW
        rp, rng, B = RngStream(72).generator(), RngStream(72).generator(), []
        got = LimitLaw.gw(law).pool(None, 3, 60, rp, c_sampler=cs, b_sampler=bs)
        trees = sample_gw_trees(law, 3, 60, rng, on_level=lambda n: B.append(bs(rng, n)))
        want = _ranks_with_level_weights(trees, B, cs, rng)
        assert rp.random() == rng.random()
        assert got.tolist() == pytest.approx(want, rel=1e-12)

    def test_generalized_pool_matches_generalized_direct(self):
        from pagerank_limits.census import TailSample, ks_distance

        rng = RngStream(70).generator()
        c_sampler = lambda r, s: r.uniform(0, 0.85, s)
        b_sampler = lambda r, s: r.exponential(0.15, s)
        pool = solve_fixed_point_mc(UNIFORM33, None, 4, 30_000, rng,
                                    c_sampler=c_sampler, b_sampler=b_sampler)
        direct = LimitLaw.gw(UNIFORM33).pool(None, 4, 30_000, rng,
                                             c_sampler=c_sampler, b_sampler=b_sampler)
        assert ks_distance(TailSample(pool), TailSample(direct)) < 0.02

    def test_needs_c_or_samplers(self):
        with pytest.raises(ConfigError):
            solve_fixed_point_mc(UNIFORM33, None, 3, 100, RngStream(71).generator())

    @pytest.mark.parametrize("M", [1, 7, 4097])
    @pytest.mark.parametrize("depth", [0, 1, 2, 9])
    @pytest.mark.parametrize("law", [UNIFORM33, BiDegreeLaw([(1, 0, 1.0)], mean_tol=float("inf"))],
                             ids=["law33", "leaf-only"])
    @pytest.mark.parametrize("sampled", [False, True], ids=["constant", "sampled"])
    def test_pool_equals_the_per_child_fold(self, sampled, law, depth, M):
        # constant c weighs each pool member once; sampled (C, B) draw C per child
        weights = ({"c_sampler": TestFold.C_LAW, "b_sampler": TestFold.B_LAW} if sampled
                   else {})
        c = None if sampled else 0.85
        rng, oracle_rng = RngStream(74).generator(), RngStream(74).generator()
        got = solve_fixed_point_mc(law, c, depth, M, rng, **weights)
        want = fixed_point_pool_per_child(law, c, depth, M, oracle_rng, **weights)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        assert rng.random(4).tolist() == oracle_rng.random(4).tolist()  # the same draws


class TestGwLawTree:
    """``LimitLaw.gw(law).tree`` stacks one tree's levels: the per-tree
    sampler's tree, column dtypes, file bytes and stream position."""

    LAW_BAL = BiDegreeLaw([(1, 1, 0.5), (2, 2, 0.5)])

    @pytest.mark.parametrize("depth", [0, 1, 2, 5])
    @pytest.mark.parametrize("law", [UNIFORM33, LAW_BAL], ids=["law33", "law_bal"])
    def test_matches_the_per_tree_sampler(self, tmp_path, law, depth):
        for seed in range(40):
            ra, rb = RngStream(seed).generator(), RngStream(seed).generator()
            got, want = LimitLaw.gw(law).tree(depth, ra), sample_gw_limit(law, depth, rb)
            assert_same_forest(got, want)
            assert got.truncation_depth == want.truncation_depth == depth
            write_tree_edgelist(got, tmp_path / "got.txt")
            write_tree_edgelist(want, tmp_path / "want.txt")
            assert (tmp_path / "got.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()
            assert ra.random(4).tolist() == rb.random(4).tolist()


class TestTreeNeighborhood:
    def test_valid_and_codes_stable(self):
        rng = RngStream(72).generator()
        for _ in range(20):
            t = sample_gw_limit(UNIFORM33, 2, rng)
            nb = tree_neighborhood(t, 2)
            validate_neighborhood(nb)
            assert canonical_code(nb).startswith(b"T")

    def test_depth_zero_class(self):
        t = sample_ctbp_limit(1.0, 2.0, RngStream(73).generator())
        nb = tree_neighborhood(t, 0)
        assert nb.size == 1 and nb.marks == [1]

    def test_beyond_truncation_rejected(self):
        t = sample_gw_limit(UNIFORM33, 1, RngStream(74).generator())
        with pytest.raises(UsageError):
            tree_neighborhood(t, 2)


class TestPoolCsv:
    def test_roundtrip(self, tmp_path):
        vals = RngStream(75).generator().random(100)
        write_pool_csv(vals, tmp_path / "pool.csv")
        back = read_pool_csv(tmp_path / "pool.csv")
        assert np.array_equal(back, vals)


class TestSeededOutputsPinned:
    """Each sampler's census of 5000 trees (two blocks), eight trees drawn
    after it and the stream's next draw, pinned as SHA-256 prefixes of the
    census CSV and of the trees' edge lists back to back: how limit trees
    are held in memory must move no output byte and no draw."""

    LAW = BiDegreeLaw([(1, 1, 0.3), (2, 3, 0.4), (3, 1, 0.2), (4, 4, 0.1)])
    MODELS = {"dcm": {"name": "dcm", "law": LAW}, "ctbp": {"name": "ctbp", "theta": 1.0},
              "dpa": {"name": "dpa", "m": 2, "delta": 1.0}}
    # by model: the three dcm samplers draw the same trees
    PINNED = {
        ("dcm", 0): ("e741891f96a08936", "fb80f6cb412da28e", 0.5236686365921709),
        ("dcm", 1): ("bb80aaced044d588", "e2a4c4771c86101a", 0.3229016219375752),
        ("dcm", 2): ("09c190ea410d5eb4", "574358bd467db7ee", 0.7980048272428787),
        ("dcm", 3): ("66513e978a4b5fd4", "589929cfa21bde3b", 0.1956841124037655),
        ("ctbp", 0): ("547ec25481645b07", "9298c89c6ffded49", 0.19016493648700727),
        ("ctbp", 1): ("86dc5f59c732992d", "2bc7865111c416e9", 0.4743433183767688),
        ("ctbp", 2): ("09b189e6a32387b3", "6a964d25f5b91196", 0.34012273244720925),
        ("ctbp", 3): ("d21b1e1676d22c53", "ef4454fe8600b5b1", 0.8138467474662119),
        ("dpa", 0): ("6abcd71aa8f254d9", "8c43dc7914090c76", 0.5236686365921709),
        ("dpa", 1): ("02453357ad946b8d", "ca929ee0e43eacdb", 0.35464790680837255),
        ("dpa", 2): ("b6822d0bf0a100d3", "243fac3f75427886", 0.39962877268994224),
        ("dpa", 3): ("81262e4784e1e881", "51f358b2be4dbbea", 0.15716042270076902),
    }

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("sampler", list(LIMIT_LAWS))
    def test_census_trees_and_stream(self, tmp_path, sampler, k):
        model = LIMIT_LAWS[sampler][0]
        law = limit_law(sampler, self.MODELS[model])
        rng = RngStream(310, k).generator()
        write_census_csv(census_limit(law, k, 5000, rng), tmp_path / "census.csv")
        trees = hashlib.sha256()
        for _ in range(8):
            write_tree_edgelist(law.tree(k, rng), tmp_path / "tree.txt")
            trees.update((tmp_path / "tree.txt").read_bytes())
        census = hashlib.sha256((tmp_path / "census.csv").read_bytes())
        got = (census.hexdigest()[:16], trees.hexdigest()[:16], rng.random())
        assert got == self.PINNED[model, k]
