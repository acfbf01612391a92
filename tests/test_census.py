import importlib
import sys
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from pagerank_limits.census import (
    NeighborhoodCensus,
    TailSample,
    ccdf,
    census,
    census_limit,
    hill_estimator,
    ks_distance,
    read_census_csv,
    tv_distance,
    write_census_csv,
)
from _oracles import (
    GwOracleLaw,
    TreeLaw,
    per_root_census,
    rank_rows_lexsort,
    read_tail_csv,
    refine_lexsort,
    sample_gw_limit,
    sample_gw_trees,
    tree_census,
    trees_of_levels,
)
from pagerank_limits.errors import InputError, SizeError, UsageError
from pagerank_limits.generators import (
    BiDegreeLaw,
    PamParams,
    RngStream,
    gen_dcm,
    gen_dpa,
    sample_bidegree_sequence,
)
from pagerank_limits.graph import TREE_PREFIX, build_graph, canonical_code, explore_neighborhood
from pagerank_limits.limits import LimitLaw, LimitTree, PolyaParams, _ctbp_levels, _polya_levels

# the package attribute `census` is the function, so fetch the module itself
census_module = importlib.import_module("pagerank_limits.census")

UNIFORM33 = BiDegreeLaw([(h, l, 1 / 9) for h in (1, 2, 3) for l in (1, 2, 3)])


class TestCensus:
    def test_cycle_single_class(self):
        g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
        c = census(g, 1)
        assert len(c.counts) == 1 and c.total == 3
        assert list(c.counts.values()) == [3]

    def test_empty_graph(self):
        c = census(build_graph([], 5), 2)
        assert len(c.counts) == 1 and c.total == 5

    def test_dcm_22_dominant_class(self):
        law = BiDegreeLaw([(2, 2, 1.0)])
        rng = RngStream(81).generator()
        g = gen_dcm(sample_bidegree_sequence(law, 10_000, rng), rng)
        c = census(g, 1)
        top = max(c.counts.values())
        assert top / c.total >= 0.9
        # the dominant class is the tree: root mark 2 with two mark-2 children
        rngl = RngStream(82).generator()
        limit = census_limit(TreeLaw(lambda depth, r: sample_gw_limit(law, 1, r)), 1, 10,
                             rngl)
        (tree_code,) = limit.counts.keys()
        assert c.counts[tree_code] == top

    def test_sampled_census(self):
        g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
        c = census(g, 1, sample_count=2, rng=RngStream(83).generator())
        assert c.total == 2

    def test_sampled_needs_rng(self):
        g = build_graph([], 3)
        with pytest.raises(UsageError):
            census(g, 1, sample_count=2)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        g = build_graph([(0, 1), (1, 2)], 3)
        with pytest.raises(UsageError, match=f"workers must be >= 1, got {workers}"):
            census(g, 1, workers=workers)

    def test_workers_match_sequential(self):
        rng = RngStream(84).generator()
        g = gen_dcm(sample_bidegree_sequence(UNIFORM33, 500, rng), rng)
        seq = census(g, 2, workers=1)
        par = census(g, 2, workers=2)
        assert seq.counts == par.counts

    def test_stability_of_sampled_censuses(self):
        # two independent sampled censuses at count 10^4 stay within TV 0.05;
        # needs a class law with concentrated support (a diffuse law at depth 2
        # has thousands of classes and an irreducible TV floor ~ sqrt(K/count))
        law = BiDegreeLaw([(1, 2, 0.5), (2, 1, 0.5)])
        rng = RngStream(85).generator()
        g = gen_dcm(sample_bidegree_sequence(law, 20_000, rng), rng)
        a = census(g, 2, sample_count=10_000, rng=RngStream(86).generator())
        b = census(g, 2, sample_count=10_000, rng=RngStream(87).generator())
        assert tv_distance(a, b) < 0.05


def random_multigraph(rng, n, mean_out):
    """Multigraph with self-loops, multi-edges and dangling vertices; sparse
    enough at small ``mean_out`` that most neighborhoods are trees."""
    src = np.repeat(np.arange(n), rng.poisson(mean_out, n) * (rng.random(n) > 0.15))
    tgt = rng.integers(0, n, src.size)
    mult = np.where(rng.random(src.size) < 0.1, 2, 1)
    loops = rng.integers(0, n, max(1, n // 50))
    return build_graph((np.concatenate([src, loops]), np.concatenate([tgt, loops]),
                        np.concatenate([mult, np.ones(loops.size, dtype=np.int64)])), n)


class TestBatchedCensus:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_matches_per_root_oracle(self, k):
        rng = RngStream(120).generator()
        batched = 0
        for n, mean_out in [(1, 1.0), (7, 2.0), (60, 0.7), (300, 1.0), (300, 2.5)]:
            g = random_multigraph(rng, n, mean_out)
            c = census(g, k)
            assert c.counts == per_root_census(g, k) and c.total == n
            assert c.paths["batched"] + c.paths["exact"] == n
            batched += c.paths["batched"]
            if k == 0:
                assert c.paths["exact"] == 0
        assert batched > 300  # the tree path is exercised, not just the fallback

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_sampled_roots_match_oracle(self, k):
        g = random_multigraph(RngStream(121).generator(), 400, 1.2)
        c = census(g, k, sample_count=150, rng=RngStream(122).generator())
        roots = RngStream(122).generator().choice(g.n, size=150, replace=False)
        assert c.counts == per_root_census(g, k, roots) and c.total == 150

    @pytest.mark.parametrize("k", [1, 2])
    def test_workers_split_exact_roots(self, k):
        g = random_multigraph(RngStream(123).generator(), 400, 1.5)
        c = census(g, k, workers=2)
        assert c.paths["exact"] > 8  # enough fallback roots to reach the pool
        assert c.counts == per_root_census(g, k)

    def test_oversized_tree_names_root(self):
        # a 10 001-leaf in-star is a tree neighborhood above the node limit
        g = build_graph([(i, 0) for i in range(1, 10_002)], 10_002)
        with pytest.raises(SizeError, match=r"^root 0: neighborhood has 10002 nodes"):
            census(g, 1)


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestComposedCodes:
    """The batched path composes each class's code from its children's."""

    def test_dense_core_beside_a_tree(self):
        # a complete digraph on 12 vertices, out-degrees made distinct by
        # i + 1 edges from vertex i to a sink: depth-8 in-unfoldings of its
        # vertices have about 11^8 nodes, so only reached colors get a code
        edges = [(i, j, 1) for i in range(12) for j in range(12) if i != j]
        edges += [(i, 12, i + 1) for i in range(12)]
        edges += [(14, 13, 1), (15, 13, 1), (16, 14, 1)]
        g = build_graph(edges, 17)
        c = census(g, 8)
        assert c.paths == {"batched": 4, "exact": 13}  # the tree roots 13-16
        assert c.counts == per_root_census(g, 8)

    def test_depth_beyond_the_recursion_limit(self):
        # a directed path: the end's depth-k neighborhood is a k-edge chain
        k = 400
        g = build_graph([(i, i + 1) for i in range(k + 1)], k + 2)
        want = per_root_census(g, k)
        limit = sys.getrecursionlimit()
        low = _stack_depth() + 150
        assert low < k
        sys.setrecursionlimit(low)
        try:
            c = census(g, k)
        finally:
            sys.setrecursionlimit(limit)
        assert c.paths["exact"] == 0 and c.counts == want


class TestCensusLimit:
    def test_path_law_single_class(self):
        law = BiDegreeLaw([(1, 1, 1.0)])
        c = census_limit(TreeLaw(lambda depth, r: sample_gw_limit(law, 2, r)), 2, 50,
                         RngStream(88).generator())
        assert len(c.counts) == 1 and c.total == 50

    def test_ctbp_depth_zero(self):
        c = census_limit(LimitLaw.ctbp(1.0), 0, 50, RngStream(89).generator())
        assert len(c.counts) == 1
        assert list(c.counts.values()) == [50]

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", [130, 131])
    def test_gw_forest_matches_per_tree(self, k, seed, monkeypatch):
        # 700-tree blocks: four full blocks and a partial one, each drawn as
        # the node-at-a-time oracle draws that many trees
        monkeypatch.setattr(census_module, "_FOREST_TREES", 700)
        law = BiDegreeLaw([(1, 1, 0.3), (2, 3, 0.4), (3, 1, 0.2), (4, 4, 0.1)])
        rf, rt, ro = (RngStream(seed).generator() for _ in range(3))
        forest = census_limit(LimitLaw.gw(law), k, 3000, rf)
        assert forest.counts == census_limit(GwOracleLaw(law), k, 3000, rt).counts
        trees = [t for m in (700, 700, 700, 700, 200) for t in sample_gw_trees(law, k, m, ro)]
        assert forest.counts == tree_census(trees, k)
        assert rf.random() == rt.random() == ro.random()

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_ctbp_and_polya_match_per_tree_oracle(self, k):
        # each law's census is the per-tree census of the trees its levels make
        pp = PolyaParams(m=2, delta=1.0)
        laws = [(LimitLaw.ctbp(1.0), lambda r: _ctbp_levels(1.0, 2.0, 1500, r), None),
                (LimitLaw.polya(2, 1.0), lambda r: _polya_levels(pp, k, 1500, r), k)]
        for i, (law, levels, depth) in enumerate(laws):
            got = census_limit(law, k, 1500, RngStream(132, i).generator())
            trees = trees_of_levels(levels(RngStream(132, i).generator()), depth)
            assert got.counts == tree_census(trees, k)

    def test_depth_beyond_truncation_rejected(self):
        law = BiDegreeLaw([(1, 1, 1.0)])
        with pytest.raises(UsageError, match="truncated at depth 1"):
            census_limit(TreeLaw(lambda depth, r: sample_gw_limit(law, 1, r)), 2, 5,
                         RngStream(133).generator())


@st.composite
def row_blocks(draw):
    """Rows drawn from a small pool, so duplicates are common; the value
    range decides whether the rows pack by counting, by unique keys, or not
    at all (several columns spanning 2^40 reach the 2^62 packing limit)."""
    m, c = draw(st.integers(1, 12)), draw(st.integers(1, 10))
    hi = draw(st.sampled_from([0, 3, 1000, 2**31, 2**40]))
    pool = draw(st.lists(st.lists(st.integers(0, hi), min_size=c, max_size=c),
                         min_size=1, max_size=m))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m))
    return np.array([pool[i] for i in picks], dtype=np.int64).reshape(m, c)


@st.composite
def small_multigraphs(draw):
    """Self-loops, repeated pairs (multi-edges) and isolated vertices."""
    n = draw(st.integers(1, 25))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                    st.integers(1, 3)), max_size=3 * n))
    return build_graph(edges, n)


class TestTreeSplit:
    """Exactly the roots with a tree code take the batched path.  Counts alone
    would not show a tree root sent to the exact path, which codes it alike."""

    @staticmethod
    def tree_roots(g, k):
        return sum(canonical_code(explore_neighborhood(g, v, k)).startswith(TREE_PREFIX)
                   for v in range(g.n))

    @settings(max_examples=100, deadline=None)
    @given(small_multigraphs())
    def test_batched_roots_are_the_tree_coded_ones(self, g):
        for k in range(4):
            assert census(g, k).paths["batched"] == self.tree_roots(g, k)

    def test_random_multigraph_families(self):
        rng = RngStream(124).generator()
        for n, mean_out in [(1, 1.0), (7, 2.0), (60, 0.7), (300, 1.0), (300, 2.5)]:
            g = random_multigraph(rng, n, mean_out)
            for k in range(4):
                assert census(g, k).paths["batched"] == self.tree_roots(g, k)


class TestRefinement:
    """The packed-key refinement against the lexsort oracle."""

    @settings(max_examples=300, deadline=None)
    @given(row_blocks())
    def test_rank_rows_match_lexsort(self, rows):
        want = rank_rows_lexsort(rows)
        for layout in (rows, np.asfortranarray(rows)):
            ranks, distinct = census_module._rank_rows(layout)
            assert np.array_equal(ranks, want[0]) and distinct == want[1]

    @pytest.mark.parametrize("rows, branch", [
        ([[5, 1, 2]], "single"),
        ([[1, 2], [0, 3], [1, 2], [1, 0]], "counting"),
        ([[0, 10**6], [3, 0], [0, 10**6]], "unique"),
        ([[2**40, 0, 2**40], [0, 2**40, 1], [2**40, 0, 2**40]], "lexsort"),
        # spans 2^32 and 2^31 + 6: packed keys would pass 2^63 and wrap
        ([[0, 0], [2**32 - 1, 2**31 + 5], [2**32 - 1, 0], [1, 2**31 + 5]], "lexsort"),
    ])
    def test_rank_rows_branches(self, rows, branch):
        rows = np.array(rows, dtype=np.int64)
        packed = census_module._packed_rows(rows)
        if branch == "lexsort":
            assert packed is None
        elif branch != "single":
            assert (packed[1] <= 2 * len(rows)) == (branch == "counting")
        ranks, distinct = census_module._rank_rows(rows)
        want = rank_rows_lexsort(rows)
        assert np.array_equal(ranks, want[0]) and distinct == want[1]

    @settings(max_examples=150, deadline=None)
    @given(small_multigraphs(), st.booleans(), st.data())
    def test_every_level_matches_lexsort_refinement(self, g, wide, data):
        # wide marks overflow the tgt * base sort keys and the row packing
        marks = (np.array(data.draw(st.lists(st.integers(0, 2**62), min_size=g.n,
                                             max_size=g.n)), dtype=np.int64)
                 if wide else g.d_out)
        mult = g.mult[g.in_order]
        src, tgt = np.repeat(g.src[g.in_order], mult), np.repeat(g.tgt[g.in_order], mult)
        for k in range(4):
            levels, ptr, got_src = census_module._refine(marks, src, tgt, k)
            want, want_ptr, want_src = refine_lexsort(marks, np.repeat(g.src, g.mult),
                                                      np.repeat(g.tgt, g.mult), k)
            assert len(levels) == k + 1
            assert all(np.array_equal(a, b) for a, b in zip(levels, want))
            if k:
                assert np.array_equal(ptr, want_ptr) and np.array_equal(got_src, want_src)

    def test_sorted_by_target_keeps_values(self):
        got = census_module._sorted_by_target(np.array([9, 5, 7, 6, 8]), np.array([0, 0, 1, 1, 1]))
        assert got.tolist() == [5, 9, 6, 7, 8]
        # keys count from the least value, so values near 2^63 do not wrap
        top = np.array([2**63 - 1, 2**63 - 2] * 2, dtype=np.int64)
        got = census_module._sorted_by_target(top, np.array([0, 0, 1, 1]))
        assert got.tolist() == [2**63 - 2, 2**63 - 1] * 2

    def test_sorted_by_target_ranks_wide_values(self):
        vals = np.array([2**62, 0, 7, 2**62 - 1, 3], dtype=np.int64)
        got = census_module._sorted_by_target(vals, np.array([0, 0, 1, 1, 3]))
        assert got.tolist() == [0, 2**62, 7, 2**62 - 1, 3]

    def test_edges_reach_refinement_grouped_by_target(self, monkeypatch):
        grouped = []
        refine = census_module._refine

        def spy(marks, src, tgt, k):
            grouped.append(bool((tgt[1:] >= tgt[:-1]).all()))
            return refine(marks, src, tgt, k)

        monkeypatch.setattr(census_module, "_refine", spy)
        rng = RngStream(140).generator()
        census(random_multigraph(rng, 300, 1.5), 2)
        census_limit(LimitLaw.gw(UNIFORM33), 2, 300, rng)
        census_limit(LimitLaw.ctbp(1.0), 2, 300, rng)
        assert grouped == [True, True, True]

    def test_limit_tree_out_of_breadth_first_order_rejected(self):
        # parents before children, but node 4's parent precedes node 3's
        tree = LimitTree(parent=np.array([-1, 0, 0, 2, 1]), mark=np.ones(5, dtype=np.int64),
                         node_depth=np.array([0, 1, 1, 2, 2]), truncation_depth=None)
        with pytest.raises(UsageError, match="breadth-first"):
            census_limit(TreeLaw(lambda depth, r: tree), 2, 1, RngStream(141).generator())


class TestTvDistance:
    def test_identical(self):
        a = NeighborhoodCensus(1, Counter({b"x": 3}), 3)
        assert tv_distance(a, a) == 0.0

    def test_disjoint(self):
        a = NeighborhoodCensus(1, Counter({b"x": 4}), 4)
        b = NeighborhoodCensus(1, Counter({b"y": 2}), 2)
        assert tv_distance(a, b) == 1.0

    def test_formula(self):
        a = NeighborhoodCensus(1, Counter({b"a": 3, b"b": 1}), 4)
        b = NeighborhoodCensus(1, Counter({b"a": 1, b"b": 3}), 4)
        assert tv_distance(a, b) == pytest.approx(0.5)

    def test_empty_census_rejected(self):
        empty = NeighborhoodCensus(1, Counter(), 0)
        one = NeighborhoodCensus(1, Counter({b"x": 1}), 1)
        for a, b in ((empty, one), (one, empty), (empty, empty)):
            with pytest.raises(UsageError, match="TV distance needs nonempty censuses"):
                tv_distance(a, b)

    def test_depth_mismatch(self):
        a = NeighborhoodCensus(1, Counter({b"x": 1}), 1)
        b = NeighborhoodCensus(2, Counter({b"x": 1}), 1)
        with pytest.raises(UsageError):
            tv_distance(a, b)

    def test_symmetric_bounded(self):
        rng = RngStream(90).generator()
        for _ in range(20):
            ka = {bytes([i]): int(rng.integers(1, 10)) for i in range(5)}
            kb = {bytes([i]): int(rng.integers(1, 10)) for i in rng.choice(8, 4, replace=False)}
            a = NeighborhoodCensus(1, Counter(ka), sum(ka.values()))
            b = NeighborhoodCensus(1, Counter(kb), sum(kb.values()))
            assert tv_distance(a, b) == tv_distance(b, a)
            assert 0.0 <= tv_distance(a, b) <= 1.0


class TestKsDistance:
    def test_identical(self):
        t = TailSample([1.0, 2.0, 3.0])
        assert ks_distance(t, t) == 0.0

    def test_disjoint(self):
        assert ks_distance(TailSample([0, 0]), TailSample([1, 1])) == 1.0

    def test_hand_example(self):
        assert ks_distance(TailSample([1, 2, 3, 4]),
                           TailSample([1, 2, 3, 10])) == pytest.approx(0.25)

    def test_matches_scipy(self):
        rng = RngStream(91).generator()
        for _ in range(20):
            a = rng.normal(size=int(rng.integers(5, 200)))
            b = rng.normal(loc=rng.uniform(-1, 1), size=int(rng.integers(5, 200)))
            want = scipy.stats.ks_2samp(a, b, method="exact").statistic
            got = ks_distance(TailSample(a), TailSample(b))
            assert got == pytest.approx(want, abs=1e-12)

    def test_symmetric_bounded(self):
        rng = RngStream(92).generator()
        a = TailSample(rng.random(50))
        b = TailSample(rng.random(70))
        assert ks_distance(a, b) == ks_distance(b, a)
        assert 0.0 <= ks_distance(a, b) <= 1.0


class TestCcdf:
    def test_all_above(self):
        assert ccdf(TailSample([1, 1, 1]), [0.5]).tolist() == [1.0]

    def test_strict_inequality(self):
        assert ccdf(TailSample([1, 1, 1]), [1.0]).tolist() == [0.0]

    def test_counting(self):
        got = ccdf(TailSample([0.15, 0.575, 1.0]), [0.5])
        assert got[0] == pytest.approx(2 / 3)

    def test_unsorted_thresholds(self):
        with pytest.raises(UsageError):
            ccdf(TailSample([1.0]), [2.0, 1.0])


class TestHill:
    def test_pareto(self):
        rng = RngStream(93).generator()
        sample = TailSample(rng.pareto(2.0, 100_000) + 1.0)
        est = hill_estimator(sample, 1000)
        assert 1.8 <= est <= 2.2

    def test_constant_sample_rejected(self):
        with pytest.raises(UsageError, match="zero log"):
            hill_estimator(TailSample([2.0] * 100), 10)

    def test_nonpositive_rejected(self):
        with pytest.raises(UsageError, match="nonpositive"):
            hill_estimator(TailSample([0.0] * 50 + [1.0] * 5), 10)

    def test_top_k_range(self):
        with pytest.raises(UsageError):
            hill_estimator(TailSample([1, 2, 3, 4]), 3)

    def test_dpa_in_degree_index(self):
        # tail exponent 2 + delta/m for the in-degree survival function
        g = gen_dpa(30_000, PamParams(m=1, delta=0.0), RngStream(94).generator())
        est = hill_estimator(TailSample(g.d_in.astype(float)), 300)
        assert abs(est - 2.0) < 0.4


class TestCensusCsv:
    def test_roundtrip(self, tmp_path):
        rng = RngStream(95).generator()
        g = gen_dcm(sample_bidegree_sequence(UNIFORM33, 300, rng), rng)
        c = census(g, 1)
        write_census_csv(c, tmp_path / "census.csv")
        back = read_census_csv(tmp_path / "census.csv", depth=1)
        assert back.counts == c.counts and back.total == c.total
        assert tv_distance(back, c) == 0.0

    @pytest.mark.parametrize("row,message", [
        ("zz,1", "bad hex code 'zz'"),
        ("0a", "expected 2 fields, got 1"),
        ("0a,1,2", "expected 2 fields, got 3"),
        ("0a,-3", "count must be an integer >= 1, got '-3'"),
        ("0a,0", "count must be an integer >= 1, got '0'"),
        ("0a,1.5", "count must be an integer >= 1, got '1.5'"),
        ("0a,", "count must be an integer >= 1, got ''"),
        ("0b,2", "repeated code 0b"),
    ])
    def test_bad_rows_rejected_with_their_line(self, tmp_path, row, message):
        path = tmp_path / "census.csv"
        path.write_text(f"code_hex,count\n0b,5\n\n{row}\n")
        with pytest.raises(InputError) as err:
            read_census_csv(path, depth=1)
        assert str(err.value) == f"{path}: line 4: {message}"

    def test_tail_csv_roundtrip(self, tmp_path):
        from pagerank_limits.census import write_tail_csv

        sample = TailSample([0.15, 0.575, 1.0])
        write_tail_csv(sample, [0.1, 0.5, 1.0], tmp_path / "t.csv")
        rs, fs = read_tail_csv(tmp_path / "t.csv")
        assert rs.tolist() == [0.1, 0.5, 1.0]
        assert fs.tolist() == [1.0, 2 / 3, 0.0]
