from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pagerank_limits import RngStream
from pagerank_limits.errors import InputError, SizeError
from pagerank_limits.graph import (
    build_graph,
    canonical_code,
    explore_neighborhood,
    read_edgelist,
    write_edgelist,
)

from _oracles import (
    brute_force_isomorphic,
    build_graph_reference,
    edge_triples,
    local_distance,
    parse_edgelist,
    random_small_graph,
    truncate_neighborhood,
    validate_neighborhood,
)


def cycle3():
    return build_graph([(0, 1), (1, 2), (2, 0)], 3)


class TestBuildGraph:
    def test_empty(self):
        g = build_graph([], 3)
        assert g.n == 3 and g.total_multiplicity == 0
        assert g.d_in.tolist() == [0, 0, 0]
        assert g.d_out.tolist() == [0, 0, 0]

    def test_cycle(self):
        g = cycle3()
        assert g.d_in.tolist() == [1, 1, 1]
        assert g.d_out.tolist() == [1, 1, 1]
        assert g.total_multiplicity == 3

    def test_multiplicity_accumulates(self):
        g = build_graph([(1, 0), (1, 0)], 2)
        assert list(edge_triples(g)) == [(1, 0, 2)]
        assert g.d_out[1] == 2 and g.d_in[0] == 2

    def test_explicit_multiplicity(self):
        g = build_graph([(0, 1, 3), (0, 1)], 2)
        assert list(edge_triples(g)) == [(0, 1, 4)]

    def test_out_of_range_names_line(self):
        with pytest.raises(InputError, match="edge 1"):
            build_graph([(0, 1), (0, 5)], 3)

    def test_bad_multiplicity(self):
        with pytest.raises(InputError, match="multiplicity"):
            build_graph([(0, 1, 0)], 2)

    def test_degree_identities(self):
        rng = RngStream(1).generator()
        for _ in range(20):
            g = random_small_graph(rng)
            assert int(g.d_in.sum()) == int(g.d_out.sum()) == g.total_multiplicity
            for v in range(g.n):
                assert g.d_out[v] == g.out_slice(v)[1].sum()
                assert g.d_in[v] == g.in_slice(v)[1].sum()

    def test_immutable(self):
        g = cycle3()
        with pytest.raises(ValueError):
            g.d_out[0] = 5

    def test_self_loop_counts_both_sides(self):
        g = build_graph([(0, 0, 2)], 1)
        assert g.d_in[0] == 2 and g.d_out[0] == 2


class TestExactSums:
    """Multiplicity and degree sums are exact in int64 and checked against it."""

    BIG = 2**62

    def test_sums_beyond_float_precision_are_exact(self):
        g = build_graph([(0, 1, 2**53 + 1), (0, 1, 1), (0, 2, 3), (2, 1, 2**53 + 1)], 3)
        assert list(edge_triples(g)) == [(0, 1, 2**53 + 2), (0, 2, 3), (2, 1, 2**53 + 1)]
        assert g.d_out.tolist() == [2**53 + 5, 0, 2**53 + 1]
        assert g.d_in.tolist() == [0, 2**54 + 3, 3]

    def test_sums_up_to_int64_max(self):
        g = build_graph([(0, 1, self.BIG), (0, 1, self.BIG - 1), (1, 0, self.BIG)], 2)
        assert list(edge_triples(g)) == [(0, 1, 2**63 - 1), (1, 0, self.BIG)]
        assert g.d_out.tolist() == g.d_in.tolist()[::-1] == [2**63 - 1, self.BIG]

    @pytest.mark.parametrize("edges,message", [
        ([(0, 1, BIG), (2, 2), (0, 1, BIG)],
         f"pair (0, 1): multiplicity {2**63} exceeds int64"),
        ([(0, 1, BIG), (0, 2, BIG)], f"vertex 0: out-degree {2**63} exceeds int64"),
        ([(0, 2, BIG), (1, 2, BIG - 1), (1, 2, 1)], f"vertex 2: in-degree {2**63} exceeds int64"),
        ([(0, 1, 2**63 - 1)] * 3, f"pair (0, 1): multiplicity {3 * (2**63 - 1)} exceeds int64"),
        # 2**63 + 3, whose float64 sum rounds below 2**63
        ([(0, 1, 2305843009213691000), (0, 1, 2305843009213695884),
          (0, 1, 2305843009213695628), (0, 1, 2305843009213693299)],
         f"pair (0, 1): multiplicity {2**63 + 3} exceeds int64"),
    ])
    def test_sums_beyond_int64_are_input_errors(self, edges, message):
        with pytest.raises(InputError) as err:
            build_graph(edges, 3)
        assert str(err.value) == message

    def test_read_edgelist_names_the_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(f"# n=2\n0 1 {self.BIG}\n0 1 {self.BIG}\n")
        with pytest.raises(InputError) as err:
            read_edgelist(path)
        assert str(err.value) == f"{path}: pair (0, 1): multiplicity {2**63} exceeds int64"
        path.write_text(f"# n=2\n0 1 {self.BIG}\n0 1 {self.BIG - 1}\n")
        assert list(edge_triples(read_edgelist(path))) == [(0, 1, 2**63 - 1)]

    def test_random_large_multiplicities_match_python_sums(self):
        rng = RngStream(2).generator()
        for _ in range(30):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(0, 12))
            src, tgt = rng.integers(0, n, m), rng.integers(0, n, m)
            mult = rng.integers(1, 2**59, m) if rng.random() < 0.5 else rng.integers(1, 4, m)
            pairs, d_out, d_in = {}, [0] * n, [0] * n
            for s_, t_, k in zip(src.tolist(), tgt.tolist(), mult.tolist()):
                pairs[s_, t_] = pairs.get((s_, t_), 0) + k
                d_out[s_] += k
                d_in[t_] += k
            g = build_graph((src, tgt, mult), n)
            assert list(edge_triples(g)) == [(*k, v) for k, v in sorted(pairs.items())]
            assert g.d_out.tolist() == d_out and g.d_in.tolist() == d_in


GRAPH_ARRAYS = ("src", "tgt", "mult", "d_in", "d_out", "out_indptr", "in_indptr", "in_order")


@st.composite
def edge_inputs(draw):
    """(edge_list, n): parallel arrays (int64 or int32, with or without
    multiplicities) or a list of tuples, over pairs that are shuffled,
    sorted with repeats, or strictly increasing."""
    n = draw(st.integers(0, 12))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    pairs = draw(st.lists(pair, max_size=40)) if n else []
    order = draw(st.sampled_from(["shuffled", "sorted", "increasing"]))
    if order == "sorted":
        pairs.sort()
    elif order == "increasing":
        pairs = sorted(set(pairs))
    mults = draw(st.sampled_from([None, "ones", "explicit"]))
    if mults == "explicit":
        mults = draw(st.lists(st.integers(1, 5), min_size=len(pairs), max_size=len(pairs)))
    elif mults == "ones":
        mults = [1] * len(pairs)
    if draw(st.booleans()):
        return [(*p, m) for p, m in zip(pairs, mults)] if mults else pairs, n
    dtype = draw(st.sampled_from([np.int64, np.int32]))
    columns = [[p[0] for p in pairs], [p[1] for p in pairs]] + ([mults] if mults else [])
    return tuple(np.array(c, dtype=dtype) for c in columns), n


class TestBuildMatchesReference:
    """``build_graph`` sorts in place and skips sorted input; the reference
    argsorts and gathers copies.  Both give the same arrays and errors."""

    @settings(max_examples=300, deadline=None)
    @given(edge_inputs())
    def test_arrays_equal_the_reference(self, case):
        edges, n = case
        before = [a.copy() for a in edges] if isinstance(edges, tuple) else None
        g, want = build_graph(edges, n), build_graph_reference(edges, n)
        assert g.n == want.n == n
        for name in GRAPH_ARRAYS:
            got, ref = getattr(g, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name
            assert not got.flags.writeable
        if before is not None:  # the caller's arrays are neither written nor frozen
            for a, b in zip(edges, before):
                assert np.array_equal(a, b) and a.flags.writeable

    def test_empty_and_edgeless(self):
        for edges, n in [([], 0), ([], 4), ((np.zeros(0, dtype=np.int64),) * 2, 0),
                         ((np.zeros(0, dtype=np.int64),) * 3, 3)]:
            g, want = build_graph(edges, n), build_graph_reference(edges, n)
            for name in GRAPH_ARRAYS:
                assert np.array_equal(getattr(g, name), getattr(want, name)), name

    BIG = 2**62

    @pytest.mark.parametrize("edges,n", [
        ([(0, 1), (0, 5)], 3),
        ([(0, 1), (-1, 2)], 3),
        ([(2, 1), (0, 1, 0)], 3),
        ([(0, 1, 3), (1, 0, -2)], 3),
        ([(0, 1, BIG), (2, 2), (0, 1, BIG)], 3),
        ([(0, 1, BIG), (0, 2, BIG)], 3),
        ([(0, 2, BIG), (1, 2, BIG - 1), (1, 2, 1)], 3),
        ([(0, 2, BIG), (1, 2, BIG)], 3),
        ([(1, 0, BIG), (0, 1, BIG), (0, 2, BIG)], 3),
    ])
    def test_errors_keep_their_text(self, edges, n):
        for case in (edges, tuple(np.array(c, dtype=np.int64) for c in zip(
                *[(*e, 1) if len(e) == 2 else e for e in edges]))):
            with pytest.raises(InputError) as want:
                build_graph_reference(case, n)
            with pytest.raises(InputError) as got:
                build_graph(case, n)
            assert str(got.value) == str(want.value)


class TestExplore:
    def test_depth0_root_only(self):
        nb = explore_neighborhood(cycle3(), 0, 0)
        assert nb.size == 1 and nb.marks == [1] and nb.edges == []

    def test_cycle_depth1(self):
        nb = explore_neighborhood(cycle3(), 0, 1)
        # finds the in-neighbor 2; edge 0->1 excluded since 1 is not found
        assert nb.orig_ids == [0, 2]
        assert nb.marks == [1, 1]
        assert nb.edges == [(1, 0, 1)]

    def test_cycle_depth3_closes(self):
        nb = explore_neighborhood(cycle3(), 0, 3)
        assert nb.size == 3 and len(nb.edges) == 3
        assert nb.complete

    def test_all_edges_among_found(self):
        # reciprocal pair: the root's own out-edge enters once both ends found
        g = build_graph([(0, 1), (1, 0)], 2)
        nb = explore_neighborhood(g, 0, 1)
        assert sorted(nb.edges) == [(0, 1, 1), (1, 0, 1)]

    def test_self_loop_traversed(self):
        g = build_graph([(0, 0)], 1)
        nb0 = explore_neighborhood(g, 0, 0)
        assert nb0.edges == [] and not nb0.complete
        nb1 = explore_neighborhood(g, 0, 1)
        assert nb1.edges == [(0, 0, 1)] and nb1.complete

    def test_custom_marks(self):
        nb = explore_neighborhood(cycle3(), 0, 1, marks=np.array([5, 1, 7]))
        assert nb.marks == [5, 7]
        with pytest.raises(InputError, match="mark"):
            explore_neighborhood(cycle3(), 0, 1, marks=np.array([0, 1, 1]))

    def test_determinism(self):
        rng = RngStream(2).generator()
        for _ in range(10):
            g = random_small_graph(rng)
            root = int(rng.integers(g.n))
            a = explore_neighborhood(g, root, 3)
            b = explore_neighborhood(g, root, 3)
            assert a.orig_ids == b.orig_ids and a.edges == b.edges

    def test_truncation_consistency(self):
        rng = RngStream(3).generator()
        for _ in range(30):
            g = random_small_graph(rng)
            root = int(rng.integers(g.n))
            full = explore_neighborhood(g, root, 4)
            for j in range(5):
                direct = explore_neighborhood(g, root, j)
                assert canonical_code(truncate_neighborhood(full, j)) == canonical_code(direct)

    def test_validate(self):
        rng = RngStream(4).generator()
        for _ in range(10):
            g = random_small_graph(rng)
            validate_neighborhood(explore_neighborhood(g, int(rng.integers(g.n)), 3))


class TestCanonicalCode:
    def test_relabeled_in_star(self):
        a = explore_neighborhood(build_graph([(1, 0), (2, 0)], 3), 0, 1)
        b = explore_neighborhood(build_graph([(0, 2), (1, 2)], 3), 2, 1)
        assert canonical_code(a) == canonical_code(b)

    def test_root_mark_distinguishes(self):
        # same in-star shape, root out-degree 2 vs 3
        g2 = build_graph([(1, 0), (2, 0), (0, 3), (0, 4)], 5)
        g3 = build_graph([(1, 0), (2, 0), (0, 3), (0, 4), (0, 4)], 5)
        a = explore_neighborhood(g2, 0, 1)
        b = explore_neighborhood(g3, 0, 1)
        assert a.marks[0] == 2 and b.marks[0] == 3
        assert canonical_code(a) != canonical_code(b)

    def test_distance_zero_nonisomorphic_graphs(self):
        # explorable parts agree although the full graphs differ
        ga = build_graph([(1, 0), (0, 2)], 3)
        gb = build_graph([(1, 0), (0, 2), (2, 3)], 4)
        na = explore_neighborhood(ga, 0, 5)
        nb = explore_neighborhood(gb, 0, 5)
        assert canonical_code(na) == canonical_code(nb)
        assert local_distance(na, nb) == 0
        assert ga.n != gb.n  # the graphs themselves are not isomorphic

    def test_multiplicity_distinguishes(self):
        a = explore_neighborhood(build_graph([(1, 0, 2)], 2), 0, 1)
        b = explore_neighborhood(build_graph([(1, 0, 3)], 2), 0, 1)
        assert canonical_code(a) != canonical_code(b)

    def test_size_limit(self):
        nb = explore_neighborhood(build_graph([(1, 0), (2, 0)], 3), 0, 1)
        with pytest.raises(SizeError):
            canonical_code(nb, node_limit=2)

    def test_symmetric_star_fast(self):
        # 200 interchangeable leaves with a multi-edge; must not backtrack
        edges = [(i, 0, 1) for i in range(1, 201)] + [(201, 0, 2)]
        g = build_graph(edges, 202)
        nb = explore_neighborhood(g, 0, 1)
        code = canonical_code(nb)
        assert code.startswith(b"G")

    def test_soundness_against_brute_force(self):
        rng = RngStream(5).generator()
        corpus = []
        for _ in range(40):
            g = random_small_graph(rng, max_n=6)
            root = int(rng.integers(g.n))
            marks = g.d_out + rng.integers(0, 2, size=g.n)
            nb = explore_neighborhood(g, root, 3, marks=marks)
            corpus.append(nb)
            # a relabeled copy, isomorphic by construction
            perm = rng.permutation(g.n)
            edges = [(int(perm[s]), int(perm[t]), int(m)) for s, t, m in edge_triples(g)]
            g2 = build_graph(edges, g.n)
            marks2 = np.empty(g.n, dtype=np.int64)
            marks2[perm] = marks
            corpus.append(explore_neighborhood(g2, int(perm[root]), 3, marks=marks2))
        small = [nb for nb in corpus if nb.size <= 7]
        checked = equal = 0
        for i in range(len(small)):
            for j in range(i + 1, len(small)):
                got = canonical_code(small[i]) == canonical_code(small[j])
                want = brute_force_isomorphic(small[i], small[j])
                assert got == want, (small[i], small[j])
                checked += 1
                equal += got
        assert checked > 300 and equal >= 40  # corpus exercises both outcomes


class TestLocalDistance:
    def test_reflexive(self):
        nb = explore_neighborhood(cycle3(), 0, 2)
        assert local_distance(nb, nb) == 0

    def test_root_mark_difference_is_half(self):
        a = explore_neighborhood(build_graph([(1, 0), (0, 1)], 2), 0, 2)
        b = explore_neighborhood(build_graph([(1, 0)], 2), 0, 2)
        assert local_distance(a, b) == Fraction(1, 2)

    def test_depth_two_difference_is_third(self):
        a = explore_neighborhood(build_graph([(1, 0), (2, 1)], 3), 0, 3)
        b = explore_neighborhood(build_graph([(1, 0)], 2), 0, 3)
        assert local_distance(a, b) == Fraction(1, 3)

    def test_pseudometric_laws(self):
        rng = RngStream(6).generator()
        nbhds = []
        for _ in range(18):
            g = random_small_graph(rng, max_n=6)
            nbhds.append(explore_neighborhood(g, int(rng.integers(g.n)), 3))
        for _ in range(200):
            a, b, c = (nbhds[int(rng.integers(len(nbhds)))] for _ in range(3))
            dab, dba = local_distance(a, b), local_distance(b, a)
            assert dab == dba
            assert 0 <= dab <= 1
            assert local_distance(a, c) <= dab + local_distance(b, c)


class TestEdgelistFormat:
    def test_roundtrip(self, tmp_path):
        rng = RngStream(7).generator()
        for i in range(10):
            g = random_small_graph(rng)
            path = tmp_path / f"g{i}.txt"
            write_edgelist(g, path)
            h = read_edgelist(path)
            assert h.n == g.n
            assert list(edge_triples(h)) == list(edge_triples(g))

    def test_header_comments_blanks(self):
        edges, n = parse_edgelist("# a comment\n# n=4\n\n0 1\n1 2 3\n")
        assert n == 4
        assert edges == [(0, 1, 1), (1, 2, 3)]

    def test_without_header_infers_n(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 5\n")
        assert read_edgelist(p).n == 6

    def test_bad_line_reported(self):
        with pytest.raises(InputError, match="line 2"):
            parse_edgelist("0 1\n0 x\n")
        with pytest.raises(InputError, match="line 1"):
            parse_edgelist("0 1 2 3\n")
