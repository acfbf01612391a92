"""Differential test: canonical codes against networkx isomorphism.

``canonical_code`` promises equal bytes exactly for isomorphic marked rooted
neighborhoods; the batched census relies on it when one representative
stands for a whole color class.  networkx's VF2 matcher on MultiDiGraphs is
the independent oracle: nodes match on (mark, is root), and parallel edges
stand for multiplicity, which the matcher compares pair by pair.  Sizes go
well past the brute-force oracle's 8 nodes, and a symmetric family (a root
fed by disjoint directed cycles or circulants that color refinement cannot
split) reaches both the small-component path and the branching path of the
general code.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pagerank_limits import graph as graph_mod
from pagerank_limits.graph import build_graph, canonical_code, explore_neighborhood

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def to_nx(nb):
    g = nx.MultiDiGraph()
    for i, mark in enumerate(nb.marks):
        g.add_node(i, mark=mark, root=i == nb.root)
    for u, v, m in nb.edges:
        g.add_edges_from([(u, v)] * m)
    return g


def nx_isomorphic(a, b):
    return nx.is_isomorphic(to_nx(a), to_nx(b),
                            node_match=lambda x, y: (x["mark"], x["root"]) == (y["mark"], y["root"]))


def explore(edges, n, root, k, extra):
    """Explore a graph built from ``edges``; marks are out-degrees plus ``extra``."""
    g = build_graph(edges, n)
    return explore_neighborhood(g, root, k, marks=g.d_out + np.asarray(extra, dtype=np.int64))


def relabel(edges, n, root, extra, perm):
    edges = [(perm[s], perm[t], m) for s, t, m in edges]
    moved = [0] * n
    for v in range(n):
        moved[perm[v]] = extra[v]
    return edges, perm[root], moved


@st.composite
def graphs(draw, max_n=30):
    n = draw(st.integers(2, max_n))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 3)),
                          min_size=n - 1, max_size=2 * n))
    extra = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return n, edges, extra


@st.composite
def symmetric(draw):
    """Root 0 fed by every vertex of disjoint circulants on 1..N; refinement
    leaves all of them in one cell."""
    # either small components (matched whole) or one large one (branching);
    # mixing them makes the code branch over every small component's
    # orderings too, which costs seconds per neighborhood
    parts = draw(st.one_of(st.lists(st.integers(2, 6), min_size=1, max_size=3),
                           st.tuples(st.integers(9, 16))))
    steps = draw(st.sampled_from([(1,), (1, 2), (1, 3)]))
    edges = []
    base = 1
    for size in parts:
        for i in range(size):
            edges.append((base + i, 0, 1))
            for s in steps:
                if s < size:
                    edges.append((base + i, base + (i + s) % size, 1))
        base += size
    return base, edges, [0] * base


class TestAgainstNetworkx:
    @SETTINGS
    @given(graphs(), st.integers(1, 4), st.data())
    def test_relabeled_copies_agree(self, spec, k, data):
        n, edges, extra = spec
        root = data.draw(st.integers(0, n - 1))
        perm = data.draw(st.permutations(range(n)))
        edges2, root2, extra2 = relabel(edges, n, root, extra, perm)
        a = explore(edges, n, root, k, extra)
        b = explore(edges2, n, root2, k, extra2)
        assert nx_isomorphic(a, b)
        assert canonical_code(a) == canonical_code(b)

    @SETTINGS
    @given(graphs(), st.integers(1, 4), st.data())
    def test_codes_equal_iff_isomorphic(self, spec, k, data):
        # a one-edge or one-mark mutation gives near misses, and sometimes an
        # isomorphic graph under another labeling
        n, edges, extra = spec
        root = data.draw(st.integers(0, n - 1))
        vertex = st.integers(0, n - 1)
        if data.draw(st.booleans()):
            edges2 = edges + [(data.draw(vertex), data.draw(vertex), 1)]
            extra2 = extra
        else:
            edges2 = edges
            extra2 = list(extra)
            extra2[data.draw(vertex)] ^= 1
        perm = data.draw(st.permutations(range(n)))
        edges2, root2, extra2 = relabel(edges2, n, root, extra2, perm)
        a = explore(edges, n, root, k, extra)
        b = explore(edges2, n, root2, k, extra2)
        assert (canonical_code(a) == canonical_code(b)) == nx_isomorphic(a, b)

    @SETTINGS
    @given(symmetric(), symmetric(), st.data())
    def test_symmetric_family(self, one, two, data):
        a = explore(one[1], one[0], 0, 1, one[2])
        b = explore(two[1], two[0], 0, 1, two[2])
        perm = [0] + list(data.draw(st.permutations(range(1, two[0]))))
        c = explore(relabel(two[1], two[0], 0, two[2], perm)[0], two[0], 0, 1, two[2])
        assert canonical_code(b) == canonical_code(c)
        assert (canonical_code(a) == canonical_code(b)) == nx_isomorphic(a, b)


def test_symmetric_family_reaches_both_general_paths(monkeypatch):
    """Components of at most _COMPONENT_LIMIT nodes are matched whole; larger
    ones make the code individualize and branch (under _BRANCH_BUDGET)."""
    sizes = []
    original = graph_mod._components

    def recording(*args):
        comps = original(*args)
        sizes.append(max(len(c) for c in comps))
        return comps

    monkeypatch.setattr(graph_mod, "_components", recording)
    cases = {}
    for parts, steps in [((3, 5), (1,)), ((4, 4), (1,)), ((8,), (1,)),
                         ((12,), (1,)), ((6, 6), (1,)), ((10,), (1, 3)), ((10,), (1, 2))]:
        edges = []
        base = 1
        for size in parts:
            for i in range(size):
                edges.append((base + i, 0, 1))
                edges += [(base + i, base + (i + s) % size, 1) for s in steps]
            base += size
        cases[parts, steps] = explore(edges, base, 0, 1, [0] * base)
    codes = {key: canonical_code(nb) for key, nb in cases.items()}
    assert min(sizes) <= graph_mod._COMPONENT_LIMIT < max(sizes)
    for x in cases:
        for y in cases:
            assert (codes[x] == codes[y]) == nx_isomorphic(cases[x], cases[y]), (x, y)
    # a 12-cycle and two 6-cycles share every refinement color
    assert codes[(12,), (1,)] != codes[(6, 6), (1,)]


@pytest.mark.parametrize("size", [9, 16, 24])
def test_large_vertex_transitive_component(size):
    # one circulant, so the branching path individualizes through it
    edges = [(i, 0, 1) for i in range(1, size + 1)]
    edges += [(1 + i, 1 + (i + s) % size, 1) for i in range(size) for s in (1, 2)]
    a = explore(edges, size + 1, 0, 1, [0] * (size + 1))
    perm = [0] + np.random.default_rng(size).permutation(np.arange(1, size + 1)).tolist()
    b = explore(relabel(edges, size + 1, 0, [0] * (size + 1), perm)[0], size + 1, 0, 1,
                [0] * (size + 1))
    assert nx_isomorphic(a, b) and canonical_code(a) == canonical_code(b)
