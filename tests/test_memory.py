"""Memory budgets of the layers every file-based command passes through.

Each test measures one call's ``tracemalloc`` peak (numpy reports its array
buffers to ``tracemalloc``) on a LAW33 dcm graph of n = 30 000 vertices and
bounds it by a multiple of the bytes the call returns, so a layer that
starts holding a few more graph-sized temporaries fails here.  ``gen_irg``'s
bound is a multiple of its graph's bytes plus a few n-length arrays, at
n = 3000 and n = 200 000.  The gw root-rank pool's bound is a multiple of
one block's expected node count, whatever the pool size.  The measured
ratios, and those of the argsort-and-gather build, whole-text edge-list
scan, ``StringIO`` CSV read, full-array checks, dense IRG draw and
unblocked gw pool they replaced, are in README's "Memory" section; the
bounds sit 5-40% above the measured ratios and below the replaced ones.
"""

import tracemalloc

import numpy as np
import pytest

from pagerank_limits import pagerank as pr
from pagerank_limits.generators import (
    BiDegreeLaw,
    RngStream,
    gen_dcm,
    gen_irg,
    sample_bidegree_sequence,
)
from pagerank_limits.graph import read_edgelist, write_edgelist
from pagerank_limits.limits import _FOREST_TREES, gw_root_rank_pool

N = 30_000
LAW33 = BiDegreeLaw([(h, l, 1 / 9) for h in (1, 2, 3) for l in (1, 2, 3)])


def peak_of(call):
    """(result, tracemalloc peak in bytes) of ``call()``."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def graph_bytes(g):
    return sum(getattr(g, name).nbytes for name in (
        "src", "tgt", "mult", "d_in", "d_out", "out_indptr", "in_indptr", "in_order"))


def system_bytes(system):
    arrays = [v for v in vars(system).values() if isinstance(v, np.ndarray)]
    arrays += [cols for _, cols in system.diagonals]
    return sum(a.nbytes for a in arrays)


@pytest.fixture(scope="module")
def sequence():
    return sample_bidegree_sequence(LAW33, N, np.random.default_rng(5))


@pytest.fixture(scope="module")
def files(sequence, tmp_path_factory):
    g = gen_dcm(sequence, np.random.default_rng(3))
    tmp = tmp_path_factory.mktemp("memory")
    write_edgelist(g, tmp / "graph.txt")
    params = pr.PageRankParams(0.85)
    pr.write_scores_csv(pr.solve_pagerank(g, params), tmp / "scores.csv")
    return tmp


def test_gen_dcm_peak(sequence):
    # the caller's two stub arrays, the keys, and the graph
    g, peak = peak_of(lambda: gen_dcm(sequence, np.random.default_rng(3)))
    assert peak <= 1.75 * graph_bytes(g)


def test_read_edgelist_peak(files):
    # the file's bytes, the parsed columns, a block's scan, and the graph
    g, peak = peak_of(lambda: read_edgelist(files / "graph.txt"))
    assert peak <= 2.25 * graph_bytes(g)


def test_pull_system_peak(files):
    g = read_edgelist(files / "graph.txt")
    system, peak = peak_of(lambda: pr._system(g, pr.PageRankParams(0.85)))
    assert peak <= 2.0 * system_bytes(system)


def test_read_scores_peak(files):
    # the file's bytes and loadtxt's buffers; the text is never held as str
    scores, peak = peak_of(lambda: pr.read_scores_csv(files / "scores.csv"))
    assert scores.size == N
    assert peak <= 6.0 * scores.nbytes


def test_check_invariants_peak(files):
    # the floor, mass and lower-bound checks read C and B as broadcast views,
    # and the 21 truncation gaps the solve's recorded means; the lower
    # bound's edge weights are formed in place and summed by target without
    # a copy of tgt, so its divide (the weights beside the d_out gather) sets
    # the peak
    g = read_edgelist(files / "graph.txt")
    params = pr.PageRankParams(0.85)
    exact = pr.solve_pagerank(g, params, with_order=20)
    results, peak = peak_of(lambda: list(pr.check_invariants(g, params, exact)))
    assert [error for _, error, _ in results] == [None] * 24
    assert peak <= 4.8 * exact.values.nbytes


def test_gen_irg_peak():
    # the graph, built from the sampled (src, tgt) columns (2 E int64, about
    # 3.3 n-length arrays here); the sampler's own n-length arrays are freed
    # before the build and peak lower
    for n in (3000, 200_000):
        rng = np.random.default_rng(43)
        w_out = rng.pareto(2.5, n) + 1.0
        w_in = rng.pareto(2.5, n) + 1.0
        g, peak = peak_of(lambda: gen_irg(w_out, w_in, float(w_in.mean()),
                                          RngStream(43).generator()))
        assert g.total_multiplicity > 0
        assert peak <= 1.1 * graph_bytes(g) + 4 * 8 * n, n


def test_gw_pool_peak():
    # the pool folds one block of trees at a time: LAW33's mean in-degree is
    # 2, so a depth-6 block holds about 127 nodes per root, and the peak is
    # about 4.2 float columns of them (the unblocked pool held 30 000 roots'
    # levels at once, 5.9 times this bound)
    depth = 6
    pool, peak = peak_of(lambda: gw_root_rank_pool(LAW33, 0.5, depth, 30_000,
                                                   RngStream(7).generator()))
    assert pool.size == 30_000
    assert peak <= 5.0 * 8 * _FOREST_TREES * (2 ** (depth + 1) - 1)
