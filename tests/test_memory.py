"""Memory budgets of the layers every file-based command passes through.

Each test measures one call's ``tracemalloc`` peak (numpy reports its array
buffers to ``tracemalloc``) on a LAW33 dcm graph of n = 30 000 vertices and
bounds it by a multiple of the bytes the call returns, so a layer that
starts holding a few more graph-sized temporaries fails here.  ``gen_irg``'s
working memory is its threads' blocks, not its output, so its bound is two
threads' blocks plus the graph.  The measured ratios, and those of the
argsort-and-gather build, whole-text edge-list scan, ``StringIO`` CSV read,
full-array checks and one-task-per-block IRG draw they replaced, are in
README's "Memory" section; the bounds sit 17-40% above the measured ratios
and below the replaced ones.
"""

import tracemalloc

import numpy as np
import pytest

from pagerank_limits import generators
from pagerank_limits import pagerank as pr
from pagerank_limits.generators import (
    BiDegreeLaw,
    RngStream,
    gen_dcm,
    gen_irg,
    sample_bidegree_sequence,
)
from pagerank_limits.graph import read_edgelist, write_edgelist

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
    # the floor, mass and lower-bound checks and one truncation gap read
    # C and B as broadcast views; the lower bound's edge weights are formed
    # in place
    g = read_edgelist(files / "graph.txt")
    params = pr.PageRankParams(0.85)
    exact = pr.solve_pagerank(g, params, with_order=20)
    results, peak = peak_of(lambda: list(pr.check_invariants(g, params, exact,
                                                             [exact.truncated])))
    assert [error for _, error, _ in results] == [None] * 4
    assert peak <= 6.0 * exact.values.nbytes


def test_gen_irg_peak(monkeypatch):
    # two threads, each streaming its rows through blocks of 2^17 cells at
    # 9 bytes a cell (the 64-bit word and the screen's bool), and the graph;
    # the bound does not grow with the block size
    monkeypatch.setattr(generators, "_usable_cpus", lambda: 2)
    n = 3000
    rng = np.random.default_rng(43)
    w_out = rng.pareto(2.5, n) + 1.0
    w_in = rng.pareto(2.5, n) + 1.0
    g, peak = peak_of(lambda: gen_irg(w_out, w_in, float(w_in.mean()),
                                      RngStream(43).generator()))
    assert g.total_multiplicity > 0
    assert peak <= 1.25 * (2 * 9 * 2**17 + graph_bytes(g))
