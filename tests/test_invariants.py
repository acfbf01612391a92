"""Property tests of the one invariant checker, ``pagerank.check_invariants``.

Every identity holds on the solve's fixed point and on the mean of each of
its iterates, and each check fails as soon as a score or a mean moves past
the tolerance the check derives from the solve.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pagerank_limits import pagerank as pr
from pagerank_limits.errors import ConfigError
from pagerank_limits.graph import build_graph
from pagerank_limits.pagerank import (
    GeneralizedWeights,
    PageRankParams,
    PageRankVector,
    check_invariants,
)

from _oracles import checks, solved_truncation_gap

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def cases(draw):
    """(graph, params, rng): a multigraph with self-loops, multi-edges and
    dangling vertices, and standard params or random (C, B) at damping c."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    # sources drawn from a random subset leave the other vertices dangling
    sources = draw(st.lists(vertex, min_size=1, max_size=n, unique=True))
    edges = draw(st.lists(st.tuples(st.sampled_from(sources), vertex, st.integers(1, 3)),
                          max_size=4 * n))
    c = draw(st.sampled_from([0.3, 0.5, 0.85, 0.99]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = build_graph(edges, n)
    if draw(st.booleans()):
        return g, PageRankParams(c=c), rng
    C = rng.uniform(0.0, c, n)
    C[rng.integers(n)] = c
    return g, GeneralizedWeights(C=C, B=rng.exponential(1.0 - c, n)), rng


def solved_past_convergence(g, params, extra):
    """The fixed point, with the means of R^(0), ..., R^(iterations + extra)."""
    iterations = pr.solve_pagerank(g, params).iterations
    return pr.solve_pagerank(g, params, with_order=iterations + extra)


def errors(g, params, exact):
    return {name: error for name, error, _ in check_invariants(g, params, exact)}


def perturbed(vec, values):
    return PageRankVector(values, vec.order, vec.params, vec.iterations, vec.residual)


class TestCheckInvariants:
    @SETTINGS
    @given(cases())
    def test_every_check_passes_on_the_solve_and_its_iterates(self, case):
        g, params, _ = case
        exact = solved_past_convergence(g, params, 3)
        orders = range(exact.iterations + 4)
        results = list(check_invariants(g, params, exact))
        assert [name for name, _, _ in results] == [
            "teleport-floor", "mass-identity",
            *(f"truncation-bound-N{k}" for k in orders), "lower-bound"]
        assert [(name, error) for name, error, _ in results if error is not None] == []
        # each gap is the difference of the recorded means, each bound the
        # tail sum_{k>N} c_max^k mean(B), exactly
        if isinstance(params, PageRankParams):
            bounds = [params.c ** (k + 1) for k in orders]
        else:
            c_max = params.c_max
            bounds = [c_max ** (k + 1) * float(params.B.mean()) / (1.0 - c_max)
                      for k in orders]
        assert [gap for _, _, gap in results[2:-1]] == [
            (exact.means[-1] - exact.means[k], bound) for k, bound in zip(orders, bounds)]
        assert results[0][2] is results[1][2] is results[-1][2] is None

    @pytest.mark.parametrize("generalized", [False, True])
    def test_one_slack_per_pass(self, monkeypatch, generalized):
        # the mass identity, 21 truncation orders and the lower bound all
        # read one derivation of the tolerances and of the per-vertex (C, B)
        g = build_graph([(0, 1), (1, 2), (2, 0), (2, 1), (0, 3)], 4)
        params = (GeneralizedWeights(C=np.array([0.2, 0.5, 0.8, 0.4]), B=np.full(4, 0.3))
                  if generalized else PageRankParams(c=0.85))
        exact = pr.solve_pagerank(g, params, with_order=20)
        calls = {"_slack": [], "_coefficients": []}
        for name, seen in calls.items():
            spied = getattr(pr, name)
            monkeypatch.setattr(pr, name, lambda *args, seen=seen, spied=spied:
                                seen.append(args) or spied(*args))
        results = list(check_invariants(g, params, exact))
        assert len(results) == 24 and [e for _, e, _ in results if e is not None] == []
        assert {name: len(seen) for name, seen in calls.items()} == \
            {"_slack": 1, "_coefficients": 1}

    @SETTINGS
    @given(cases())
    def test_floor_catches_one_score_one_ulp_below_b(self, case):
        g, params, _ = case
        exact = pr.solve_pagerank(g, params)
        B = pr._coefficients(g, params)[1]
        i = int(np.argmax(B))
        values = exact.values.copy()
        values[i] = np.nextafter(B[i], 0.0)
        assert errors(g, params, perturbed(exact, values))["teleport-floor"] == \
            "1 vertices below B"

    @SETTINGS
    @given(cases())
    def test_mass_identity_catches_a_defect_past_its_slack(self, case):
        g, params, rng = case
        exact = pr.solve_pagerank(g, params)
        rounding, mass, _ = pr._slack(g, params, exact)
        C, B = pr._coefficients(g, params)
        i = int(rng.integers(g.n))
        slack = mass + rounding * 2 * (abs(exact.values.sum()) + 1.0)
        # R_i moves the identity's two sides apart by (1 - C_i) per unit
        values = exact.values.copy()
        values[i] += 2.5 * slack / (1.0 - C[i] * (g.d_out[i] > 0))
        assert errors(g, params, perturbed(exact, values))["mass-identity"] is not None

    @SETTINGS
    @given(cases(), st.booleans())
    def test_truncation_bound_catches_a_gap_past_either_side(self, case, above):
        g, params, rng = case
        exact = solved_past_convergence(g, params, 3)
        N = int(rng.integers(len(exact.means) - 1))
        mean_gap, bound = checks(g, params, exact)[f"truncation-bound-N{N}"][1]
        rounding, _, lag = pr._slack(g, params, exact)
        scale = 2 * rounding * abs(exact.means[-1])
        # past the slack by as much again, plus the rounding of the shift
        fuzz = 4 * np.finfo(float).eps * (abs(mean_gap) + bound + lag + max(exact.means))
        target = bound + 2 * scale + fuzz if above else -(lag + 2 * scale + fuzz)
        means = list(exact.means)
        means[N] -= target - mean_gap
        shifted = dataclasses.replace(exact, means=tuple(means))
        error = errors(g, params, shifted)[f"truncation-bound-N{N}"]
        assert error is not None and "outside" in error

    @SETTINGS
    @given(cases())
    def test_lower_bound_catches_one_score_below_r1(self, case):
        g, params, rng = case
        exact = pr.solve_pagerank(g, params)
        r1 = pr.pagerank_truncated(g, params, 1).values
        rounding = pr._slack(g, params, exact)[0]
        i = int(np.argmax(r1))
        values = exact.values.copy()
        values[i] = r1[i] * (1.0 - 3.0 * rounding)
        error = errors(g, params, perturbed(exact, values))["lower-bound"]
        assert error is not None and error.startswith("1 vertices below the order-1")

    def test_standard_identity_is_the_dangling_free_mass_rescaled(self):
        # on a graph without dangling vertices the standard identity reads
        # (1 - c) sum R = (1 - c) n
        g = build_graph([(0, 1), (1, 2), (2, 0), (2, 1)], 3)
        p = PageRankParams(c=0.85)
        exact = pr.solve_pagerank(g, p)
        assert errors(g, p, exact)["mass-identity"] is None
        off = perturbed(exact, exact.values + 1e-6 / 3)
        assert errors(g, p, off)["mass-identity"] is not None

    def test_generalized_bound_is_tight_on_a_cycle(self):
        # with constant C on a cycle each step passes on exactly c of the
        # mass, so the mean gap is sum_{k>N} c^k mean(B), the bound itself
        g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
        w = GeneralizedWeights(C=np.full(3, 0.5), B=np.array([0.1, 0.7, 0.4]))
        for N in range(6):
            gap, bound = solved_truncation_gap(g, w, N)
            assert gap == pytest.approx(bound, rel=1e-9)

    @pytest.mark.parametrize("length", [1, 4])
    def test_weights_of_another_length_rejected_like_the_solve(self, length):
        g = build_graph([(0, 1), (1, 2), (2, 0)], 3)
        exact = pr.solve_pagerank(g, GeneralizedWeights(C=np.full(3, 0.5), B=np.full(3, 0.5)))
        w = GeneralizedWeights(C=np.full(length, 0.5), B=np.full(length, 0.5))
        message = f"weights have length {length}, graph has 3 vertices"
        with pytest.raises(ConfigError, match=message):
            pr.solve_pagerank(g, w)
        with pytest.raises(ConfigError, match=message):
            list(check_invariants(g, w, exact))
