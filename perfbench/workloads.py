"""Benchmark workloads: inputs made from a seed, the library calls, their checks.

Each workload is one operation sequence driven from outside the library,
through ``cli.run_experiment`` or ``cli.main([...])``.  A call is one
operation for ``error_rate``: it fails on a non-zero exit or when a check
tied to it fails.  The parameter dicts are plain JSON so the harness can hand
them to a worker process; ``full`` sizes are what the benchmark measures,
``tiny`` sizes are what the self-test and the output digests use.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# criterion-6 law: balanced support, so degree sampling never needs repair
LAW_BAL = [[1, 1, 0.5], [2, 2, 0.5]]
# criterion-5 law
LAW33 = [[h, l, 1 / 9] for h in (1, 2, 3) for l in (1, 2, 3)]

KS_CRITERION = 0.02   # acceptance criterion 5: KS(graph scores, fixed-point pool)
TV_CRITERION = 0.05   # acceptance criterion 6: census TV at depth 2


def ks_critical(n: int, m: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sample Kolmogorov-Smirnov critical value."""
    return math.sqrt(-math.log(alpha / 2) / 2) * math.sqrt((n + m) / (n * m))


def ks_threshold(n: int, m: int) -> float:
    """Criterion 5's bound, relaxed to the 1% critical value where sampling
    noise alone would exceed it (only at the self-test's tiny sizes)."""
    return max(KS_CRITERION, ks_critical(n, m))


@dataclass
class Call:
    name: str
    ok: bool = True
    detail: str = ""
    sizes: dict = field(default_factory=dict)


def attempt(calls: list, name: str, fn) -> Call:
    """Run one operation; ``fn`` returns a list of failed-check messages."""
    call = Call(name)
    try:
        problems = fn(call)
    except Exception as e:  # operation boundary: count it failed, keep going
        problems = [f"{type(e).__name__}: {e}"]
    call.ok = not problems
    call.detail = "; ".join(problems)
    calls.append(call)
    return call


def cli_call(cli, argv):
    """``cli.main(argv)`` with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _exit_problems(code, err):
    return [] if code == 0 else [f"exit {code}: {err.strip()[-300:]}"]


def _write_json(obj, path):
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# `run` workloads


def _experiment_config(seed, params):
    model = {"name": params["model"]}
    if params["model"] == "dcm":
        model["law"] = params["law"]
    else:
        model.update(m=params["m"], delta=params["delta"])
    return {
        "seed": seed,
        "model": model,
        "sizes": params["sizes"],
        "pagerank": {"c": params["c"], "N": params["N"]},
        "limit": {"sampler": params["sampler"], "M": params["M"],
                  "depth": params["depth"]},
        "comparison": {"census_depths": params["census_depths"]},
        "threads": 1,
    }


def experiment_inputs(workdir, seed, params):
    path = Path(workdir) / "config.json"
    _write_json(_experiment_config(seed, params), path)
    return {"seed": seed, "config": str(path)}


def experiment_run(cli, workdir, inputs, params):
    """One ``run`` call, checked against record.json."""
    out = Path(workdir) / "out"
    M = params["M"]
    criterion_ks = params["sampler"] == "fixed_point"

    def op(call):
        _, code = cli.run_experiment(inputs["config"], str(out), threads=1)
        problems = _exit_problems(code, "")
        record = json.loads((out / "record.json").read_text())
        if record["status"] != "OK":
            problems.append(f"status {record['status']}: {record['failures']}")
        for entry in record["per_size"]:
            n = entry["n"]
            limit = ks_threshold(n, M) if criterion_ks else ks_critical(n, M)
            if not entry["ks_to_limit"] < limit:
                problems.append(f"KS(n={n})={entry['ks_to_limit']:.4g} >= {limit:.4g}")
            for k, tv in entry.get("census_tv", {}).items():
                if not tv < TV_CRITERION:
                    problems.append(f"census TV(n={n}, k={k})={tv:.4g} >= {TV_CRITERION}")
        call.sizes = {"n": params["sizes"], "M": M,
                      "edges": [e["graph"]["edges"] for e in record["per_size"]]}
        return problems

    calls = []
    attempt(calls, "run", op)
    return calls


# ---------------------------------------------------------------------------
# file-based CLI chains


def dcm_files_inputs(workdir, seed, params):
    law = Path(workdir) / "law.json"
    law.write_text(json.dumps(params["law"]))
    return {"seed": seed, "law": f"@{law}"}


def dcm_files_run(cli, workdir, inputs, params):
    """generate -> pagerank --N -> verify -> limit-sample -> compare."""
    wd = Path(workdir)
    graph, scores, pool = wd / "graph.txt", wd / "scores.csv", wd / "pool.csv"
    n, c, N, M = params["n"], params["c"], params["N"], params["M"]
    seed = inputs["seed"]
    calls = []

    def generate(call):
        code, _, err = cli_call(cli, ["generate", "--model", "dcm", "--n", n,
                                      "--law", inputs["law"], "--seed", seed,
                                      "--output", graph])
        problems = _exit_problems(code, err)
        if not problems:
            meta = json.loads(Path(f"{graph}.meta.json").read_text())
            call.sizes = {"n": meta["n"], "edges": meta["edges"]}
            if meta["n"] != n or meta["dangling"] != 0:
                problems.append(f"generated n={meta['n']}, dangling={meta['dangling']}")
        return problems

    def pagerank(call):
        code, _, err = cli_call(cli, ["pagerank", "--graph", graph, "--c", c,
                                      "--N", N, "--output", scores])
        problems = _exit_problems(code, err)
        if not problems:
            meta = json.loads(Path(f"{scores}.meta.json").read_text())
            if not 0.0 <= meta["mean_gap"] <= meta["gap_bound"]:
                problems.append(f"mean gap {meta['mean_gap']} outside [0, {meta['gap_bound']}]")
        return problems

    def verify(call):
        code, out, err = cli_call(cli, ["verify", "--graph", graph, "--c", c,
                                        "--max-order", N])
        problems = _exit_problems(code, err)
        if not out.rstrip().endswith("OK: 0 violations"):
            problems.append(f"verify: {out.strip().splitlines()[-1:]}")
        return problems

    def limit_sample(call):
        code, _, err = cli_call(cli, ["limit-sample", "--sampler", "fixed-point",
                                      "--depth", N, "--M", M, "--c", c,
                                      "--law", inputs["law"], "--seed", seed,
                                      "--output", pool])
        call.sizes = {"M": M}
        return _exit_problems(code, err)

    def compare(call):
        code, out, err = cli_call(cli, ["compare", "--graph-tails", scores,
                                        "--limit-tails", pool])
        problems = _exit_problems(code, err)
        if not problems:
            ks, limit = float(out.strip()), ks_threshold(n, M)
            if not ks < limit:
                problems.append(f"KS={ks:.4g} >= {limit:.4g}")
        return problems

    for name, fn in (("generate", generate), ("pagerank", pagerank), ("verify", verify),
                     ("limit-sample", limit_sample), ("compare", compare)):
        attempt(calls, name, fn)
    return calls


def irg_inputs(workdir, seed, params):
    """Pareto(2.5)+1 out- and in-weights, written for ``@file`` arguments."""
    rng = np.random.default_rng(seed)
    n = params["n"]
    paths = {}
    for side in ("w_out", "w_in"):
        w = rng.pareto(params["pareto_shape"], n) + 1.0
        path = Path(workdir) / f"{side}.txt"
        path.write_text("\n".join(map(repr, w.tolist())) + "\n")
        paths[side] = path
    return {"seed": seed, **{k: str(v) for k, v in paths.items()}}


def irg_edge_moments(w_out, w_in, theta):
    """Mean and variance of the IRG edge count, sum over i != j of
    Bernoulli(min(1, w_out_i w_in_j / (theta n))), in O(n log n)."""
    n = w_out.size
    a = w_out / (theta * n)
    b = np.sort(w_in)
    s1 = np.concatenate([[0.0], np.cumsum(b)])
    s2 = np.concatenate([[0.0], np.cumsum(b * b)])
    k = np.searchsorted(b, 1.0 / a, side="left")  # b[:k] give p < 1
    mean = float((a * s1[k] + (n - k)).sum())
    var = float((a * s1[k] - a * a * s2[k]).sum())
    p_self = np.minimum(1.0, a * w_in)
    return mean - float(p_self.sum()), var - float((p_self * (1 - p_self)).sum())


def irg_run(cli, workdir, inputs, params):
    """generate (IRG, weights from @files) -> pagerank -> verify."""
    wd = Path(workdir)
    graph, scores = wd / "graph.txt", wd / "scores.csv"
    n, c = params["n"], params["c"]
    calls = []

    def generate(call):
        w_out = np.loadtxt(inputs["w_out"])
        w_in = np.loadtxt(inputs["w_in"])
        theta = float(w_in.mean())
        code, _, err = cli_call(cli, ["generate", "--model", "irg", "--n", n,
                                      "--w-out", f"@{inputs['w_out']}",
                                      "--w-in", f"@{inputs['w_in']}",
                                      "--theta", repr(theta), "--seed", inputs["seed"],
                                      "--output", graph])
        problems = _exit_problems(code, err)
        if not problems:
            edges = json.loads(Path(f"{graph}.meta.json").read_text())["edges"]
            call.sizes = {"n": n, "edges": edges}
            mean, var = irg_edge_moments(w_out, w_in, theta)
            if abs(edges - mean) > 6 * math.sqrt(var) + 1:
                problems.append(f"{edges} edges, expected {mean:.1f} +- 6 x {math.sqrt(var):.1f}")
        return problems

    def pagerank(call):
        code, _, err = cli_call(cli, ["pagerank", "--graph", graph, "--c", c,
                                      "--output", scores])
        return _exit_problems(code, err)

    def verify(call):
        code, out, err = cli_call(cli, ["verify", "--graph", graph, "--c", c,
                                        "--max-order", params["N"]])
        problems = _exit_problems(code, err)
        if not out.rstrip().endswith("OK: 0 violations"):
            problems.append(f"verify: {out.strip().splitlines()[-1:]}")
        return problems

    for name, fn in (("generate", generate), ("pagerank", pagerank), ("verify", verify)):
        attempt(calls, name, fn)
    return calls


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class Workload:
    name: str
    full: dict
    tiny: dict
    make_inputs: object
    run: object
    outputs: tuple          # globs of the seeded outputs that are digested
    main_metrics: tuple     # per-layer times that should hold most of the traced time


_RUN_OUTPUTS = ("out/graph_*.txt", "out/scores_*.csv", "out/census_*.csv",
                "out/limit_census_*.csv", "out/limit_pool.csv")

WORKLOADS = {w.name: w for w in (
    Workload(
        name="dcm-census",
        full=dict(model="dcm", law=LAW_BAL, sizes=[30_000], c=0.5, N=9,
                  sampler="fixed_point", M=30_000, depth=9, census_depths=[1, 2]),
        # depth 2 only at full size: at n=3000 its TV noise alone nears 0.05
        tiny=dict(model="dcm", law=LAW_BAL, sizes=[3_000], c=0.5, N=9,
                  sampler="fixed_point", M=3_000, depth=9, census_depths=[1]),
        make_inputs=experiment_inputs, run=experiment_run, outputs=_RUN_OUTPUTS,
        main_metrics=("census.graph_s", "census.limit_s"),
    ),
    Workload(
        name="dpa-polya",
        full=dict(model="dpa", m=2, delta=1.0, sizes=[10_000, 50_000], c=0.5, N=9,
                  sampler="polya", M=2_000, depth=9, census_depths=[]),
        tiny=dict(model="dpa", m=2, delta=1.0, sizes=[2_000], c=0.5, N=4,
                  sampler="polya", M=500, depth=4, census_depths=[]),
        make_inputs=experiment_inputs, run=experiment_run, outputs=_RUN_OUTPUTS,
        main_metrics=("limits.pool_s",),
    ),
    Workload(
        name="dcm-files",
        full=dict(law=LAW33, n=150_000, c=0.85, N=20, M=100_000),
        tiny=dict(law=LAW33, n=5_000, c=0.85, N=20, M=5_000),
        make_inputs=dcm_files_inputs, run=dcm_files_run,
        outputs=("graph.txt", "scores.csv", "pool.csv"),
        main_metrics=("pagerank.solve_s", "pagerank.truncated_s", "pagerank.check_s",
                      "pagerank.io_s", "graph.read_edgelist_s", "graph.write_edgelist_s"),
    ),
    Workload(
        name="irg-generate",
        full=dict(n=12_000, pareto_shape=2.5, c=0.85, N=20),
        tiny=dict(n=1_500, pareto_shape=2.5, c=0.85, N=20),
        make_inputs=irg_inputs, run=irg_run, outputs=("graph.txt", "scores.csv"),
        main_metrics=("generators.generate_s",),
    ),
)}
