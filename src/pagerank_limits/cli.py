"""Command-line entry points and experiment orchestration.

Subcommands map one-to-one onto module operations (generate, pagerank,
census, limit-sample, compare, verify) plus ``run``, which wires the whole
pipeline: generate graphs over a size ladder, solve exact and truncated
PageRank, check the truncation and lower bounds, build censuses and tails,
sample the configured limit once, and emit all comparisons into an output
directory.  Everything is deterministic given (config, seed): one master
seed feeds named substreams (graph, limits, census) so enlarging the limit
pool never perturbs graph generation.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import time
import warnings
from itertools import chain
from pathlib import Path

import numpy as np

from . import generators as gen
from . import limits as limits_mod
from . import pagerank as pr
from ._textio import line_of_row, write_json
from .census import (
    TailSample,
    ccdf,
    census,
    census_limit,
    censuses,
    hill_estimator,
    ks_distance,
    read_census_csv,
    tv_distance,
    write_census_csv,
    write_tail_csv,
)
from .errors import (
    ConfigError,
    InputError,
    InvariantViolation,
    PagerankLimitsError,
    UsageError,
)
from .graph import DirectedMultigraph, read_edgelist, write_edgelist

__all__ = ["main", "entry", "run_experiment", "load_config"]

STREAM_GRAPH = 0
STREAM_LIMITS = 1
STREAM_CENSUS = 2

EXIT_OK = 0
EXIT_OPERATIONAL = 1
EXIT_INVARIANT = 2


# ---------------------------------------------------------------------------
# config handling


def _require(cond, field, message):
    if not cond:
        raise ConfigError(f"{field}: {message}")


def _integer(value, field):
    """A config number that must be an integer; integral floats such as 1e5 pass."""
    if not (isinstance(value, float) and not value.is_integer()):
        with contextlib.suppress(TypeError, ValueError):
            return int(value)
    raise ConfigError(f"{field}: expected an integer, got {value!r}")


def _number(value, field):
    """A config number: what ``float`` takes, as ``_integer`` takes what ``int`` does."""
    with contextlib.suppress(TypeError, ValueError):
        return float(value)
    raise ConfigError(f"{field}: expected a number, got {value!r}")


def _block(parent, key, field):
    """The config object under ``key``, empty when absent."""
    block = parent.get(key, {})
    _require(isinstance(block, dict), field, "expected an object")
    return block


def _parse_law(obj, field):
    _require(isinstance(obj, list) and obj, field, "expected a nonempty [[h,l,p],...] list")
    entries = []
    for row in obj:
        _require(isinstance(row, (list, tuple)) and len(row) == 3, field,
                 f"bad law row {row!r}")
        entries.append((row[0], row[1], row[2]))
    try:
        return gen.BiDegreeLaw(entries)
    except ConfigError as e:
        raise ConfigError(f"{field}: {e}") from None


def make_sampler(spec, field, damping=False):
    """Distribution spec -> callable (rng, size) -> nonnegative float array.

    Every parameter must be finite and >= 0.  A ``damping`` law (C) must
    also stay below 1: a constant below 1, a uniform with ``high < 1`` (numpy's
    uniform can round up to ``high``), and no exponential.
    """
    _require(isinstance(spec, dict) and "dist" in spec, field,
             "expected {'dist': ..., ...}")
    dist = spec["dist"]
    top = 1.0 if damping else math.inf
    if dist == "constant":
        value = _number(spec.get("value"), f"{field}.value")
        _require(0 <= value < top, field, f"need 0 <= value < {top}, got {value}")
        return lambda rng, size: np.full(size, value)
    if dist == "uniform":
        low, high = (_number(spec.get(k), f"{field}.{k}") for k in ("low", "high"))
        _require(0 <= low < high < top, field,
                 f"need 0 <= low < high < {top}, got {low}, {high}")
        return lambda rng, size: rng.uniform(low, high, size)
    if dist == "exponential":
        _require(not damping, field, "a damping law must be bounded below 1, not exponential")
        mean = _number(spec.get("mean"), f"{field}.mean")
        _require(0 < mean < math.inf, field, "need a finite positive mean")
        return lambda rng, size: rng.exponential(mean, size)
    raise ConfigError(f"{field}: unknown dist {dist!r}")


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return validate_config(raw)


def _parse_model(model):
    """The config's ``model`` block -> model dict with parsed parameters."""
    _require(isinstance(model, dict) and "name" in model, "model",
             "expected {'name': dcm|irg|dpa|ctbp, ...}")
    name = model["name"]
    _require(name in ("dcm", "irg", "dpa", "ctbp"), "model.name",
             f"unknown model {name!r}")
    if name == "dcm":
        return {"name": name, "law": _parse_law(model.get("law"), "model.law")}
    if name == "irg":
        theta = model.get("theta")
        return {"name": name, "w_out": model.get("w_out", 1.0),
                "w_in": model.get("w_in", 1.0),
                "theta": None if theta is None else _number(theta, "model.theta")}
    if name == "dpa":
        delta = _number(model.get("delta", 0.0), "model.delta")
        _require(math.isfinite(delta), "model.delta", f"must be finite, got {delta}")
        params = gen.PamParams(m=_integer(model.get("m", 1), "model.m"), delta=delta)
        return {"name": name, "m": params.m, "delta": params.delta}
    theta = _number(model.get("theta", 1.0), "model.theta")
    _require(0 < theta < math.inf and 1.0 / theta < math.inf, "model.theta",
             f"must be positive and finite with a finite reciprocal, got {theta}")
    return {"name": name, "theta": theta}


def validate_config(raw):
    _require(isinstance(raw, dict), "config", "top level must be an object")
    cfg = {}
    cfg["seed"] = _integer(raw.get("seed", 0), "seed")

    cfg["model"] = model = _parse_model(raw.get("model"))

    sizes = raw.get("sizes")
    _require(isinstance(sizes, list) and sizes, "sizes", "expected a nonempty list")
    sizes = [_integer(s, "sizes") for s in sizes]
    _require(all(s >= 1 for s in sizes), "sizes", "sizes must be >= 1")
    _require(all(a < b for a, b in zip(sizes, sizes[1:])), "sizes",
             "sizes must be strictly ascending")
    cfg["sizes"] = sizes

    prk = _block(raw, "pagerank", "pagerank")
    c = _number(prk.get("c", 0.85), "pagerank.c")
    _require(0.0 < c < 1.0, "pagerank.c", f"must be in (0,1), got {c}")
    tol = _number(prk.get("tol", 1e-12), "pagerank.tol")
    _require(tol > 0, "pagerank.tol", "must be positive")
    N = _integer(prk.get("N", 10), "pagerank.N")
    _require(N >= 0, "pagerank.N", "must be >= 0")
    max_iter = _integer(prk.get("max_iter", 10_000), "pagerank.max_iter")
    cfg["pagerank"] = {
        "params": pr.PageRankParams(c=c, tol=tol, max_iter=max_iter),
        "N": N,
    }
    if "generalized" in prk:
        gspec = _block(prk, "generalized", "pagerank.generalized")
        cfg["pagerank"]["generalized"] = {
            "c_sampler": make_sampler(gspec.get("c_law"), "pagerank.generalized.c_law",
                                      damping=True),
            "b_sampler": make_sampler(gspec.get("b_law"), "pagerank.generalized.b_law"),
        }

    lim = _block(raw, "limit", "limit")
    sampler = lim.get("sampler", next(
        (s for s, (m, _) in limits_mod.LIMIT_LAWS.items() if m == model["name"]), None))
    try:
        law = limits_mod.limit_law(sampler, model)
    except ConfigError as e:
        raise ConfigError(f"limit.sampler: {e}") from None
    cfg["limit"] = {
        "sampler": sampler,
        "law": law,
        "M": _integer(lim.get("M", 10_000), "limit.M"),
        "depth": _integer(lim.get("depth", cfg["pagerank"]["N"]), "limit.depth"),
    }
    _require(cfg["limit"]["M"] >= 1, "limit.M", "must be >= 1")
    _require(cfg["limit"]["depth"] >= 0, "limit.depth", "must be >= 0")

    comp = _block(raw, "comparison", "comparison")
    depths = comp.get("census_depths", [1])
    _require(isinstance(depths, list), "comparison.census_depths", "expected a list")
    depths = [_integer(k, "comparison.census_depths") for k in depths]
    _require(all(k >= 0 for k in depths), "comparison.census_depths", "depths must be >= 0")
    _require(len(set(depths)) == len(depths), "comparison.census_depths",
             "depths must be distinct")
    thresholds = comp.get("thresholds")
    if thresholds is not None:
        _require(isinstance(thresholds, list) and thresholds,
                 "comparison.thresholds", "expected a nonempty list")
        thresholds = [_number(t, "comparison.thresholds") for t in thresholds]
        _require(thresholds == sorted(thresholds), "comparison.thresholds",
                 "must be sorted ascending")
    cfg["comparison"] = {"census_depths": depths, "thresholds": thresholds}

    cfg["threads"] = _integer(raw.get("threads", 1), "threads")
    _require(cfg["threads"] >= 1, "threads", f"must be >= 1, got {cfg['threads']}")
    cfg["_raw"] = raw
    return cfg


# ---------------------------------------------------------------------------
# pipeline pieces


def _irg_weights(spec, n, field):
    if isinstance(spec, (int, float)):
        return np.full(n, float(spec))
    _require(isinstance(spec, (list, np.ndarray)) and len(spec) == n, field,
             f"expected a scalar or a list of length {n}")
    return np.asarray(spec, dtype=np.float64)


def generate_model(model, n, rng):
    """Build one graph instance; returns (graph, metadata dict)."""
    name = model["name"]
    if name == "dcm":
        seq = gen.sample_bidegree_sequence(model["law"], n, rng)
        g = gen.gen_dcm(seq, rng)
        meta = {"model": "dcm", "law": model["law"].entries}
    elif name == "irg":
        if n < 1:
            raise ConfigError(f"n must be >= 1, got {n}")
        w_out = _irg_weights(model["w_out"], n, "model.w_out")
        w_in = _irg_weights(model["w_in"], n, "model.w_in")
        theta = model["theta"] if model["theta"] is not None else float(w_in.mean())
        g = gen.gen_irg(w_out, w_in, theta, rng)
        meta = {"model": "irg", "theta": theta}
    elif name == "dpa":
        g = gen.gen_dpa(n, gen.PamParams(model["m"], model["delta"]), rng)
        meta = {"model": "dpa", "m": model["m"], "delta": model["delta"]}
    else:
        g, births = gen.gen_ctbp_tree(gen.CtbpParams(model["theta"]), n, rng)
        meta = {"model": "ctbp", "theta": model["theta"],
                "last_birth_time": float(births[-1])}
    meta.update(degree_stats(g))
    return g, meta


def degree_stats(g: DirectedMultigraph):
    return {
        "n": g.n,
        "edges": g.total_multiplicity,
        "mean_out_degree": float(g.d_out.mean()) if g.n else 0.0,
        "max_out_degree": int(g.d_out.max()) if g.n else 0,
        "max_in_degree": int(g.d_in.max()) if g.n else 0,
        "dangling": int((g.d_out == 0).sum()),
    }


def limit_pool(cfg, rng):
    """Pool of limit root-rank samples plus metadata for the sidecar."""
    lim = cfg["limit"]
    c = cfg["pagerank"]["params"].c
    genspec = cfg["pagerank"].get("generalized") or {}
    meta = {"sampler": lim["sampler"], "M": lim["M"], "depth": lim["depth"], "c": c,
            "generalized": bool(genspec), **lim["law"].meta}
    return lim["law"].pool(c, lim["depth"], lim["M"], rng, **genspec), meta


def run_experiment(config_path, output_dir, threads=None):
    """Full pipeline; returns (record, exit_code)."""
    cfg = load_config(config_path)
    if threads is not None:
        _require(threads >= 1, "--threads", f"must be >= 1, got {threads}")
        cfg["threads"] = threads
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "config.json", cfg["_raw"])

    record = {"config": cfg["_raw"], "per_size": [], "timings": {}, "status": "OK",
              "failures": []}
    seed = cfg["seed"]
    params = cfg["pagerank"]["params"]
    N = cfg["pagerank"]["N"]
    genspec = cfg["pagerank"].get("generalized")
    stage = "limit-pool"
    try:
        t0 = time.perf_counter()
        pool, pool_meta = limit_pool(cfg, gen.RngStream(seed, STREAM_LIMITS).generator())
        limits_mod.write_pool_csv(pool, out / "limit_pool.csv")
        pool_meta["seed"] = seed
        write_json(out / "limit_pool.meta.json", pool_meta)
        record["timings"]["limit_pool"] = time.perf_counter() - t0
        pool_tail = TailSample(pool)
        if cfg["comparison"]["thresholds"]:
            write_tail_csv(pool_tail, cfg["comparison"]["thresholds"],
                           out / "limit_tails.csv")

        limit_censuses = {}
        t0 = time.perf_counter()
        crng = gen.RngStream(seed, STREAM_LIMITS).substream(1).generator()
        record["timings"]["census_limit"] = {}
        for k in cfg["comparison"]["census_depths"]:
            stage = f"limit-census-k{k}"
            t1 = time.perf_counter()
            lc = census_limit(cfg["limit"]["law"], k, cfg["limit"]["M"], crng)
            record["timings"]["census_limit"][str(k)] = time.perf_counter() - t1
            limit_censuses[k] = lc
            write_census_csv(lc, out / f"limit_census_{k}.csv")
        record["timings"]["limit_census"] = time.perf_counter() - t0

        for i, n in enumerate(cfg["sizes"]):
            stage = f"size-{n}"
            entry = {"n": n}
            t0 = time.perf_counter()
            grng = gen.RngStream(seed, STREAM_GRAPH).substream(i).generator()
            g, gmeta = generate_model(cfg["model"], n, grng)
            write_edgelist(g, out / f"graph_{n}.txt")
            write_json(out / f"graph_{n}.meta.json", {**gmeta, "seed": seed})
            entry["graph"] = gmeta

            weights = params
            if genspec:
                wrng = gen.RngStream(seed, STREAM_GRAPH).substream(i).substream(1).generator()
                weights = pr.GeneralizedWeights(
                    C=genspec["c_sampler"](wrng, n), B=genspec["b_sampler"](wrng, n),
                    tol=params.tol, max_iter=params.max_iter)
            exact = pr.solve_pagerank(g, weights, with_order=N)
            entry["mean_gap"], entry["gap_bound"] = _checked(g, weights, exact, f" at n={n}")
            entry.update(gap_ok=True, mass_ok=True, lower_bound_ok=True)
            entry["iterations"] = exact.iterations
            entry["residual"] = exact.residual
            entry["mean_R"] = exact.mean
            entry["sum_R_over_n"] = float(exact.values.sum()) / n
            pr.write_scores_csv(exact, out / f"scores_{n}.csv")

            graph_tail = TailSample(exact.values)
            entry["ks_to_limit"] = ks_distance(graph_tail, pool_tail)
            thresholds = cfg["comparison"]["thresholds"]
            if thresholds:
                write_tail_csv(graph_tail, thresholds, out / f"tails_{n}.csv")
                entry["ccdf"] = dict(zip(map(str, thresholds),
                                         ccdf(graph_tail, thresholds).tolist()))

            entry["census_tv"] = {}
            entry["census_paths"] = {}
            census_s = {}
            record["timings"].setdefault("census", {})[str(n)] = census_s
            # the first depth's step also carries the work all depths share
            t1 = time.perf_counter()
            for k, cen in censuses(g, cfg["comparison"]["census_depths"],
                                   workers=cfg["threads"]):
                census_s[str(k)] = time.perf_counter() - t1
                write_census_csv(cen, out / f"census_{n}_{k}.csv")
                entry["census_paths"][str(k)] = cen.paths
                entry["census_tv"][str(k)] = tv_distance(cen, limit_censuses[k])
                t1 = time.perf_counter()

            top_k = max(2, int(np.sqrt(n)))
            entry["hill_pagerank"] = _try_hill(graph_tail, top_k)
            entry["hill_in_degree"] = _try_hill(TailSample(g.d_in), top_k)
            entry["seconds"] = time.perf_counter() - t0
            record["per_size"].append(entry)
    except PagerankLimitsError as e:
        record["status"] = "FAILED"
        record["failures"].append({"stage": stage, "error": str(e)})
        write_json(out / "record.json", record)
        return record, (EXIT_INVARIANT if isinstance(e, InvariantViolation)
                        else EXIT_OPERATIONAL)

    write_json(out / "record.json", record)
    return record, EXIT_OK


def _checked(g, params, exact, where=""):
    """Raise on the first failed invariant, else return the last truncation gap."""
    gap = None
    for name, error, value in pr.check_invariants(g, params, exact):
        if error is not None:
            raise InvariantViolation(f"{name.replace('-', ' ')} failed{where}: {error}")
        gap = value or gap
    return gap


def _try_hill(tail, top_k):
    try:
        return hill_estimator(tail, top_k)
    except UsageError:
        return None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_generate(args):
    rng = gen.RngStream(args.seed, args.stream).generator()
    model = _model_from_args(args, args.model)
    g, meta = generate_model(model, args.n, rng)
    output = args.output or f"{args.model}_{args.n}.txt"
    write_edgelist(g, output)
    meta.update({"seed": args.seed, "stream": args.stream})
    write_json(str(output) + ".meta.json", meta)
    print(f"wrote {output} ({meta['edges']} edges)")
    return EXIT_OK


def _model_from_args(args, name):
    """The model block that the set CLI arguments give, parsed as in a config."""
    raw = {"name": name}
    for key in ("law", "w_out", "w_in", "theta", "m", "delta"):
        value = getattr(args, key, None)
        if value is not None:
            raw[key] = (_load_inline_json(value) if key == "law" else
                        _weight_arg(value, "--" + key.replace("_", "-"), args.n)
                        if key in ("w_out", "w_in") else value)
    return _parse_model(raw)


def _weight_arg(spec, flag, n):
    if spec.startswith("@"):
        return _values_file(spec[1:], flag, n)
    try:
        return float(spec)
    except ValueError as e:
        raise InputError(f"{flag}: {e}") from None


def _values_file(path, flag, n):
    """A per-vertex value file (README, "File formats") of ``n`` values, as a
    float array."""
    try:
        with warnings.catch_warnings():
            # an empty file is an empty array, rejected by the length checks
            warnings.simplefilter("ignore", UserWarning)
            # a file handle: given a path, np.loadtxt imports gzip
            with open(path, encoding="utf-8") as fh:
                values = np.loadtxt(fh, ndmin=1)
    except ValueError as e:
        raise InputError(f"{flag} {path}: {e}") from None
    if values.ndim != 1:
        raise InputError(f"{flag} {path}: expected one number per line")
    if values.size != n:
        raise InputError(f"{flag} {path}: expected {n} values, one per vertex, "
                         f"got {values.size}")
    return values


def _load_inline_json(text):
    if text.startswith("@"):
        text = Path(text[1:]).read_text()
    return json.loads(text)


def _cmd_pagerank(args):
    g = read_edgelist(args.graph)
    if args.c_values or args.b_values:
        if not (args.c_values and args.b_values):
            raise ConfigError("generalized solve needs both --c-values and --b-values")
        params = pr.GeneralizedWeights(
            C=_values_file(args.c_values, "--c-values", g.n),
            B=_values_file(args.b_values, "--b-values", g.n), tol=args.tol,
            max_iter=args.max_iter)
    else:
        params = pr.PageRankParams(c=args.c, tol=args.tol, max_iter=args.max_iter)
    exact = pr.solve_pagerank(g, params, with_order=args.N)
    gap = _checked(g, params, exact)
    pr.write_scores_csv(exact.truncated or exact, args.output, gap=gap)
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_census(args):
    g = read_edgelist(args.graph)
    rng = None if args.sample is None else gen.RngStream(args.seed, STREAM_CENSUS).generator()
    cen = census(g, args.k, sample_count=args.sample, rng=rng,
                            workers=args.workers)
    write_census_csv(cen, args.output)
    print(f"wrote {args.output} ({len(cen.counts)} classes, total {cen.total})")
    return EXIT_OK


def _cmd_limit_sample(args):
    if args.M is None and args.mode != "tree":
        raise ConfigError(f"limit-sample --mode {args.mode} needs --M")
    rng = gen.RngStream(args.seed, args.stream).generator()
    model = _model_from_args(args, limits_mod.LIMIT_LAWS[args.sampler][0])
    law = limits_mod.limit_law(args.sampler, model)
    if args.mode == "tree":
        limits_mod.write_tree_edgelist(law.tree(args.depth, rng), args.output)
    elif args.mode == "pool":
        limits_mod.write_pool_csv(law.pool(args.c, args.depth, args.M, rng), args.output)
        # the model's parameters, with the law's own fields (bi-degree law
        # entries, Malthusian rate) in place of the parsed law object
        meta = {"sampler": args.sampler, "M": args.M, "depth": args.depth,
                "seed": args.seed, "c": args.c, **model, **law.meta}
        del meta["name"]
        write_json(str(args.output) + ".meta.json", meta)
    else:
        k = args.k if args.k is not None else args.depth
        write_census_csv(census_limit(law, k, args.M, rng), args.output)
    print(f"wrote {args.output}")
    return EXIT_OK


def _load_tails(path):
    """A scores or pool file's values; a NaN, which KS would rank above every
    number, raises ``InputError`` naming its line."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        header = fh.readline().strip()
    read = pr.read_scores_csv if header == "vertex,score" else limits_mod.read_pool_csv
    values = read(path)
    nan = np.isnan(values)
    if nan.any():
        raise InputError(f"{path}: line {line_of_row(path, int(nan.argmax()))}: NaN value")
    return TailSample(values)


def _cmd_compare(args):
    if args.graph_tails and args.limit_tails:
        ks = ks_distance(_load_tails(args.graph_tails),
                                    _load_tails(args.limit_tails))
        print(f"{ks!r}")
        return EXIT_OK
    if args.census_a and args.census_b:
        # the files carry no depth: one label for both keeps tv_distance's check quiet
        a, b = (read_census_csv(path, depth=0) for path in (args.census_a, args.census_b))
        print(f"{tv_distance(a, b)!r}")
        return EXIT_OK
    raise ConfigError("compare needs --graph-tails/--limit-tails or --census-a/--census-b")


def _cmd_verify(args):
    g = read_edgelist(args.graph)
    params = pr.PageRankParams(c=args.c)
    totals = (int(g.d_out.sum()), int(g.d_in.sum()), g.total_multiplicity)
    degrees = None if len(set(totals)) == 1 else f"degree sums {totals} disagree"
    exact = pr.solve_pagerank(g, params, with_order=args.max_order)
    failures = 0
    for name, error, _ in chain([("degree-consistency", degrees, None)],
                                pr.check_invariants(g, params, exact)):
        failures += error is not None
        print(f"PASS {name}" if error is None else f"FAIL {name}: {error}")
    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} violations")
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


def _cmd_run(args):
    record, code = run_experiment(args.config, args.output_dir, threads=args.threads)
    print(f"status: {record['status']}")
    for failure in record["failures"]:
        print(f"  {failure['stage']}: {failure['error']}")
    return code


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser():
    """The argument parser of every subcommand, built on the first :func:`main`
    call of a process and reused: parsing keeps no state in it, and
    ``--sampler`` reads the live ``LIMIT_LAWS`` registry on each parse."""
    ap = argparse.ArgumentParser(
        prog="pagerank-limits",
        description="PageRank on directed multigraphs and samplers of their local limits",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random graph instance")
    p.add_argument("--model", required=True, choices=["dcm", "irg", "dpa", "ctbp"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=STREAM_GRAPH)
    p.add_argument("--law", help="bi-degree law as JSON [[h,l,p],...] or @file (dcm)")
    p.add_argument("--w-out", dest="w_out", help="IRG out-weights: scalar or @file")
    p.add_argument("--w-in", dest="w_in", help="IRG in-weights: scalar or @file")
    p.add_argument("--theta", type=float, help="IRG normalizer / ctbp rate base")
    p.add_argument("--m", type=int, default=1, help="out-degree per new vertex (dpa)")
    p.add_argument("--delta", type=float, default=0.0, help="attachment shift (dpa)")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("pagerank", help="solve exact or truncated PageRank")
    p.add_argument("--graph", required=True)
    p.add_argument("--c", type=float, default=0.85)
    p.add_argument("--N", type=int, default=None, help="truncation order (default: exact)")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=10_000)
    p.add_argument("--c-values", dest="c_values", help="per-vertex C file (generalized)")
    p.add_argument("--b-values", dest="b_values", help="per-vertex B file (generalized)")
    p.add_argument("--output", default="scores.csv")
    p.set_defaults(fn=_cmd_pagerank)

    p = sub.add_parser("census", help="neighborhood census of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--output", default="census.csv")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("limit-sample", help="sample a limiting object")
    p.add_argument("--sampler", required=True, choices=limits_mod.LIMIT_LAWS)
    p.add_argument("--mode", choices=["pool", "census", "tree"], default="pool")
    p.add_argument("--M", type=int, help="trees or pool size (pool and census modes)")
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--k", type=int, default=None, help="census depth (census mode)")
    p.add_argument("--c", type=float, default=0.85)
    p.add_argument("--law", help="bi-degree law JSON or @file (fixed-point/gw)")
    p.add_argument("--theta", type=float, default=1.0, help="ctbp rate base")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=STREAM_LIMITS)
    p.add_argument("--output", default="pool.csv")
    p.set_defaults(fn=_cmd_limit_sample)

    p = sub.add_parser("compare", help="KS between tails or TV between censuses")
    p.add_argument("--graph-tails", dest="graph_tails")
    p.add_argument("--limit-tails", dest="limit_tails")
    p.add_argument("--census-a", dest="census_a")
    p.add_argument("--census-b", dest="census_b")
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("verify", help="run the invariant suite on a graph file")
    p.add_argument("--graph", required=True)
    p.add_argument("--c", type=float, default=0.85)
    p.add_argument("--max-order", dest="max_order", type=int, default=20)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("run", help="run a full experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", dest="output_dir", required=True)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(fn=_cmd_run)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return EXIT_INVARIANT
    except (PagerankLimitsError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_OPERATIONAL


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
