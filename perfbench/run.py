"""Benchmark harness for pagerank-limits.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every operation runs in a fresh
worker process (``worker.py``), one after another, until ``--seconds`` have
passed (at least ``MIN_OPS``); operation i of a run uses seed (N, i).

With ``--trace 0`` the result holds the end-to-end metrics, medians over
the run's operations: ``wall_norm_s`` (first library call to verified
result), ``setup_s`` (interpreter start, ``import pagerank_limits.cli`` and
writing the inputs), both rescaled to a fixed host speed by a calibration
kernel timed between operations, and ``peak_rss_mb`` (the worker's own max
RSS).  With
``--trace 1`` untraced and traced operations alternate on the same inputs;
the result holds the per-layer metrics of the traced ones (medians), the
tracing overhead, and the digest check of a fixed reference input.

The last stdout line is the JSON result; ``error_rate`` is its
``failed / attempted``.  The line before it, and ``.perfbench_out/``, hold
the provenance and every operation's details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

MIN_OPS = 3            # set-up and wall medians need a few samples even in short runs
# a run must end within 180 s: no operation starts unless one as long as the
# longest so far would end by LAST_START_S, and workers still alive at
# KILL_AFTER_S are killed
LAST_START_S = 150.0
KILL_AFTER_S = 170.0
REFERENCE_SEED = 0

END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CAL_REF_S = 0.25       # calibration-kernel time that wall_norm_s is scaled to
CAL_REPEATS = 2        # kernel runs before the first operation and after each


def calibration_seconds(nodes: int = 100_000) -> float:
    """Wall time of a fixed pure-Python kernel: build a random graph with
    out-degree 1 or 2, then tally the depth-2 exploration classes of every
    fifth vertex.  It shares no code with the library, so no library change
    moves it; it moves with the speed of the host."""
    t0 = time.perf_counter()
    rng = random.Random(0)
    adj = [[rng.randrange(nodes) for _ in range(rng.choice((1, 2)))]
           for _ in range(nodes)]
    classes = {}
    for root in range(0, nodes, 5):
        depth = {root: 0}
        frontier = [root]
        for d in (1, 2):
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in depth:
                        depth[u] = d
                        nxt.append(u)
            frontier = nxt
        key = tuple(sorted((depth[v], len(adj[v])) for v in depth))
        classes[key] = classes.get(key, 0) + 1
    return time.perf_counter() - t0


def op_seed(seed: int, i: int) -> int:
    """Experiment seed of operation i in a run with workload seed `seed`."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{i}".encode()).digest()[:4], "little")


class WorkerError(RuntimeError):
    pass


def spawn(spec: dict, deadline: float) -> dict:
    """Run one worker; returns its result plus the set-up time seen from here."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(1.0, deadline - time.perf_counter())):
                raise subprocess.TimeoutExpired(proc.args, deadline)
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = setup
    return result


def run_op(workload, params, seed, workdir, deadline, **extra) -> dict:
    spec = {"workload": workload.name, "params": params, "seed": seed,
            "workdir": str(workdir), "traced": False, **extra}
    try:
        result = spawn(spec, deadline)
    except WorkerError as e:
        # a worker that crashes or times out counts as one failed operation
        result = {"calls": [{"name": "worker", "ok": False, "detail": str(e)}]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["seed"] = seed
    return result


def run_benchmark(workload, params, seed, seconds, trace, out_dir, min_ops=MIN_OPS):
    """All operations of one run; returns (result line, report)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    start = time.perf_counter()
    deadline = start + KILL_AFTER_S
    timed, traced = [], []
    calibration = [] if trace else [calibration_seconds() for _ in range(CAL_REPEATS)]
    i, longest = 0, 0.0
    while i < (1 if trace else min_ops) or time.perf_counter() - start < seconds:
        if time.perf_counter() - start + longest > LAST_START_S:
            break
        t0 = time.perf_counter()
        s = op_seed(seed, i)
        timed.append(run_op(workload, params, s, out_dir / f"op{i}", deadline))
        if trace:
            traced.append(run_op(workload, params, s, out_dir / f"op{i}-traced", deadline,
                                 traced=True, spans_path=str(out_dir / "spans.tsv")))
        if not trace:
            calibration += [calibration_seconds() for _ in range(CAL_REPEATS)]
        longest = max(longest, time.perf_counter() - t0)
        i += 1
    reference = None
    if trace:
        reference = run_op(workload, workload.tiny, REFERENCE_SEED, out_dir / "reference",
                           deadline, digest=True)

    ops = timed + traced + ([reference] if reference else [])
    attempted = sum(len(op["calls"]) for op in ops)
    failed = sum(not c["ok"] for op in ops for c in op["calls"])
    ok_timed = [op for op in timed if "wall_s" in op]
    ok_traced = [op for op in traced if "layers" in op]
    metrics = {}
    if not trace and ok_timed:
        speed = CAL_REF_S / statistics.median(calibration)
        values = {
            "wall_norm_s": statistics.median(op["wall_s"] for op in ok_timed) * speed,
            "setup_s": statistics.median(op["setup_s"] for op in ok_timed) * speed,
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ok_timed),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    if trace and ok_timed and ok_traced:
        layers = tracing.median_metrics([op["layers"] for op in ok_traced])
        layers["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in ok_traced)
                                      - statistics.median(op["wall_s"] for op in ok_timed))
        expected = json.loads(DIGESTS.read_text()).get(workload.name, {})
        got = reference.get("digests", {})
        layers["outputs.digested"] = len(got)
        layers["outputs.identical"] = sum(expected.get(k) == v for k, v in got.items())
        metrics = {k: {"value": layers[k], "unit": tracing.UNITS[k]} for k in tracing.UNITS}
    line = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}
    report = {
        "seconds": seconds, "trace": trace, "params": params,
        "calibration_s": calibration, "error_rate": failed / attempted if attempted else None,
        "provenance": {
            "workload": workload.name, "seed": seed,
            "inputs": {k: v for op in ok_timed[:1] for c in op["calls"]
                       for k, v in c["sizes"].items()},
            **provenance(ok_timed[0]["versions"] if ok_timed else {}),
        },
        "operations": ops, "result": line,
    }
    return line, report


def provenance(versions: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        **versions,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
    }


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    # a checkout that is not itself a repository has no SHA of its own
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pagerank_limits").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches():
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so `spawn` kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "pagerank_limits" / "cli.py").is_file():
        print(f"error: no pagerank_limits sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = OUT / f"{workload.name}-trace{args.trace}"
    line, report = run_benchmark(workload, workload.full, args.seed, args.seconds,
                                 bool(args.trace), out_dir)
    (out_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    print("provenance: " + json.dumps(report["provenance"]))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
