"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py           # check the harness (about a minute)
    python3 perfbench/selftest.py --record  # rewrite digests.json at this commit

For every workload, one untraced and one traced run at the ``tiny`` sizes
must pass every correctness check and emit exactly the metrics that
BENCHMARK.json names, each with its unit; the reference outputs must match
the recorded digests.  A deliberately malformed input (damping c=1.5) must
be counted as a failed operation, not crash the harness.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import run
import tracing
from workloads import WORKLOADS


def _check(cond, message, failures):
    print(("ok   " if cond else "FAIL ") + message)
    if not cond:
        failures.append(message)


def record():
    digests = {}
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name, workload in WORKLOADS.items():
            result = run.run_op(workload, workload.tiny, run.REFERENCE_SEED,
                                Path(tmp) / name, time.perf_counter() + 170, digest=True)
            if not all(c["ok"] for c in result["calls"]):
                raise SystemExit(f"{name}: reference run failed: {result['calls']}")
            digests[name] = result["digests"]
    run.DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {run.DIGESTS}")


def selftest() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    _check(units[0] == run.END_TO_END_UNITS, "end-to-end metrics match BENCHMARK.json",
           failures)
    _check(units[1] == tracing.UNITS, "per-layer metrics match BENCHMARK.json", failures)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for name, workload in WORKLOADS.items():
            for trace in (0, 1):
                line, report = run.run_benchmark(workload, workload.tiny, 1, 0, bool(trace),
                                                 Path(tmp) / f"{name}-{trace}", min_ops=1)
                got = {k: v["unit"] for k, v in line["metrics"].items()}
                _check(set(line) == {"correct", "attempted", "failed", "metrics"}
                       and line["correct"] and line["failed"] == 0,
                       f"{name} trace={trace}: all {line['attempted']} operations pass "
                       f"({[c['detail'] for op in report['operations'] for c in op['calls'] if not c['ok']]})",
                       failures)
                _check(got == units[trace], f"{name} trace={trace}: metrics and units",
                       failures)
                if trace:
                    m = line["metrics"]
                    _check(m["outputs.identical"]["value"] == m["outputs.digested"]["value"] > 0,
                           f"{name}: {m['outputs.identical']['value']} of "
                           f"{m['outputs.digested']['value']} reference outputs identical",
                           failures)
        workload = WORKLOADS["dcm-census"]
        bad = dict(workload.tiny, c=1.5)
        line, report = run.run_benchmark(workload, bad, 1, 0, False, Path(tmp) / "bad",
                                         min_ops=1)
        _check(line["attempted"] == 1 and line["failed"] == 1 and not line["correct"]
               and report["error_rate"] == 1.0,
               f"malformed config counted in error_rate ({report['operations'][0]['calls']})",
               failures)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--record"]:
        record()
    else:
        sys.exit(selftest())
