"""One benchmark operation in a fresh process.

    python3 perfbench/worker.py '<json spec>'

Set-up (interpreter start, ``import pagerank_limits.cli``, writing the
inputs) ends with a ``ready`` line on stdout; the harness times set-up up to
that line.  The worker then runs the workload's calls, checks their outputs,
and prints one JSON line: wall time from the first library call to the
verified result, its own peak RSS, the per-call results, and, when traced,
the per-layer metrics or, for a reference run, the output digests.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_library():
    sys.path.insert(0, str(SRC))
    import pagerank_limits.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"pagerank_limits imported from {cli.__file__}, not {SRC}")
    return cli


def digests(workdir, patterns):
    """SHA-256 of each seeded output file, keyed by its path under workdir."""
    found = sorted(p for pattern in patterns for p in Path(workdir).glob(pattern))
    return {str(p.relative_to(workdir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in found}


def main(spec):
    cli = _import_library()
    import numpy
    import scipy
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    params = spec["params"]
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = workload.make_inputs(workdir, spec["seed"], params)
    print("ready", flush=True)

    tracer = uninstall = None
    if spec["traced"]:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        span = tracer.open(tracer.name_id(tracing.WORKLOAD_SPAN))
    t0 = time.perf_counter()
    calls = workload.run(cli, workdir, inputs, params)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(span)
        uninstall()
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": [vars(c) for c in calls],
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, workload.main_metrics)
        if spec.get("spans_path"):
            tracer.write_tsv(spec["spans_path"])
    if spec.get("digest"):
        result["digests"] = digests(workdir, workload.outputs)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
