"""Child process of the layered benchmark: measures one workload.

``run.py`` starts one fresh interpreter per workload with the BLAS
thread pins in its environment; this module sets the workload up,
measures it with observability at its default (disabled), and prints
one JSON document as the last line of standard output. With
``"trace": true`` it makes the traced per-layer pass instead.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

#: Set-up is repeated so ``setup_s`` is a median, not one sample.
SETUP_REPS = 3
MIN_REPS = 5


def summary(values: list[float]) -> dict:
    """Median with quartiles and the sample count."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def measure(workload, seed: int, seconds: float, tiny: bool,
            import_s: float) -> dict:
    import numpy
    import workloads
    setups = []
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        state = workloads.setup(workload, seed, tiny)
        setups.append(time.perf_counter() - started)
    walls, latencies = [], []
    attempted = failed = 0
    identical = True
    min_reps = 2 if tiny else MIN_REPS
    started = time.perf_counter()
    while len(walls) < min_reps or time.perf_counter() - started < seconds:
        rep = workloads.run_once(state)
        walls.append(rep.wall)
        latencies.extend(rep.latencies)
        attempted += sum(len(results) for results in rep.passes)
        failed += workloads.check(state, rep)
        identical = identical and rep.passes == state.golden
    wall = summary(walls)
    return {
        "workload": workload.name, "seed": seed, "tiny": tiny,
        "pairs": len(state.pairs), "cells_per_pair": state.cells_per_pair,
        "reps": len(walls), "wall_s": wall,
        "latency_samples": len(latencies),
        # Not a gated metric: only serve_jobs has the samples for it.
        "job_latency_p90_ms": 1e3 * float(numpy.percentile(latencies, 90)),
        "attempted": attempted, "failed": failed,
        "failed_share": failed / attempted,
        "identical_across_reps": identical, "digest": state.digest,
        "setup_samples_s": setups, "import_s": import_s,
        "metrics": {
            "pairs_per_sec": len(state.pairs) / wall["median"],
            "job_latency_p50_ms": 1e3 * statistics.median(latencies),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": import_s + statistics.median(setups),
        },
    }


def main() -> int:
    args = json.loads(sys.argv[1])
    sys.path.insert(0, args["src"])
    import numpy
    import workloads
    import_s = time.perf_counter() - _STARTED
    workload = workloads.WORKLOADS[args["workload"]]
    workload = replace(workload, workers=min(workload.workers,
                                             os.cpu_count() or 1))
    if args["trace"]:
        import layers
        document = layers.trace(workload, args["seed"], args["tiny"], None)
    else:
        document = measure(workload, args["seed"], args["seconds"],
                           args["tiny"], import_s)
    document["numpy"] = numpy.__version__
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
