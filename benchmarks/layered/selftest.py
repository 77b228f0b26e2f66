"""Self-test of the layered benchmark on tiny inputs (``run.py
--selftest``): the harness itself is checked, not the program's speed.

- every workload runs end to end with all outputs verified and every
  declared end-to-end metric present and non-zero;
- two traced passes agree on every exact count, the replayed root has
  less than 10 % of its wall unclaimed by a layer span, and the traced
  passes between them produce exactly the declared per-layer metrics;
- a corrupted score or CIGAR is counted as a failed pair;
- a sleep injected into one replayed layer call moves that layer's
  metric and the replayed root, and leaves its siblings alone.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DELAY_S = 0.05


def _exact(document: dict, units: dict) -> dict:
    """The metrics that must repeat exactly: counts, bytes, and the
    ratios derived from counts alone."""
    exact = {name: value for name, value in document["metrics"].items()
             if units[name] in ("count", "bytes")
             or "route_share" in name or "fill_ratio" in name}
    exact["digest"] = document["digest"]
    return exact


def _replay_wall(document: dict) -> float:
    return statistics.median(
        row["end"] - row["start"] for row in document["spans"]
        if row["name"] == "replay")


def main() -> int:
    started = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    import layers
    import measure
    import workloads
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json"),
              encoding="utf-8") as f:
        contract = json.load(f)
    end_to_end = {m["name"] for m in contract["end_to_end"]}
    units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    failures: list[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    produced: set[str] = set()
    for name, workload in workloads.WORKLOADS.items():
        document = measure.measure(workload, seed=0, seconds=0.0, tiny=True,
                                   import_s=0.0)
        expect(document["failed"] == 0 and document["identical_across_reps"],
               f"{name}: outputs failed the check")
        expect(set(document["metrics"]) == end_to_end
               and all(document["metrics"].values()),
               f"{name}: end-to-end metrics missing or zero")
        first = layers.trace(workload, 0, True, None)
        second = layers.trace(workload, 0, True, None)
        expect(first["counts_repeat"] and second["counts_repeat"]
               and _exact(first, units) == _exact(second, units),
               f"{name}: exact counts differ between two traced passes")
        share = first["metrics"]["bench.unattributed_share"]
        expect(0 <= share < 0.10,
               f"{name}: {share:.1%} of the replayed root is unclaimed")
        expect(set(first["metrics"]) <= set(units),
               f"{name}: undeclared per-layer metric "
               f"{set(first['metrics']) - set(units)}")
        produced |= set(first["metrics"])
    expect(produced == set(units),
           f"declared but never produced: {set(units) - produced}")

    state = workloads.setup(workloads.WORKLOADS["short_cigar"], 0, True)
    rep = workloads.run_once(state)
    expect(workloads.check(state, rep) == 0, "clean outputs counted failed")
    picked = next(iter(state.sample))
    score, cigar = rep.passes[0][picked]
    rep.passes[0][picked] = (score + 1, cigar)
    expect(workloads.check(state, rep) == 1,
           "a corrupted score was not counted as a failed pair")
    rep.passes[0][picked] = (score, "1X" + cigar)
    expect(workloads.check(state, rep) == 1,
           "a corrupted CIGAR was not counted as a failed pair")

    workload = workloads.WORKLOADS["short_score"]
    base = layers.trace(workload, 0, True, None)
    slow = layers.trace(workload, 0, True, {"exec.engine.run": DELAY_S})

    def moved(metric: str) -> float:
        return slow["metrics"][metric] - base["metrics"][metric]

    expect(0.8 * DELAY_S < moved("exec.engine.run_s") < 2 * DELAY_S,
           f"injected sleep moved exec.engine.run_s by "
           f"{moved('exec.engine.run_s'):.4f} s")
    root = _replay_wall(slow) - _replay_wall(base)
    expect(0.8 * DELAY_S < root < 2 * DELAY_S,
           f"injected sleep moved the replayed root by {root:.4f} s")
    for sibling in ("api.encode_s", "exec.buckets.bucketize_s"):
        expect(abs(moved(sibling)) < 0.2 * DELAY_S,
               f"injected sleep moved sibling {sibling} by "
               f"{moved(sibling):.4f} s")

    elapsed = time.perf_counter() - started
    for message in failures:
        print("FAIL: " + message)
    print(f"selftest {'FAILED' if failures else 'passed'} "
          f"in {elapsed:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
