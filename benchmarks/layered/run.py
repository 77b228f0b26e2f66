#!/usr/bin/env python3
"""Layered benchmark: six workloads from ``api.score_batch`` to the
service daemon, measured end to end and peeled layer by layer.

    python3 benchmarks/layered/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--json PATH]
    python3 benchmarks/layered/run.py --selftest
    python3 benchmarks/layered/run.py --calibrate N

Each workload runs in a fresh child process (``measure.py``). The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or
with ``--trace 1`` the per-layer metrics of a separate traced pass.
See README.md for what every metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT_S = 170


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def child_env() -> dict:
    """One BLAS/OpenMP thread per process, so the two cores go to the
    workers the workloads start themselves."""
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(script: str, arguments: dict) -> dict:
    """Run one child to completion and parse its last output line."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, script),
         json.dumps({"src": SRC, **arguments})],
        stdout=subprocess.PIPE, env=child_env(), text=True,
        timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"{script} {arguments.get('workload', '')} "
                         f"exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def header() -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    return {"nproc": nproc, "python": platform.python_version(),
            "machine": platform.platform(), "load_1min": load,
            "loaded": load > nproc, "git_sha": sha}


def expected_digests() -> dict:
    with open(os.path.join(HERE, "expected_digests.json"),
              encoding="utf-8") as f:
        return json.load(f)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 declared: list[dict]) -> dict:
    """Measure one workload and print its metrics by name and unit."""
    document = spawn("measure.py", {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": trace, "tiny": False})
    expected = expected_digests().get(name) if seed == 0 else None
    document["digest_expected"] = expected
    document["correct"] = (
        document["failed"] == 0
        and expected in (None, document["digest"])
        and document.get("identical_across_reps", True)
        and document.get("counts_repeat", True))
    # A declared metric of a layer this workload never enters reads 0.
    document["metrics"] = {
        metric["name"]: {"value": document["metrics"].get(
            metric["name"], 0.0), "unit": metric["unit"]}
        for metric in declared}
    if trace:
        print(f"{name}: traced pass, pairs={document['pairs']} "
              f"reps={document['reps']}")
    else:
        wall = document["wall_s"]
        print(f"{name}: pairs={document['pairs']} cells_per_pair="
              f"{document['cells_per_pair']:.0f} reps={wall['n']} "
              f"wall median {wall['median']:.4f} s "
              f"(q1 {wall['q1']:.4f}, q3 {wall['q3']:.4f}), "
              f"{document['latency_samples']} latency samples")
        print(f"  {'failed_share':<44}{document['failed_share']:>16.6g} "
              f"fraction ({document['failed']} of "
              f"{document['attempted']})")
        print(f"  {'job_latency_p90_ms':<44}"
              f"{document['job_latency_p90_ms']:>16.6g} ms (not gated)")
    for metric, entry in document["metrics"].items():
        print(f"  {metric:<44}{entry['value']:>16.6g} {entry['unit']}")
    verdict = "no expected digest for this seed" if expected is None \
        else "matches" if expected == document["digest"] else "MISMATCH"
    print(f"  score digest {document['digest'][:16]} ({verdict})")
    return document


def calibrate(runs: int, seed: int, seconds: float, contract: dict) -> None:
    """Run the full set ``runs`` times, one seed each, and write the
    spread of every end-to-end metric to NOISE.json."""
    names = [w["name"] for w in contract["workloads"]]
    values: dict = {name: {} for name in names}
    for index in range(runs):
        for name in names:
            document = run_workload(name, seed + index, seconds, False,
                                    contract["end_to_end"])
            for metric, entry in document["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
    noise = {"header": header(), "runs": runs, "first_seed": seed,
             "seconds": seconds, "workloads": {}}
    for name, metrics in values.items():
        noise["workloads"][name] = {}
        for metric, samples in metrics.items():
            median = statistics.median(samples)
            q1, _, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median
            widest = max(abs(v - median) for v in samples) / median
            noise["workloads"][name][metric] = {
                "values": samples, "median": median, "q1": q1, "q3": q3,
                "iqr_share": spread, "widest_deviation": widest,
                "derived_bound": min(0.25, max(0.05, 3 * spread))}
    with open(os.path.join(HERE, "NOISE.json"), "w", encoding="utf-8") as f:
        json.dump(noise, f, indent=1)
        f.write("\n")
    print(f"wrote NOISE.json ({runs} runs x {len(names)} workloads)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="make the traced per-layer pass instead")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the full documents, spans "
                             "included, to PATH")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--calibrate", type=int, metavar="N")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    if args.selftest:
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "selftest.py"), SRC],
            env=child_env()).returncode
    contract = load_contract()
    seconds = args.seconds or contract["run_seconds"]
    head = header()
    print("# layered benchmark: " + " ".join(
        f"{key}={value}" for key, value in head.items()))
    if head["loaded"]:
        print("# WARNING: 1-min load average exceeds nproc; "
              "timings are suspect")
    if args.calibrate:
        calibrate(args.calibrate, args.seed, seconds, contract)
        return 0
    names = args.workload or [w["name"] for w in contract["workloads"]]
    declared = contract["per_layer" if args.trace else "end_to_end"]
    documents = [run_workload(name, args.seed, seconds, bool(args.trace),
                              declared) for name in names]
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump({"header": head, "workloads": documents}, f, indent=1)
    metrics = documents[0]["metrics"] if len(documents) == 1 else {
        f"{d['workload']}.{metric}": entry for d in documents
        for metric, entry in d["metrics"].items()}
    print(json.dumps({
        "correct": all(d["correct"] for d in documents),
        "attempted": sum(d["attempted"] for d in documents),
        "failed": sum(d["failed"] for d in documents),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
