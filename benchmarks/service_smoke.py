#!/usr/bin/env python
"""Service-daemon kill/resume smoke test (CI `service-smoke` job).

Proves the crash-safety headline end to end, with a *real* SIGKILL
rather than the in-process chaos fault:

1. build a deterministic workload and compute its reference outcome
   in-process with the same supervised engine the daemon uses;
2. enqueue it into a fresh spool and start ``repro serve`` as a
   subprocess;
3. poll the job's incremental checkpoint until it shows partial
   progress, then SIGKILL the daemon mid-run: ``running/`` must hold a
   base document *and* a non-empty journal, which ``repro stats`` reads
   as ``0 < completed < pairs``;
4. restart the daemon, which must auto-resume the orphaned job from
   its checkpoint and leave no ``*.journal`` anywhere under the spool;
5. assert the final settled outcome (results, failures, counters) is
   bit-identical to the uninterrupted in-process reference.

Exit 0 on success, 1 with a diagnostic on any mismatch. Knobs via
environment: ``SMX_SMOKE_PAIRS`` / ``SMX_SMOKE_LEN`` size the workload
(default 160 x 96bp on the scalar engine, slow enough on any machine
to catch mid-run), ``SMX_SMOKE_TIMEOUT`` bounds each wait.
"""

from __future__ import annotations

import glob
import os
import re
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

import numpy as np  # noqa: E402

from repro.config import standard_configs  # noqa: E402
from repro.exec.engine import BatchConfig  # noqa: E402
from repro.resilience import (  # noqa: E402
    ResilienceConfig,
    SupervisedEngine,
    outcome_io,
)
from repro.service import JobSpec, JobSpool  # noqa: E402

N_PAIRS = int(os.environ.get("SMX_SMOKE_PAIRS", "160"))
LENGTH = int(os.environ.get("SMX_SMOKE_LEN", "96"))
TIMEOUT_S = float(os.environ.get("SMX_SMOKE_TIMEOUT", "120"))
ENGINE = "scalar"  # slow on purpose: the kill must land mid-run
UNIT = 4
JOB_ID = "job-smoke"


def fail(message: str) -> "None":
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def build_pairs():
    rng = np.random.default_rng(0x5E41)
    alphabet = np.array(list("ACGT"))
    return [("".join(rng.choice(alphabet, LENGTH)),
             "".join(rng.choice(alphabet, LENGTH)))
            for _ in range(N_PAIRS)]


def reference_document(pairs):
    config = standard_configs()["dna-edit"]
    encoded = [(config.encode(q), config.encode(r)) for q, r in pairs]
    outcome = SupervisedEngine(
        config, BatchConfig(engine=ENGINE, workers=1),
        ResilienceConfig(max_unit_pairs=UNIT)).run(encoded)
    return outcome_io.to_document(outcome, pairs=len(encoded))


def spawn_daemon(spool_root: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--spool", spool_root,
         "--max-jobs", "1", "--idle-exit", "10", "--poll", "0.05",
         "--max-unit-pairs", str(UNIT)],
        env=env, cwd=REPO)


def wait_for(predicate, what: str, timeout_s: float = TIMEOUT_S,
             poll_s: float = 0.05):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll_s)
    fail(f"timed out after {timeout_s:.0f}s waiting for {what}")


def checkpoint_progress(path: str) -> int:
    """Completed pairs recorded in the checkpoint, its journal folded
    in (0 if unreadable)."""
    try:
        return int(outcome_io.load_document(path).get("completed", 0))
    except (OSError, ValueError):
        return 0


def stats_completed(path: str) -> tuple[int, int]:
    """``(completed, pairs)`` as ``repro stats`` prints them."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    out = subprocess.run(
        [sys.executable, "-m", "repro", "stats", path], env=env,
        cwd=REPO, check=True, capture_output=True, text=True).stdout
    match = re.search(r"pairs\s*:\s*(\d+)/(\d+) completed", out)
    if match is None:
        fail(f"'repro stats {path}' printed no pairs line:\n{out}")
    return int(match.group(1)), int(match.group(2))


def main() -> int:
    pairs = build_pairs()
    print(f"[smoke] workload: {N_PAIRS} pairs x {LENGTH}bp, "
          f"engine={ENGINE}, unit={UNIT}")
    reference = reference_document(pairs)
    print(f"[smoke] reference computed: "
          f"{reference['completed']}/{N_PAIRS} completed")

    workdir = tempfile.mkdtemp(prefix="smx-service-smoke-")
    spool = JobSpool(os.path.join(workdir, "spool"))
    spool.submit(JobSpec(job_id=JOB_ID, pairs=pairs, engine=ENGINE))
    checkpoint = spool.checkpoint_path(JOB_ID)
    outcome_path = spool.outcome_path(JOB_ID)

    daemon = spawn_daemon(spool.root)
    try:
        # Kill only once the checkpoint proves partial progress.
        wait_for(lambda: checkpoint_progress(checkpoint) > 0,
                 "first checkpoint")
        progress = checkpoint_progress(checkpoint)
        if os.path.exists(outcome_path) or progress >= N_PAIRS:
            fail("job finished before the kill landed; raise "
                 "SMX_SMOKE_PAIRS/SMX_SMOKE_LEN so the run is slower")
        daemon.send_signal(signal.SIGKILL)
        daemon.wait(timeout=30)
        print(f"[smoke] SIGKILL'd daemon at "
              f"{progress}/{N_PAIRS} pairs completed")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)

    if not os.path.exists(checkpoint):
        fail("kill left no checkpoint in running/")
    if os.path.exists(outcome_path):
        fail("job settled despite the kill")
    journal = outcome_io.journal_path(checkpoint)
    if not os.path.exists(journal) or os.path.getsize(journal) == 0:
        fail("kill left no journal beside the base checkpoint")
    completed, total = stats_completed(checkpoint)
    if not 0 < completed < total:
        fail(f"'repro stats' on the live checkpoint reports "
             f"{completed}/{total} completed, expected partial")
    print(f"[smoke] live checkpoint: base + "
          f"{os.path.getsize(journal)} journal bytes, repro stats "
          f"reads {completed}/{total}")

    survivor = spawn_daemon(spool.root)
    try:
        wait_for(lambda: os.path.exists(outcome_path),
                 "auto-resumed outcome")
        survivor.wait(timeout=TIMEOUT_S)
    finally:
        if survivor.poll() is None:
            survivor.kill()
            survivor.wait(timeout=30)

    leftovers = glob.glob(os.path.join(spool.root, "**", "*.journal"),
                          recursive=True)
    if leftovers:
        fail(f"journal outlived its job: {leftovers}")
    final = outcome_io.load_document(outcome_path)
    if not final.get("complete"):
        fail("settled outcome is not marked complete")
    mismatches = [key for key in ("results", "failures", "counters",
                                  "degraded", "completed")
                  if final.get(key) != reference.get(key)]
    if mismatches:
        fail(f"resumed outcome differs from uninterrupted reference "
             f"in: {', '.join(mismatches)}")
    print(f"[smoke] OK: resumed outcome bit-identical to reference "
          f"({final['completed']}/{N_PAIRS} pairs); "
          f"events at {os.path.join(spool.root, 'events.jsonl')}")
    print(spool.root)  # consumed by the CI step for repro monitor
    return 0


if __name__ == "__main__":
    sys.exit(main())
