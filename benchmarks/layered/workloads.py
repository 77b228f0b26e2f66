"""The six workloads: seeded inputs, the measured call, the output check.

Every input comes from ``repro.workloads.synthetic.mutate`` driven by
the seed; the program under test only ever sees the generated strings.
Why each workload exists is recorded in ``BENCHMARK.json`` and the
README.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import reference
from repro import api
from repro.exec.engine import BatchConfig
from repro.resilience import outcome_io
from repro.service import AlignmentDaemon, JobSpec, JobSpool
from repro.workloads.synthetic import ErrorProfile, mutate

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Pairs scored by the independent reference at set-up.
SAMPLE = 32


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    engine: str = "vector"
    traceback: bool = False
    workers: int = 1
    serve: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("short_score", "dna-gap"),
    Workload("short_cigar", "dna-gap", traceback=True),
    Workload("long_edit_auto", "dna-edit", engine="auto"),
    Workload("long_gap_banded", "dna-gap", engine="auto", traceback=True),
    Workload("sharded_score", "dna-gap", workers=2),
    Workload("serve_jobs", "dna-gap", serve=True),
)}


# -- inputs ---------------------------------------------------------------

def _profile(rate: float) -> ErrorProfile:
    return ErrorProfile(substitution=rate / 2, insertion=rate / 4,
                        deletion=rate / 4)


def _pair(config, rng, length: int, rate: float) -> tuple[str, str]:
    alphabet = config.alphabet
    ref = alphabet.random(length, rng)
    query, _ = mutate(ref, _profile(rate), alphabet, rng)
    return alphabet.decode(query), alphabet.decode(ref)


def _short(config, rng, count: int) -> list[tuple[str, str]]:
    """Pairs of 100-150 bp at 5 %. The reference lengths are one fixed
    sequence that covers the range evenly, so that the bucket layout
    (and with it time and memory) barely moves with the seed, which
    picks the letters and the mutations."""
    return [_pair(config, rng, 100 + index * 37 % 51, 0.05)
            for index in range(count)]


def _in_buckets(config, rng, buckets: int, per_bucket: int, length: int,
                rate: float) -> list[tuple[str, str]]:
    """Mutated pairs drawn until each of ``buckets`` fixed query-length
    buckets (the engine's length classes from that of ``length``
    upwards) holds ``per_bucket`` pairs. The slow kernels cost about as
    much per bucket they sweep as per cell, and the bucket count of a
    small batch changes with the seed; a fixed layout keeps the
    per-bucket cost in the workload without making it seed noise."""
    granularity = BatchConfig().bucket_granularity

    def bucket_of(n: int) -> int:
        return -(-n // granularity) * granularity

    want = {bucket_of(length) + step * granularity: per_bucket
            for step in range(buckets)}
    pairs = []
    while any(want.values()):
        pair = _pair(config, rng, length, rate)
        key = bucket_of(len(pair[0]))
        if want.get(key):
            want[key] -= 1
            pairs.append(pair)
    return pairs


def _long_edit(config, rng, half: int, length: int):
    near = [_pair(config, rng, length, 0.05) for _ in range(half)]
    return near + _in_buckets(config, rng, 2, half // 2, length, 0.40)


def _banded(config, rng, count: int, length: int):
    # 8 % keeps every pair in the planner's 128 half-width class; at
    # 10 % a seed-dependent few land in the 256 class, and each such
    # group costs one more whole sweep.
    return _in_buckets(config, rng, 1, count, length, 0.08)


def _job_sizes(tiny: bool) -> list[int]:
    """Pairs per job: one fixed, evenly spread set (see _build_jobs)."""
    count, low, high = (6, 4, 24) if tiny else (12, 16, 112)
    return [int(round(size)) for size in np.linspace(low, high, count)]


#: name -> (generator, its arguments at full size, for --selftest).
_INPUTS = {
    "short_score": (_short, (4000,), (96,)),
    "short_cigar": (_short, (4000,), (96,)),
    "long_edit_auto": (_long_edit, (24, 2000), (4, 256)),
    "long_gap_banded": (_banded, (32, 1000), (8, 256)),
    "sharded_score": (_short, (8000,), (128,)),
    "serve_jobs": (_short, (sum(_job_sizes(False)),),
                   (sum(_job_sizes(True)),)),
}


def _build_jobs(pairs, sizes: list[int]) -> list[JobSpec]:
    """Cut ``pairs`` into jobs. The sizes are one fixed, evenly spread
    set in a fixed scrambled order and every third size is score-only,
    so the latency distribution is continuous and the same for every
    seed; the seed picks the sequences."""
    jobs, offset = [], 0
    for slot in range(len(sizes)):
        rank = slot * 5 % len(sizes)
        size = sizes[rank]
        jobs.append(JobSpec(
            job_id=f"job-{slot:03d}", pairs=pairs[offset:offset + size],
            config="dna-gap", engine="vector", traceback=rank % 3 != 1,
            tenant=("even", "odd")[slot % 2], priority=1 + slot % 2,
            # A fixed stamp, so that job files have the same bytes on
            # every run (the default is the wall clock).
            submitted_at=float(slot)))
        offset += size
    return jobs


# -- the measured call ----------------------------------------------------

@dataclass
class Rep:
    """One timed repetition: the wall behind ``pairs_per_sec``, the
    per-job latency samples, and every result as ``(score, cigar)`` in
    input order (one list per pass over the inputs)."""

    wall: float
    latencies: list[float]
    passes: list[list[tuple]]


@dataclass
class State:
    workload: Workload
    pairs: list[tuple[str, str]]
    expect_cigar: list[bool]
    sample: dict[int, int]
    jobs: list[JobSpec] | None = None
    golden: list[list[tuple]] = field(default_factory=list)
    golden_failed: list[int] = field(default_factory=list)

    @property
    def cells_per_pair(self) -> float:
        return sum(len(q) * len(r) for q, r in self.pairs) / len(self.pairs)

    @property
    def digest(self) -> str:
        scores = ",".join(str(score) for score, _ in self.golden[0])
        return hashlib.sha256(scores.encode()).hexdigest()


def _run_library(state: State) -> Rep:
    workload = state.workload
    call = api.align_batch if workload.traceback else api.score_batch
    started = time.perf_counter()
    out = call(state.pairs, preset=workload.preset,
               engine=workload.engine, workers=workload.workers)
    wall = time.perf_counter() - started
    if workload.traceback:
        results = [(a.score, a.cigar_string) for a in out]
    else:
        results = [(score, None) for score in out]
    return Rep(wall, [wall], [results])


@contextlib.contextmanager
def spool_dir():
    """A fresh spool root on the checkout's filesystem, removed on exit."""
    os.makedirs(OUT_DIR, exist_ok=True)
    root = tempfile.mkdtemp(prefix="spool-", dir=OUT_DIR)
    try:
        yield root
    finally:
        shutil.rmtree(root, ignore_errors=True)


def load_outcome(spool: JobSpool, job: JobSpec):
    """The settled outcome of ``job`` parsed back, or None if the job
    never produced one (rejected or failed)."""
    path = spool.outcome_path(job.job_id)
    return outcome_io.load(path) if os.path.exists(path) else None


def _job_results(job: JobSpec, checkpoint) -> list[tuple]:
    if checkpoint is None:
        return [(None, None)] * len(job.pairs)
    return [(None, None) if result is None else
            (result.score, result.alignment.cigar_string
             if result.alignment is not None else None)
            for result in checkpoint.outcome.results]


def _run_serve(state: State) -> Rep:
    jobs = state.jobs
    latencies, first = [], []
    with spool_dir() as root:  # phase 1: one job in flight
        spool = JobSpool(root)
        daemon = AlignmentDaemon(spool)
        for job in jobs:
            started = time.perf_counter()
            spool.submit(job)
            daemon.ingest()
            daemon.run_next()
            checkpoint = load_outcome(spool, job)
            latencies.append(time.perf_counter() - started)
            first.extend(_job_results(job, checkpoint))
    with spool_dir() as root:  # phase 2: drain a backlog of all jobs
        spool = JobSpool(root)
        daemon = AlignmentDaemon(spool)
        started = time.perf_counter()
        for job in jobs:
            spool.submit(job)
        # idle_exit_s: a rejected job never counts as settled, and the
        # benchmark must report it as failed rather than wait for ever.
        daemon.serve(max_jobs=len(jobs), idle_exit_s=0.5, poll_s=0.05)
        loaded = [load_outcome(spool, job) for job in jobs]
        wall = time.perf_counter() - started
    second = [row for job, checkpoint in zip(jobs, loaded)
              for row in _job_results(job, checkpoint)]
    return Rep(wall, latencies, [first, second])


def run_once(state: State) -> Rep:
    return _run_serve(state) if state.workload.serve else _run_library(state)


# -- the output check -----------------------------------------------------

def verify(state: State, results: list[tuple]) -> int:
    """Pairs of one pass without a verified-correct result: missing,
    a sampled score that differs from the reference, or a CIGAR that
    does not rescore to its score over both whole strings."""
    scoring = reference.SCORING[state.workload.preset]
    failed = abs(len(state.pairs) - len(results))
    for index, ((query, ref), (score, cigar)) in enumerate(
            zip(state.pairs, results)):
        good = score is not None and \
            state.sample.get(index, score) == score
        if good and state.expect_cigar[index]:
            good = cigar is not None and reference.cigar_score(
                cigar, query, ref, *scoring) == score
        failed += not good
    return failed


def check(state: State, rep: Rep) -> int:
    """Failed pairs of one repetition. A pass equal to the verified
    warm-up pass needs no second look; anything else is re-verified."""
    return sum(bad if results == golden else verify(state, results)
               for results, golden, bad in zip(
                   rep.passes, state.golden, state.golden_failed))


# -- set-up ---------------------------------------------------------------

def setup(workload: Workload, seed: int, tiny: bool = False) -> State:
    """Everything before the first timed repetition: inputs, reference
    scores for the sample, and one verified warm-up repetition."""
    rng = np.random.default_rng(seed)
    config = api.PRESETS[workload.preset]()
    generate, *sizes = _INPUTS[workload.name]
    pairs = generate(config, rng, *sizes[tiny])
    jobs = None
    expect_cigar = [workload.traceback] * len(pairs)
    if workload.serve:
        jobs = _build_jobs(pairs, _job_sizes(tiny))
        expect_cigar = [job.traceback for job in jobs for _ in job.pairs]
    picks = rng.choice(len(pairs), size=min(SAMPLE, len(pairs)),
                       replace=False)
    scoring = reference.SCORING[workload.preset]
    sample = {int(i): reference.global_score(*pairs[i], *scoring)
              for i in picks}
    state = State(workload, pairs, expect_cigar, sample, jobs)
    state.golden = run_once(state).passes
    state.golden_failed = [verify(state, results)
                           for results in state.golden]
    return state
