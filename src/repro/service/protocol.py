"""The ``smx-job/1`` wire format: one alignment job, one JSON file.

A job is the unit the daemon leases, prices, runs, and settles: a batch
of (query, reference) sequence pairs plus the engine knobs the client
would otherwise pass to ``repro align`` and the service-level fields
admission control needs (tenant, priority, deadline). Jobs travel
through the spool (:mod:`repro.service.spool`) as single files, so the
protocol is deliberately flat -- every field a JSON scalar or a list of
two-string pairs -- and versioned by the ``schema`` key so a future
``smx-job/2`` can coexist in the same spool.

Validation happens at parse time: :func:`job_from_dict` raises
``ValueError`` with one actionable message for anything malformed, and
the daemon turns that into a ``.rejected.json`` record instead of
crashing the loop.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from dataclasses import dataclass, field

from repro.core.atomicio import atomic_write_json
from repro.exec import routes

SCHEMA = "smx-job/1"


def new_job_id() -> str:
    """A sortable, collision-safe job id (``job-<hex12>``)."""
    return f"job-{uuid.uuid4().hex[:12]}"


@dataclass
class JobSpec:
    """One alignment job as submitted by a client.

    Attributes:
        job_id: Unique id; doubles as the spool filename stem.
        pairs: ``(query, reference)`` sequence strings to align.
        config: Alignment configuration preset name.
        engine: Batch engine, one of :func:`repro.exec.routes.engines`
            (jobs for a score-only engine such as ``bitparallel`` must
            be submitted with ``traceback=False``).
        mode: Alignment mode (currently always ``global``).
        traceback: Whether to compute CIGARs.
        tenant: Client identity for the fair scheduler's lanes.
        priority: Scheduling weight (>= 1; higher drains faster).
        deadline_s: Client's latency budget; admission rejects the job
            up front when the cost model predicts it cannot be met.
        workers: Worker threads/processes for this job's batch.
        submitted_at: Client wall-clock submission time (epoch s).
    """

    job_id: str
    pairs: list[tuple[str, str]]
    config: str = "dna-edit"
    engine: str = "vector"
    mode: str = "global"
    traceback: bool = True
    tenant: str = "default"
    priority: int = 1
    deadline_s: float | None = None
    workers: int = 1
    submitted_at: float = field(default_factory=lambda: time.time())


def job_to_dict(job: JobSpec) -> dict:
    return {
        "schema": SCHEMA,
        "job_id": job.job_id,
        "pairs": [[query, reference] for query, reference in job.pairs],
        "config": job.config,
        "engine": job.engine,
        "mode": job.mode,
        "traceback": bool(job.traceback),
        "tenant": job.tenant,
        "priority": int(job.priority),
        "deadline_s": job.deadline_s,
        "workers": int(job.workers),
        "submitted_at": float(job.submitted_at),
    }


def job_from_dict(document: dict) -> JobSpec:
    """Parse and validate one job; ``ValueError`` when malformed."""
    if not isinstance(document, dict):
        raise ValueError("job document must be a JSON object")
    schema = document.get("schema")
    if schema != SCHEMA:
        raise ValueError(f"unknown job schema {schema!r} "
                         f"(expected {SCHEMA})")
    job_id = document.get("job_id")
    if not isinstance(job_id, str) or not job_id:
        raise ValueError("job_id must be a non-empty string")
    raw_pairs = document.get("pairs")
    if not isinstance(raw_pairs, list) or not raw_pairs:
        raise ValueError("pairs must be a non-empty list")
    pairs: list[tuple[str, str]] = []
    for index, entry in enumerate(raw_pairs):
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not all(isinstance(s, str) and s for s in entry)):
            raise ValueError(
                f"pairs[{index}] must be [query, reference] "
                f"non-empty strings")
        pairs.append((entry[0], entry[1]))
    # The engines ``repro align --batch`` accepts, so a typo'd job is
    # rejected at admission, not mid-run.
    engine = document.get("engine", "vector")
    if engine not in routes.engines():
        raise ValueError(f"engine must be one of {routes.engines()}, "
                         f"got {engine!r}")
    if routes.score_only(engine) and bool(document.get("traceback", True)):
        raise ValueError(
            f"engine {engine!r} is score-only; submit the job with "
            "traceback=false or pick another engine")
    priority = document.get("priority", 1)
    if not isinstance(priority, int) or priority < 1:
        raise ValueError(f"priority must be an integer >= 1, "
                         f"got {priority!r}")
    deadline_s = document.get("deadline_s")
    if deadline_s is not None:
        deadline_s = float(deadline_s)
        if not deadline_s > 0:
            raise ValueError(f"deadline_s must be positive, "
                             f"got {deadline_s!r}")
    workers = document.get("workers", 1)
    if not isinstance(workers, int) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, "
                         f"got {workers!r}")
    return JobSpec(
        job_id=job_id, pairs=pairs,
        config=str(document.get("config", "dna-edit")),
        engine=engine, mode=str(document.get("mode", "global")),
        traceback=bool(document.get("traceback", True)),
        tenant=str(document.get("tenant", "default")),
        priority=priority, deadline_s=deadline_s, workers=workers,
        submitted_at=float(document.get("submitted_at", 0.0)))


def dump_job(path: str, job: JobSpec) -> str:
    """Atomically write one job file (write-then-rename)."""
    return atomic_write_json(path, job_to_dict(job), sort_keys=True)


def load_job(path: str) -> JobSpec:
    """Read and validate a job file; ``ValueError`` when malformed."""
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{os.path.basename(path)}: not valid JSON "
                f"({exc.msg})") from None
    try:
        return job_from_dict(document)
    except ValueError as exc:
        raise ValueError(f"{os.path.basename(path)}: {exc}") from None
