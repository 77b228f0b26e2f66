"""Cross-process trace context: stitch worker spans into one timeline.

Each :class:`~repro.obs.tracing.Tracer` timestamps spans relative to
its own creation instant, so a worker process's trace starts at ~0 no
matter when the parent launched it -- exported worker traces used to
render as overlapping timelines that all began at the origin.

A :class:`TraceContext` fixes the clock domain. The parent creates one
per worker at submit time, capturing a **wall-clock anchor** and the
parent tracer's timestamp *at the same instant*. The worker, on
creating its own tracer, measures how far wall-clock has advanced since
the anchor and derives the offset that places its local timestamps on
the parent's timeline::

    offset_us = anchor_ts_us + (time.time() - anchor_wall_s) * 1e6

Worker spans are exported shifted by that offset and merged into the
parent tracer with the worker's ``host`` process track renamed to the
context's ``worker`` label (``u17-24.a1``), so the stitched
Chrome/Perfetto trace shows every worker as its own named process row,
causally aligned under the parent's ``resilience.run`` span.
Wall-clock cross-process skew on one machine is
microseconds-to-milliseconds -- far below the span durations being
aligned.

The context also carries the ``run_id`` every stitched trace and
telemetry stream shares, so multi-file artifacts of one run can be
correlated after the fact.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass


def new_run_id() -> str:
    """A short random id shared by all artifacts of one run."""
    return uuid.uuid4().hex[:8]


@dataclass(frozen=True)
class TraceContext:
    """Clock anchor + identity handed to one worker.

    Attributes:
        run_id: Id shared by every worker of the run.
        worker: Track label for the worker's spans in the stitched
            trace (becomes its process name).
        parent_span: Name of the parent-side span awaiting this worker
            (documentation for trace consumers; not used for shifting).
        anchor_wall_s: Parent ``time.time()`` at context creation.
        anchor_ts_us: Parent tracer timestamp at the same instant.
    """

    run_id: str
    worker: str
    parent_span: str | None = None
    anchor_wall_s: float = 0.0
    anchor_ts_us: float = 0.0

    def offset_us(self) -> float:
        """Parent-timeline timestamp of *this instant*; a worker calls
        this when its tracer is created, so spans recorded relative to
        that tracer shift onto the parent timeline by this amount."""
        return self.anchor_ts_us + \
            (time.time() - self.anchor_wall_s) * 1e6

    def to_dict(self) -> dict:
        return {"run_id": self.run_id, "worker": self.worker,
                "parent_span": self.parent_span}


def child_context(tracer, run_id: str, worker: str,
                  parent_span: str | None = None) -> TraceContext | None:
    """A context for one worker, or None when tracing is disabled
    (workers then skip creating a tracer entirely)."""
    if tracer is None or not tracer.enabled:
        return None
    return TraceContext(run_id=run_id, worker=worker,
                        parent_span=parent_span,
                        anchor_wall_s=time.time(),
                        anchor_ts_us=tracer.now_us())
