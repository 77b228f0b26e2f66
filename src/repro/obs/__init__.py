"""Unified observability: metrics, simulated-time tracing, logging.

Three concerns, one handle. An :class:`Observability` context bundles a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.tracing.Tracer`; instrumented layers accept one as
an optional argument and default to the process-global context, which
starts *disabled* (shared no-op instruments) so the library costs
nothing unless a caller opts in::

    from repro import obs

    ctx = obs.Observability.enabled()
    sim = CoprocessorSim(params, obs=ctx)
    sim.run(jobs)
    ctx.tracer.write("trace.json")        # Perfetto-loadable
    print(ctx.metrics.snapshot())

Logging is orthogonal: ``SMX_LOG=debug`` (or ``info``/``warning``/...)
turns on stderr logging for the ``repro`` logger hierarchy;
:func:`get_logger` hands layers their named child logger.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field

from repro.obs.digest import LatencyDigest
from repro.obs.events import (
    EventStream,
    NULL_EVENTS,
    NullEventStream,
)
from repro.obs.metrics import (
    Counter,
    Distribution,
    Gauge,
    LabeledRegistry,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    ScopedRegistry,
)
from repro.obs.prof import (
    CostModel,
    NULL_PROFILER,
    NullProfiler,
    PairCost,
    Profiler,
)
from repro.obs.tracectx import TraceContext, child_context, new_run_id
from repro.obs.tracing import (
    CAT_ENGINE,
    CAT_HOST,
    CAT_JOB,
    CAT_MEMORY,
    CAT_SIM,
    NULL_TRACER,
    NullTracer,
    Tracer,
    Track,
)
from repro.obs import reports

__all__ = [
    "Observability", "get_obs", "set_obs", "configure_logging",
    "get_logger", "MetricsRegistry", "NullRegistry", "ScopedRegistry",
    "LabeledRegistry",
    "Counter", "Gauge", "Distribution", "LatencyDigest", "Tracer",
    "NullTracer", "Track", "TraceContext", "child_context", "new_run_id",
    "Profiler", "NullProfiler", "CostModel", "PairCost", "EventStream",
    "NullEventStream", "reports", "CAT_SIM", "CAT_ENGINE", "CAT_MEMORY",
    "CAT_JOB", "CAT_HOST",
]

_LOG_LEVELS = {"debug": logging.DEBUG, "info": logging.INFO,
               "warning": logging.WARNING, "error": logging.ERROR,
               "critical": logging.CRITICAL, "off": logging.CRITICAL + 10}


@dataclass
class Observability:
    """One run's observability context: metrics, tracing, profiling,
    and the live event stream."""

    metrics: MetricsRegistry = field(default_factory=lambda: NULL_REGISTRY)
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)
    profiler: Profiler = field(default_factory=lambda: NULL_PROFILER)
    events: EventStream = field(default_factory=lambda: NULL_EVENTS)
    #: Set by :meth:`collector` only: the trace context a worker-side
    #: context exports its spans under, and their shift onto the
    #: parent's timeline.
    _trace_ctx: TraceContext | None = field(
        default=None, init=False, repr=False, compare=False)
    _trace_offset_us: float = field(
        default=0.0, init=False, repr=False, compare=False)

    @property
    def enabled(self) -> bool:
        return (self.metrics.enabled or self.tracer.enabled
                or self.profiler.enabled or self.events.enabled)

    @classmethod
    def enabled_context(cls, max_trace_events: int = 1_000_000,
                        profile: bool = False,
                        events: EventStream | None = None,
                        ) -> "Observability":
        """A fresh, fully enabled context (live registry + tracer).

        ``profile=True`` also attaches a work-unit
        :class:`~repro.obs.prof.Profiler` (mirroring its phase stack
        into the tracer); pass an :class:`EventStream` as ``events``
        to collect live telemetry.
        """
        tracer = Tracer(max_events=max_trace_events)
        profiler = Profiler(tracer=tracer) if profile else NULL_PROFILER
        return cls(metrics=MetricsRegistry(), tracer=tracer,
                   profiler=profiler, events=events or NULL_EVENTS)

    @classmethod
    def disabled(cls) -> "Observability":
        """The shared no-op context."""
        return _DISABLED

    # -- cross-process transfer ---------------------------------------------

    @property
    def collecting(self) -> bool:
        """Whether worker processes should collect state on our behalf."""
        return (self.metrics.enabled or self.profiler.enabled
                or self.tracer.enabled)

    @classmethod
    def collector(cls, trace: TraceContext | None = None,
                  ) -> "Observability":
        """A worker-side context paired with :meth:`merge_state`: live
        metrics + profiler, no events (those stay parent-side).

        With a :class:`~repro.obs.tracectx.TraceContext`, the worker
        also gets a tracer (the profiler mirrors its phase stack into
        it) whose spans export pre-shifted onto the parent timeline, so
        the parent's :meth:`merge_state` stitches them into one trace.
        """
        if trace is None:
            return cls(metrics=MetricsRegistry(), profiler=Profiler())
        tracer = Tracer()
        ctx = cls(metrics=MetricsRegistry(), tracer=tracer,
                  profiler=Profiler(tracer=tracer))
        ctx._trace_ctx = trace
        ctx._trace_offset_us = trace.offset_us()
        return ctx

    def export_state(self) -> dict:
        """Pickle-safe snapshot of metrics + profile (+ trace, for
        collectors created with a trace context) for the parent."""
        state = {"metrics": self.metrics.export_state(),
                 "profile": self.profiler.export_state()}
        if self._trace_ctx is not None and self.tracer.enabled:
            trace = self.tracer.export_spans(
                offset_us=self._trace_offset_us)
            trace["context"] = self._trace_ctx.to_dict()
            state["trace"] = trace
        return state

    def merge_state(self, state: dict | None,
                    extra_labels: dict[str, object] | None = None) -> None:
        """Fold a worker context's :meth:`export_state` into this one.

        ``extra_labels`` relabel every merged metric key that does not
        already carry them (tenant attribution of worker state)."""
        if not state:
            return
        self.metrics.merge_state(state.get("metrics") or {},
                                 extra_labels=extra_labels)
        self.profiler.merge_state(state.get("profile") or {})
        trace = state.get("trace")
        if trace and self.tracer.enabled:
            context = trace.get("context") or {}
            worker = context.get("worker") or "worker"
            extra = {}
            if context.get("run_id"):
                extra["run_id"] = context["run_id"]
            self.tracer.merge_spans(trace, process_map={"host": worker},
                                    **extra)


_DISABLED = Observability()
_current: Observability = _DISABLED


def get_obs() -> Observability:
    """The process-global observability context (disabled by default)."""
    return _current


def set_obs(obs: Observability | None) -> Observability:
    """Install ``obs`` as the global context; returns the previous one
    so callers (fixtures, CLI) can restore it."""
    global _current
    previous = _current
    _current = obs if obs is not None else _DISABLED
    return previous


def get_logger(name: str) -> logging.Logger:
    """A child of the ``repro`` logger hierarchy (``repro.<name>``)."""
    return logging.getLogger(f"repro.{name}")


def configure_logging(level: str | int | None = None,
                      stream=None) -> logging.Logger:
    """Configure the ``repro`` logger from ``level`` or ``SMX_LOG``.

    With no level and no ``SMX_LOG`` in the environment, logging stays
    off (a ``NullHandler`` keeps the hierarchy silent). Returns the
    root ``repro`` logger either way. Repeated calls reconfigure
    instead of stacking handlers.
    """
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
    if level is None:
        level = os.environ.get("SMX_LOG")
    if level is None:
        logger.addHandler(logging.NullHandler())
        logger.setLevel(logging.NOTSET)
        logger.propagate = True
        return logger
    if isinstance(level, str):
        resolved = _LOG_LEVELS.get(level.lower())
        if resolved is None:
            try:
                resolved = int(level)
            except ValueError:
                raise ValueError(
                    f"unknown SMX_LOG level {level!r}; expected one of "
                    f"{sorted(_LOG_LEVELS)} or a numeric level") from None
        level = resolved
    handler = logging.StreamHandler(stream)
    handler.setFormatter(logging.Formatter(
        "[%(levelname)s] %(name)s: %(message)s"))
    logger.addHandler(handler)
    logger.setLevel(level)
    logger.propagate = False
    return logger
