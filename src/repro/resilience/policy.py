"""The supervisor's recovery policy: one pure decision per failure.

:func:`decide` takes a unit whose execution failed (or, for the
deadline, never started) and returns the :class:`Action` list the
supervisor applies in order. It reads no clock, runs nothing and
sleeps nowhere, so every decision is a function of (unit, fault,
policy, batch config). The rules, in the order they are tried:

1. A ``deadline`` fault fails every pair of the unit.
2. A heuristic that gave up on a pair is promoted to the ``exact``
   rung, or its result is kept.
3. An exception carrying a ``pair_index`` isolates that pair from a
   multi-pair unit; the rest runs on without it.
4. A multi-pair unit is retried whole once if it is a first-wave unit
   (``attempt`` 0), and bisected otherwise.
5. A single pair on the base path is retried while ``retries <
   max_retries``, then walks the degradation ladder, then is
   quarantined.

A unit carries two counters. ``attempt`` is the number of earlier
executions that included its pairs: every child of a failed execution
is one higher, and it keys the chaos injector, so transient faults
fire only at attempt 0. ``retries`` counts the plain re-executions of
exactly these pairs on this path and resets for any child with a
different pair set or rung.

The degradation ladder (:func:`plan_rungs`) holds the slower-but-safer
configurations for a pair that keeps failing: ``wide-dtype`` (int64
rows, the answer to a :class:`~repro.errors.RangeError` where the
narrowed fast path left its proven range), ``scalar`` (the per-pair
reference aligners, for any fault inside the vectorized engine) and
``exact`` (the full-matrix aligner for a heuristic that gave up).
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace

from repro.errors import (
    AlignmentError,
    ConfigurationError,
    DeadlineExceeded,
    RangeError,
)
from repro.exec import routes
from repro.exec.engine import BatchConfig
from repro.obs.prof import CostModel
from repro.resilience import chaos
from repro.resilience.failures import PairFailure

BACKENDS = ("auto", "thread", "process")
#: Exponential backoff before a unit's ``k``-th retry:
#: ``min(BACKOFF_MAX_S, backoff_base_s * BACKOFF_FACTOR**(k-1))``.
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 1.0
#: Heuristic algorithms the ``exact`` rung can promote.
HEURISTIC_ALGORITHMS = ("banded",)


@dataclass(frozen=True)
class ResilienceConfig:
    """Policy knobs for :class:`~repro.resilience.supervisor.SupervisedEngine`.

    Attributes:
        max_retries: Plain re-executions granted to every single
            failing pair on its base path, however it became single,
            before the ladder and quarantine. (A first-wave unit of
            several pairs is retried whole once regardless.)
        shard_timeout_s: Wall-clock guard per shard execution; a shard
            still running after this long is treated as hung and its
            executor replaced. ``None`` disables hang detection.
        deadline_s: Overall budget for one supervised call; pairs whose
            work would start after expiry become ``"deadline"``
            failures (structured, not raised).
        backoff_base_s: Base of the exponential backoff slept before
            a retry of the same pairs (see :data:`BACKOFF_FACTOR`);
            bisection halves, isolated pairs and rungs run at once.
        validate: Re-check finished results -- CIGAR rescoring for
            traceback batches, a clean recompute for score-only ones --
            and treat mismatches as ``"bitflip"`` faults.
        degrade: Allow the degradation ladder after retries are
            exhausted, including the promotion of heuristic no-result
            outcomes (band too narrow) to the ``"exact"`` rung.
        raise_on_failure: Raise instead of returning failures:
            :class:`PoisonPairError` at the first pair quarantined (the
            run stops there), or :class:`DeadlineExceeded` at the end
            of a run whose only failures are deadline misses.
        backend: ``"auto"`` (processes when ``workers > 1``),
            ``"thread"``, or ``"process"``.
        shed: Deadline-aware load shedding: before a unit starts, shed
            the predicted-cost tail (:meth:`CostModel.estimate`) that
            cannot finish inside the remaining budget, with
            :data:`~repro.resilience.supervisor.SHED_SAFETY` headroom,
            as ``"deadline"``/``LoadShed`` failures. Needs a deadline.
        cost_model: Cost model used for shedding; ``None`` calibrates
            from the live profiler (or the built-in per-cell default).
        max_unit_pairs: Cap on pairs per schedulable unit, cut in the
            engine's bucket order: it bounds the work a crash between
            checkpoints loses (the service daemon's knob) and narrows
            bisection's start. ``None`` keeps one contiguous shard per
            worker.
    """

    max_retries: int = 2
    shard_timeout_s: float | None = None
    deadline_s: float | None = None
    backoff_base_s: float = 0.05
    validate: bool = False
    degrade: bool = True
    raise_on_failure: bool = False
    backend: str = "auto"
    shed: bool = True
    cost_model: CostModel | None = None
    max_unit_pairs: int | None = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_unit_pairs is not None and self.max_unit_pairs < 1:
            raise ConfigurationError(
                f"max_unit_pairs must be >= 1, got "
                f"{self.max_unit_pairs}")
        for name in ("shard_timeout_s", "deadline_s"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(
                    f"{name} must be > 0 seconds, got {value}")
        if self.backoff_base_s < 0:
            raise ConfigurationError("backoff_base_s must be >= 0")
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}")


@dataclass(frozen=True)
class Unit:
    """One schedulable piece of the batch: a list of pair positions."""

    indices: list[int]
    #: Earlier executions that included these pairs (the chaos key).
    attempt: int = 0
    #: Plain re-executions of exactly these pairs on this path.
    retries: int = 0
    #: Ladder rungs consumed on the way here; the last one is the rung
    #: this unit runs on (none = the base config).
    rungs: tuple[str, ...] = ()
    #: Last classified fault: steers the ladder, names a rung's config.
    fault: str | None = None

    def only(self, index: int) -> "Unit":
        """This unit narrowed to the one pair ``index``: its retries
        carry over only if that is the pair set it already had."""
        return replace(self, indices=[index],
                       retries=self.retries if self.indices == [index]
                       else 0)


@dataclass(frozen=True)
class Action:
    """One step of a decision. ``kind`` is ``retry``, ``bisect``,
    ``isolate``, ``degrade``, ``quarantine`` or ``fail``; ``units`` go
    back on the recovery queue, ``failures`` are terminal."""

    kind: str
    units: tuple[Unit, ...] = ()
    failures: tuple[PairFailure, ...] = ()
    #: Backoff before a retry (seconds, before the deadline's cap).
    delay: float = 0.0


def classify(exc: BaseException) -> str:
    """Map an exception to the supervisor's fault vocabulary."""
    if isinstance(exc, FuturesTimeoutError):
        return "hang"
    if isinstance(exc, (BrokenExecutor, chaos.InjectedCrash)):
        return "crash"
    if isinstance(exc, DeadlineExceeded):
        return "deadline"
    if isinstance(exc, RangeError):
        return "rangeerror"
    if isinstance(exc, AlignmentError):
        return "alignment"
    if isinstance(exc, OSError):
        return "oserror"
    return "error"


def exact_config(batch: BatchConfig) -> BatchConfig:
    """The exact scalar configuration equivalent to a heuristic batch."""
    return BatchConfig(engine="scalar", mode=batch.mode,
                       algorithm="full", traceback=batch.traceback,
                       workers=1)


def plan_rungs(batch: BatchConfig,
               fault: str) -> list[tuple[str, BatchConfig]]:
    """Ordered ``(rung name, degraded config)`` candidates for a fault.

    The returned configs are single-worker (the ladder only ever runs
    on an isolated pair) and strip any engine deadline -- the
    supervisor owns the clock.
    """
    base = replace(batch, workers=1, deadline_s=None)
    # Where the route registry says this engine's fast path degrades
    # to (``None`` for the scalar reference path itself). A degraded
    # score-only batch stays score-only: the fallback's
    # ``compute_score`` path answers it exactly.
    fallback = routes.degrade_to(batch.engine, batch.algorithm)
    rungs: list[tuple[str, BatchConfig]] = []
    if fault == "alignment":
        if batch.algorithm in HEURISTIC_ALGORITHMS:
            rungs.append(("exact", exact_config(batch)))
        elif fallback:
            rungs.append((fallback, replace(base, engine=fallback)))
        return rungs
    if fault == "rangeerror":
        if not base.wide_dtype:
            rungs.append(("wide-dtype", replace(base, wide_dtype=True)))
        if fallback:
            rungs.append((fallback, replace(base, engine=fallback,
                                            wide_dtype=True)))
        return rungs
    # Generic computation faults: drop off the vectorized fast path.
    if fallback and fault not in ("hang", "crash", "oserror", "deadline"):
        rungs.append((fallback, replace(base, engine=fallback)))
    return rungs


def _terminal(unit: Unit, fault: str, error_type: str, message: str,
              attempts: int) -> tuple[PairFailure, ...]:
    return tuple(PairFailure(index=index, fault=fault,
                             error_type=error_type, message=message,
                             attempts=attempts, rungs=unit.rungs)
                 for index in unit.indices)


def _degrade(child: Unit, policy: ResilienceConfig,
             batch: BatchConfig) -> list[Action]:
    """The next untried ladder rung for a one-pair unit, if any."""
    rung = next((name for name, _ in plan_rungs(batch, child.fault)
                 if name not in child.rungs), None)
    if rung is None or not policy.degrade:
        return []
    return [Action("degrade", (replace(child, rungs=child.rungs + (rung,)),))]


def decide(unit: Unit, fault: str, policy: ResilienceConfig,
           batch: BatchConfig, *, error: BaseException | None = None,
           pair_index: int | None = None, ran: bool = True,
           gave_up: bool = False) -> list[Action]:
    """What happens to ``unit`` after its execution failed with
    ``fault`` (the rules are in the module docstring).

    Args:
        error: The exception that failed it, named in a quarantine.
        pair_index: The exception's ``pair_index``: the unit-local
            position of the pair it blames.
        ran: False for a deadline that expired before the unit started
            (its pairs are charged no execution).
        gave_up: The unit is one pair whose result came back
            ``failed`` from a heuristic; an empty decision keeps it.
    """
    if fault == "deadline":
        message = (str(error) if ran
                   else "work not started before the deadline")
        return [Action("fail", failures=_terminal(
            unit, fault, "DeadlineExceeded", message,
            unit.attempt + ran))]
    # Every child of this execution is one execution further along.
    child = replace(unit, attempt=unit.attempt + 1, retries=0,
                    fault=fault)
    if gave_up:
        return (_degrade(child, policy, batch)
                if batch.algorithm in HEURISTIC_ALGORITHMS else [])
    count = len(unit.indices)
    if pair_index is not None and count > 1 and 0 <= pair_index < count:
        poison = unit.indices[pair_index]
        return [Action("isolate", (
            replace(child, indices=[poison]),
            replace(child, indices=[i for i in unit.indices
                                    if i != poison], fault=None)))]
    # The exponent's cap keeps a float power from overflowing.
    retry = Action("retry", (replace(child, retries=unit.retries + 1),),
                   delay=min(BACKOFF_MAX_S, policy.backoff_base_s
                             * BACKOFF_FACTOR ** min(unit.retries, 64)))
    if count > 1:
        if unit.attempt == 0:
            # One whole-unit retry clears every transient fault cheaply.
            return [retry]
        mid = count // 2
        return [Action("bisect", (
            replace(child, indices=unit.indices[:mid]),
            replace(child, indices=unit.indices[mid:])))]
    if not unit.rungs and unit.retries < policy.max_retries:
        return [retry]
    error_type = ("Timeout" if fault == "hang"
                  else "Validation" if fault == "bitflip" and
                  isinstance(error, AlignmentError)
                  else type(error).__name__ if error is not None
                  else "Error")
    return _degrade(child, policy, batch) or [Action(
        "quarantine", failures=_terminal(
            unit, fault, error_type, str(error) if error is not None
            else "", unit.attempt + 1))]
