"""Supervised batch execution: retry, bisect, degrade, quarantine.

:class:`SupervisedEngine` wraps :class:`~repro.exec.engine.BatchEngine`
with the fault-tolerance policy of the execution layer:

1. The batch is cut into units -- contiguous shards, one per worker,
   or under ``max_unit_pairs`` runs of that many pairs taken in the
   engine's bucket order -- and run as a parallel wave, each unit
   guarded by a wall-clock timeout (``shard_timeout_s``) and the
   overall call deadline.
2. A failed shard is retried whole once (clearing transient faults),
   then **bisected**: halves re-run independently, recursively, until
   the failure is narrowed to single pairs. Unaffected pairs keep their
   bit-identical results; only the shrinking failed region re-runs.
   Exceptions that carry a ``pair_index`` short-circuit bisection and
   isolate the poison pair immediately.
3. A single failing pair gets bounded retries with exponential backoff,
   then walks the degradation ladder (:mod:`repro.resilience.ladder`):
   wide-dtype for range/overflow trips, scalar for vector-path faults,
   the exact aligner for heuristic failures.
4. Whatever still fails is quarantined as a typed
   :class:`~repro.resilience.failures.PairFailure`; the batch always
   returns a full :class:`~repro.resilience.failures.BatchOutcome`
   (unless ``raise_on_failure`` asks for the exception).

Two backends: worker *processes* (``batch.workers > 1``; an injected
crash genuinely kills a worker and surfaces as ``BrokenProcessPool``)
or worker *threads* (single-worker batches, restricted sandboxes, or
``backend="thread"``; deterministic, with crashes modelled as raised
:class:`~repro.resilience.chaos.InjectedCrash`). Hang detection needs a
``shard_timeout_s`` (or deadline) -- a stuck worker cannot announce
itself. After a timeout or pool break the tainted executor is replaced
so stuck workers cannot starve later recovery work.

Every fault, retry, bisection, ladder rung, and quarantine is counted
both in ``repro.obs`` metrics (``resilience.*``) and in the outcome's
``counters`` dict, which chaos tests reconcile against the injector's
ground-truth log.

Crash safety: with a ``checkpoint_path``, :meth:`SupervisedEngine.run`
keeps an ``smx-outcome/1`` checkpoint as a base document plus a journal
(:mod:`repro.resilience.outcome_io` has the protocol). The base --
completed results, quarantine list, counters, the recovery queue and
the wave units at their exact attempt counts -- is written once
(write-then-rename) when the run starts or resumes; *every settled
unit* then appends one line with what it changed. A journal replays
only over the base whose bytes it names, a torn last line costs one
unit's re-run, and nothing is fsync'd: a SIGKILL at any instruction
is survived, power loss is not. A run restarted with ``resume=``
re-executes only the checkpoint's unfinished remainder, and because
every decision in this engine is deterministic in (pair content,
attempt), the resumed union is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field, replace

from repro.algorithms.base import AlignerResult
from repro.config import AlignmentConfig
from repro.errors import (
    AlignmentError,
    ConfigurationError,
    DeadlineExceeded,
    PoisonPairError,
    RangeError,
)
from repro.exec.buckets import bucket_key
from repro.exec.engine import BatchConfig, BatchEngine, _as_pairs
from repro.exec.sharding import shard_spans
from repro.obs import (
    LabeledRegistry,
    Observability,
    child_context,
    get_logger,
    get_obs,
    new_run_id,
)
from repro.obs.prof import CostModel
from repro.resilience import chaos, ladder, outcome_io
from repro.resilience.deadline import Deadline
from repro.resilience.failures import BatchOutcome, PairFailure

log = get_logger("resilience")

BACKENDS = ("auto", "thread", "process")


@dataclass(frozen=True)
class ResilienceConfig:
    """Policy knobs for :class:`SupervisedEngine`.

    Attributes:
        max_retries: Plain re-executions granted to a failing unit
            before bisection stops and the ladder/quarantine begins.
        shard_timeout_s: Wall-clock guard per shard execution; a shard
            still running after this long is treated as hung and its
            executor replaced. ``None`` disables hang detection.
        deadline_s: Overall budget for one supervised call; pairs whose
            work would start after expiry become ``"deadline"``
            failures (structured, not raised).
        backoff_base_s / backoff_factor / backoff_max_s: Exponential
            backoff slept before retry attempt ``k``:
            ``min(max, base * factor**(k-1))``.
        validate: Re-check finished results -- CIGAR rescoring for
            traceback batches, a clean redundant recompute for
            score-only batches -- and treat mismatches as ``"bitflip"``
            faults. The only way silent datapath corruption is caught.
        degrade: Allow the degradation ladder (wide-dtype / scalar /
            exact rungs) after retries are exhausted.
        exact_fallback: Promote heuristic no-result outcomes (banded
            band too narrow, X-drop pruned) to the exact aligner, as a
            ``"exact"`` ladder rung. Requires ``degrade``.
        raise_on_failure: Raise (:class:`DeadlineExceeded` or
            :class:`PoisonPairError`) instead of returning an outcome
            with failures.
        backend: ``"auto"`` (processes when ``workers > 1``),
            ``"thread"``, or ``"process"``.
        shed: Deadline-aware load shedding: before a unit starts, rank
            its pairs by :meth:`CostModel.estimate` and shed the
            predicted-cost tail that cannot finish inside the remaining
            budget as structured ``"deadline"``/``LoadShed`` failures
            -- so the clock never expires mid-shard on work that was
            doomed from the start. Needs a bounded deadline to act.
        shed_safety: Headroom multiplier on predicted cost (predictions
            are optimistic on cold caches); 1.0 trusts the estimate.
        cost_model: Cost model used for shedding; ``None`` calibrates
            from the live profiler (falling back to the built-in
            per-cell default when no profile exists). Tests inject a
            pessimistic model here to exercise shedding determinately.
        max_unit_pairs: Cap on pairs per schedulable unit. By default
            the batch is cut into one shard per worker; a cap cuts it
            finer, which bounds the work lost to a crash between
            checkpoints (the service daemon's knob) and narrows
            bisection's starting point. Capped units follow the
            engine's bucket order, not submission order, so a unit is
            a run of whole length buckets and the job sweeps about as
            few buckets as it would uncut. ``None`` keeps per-worker
            contiguous shards.
    """

    max_retries: int = 2
    shard_timeout_s: float | None = None
    deadline_s: float | None = None
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 1.0
    validate: bool = False
    degrade: bool = True
    exact_fallback: bool = True
    raise_on_failure: bool = False
    backend: str = "auto"
    shed: bool = True
    shed_safety: float = 1.5
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
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigurationError("backoff durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if self.shed_safety < 1.0:
            raise ConfigurationError(
                f"shed_safety must be >= 1.0, got {self.shed_safety}")


@dataclass
class _Unit:
    """One schedulable piece of the batch: a list of pair positions."""

    indices: list[int]
    attempt: int = 0
    #: Degradation rung this unit runs on (None = the base config).
    rung: str | None = None
    config: BatchConfig | None = None
    #: Ladder rungs already consumed on the way here.
    rungs: tuple[str, ...] = ()
    #: Last classified fault, steering the ladder.
    fault: str | None = None
    error: BaseException | None = field(default=None, repr=False)


def _pool_worker(config: AlignmentConfig, batch: BatchConfig, pairs,
                 plan, attempt: int, collect: bool = False, trace=None):
    """Run one unit inside a worker process (module-level: pickles).

    Returns ``(results, fired, state)`` so the parent can merge both
    the worker's injection log into the supervisor-side ground truth
    and -- when ``collect`` -- the worker's metric/profile snapshot
    into the parent registry (worker-side counters otherwise die with
    the process). A :class:`~repro.obs.tracectx.TraceContext` as
    ``trace`` additionally stitches the worker's spans onto the parent
    timeline.
    """
    from repro.exec.engine import BatchEngine as Engine
    worker_obs = Observability.collector(trace=trace) if collect else None
    if plan is not None:
        chaos.install(plan, attempt, in_worker=True)
    try:
        results = Engine(config, batch, obs=worker_obs).run(pairs)
    finally:
        chaos.deactivate()
    return (results,
            list(plan.fired) if plan is not None else [],
            worker_obs.export_state() if worker_obs is not None else None)


def _classify(exc: BaseException) -> str:
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


class SupervisedEngine:
    """Fault-tolerant front end over :class:`BatchEngine`.

    Args:
        config: The alignment problem (alphabet + scoring model).
        batch: Execution policy; sharding width comes from
            ``batch.workers`` exactly as in the plain engine.
        resilience: Supervision policy (defaults to
            :class:`ResilienceConfig` defaults).
        obs: Observability context.
        plan: Optional :class:`~repro.resilience.chaos.ChaosPlan` to
            inject faults into every execution this engine launches.
        tenant: Attribute every metric this run touches -- parent-side
            ``resilience.*`` / ``exec.*`` counters, latency
            distributions, *and* worker-process snapshots merged back
            in :meth:`_wait` -- to one tenant via a
            :class:`~repro.obs.metrics.LabeledRegistry` view, so the
            fleet telemetry layer can split series per tenant without
            any engine call site knowing about tenancy.
    """

    def __init__(self, config: AlignmentConfig,
                 batch: BatchConfig | None = None,
                 resilience: ResilienceConfig | None = None,
                 obs: Observability | None = None,
                 plan: chaos.ChaosPlan | None = None,
                 tenant: str | None = None) -> None:
        self.config = config
        self.batch = batch or BatchConfig()
        self.resilience = resilience or ResilienceConfig()
        self.obs = obs or get_obs()
        self.tenant = tenant
        if tenant is not None:
            base = self.obs
            self.obs = Observability(
                metrics=LabeledRegistry(base.metrics, tenant=tenant),
                tracer=base.tracer, profiler=base.profiler,
                events=base.events)
        self.plan = plan
        #: Per-unit engine config: single worker (the supervisor owns
        #: parallelism) and no engine deadline (the supervisor owns the
        #: clock).
        self._inner = replace(self.batch, workers=1, deadline_s=None)
        backend = self.resilience.backend
        self._use_processes = (self.batch.workers > 1
                               if backend == "auto"
                               else backend == "process")
        self._width = max(1, min(self.batch.workers, 8))
        self._executor = None
        self._generation = 0
        self._charged_generations: set[int] = set()
        #: Checkpoint plumbing; rebound by every :meth:`run`.
        self._journal: outcome_io.Journal | None = None
        self._digest: str | None = None
        self._units_settled = 0
        self._wave_pending: list[_Unit] = []
        self._fresh: list[int] = []
        #: Regenerated by every :meth:`run`; stamps events and stitched
        #: trace spans so one run's artifacts correlate.
        self.run_id = new_run_id()

    # -- executor management ----------------------------------------------

    def _make_executor(self, width: int):
        if self._use_processes:
            try:
                return ProcessPoolExecutor(max_workers=width)
            except (OSError, PermissionError, RuntimeError) as exc:
                log.warning("process pool unavailable (%s); supervising "
                            "threads instead", exc)
                self._use_processes = False
        return ThreadPoolExecutor(
            max_workers=width,
            thread_name_prefix="repro-supervised")

    def _executor_for(self, width: int):
        if self._executor is None:
            self._executor = self._make_executor(width)
        return self._executor

    def _taint_executor(self) -> None:
        """Replace an executor holding hung or dead workers."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = None
        self._generation += 1

    def _shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # -- unit execution ----------------------------------------------------

    def _unit_config(self, unit: _Unit) -> BatchConfig:
        return unit.config or self._inner

    def _submit(self, unit: _Unit, width: int) -> Future:
        pool = self._executor_for(width)
        pairs = [self._pairs[i] for i in unit.indices]
        if self._use_processes:
            label = (f"u{min(unit.indices)}-{max(unit.indices)}"
                     f".a{unit.attempt}")
            return pool.submit(_pool_worker, self.config,
                               self._unit_config(unit), pairs, self.plan,
                               unit.attempt, self.obs.collecting,
                               child_context(self.obs.tracer, self.run_id,
                                             label,
                                             parent_span="resilience.run"))
        engine = BatchEngine(self.config, self._unit_config(unit),
                             self.obs)
        plan, attempt = self.plan, unit.attempt

        def call():
            # Threads share the parent's instruments: no state to merge.
            if plan is None:
                return engine.run(pairs), [], None
            with chaos.scoped(plan, attempt, in_worker=False):
                return engine.run(pairs), [], None

        return pool.submit(call)

    def _wait(self, unit: _Unit, future: Future,
              deadline: Deadline) -> list[AlignerResult]:
        """Collect one unit's results, enforcing timeout + deadline."""
        timeout = deadline.clamp(self.resilience.shard_timeout_s)
        try:
            results, fired, state = future.result(timeout=timeout)
        except FuturesTimeoutError:
            self._taint_executor()
            if deadline.expired:
                raise DeadlineExceeded(
                    "supervised batch exceeded its deadline") from None
            raise
        if fired and self.plan is not None:
            # Pool workers run on an unpickled plan copy: merge their
            # injection log back into the supervisor-side ground truth.
            with self.plan._lock:
                self.plan.fired.extend(fired)
        self.obs.merge_state(state)
        return results

    # -- policy ------------------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        """Telemetry event, dropped for free when events are off."""
        events = self.obs.events
        if events.enabled:
            events.emit(kind, **fields)

    def _charge(self, outcome: BatchOutcome, unit: _Unit,
                fault: str) -> None:
        outcome.bump(f"faults.{fault}")
        self.obs.metrics.counter("resilience.faults", fault=fault).inc()
        self._emit("fault", fault=fault, pairs=len(unit.indices),
                   attempt=unit.attempt)

    def _requeue_retry(self, queue: deque, outcome: BatchOutcome,
                       unit: _Unit) -> None:
        outcome.bump("retries")
        self.obs.metrics.counter("resilience.retries").inc()
        self._emit("retry", pairs=len(unit.indices),
                   attempt=unit.attempt + 1)
        queue.append(replace_unit(unit, attempt=unit.attempt + 1))

    def _backoff(self, unit: _Unit, deadline: Deadline) -> None:
        if unit.attempt <= 0:
            return
        policy = self.resilience
        delay = min(policy.backoff_max_s,
                    policy.backoff_base_s
                    * policy.backoff_factor ** (unit.attempt - 1))
        delay = min(delay, deadline.remaining())
        if delay > 0:
            time.sleep(delay)

    def _quarantine(self, outcome: BatchOutcome, unit: _Unit) -> None:
        index = unit.indices[0]
        fault = unit.fault or "error"
        error = unit.error
        error_type = ("Timeout" if fault == "hang"
                      else "Validation" if fault == "bitflip" and
                      isinstance(error, AlignmentError)
                      else type(error).__name__ if error is not None
                      else "Error")
        failure = PairFailure(
            index=index, fault=fault, error_type=error_type,
            message=str(error) if error is not None else "",
            attempts=unit.attempt + 1, rungs=unit.rungs)
        outcome.failures.append(failure)
        outcome.bump(f"quarantined.{fault}")
        self.obs.metrics.counter("resilience.quarantined",
                                 fault=fault).inc()
        self._emit("quarantine", index=index, fault=fault,
                   error_type=error_type, attempts=unit.attempt + 1,
                   rungs=list(unit.rungs))
        log.warning("quarantined %s", failure)

    def _enqueue_rung(self, queue: deque, outcome: BatchOutcome,
                      unit: _Unit) -> bool:
        """Queue the next untried ladder rung for a single-pair unit."""
        if not self.resilience.degrade:
            return False
        candidates = ladder.plan_rungs(self.batch, unit.fault or "error")
        for rung, config in candidates:
            if rung in unit.rungs:
                continue
            if rung == "exact" and not self.resilience.exact_fallback:
                continue
            outcome.bump(f"degraded.{rung}")
            self.obs.metrics.counter("resilience.degraded",
                                     rung=rung).inc()
            self._emit("degrade", index=unit.indices[0], rung=rung,
                       fault=unit.fault or "error")
            queue.append(replace_unit(
                unit, attempt=unit.attempt + 1, rung=rung, config=config,
                rungs=unit.rungs + (rung,)))
            return True
        return False

    def _dispose(self, queue: deque, outcome: BatchOutcome, unit: _Unit,
                 exc: BaseException, charge: bool = True) -> None:
        """Decide what happens to a unit whose execution failed."""
        fault = _classify(exc)
        unit = replace_unit(unit, fault=fault, error=exc)
        if charge:
            self._charge(outcome, unit, fault)
        if fault == "deadline":
            self._fail_unit(outcome, unit, exc)
            return
        # A pair-targeted exception isolates the poison pair at once.
        local = getattr(exc, "pair_index", None)
        if (local is not None and len(unit.indices) > 1
                and 0 <= local < len(unit.indices)):
            poison = unit.indices[local]
            rest = [i for i in unit.indices if i != poison]
            outcome.bump("isolations")
            queue.append(replace_unit(unit, indices=[poison],
                                      attempt=unit.attempt + 1))
            queue.append(replace_unit(unit, indices=rest, fault=None,
                                      error=None))
            return
        if len(unit.indices) == 1:
            if unit.rung is None and unit.attempt < \
                    self.resilience.max_retries:
                self._requeue_retry(queue, outcome, unit)
            elif not self._enqueue_rung(queue, outcome, unit):
                self._quarantine(outcome, unit)
            return
        if unit.attempt == 0:
            # One whole-shard retry clears every transient fault cheaply.
            self._requeue_retry(queue, outcome, unit)
            return
        mid = len(unit.indices) // 2
        outcome.bump("bisections")
        self.obs.metrics.counter("resilience.bisections").inc()
        self._emit("bisect", pairs=len(unit.indices), fault=fault)
        queue.append(replace_unit(unit, indices=unit.indices[:mid],
                                  attempt=unit.attempt + 1))
        queue.append(replace_unit(unit, indices=unit.indices[mid:],
                                  attempt=unit.attempt + 1))

    def _fail_unit(self, outcome: BatchOutcome, unit: _Unit,
                   exc: BaseException | None) -> None:
        """Terminal deadline failure for every pair still in a unit."""
        for index in unit.indices:
            outcome.failures.append(PairFailure(
                index=index, fault="deadline",
                error_type="DeadlineExceeded",
                message=str(exc) if exc is not None
                else "work not started before the deadline",
                attempts=unit.attempt, rungs=unit.rungs))
        outcome.bump("quarantined.deadline", len(unit.indices))
        self.obs.metrics.counter("resilience.quarantined",
                                 fault="deadline").inc(len(unit.indices))

    # -- load shedding -----------------------------------------------------

    def _shed_unit(self, outcome: BatchOutcome, unit: _Unit,
                   deadline: Deadline) -> _Unit | None:
        """Trim a unit to the pairs predicted to finish in the budget.

        When the cost model says the whole unit cannot complete inside
        ``deadline.remaining() / shed_safety``, the predicted-cost tail
        is shed up front as structured ``"deadline"`` failures (error
        type ``LoadShed``) instead of letting the clock expire mid-run.
        Returns the trimmed unit in original pair order, or ``None``
        when every pair was shed. No-op without a bounded deadline.
        """
        if not self.resilience.shed:
            return unit
        remaining = deadline.remaining()
        if remaining == float("inf"):
            return unit
        safety = self.resilience.shed_safety
        costs = [self._shed_model.estimate(self._pairs[index]).seconds
                 for index in unit.indices]
        predicted = sum(costs)
        if predicted * safety <= remaining:
            return unit
        budget = remaining / safety
        keep: list[int] = []
        acc = 0.0
        for local in sorted(range(len(costs)),
                            key=lambda one: (costs[one], one)):
            if acc + costs[local] > budget:
                break
            acc += costs[local]
            keep.append(local)
        kept = sorted(keep)
        shed = sorted(set(range(len(costs))) - set(kept))
        self._shed_pairs(outcome, unit,
                         [unit.indices[local] for local in shed])
        self._emit("shed", pairs=len(shed), kept=len(kept),
                   budget_s=round(budget, 6),
                   predicted_s=round(predicted, 6))
        if not kept:
            return None
        return replace_unit(
            unit, indices=[unit.indices[local] for local in kept])

    def _shed_pairs(self, outcome: BatchOutcome, unit: _Unit,
                    indices: list[int]) -> None:
        """Record shed pairs as structured deadline failures."""
        for index in indices:
            outcome.failures.append(PairFailure(
                index=index, fault="deadline", error_type="LoadShed",
                message="shed: predicted cost exceeds the remaining "
                        "deadline",
                attempts=unit.attempt, rungs=unit.rungs))
        outcome.bump("shed.pairs", len(indices))
        self.obs.metrics.counter("exec.shed.pairs").inc(len(indices))

    # -- validation --------------------------------------------------------

    def _validate_unit(self, unit: _Unit,
                       results: list[AlignerResult]) -> list[int]:
        """Local indices whose results fail integrity checks."""
        if not self.resilience.validate:
            return []
        model = self.config.model
        flagged: list[int] = []
        if self.batch.traceback:
            for local, result in enumerate(results):
                alignment = result.alignment
                if alignment is None:
                    continue
                q_codes, r_codes = self._pairs[unit.indices[local]]
                try:
                    alignment.validate(q_codes, r_codes, model)
                except AlignmentError:
                    flagged.append(local)
            return flagged
        # Score-only batches carry no CIGAR to rescore: compare against
        # a clean redundant recompute (injection suppressed so even a
        # globally installed plan cannot corrupt the reference).
        engine = BatchEngine(self.config, self._unit_config(unit),
                             self.obs)
        with chaos.suppressed():
            clean = engine.run([self._pairs[i] for i in unit.indices])
        for local, (got, want) in enumerate(zip(results, clean)):
            if got.score != want.score:
                flagged.append(local)
        return flagged

    def _absorb(self, queue: deque, outcome: BatchOutcome, unit: _Unit,
                results: list[AlignerResult]) -> None:
        """Bank a unit's results; peel off corrupt / promotable pairs."""
        flagged = set(self._validate_unit(unit, results))
        for local in sorted(flagged):
            corrupt = replace_unit(
                unit, indices=[unit.indices[local]],
                attempt=unit.attempt + 1, fault="bitflip",
                error=AlignmentError("result failed validation"))
            self._charge(outcome, corrupt, "bitflip")
            if corrupt.attempt <= self.resilience.max_retries and \
                    corrupt.rung is None:
                self._requeue_retry(queue, outcome,
                                    replace_unit(corrupt,
                                                 attempt=unit.attempt))
            elif not self._enqueue_rung(queue, outcome, corrupt):
                self._quarantine(outcome, corrupt)
        for local, result in enumerate(results):
            if local in flagged:
                continue
            index = unit.indices[local]
            if (result.failed and self.resilience.degrade
                    and self.resilience.exact_fallback
                    and self.batch.algorithm in
                    ladder.HEURISTIC_ALGORITHMS
                    and "exact" not in unit.rungs):
                # Heuristic gave up (band too narrow / path pruned):
                # promote this pair to the exact aligner.
                promoted = replace_unit(
                    unit, indices=[index], attempt=unit.attempt,
                    fault="alignment",
                    error=AlignmentError(result.failure_reason or
                                         "heuristic failed"))
                if self._enqueue_rung(queue, outcome, promoted):
                    continue
            outcome.results[index] = result
            self._fresh.append(index)
            if unit.rungs:
                outcome.degraded[index] = unit.rungs

    # -- checkpoint / resume ----------------------------------------------

    def _unit_doc(self, unit: _Unit) -> dict:
        """Serialize a unit's replayable state (errors stay behind:
        every restored unit re-executes before any terminal decision,
        so a fresh exception replaces the lost one)."""
        return {"indices": [int(i) for i in unit.indices],
                "attempt": int(unit.attempt), "rung": unit.rung,
                "rungs": list(unit.rungs), "fault": unit.fault}

    def _unit_from_doc(self, doc: dict) -> _Unit:
        rung = doc.get("rung")
        fault = doc.get("fault")
        config = None
        if rung is not None:
            # The rung's degraded BatchConfig is a pure function of
            # (base batch config, fault) -- rebuild instead of storing.
            for name, candidate in ladder.plan_rungs(
                    self.batch, fault or "error"):
                if name == rung:
                    config = candidate
                    break
        return _Unit(indices=[int(i) for i in doc["indices"]],
                     attempt=int(doc.get("attempt", 0)), rung=rung,
                     config=config,
                     rungs=tuple(doc.get("rungs") or ()), fault=fault)

    def _write_document(self, outcome: BatchOutcome, queue: deque,
                        complete: bool) -> None:
        """A full checkpoint document: the base this run's journal
        extends, or the final ``complete`` one -- never per settle."""
        if self._journal is None:
            return
        write = self._journal.finish if complete else self._journal.begin
        write(outcome_io.to_document(
            outcome, pairs=len(self._pairs), complete=complete,
            queue=[self._unit_doc(unit) for unit in queue],
            remaining=[unit.indices for unit in self._wave_pending],
            digest=self._digest))
        self._emit_checkpoint(outcome, queue, complete)

    def _emit_checkpoint(self, outcome: BatchOutcome, queue: deque,
                         complete: bool) -> None:
        if self.obs.events.enabled:  # completed() walks every result
            self._emit("checkpoint", done=outcome.completed(),
                       failures=len(outcome.failures),
                       queued=len(queue), complete=complete)

    def _settle(self, outcome: BatchOutcome, queue: deque) -> None:
        """One unit reached a decision: heartbeat, journal what it
        changed, and -- under a kill-at-unit chaos plan -- die like a
        SIGKILL would, *after* the journal line so only in-flight work
        is lost."""
        self._heartbeat(outcome, queue)
        self._units_settled += 1
        if self._journal is not None:
            self._journal.append(
                outcome, self._fresh,
                [self._unit_doc(unit) for unit in queue],
                pending=len(self._wave_pending))
            self._emit_checkpoint(outcome, queue, complete=False)
        self._fresh = []
        if self.plan is not None and \
                self.plan.should_kill(self._units_settled):
            self.plan.record_kill(self._units_settled)
            self._emit("fault", fault="kill",
                       units_settled=self._units_settled)
            raise chaos.InjectedKill(
                f"injected supervisor kill after unit "
                f"{self._units_settled}")

    def _load_resume(self, resume) -> "outcome_io.Checkpoint":
        checkpoint = (outcome_io.load(resume)
                      if isinstance(resume, str) else resume)
        if checkpoint.pairs != len(self._pairs):
            raise ConfigurationError(
                f"checkpoint describes {checkpoint.pairs} pair(s) but "
                f"{len(self._pairs)} were submitted")
        if checkpoint.digest and self._digest and \
                checkpoint.digest != self._digest:
            raise ConfigurationError(
                "checkpoint was written for a different batch "
                "(pair content digest mismatch)")
        return checkpoint

    # -- main loop ---------------------------------------------------------

    def run(self, pairs, *, checkpoint_path: str | None = None,
            resume=None) -> BatchOutcome:
        """Supervise one batch end to end; never raises for per-pair
        trouble unless ``raise_on_failure`` is set.

        Args:
            pairs: The full submitted batch (also on resume: a resumed
                run receives the *original* pairs; the checkpoint names
                which indices still need work).
            checkpoint_path: Keep an ``smx-outcome/1`` checkpoint here:
                a base document now, one ``.journal`` line per settled
                unit, and a final ``complete`` document (journal
                removed) when the run finishes.
            resume: A :class:`~repro.resilience.outcome_io.Checkpoint`
                (or path to one) from a killed run: completed results,
                quarantines, and counters are kept bit-identical, and
                only the checkpoint's unfinished remainder re-runs.
        """
        self._pairs = _as_pairs(pairs)
        self._journal = (outcome_io.Journal(checkpoint_path)
                         if checkpoint_path is not None else None)
        self._units_settled = 0
        self._wave_pending: list[_Unit] = []
        self._fresh: list[int] = []
        self._digest = (outcome_io.pairs_digest(self._pairs)
                        if (checkpoint_path is not None
                            or resume is not None) else None)
        queue: deque[_Unit] = deque()
        if resume is not None:
            checkpoint = self._load_resume(resume)
            outcome = checkpoint.outcome
            queue.extend(self._unit_from_doc(doc)
                         for doc in checkpoint.queue)
            wave = [_Unit(indices=list(indices))
                    for indices in checkpoint.remaining]
        else:
            outcome = BatchOutcome(results=[None] * len(self._pairs))
            wave = [_Unit(indices=indices) for indices in cut_units(
                self._pairs, self.resilience.max_unit_pairs, self.batch)]
        if not self._pairs:
            self._write_document(outcome, queue, complete=True)
            return outcome
        deadline = Deadline.after(self.resilience.deadline_s
                                  or self.batch.deadline_s)
        self._shed_model = (self.resilience.cost_model
                            or CostModel.from_profile(self.obs.profiler))
        self._width = max(1, min(self.batch.workers,
                                 max(1, len(wave))))
        self.run_id = new_run_id()
        self._emit("run_start", pairs=len(self._pairs), shards=len(wave),
                   backend="process" if self._use_processes else "thread",
                   run_id=self.run_id, resumed=resume is not None,
                   completed=outcome.completed(), queued=len(queue))
        try:
            with self.obs.tracer.host_span(
                    "resilience.run", pairs=len(self._pairs),
                    shards=len(wave), run_id=self.run_id):
                self._run_wave(wave, queue, outcome, deadline)
                self._run_recovery(queue, outcome, deadline)
        finally:
            self._shutdown()
        if self.plan is not None:
            with self.plan._lock:
                outcome.injections = list(self.plan.fired)
        outcome.failures.sort(key=lambda failure: failure.index)
        self.obs.metrics.counter("resilience.batches").inc()
        self._write_document(outcome, queue, complete=True)
        self._emit("run_end", pairs=len(self._pairs),
                   failures=len(outcome.failures),
                   counters=dict(outcome.counters), run_id=self.run_id)
        if outcome.failures and self.resilience.raise_on_failure:
            first = outcome.failures[0]
            if all(f.fault == "deadline" for f in outcome.failures):
                raise DeadlineExceeded(
                    f"{len(outcome.failures)} pair(s) missed the "
                    f"deadline (first: pair {first.index})")
            raise PoisonPairError(str(first), pair_index=first.index,
                                  fault=first.fault)
        return outcome

    def _run_wave(self, wave: list[_Unit], queue: deque,
                  outcome: BatchOutcome, deadline: Deadline) -> None:
        """Initial parallel pass: one shard per worker (or finer, under
        ``max_unit_pairs``), absorbed in wave order."""
        expired = bool(wave) and deadline.expired
        if not expired:
            wave = [unit for unit in (self._shed_unit(outcome, unit, deadline)
                                      for unit in wave) if unit is not None]
        # Units not yet absorbed: the base checkpoint records them
        # verbatim (shed pairs already trimmed off and failed) and each
        # journal line counts how many are absorbed, so a resumed run
        # re-executes exactly the rest at attempt 0 (their in-flight
        # executions die with the process).
        self._wave_pending = list(wave)
        self._write_document(outcome, queue, complete=False)
        if expired:
            for unit in wave:
                self._fail_unit(outcome, unit, None)
            self._wave_pending = []
            self._settle(outcome, queue)
            return
        width = max(1, min(self.batch.workers, len(wave)))
        submitted = []
        for shard_id, unit in enumerate(wave):
            self._emit("shard_start", shard=shard_id,
                       pairs=len(unit.indices))
            submitted.append((unit, self._submit(unit, width),
                              self._generation, shard_id,
                              time.perf_counter()))
        for unit, future, generation, shard_id, started in submitted:
            try:
                results = self._wait(unit, future, deadline)
            except BrokenExecutor as exc:
                self._taint_executor()
                # One unit killed this pool generation; its shardmates'
                # futures break too, through no fault of their own --
                # those requeue uncharged at the same attempt.
                if generation in self._charged_generations:
                    queue.append(replace_unit(unit, fault=None,
                                              error=None))
                else:
                    self._charged_generations.add(generation)
                    self._dispose(queue, outcome, unit, exc)
            except CancelledError:
                # Lost to an executor taint before it started; re-run
                # as if never submitted.
                queue.append(replace_unit(unit, fault=None, error=None))
            except Exception as exc:  # noqa: BLE001 - classified below
                self._dispose(queue, outcome, unit, exc)
            else:
                elapsed = time.perf_counter() - started
                self._absorb(queue, outcome, unit, results)
                self.obs.metrics.distribution(
                    "resilience.unit_latency_us").observe(elapsed * 1e6)
                self._emit("shard_done", shard=shard_id,
                           pairs=len(unit.indices),
                           elapsed_s=round(elapsed, 6))
            self._wave_pending.pop(0)
            self._settle(outcome, queue)

    def _heartbeat(self, outcome: BatchOutcome, queue: deque) -> None:
        if not self.obs.events.enabled:
            return
        done = sum(result is not None for result in outcome.results)
        self.obs.events.emit("heartbeat", done=done,
                             total=len(outcome.results),
                             failures=len(outcome.failures),
                             queued=len(queue))

    def _run_recovery(self, queue: deque, outcome: BatchOutcome,
                      deadline: Deadline) -> None:
        """Sequential, deterministic drain of the recovery queue."""
        while queue:
            unit = queue.popleft()
            if deadline.expired:
                self._fail_unit(outcome, unit, None)
                self._settle(outcome, queue)
                continue
            trimmed = self._shed_unit(outcome, unit, deadline)
            if trimmed is None:
                self._settle(outcome, queue)
                continue
            unit = trimmed
            self._backoff(unit, deadline)
            started = time.perf_counter()
            try:
                future = self._submit(unit, self._width)
                results = self._wait(unit, future, deadline)
            except BrokenExecutor as exc:
                self._taint_executor()
                self._dispose(queue, outcome, unit, exc)
            except Exception as exc:  # noqa: BLE001 - classified below
                self._dispose(queue, outcome, unit, exc)
            else:
                elapsed = time.perf_counter() - started
                self._absorb(queue, outcome, unit, results)
                self.obs.metrics.distribution(
                    "resilience.unit_latency_us").observe(elapsed * 1e6)
                self._emit("unit_done", pairs=len(unit.indices),
                           attempt=unit.attempt, rung=unit.rung,
                           elapsed_s=round(elapsed, 6))
            self._settle(outcome, queue)


def cut_units(pairs, cap: int | None,
              batch: BatchConfig) -> list[list[int]]:
    """The first wave's units, as pair positions: per-worker contiguous
    shards, or -- capped -- the engine's bucket order (stable in
    submission index) cut every ``cap`` pairs, so each unit is a run
    of whole buckets plus at most one bucket slice at either end."""
    if cap is None:
        return [list(range(start, stop)) for start, stop in
                shard_spans(len(pairs), batch.workers)]
    order = sorted(range(len(pairs)), key=lambda index: bucket_key(
        pairs[index], batch.bucket_granularity))
    return [order[start:start + cap]
            for start in range(0, len(order), cap)]


def replace_unit(unit: _Unit, **changes) -> _Unit:
    """``dataclasses.replace`` for units (fresh lists, shared pairs)."""
    merged = {"indices": list(unit.indices), "attempt": unit.attempt,
              "rung": unit.rung, "config": unit.config,
              "rungs": unit.rungs, "fault": unit.fault,
              "error": unit.error}
    merged.update(changes)
    return _Unit(**merged)
