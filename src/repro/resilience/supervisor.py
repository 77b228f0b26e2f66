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
3. A single failing pair gets bounded retries, then walks the
   degradation ladder (:mod:`repro.resilience.ladder`): wide-dtype for
   range/overflow trips, scalar for vector-path faults, the exact
   aligner for heuristic failures. Exponential backoff is slept only
   before a retry -- a re-run of the same pairs on the same path --
   never before a bisection half, an isolated pair or a ladder rung.
4. Whatever still fails is quarantined as a typed
   :class:`~repro.resilience.failures.PairFailure`; the batch always
   returns a full :class:`~repro.resilience.failures.BatchOutcome`,
   unless ``raise_on_failure`` asks for the exception: then the first
   quarantined pair raises at once, leaving the checkpoint as of the
   last settled unit (as a kill would).

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
#: Exponential backoff before retry attempt ``k``:
#: ``min(BACKOFF_MAX_S, backoff_base_s * BACKOFF_FACTOR**(k-1))``.
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 1.0
#: Load shedding's headroom multiplier on predicted cost (predictions
#: are optimistic on cold caches).
SHED_SAFETY = 1.5


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
        backoff_base_s: Base of the exponential backoff slept before
            a retry of the same pairs (see :data:`BACKOFF_FACTOR`);
            bisection halves, isolated pairs and ladder rungs run at
            once.
        validate: Re-check finished results -- CIGAR rescoring for
            traceback batches, a clean redundant recompute for
            score-only batches -- and treat mismatches as ``"bitflip"``
            faults. The only way silent datapath corruption is caught.
        degrade: Allow the degradation ladder (wide-dtype / scalar /
            exact rungs) after retries are exhausted; this includes
            promoting heuristic no-result outcomes (banded band too
            narrow) to the exact aligner as an ``"exact"`` rung.
        raise_on_failure: Raise instead of returning an outcome with
            failures: :class:`PoisonPairError` at the first pair
            quarantined (the run stops there), or
            :class:`DeadlineExceeded` at the end of a run whose only
            failures are deadline misses.
        backend: ``"auto"`` (processes when ``workers > 1``),
            ``"thread"``, or ``"process"``.
        shed: Deadline-aware load shedding: before a unit starts, rank
            its pairs by :meth:`CostModel.estimate` and shed the
            predicted-cost tail that cannot finish inside the remaining
            budget as structured ``"deadline"``/``LoadShed`` failures
            -- so the clock never expires mid-shard on work that was
            doomed from the start, with :data:`SHED_SAFETY` headroom.
            Needs a bounded deadline to act.
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


@dataclass
class _Unit:
    """One schedulable piece of the batch: a list of pair positions."""

    indices: list[int]
    attempt: int = 0
    #: Degradation rung this unit runs on (None = the base config).
    rung: str | None = None
    #: Ladder rungs already consumed on the way here.
    rungs: tuple[str, ...] = ()
    #: Last classified fault: steers the ladder, names a rung's config.
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
    with chaos.scoped(plan, attempt, in_worker=True):
        results = Engine(config, batch, obs=worker_obs).run(pairs)
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
            in :meth:`_collect` -- to one tenant via a
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
        self._executor = None
        self._generation = 0
        self._charged_generations: set[int] = set()
        #: Regenerated by every :meth:`run`; stamps events and stitched
        #: trace spans so one run's artifacts correlate.
        self.run_id = new_run_id()

    # -- executor management ----------------------------------------------

    def _executor_for(self):
        """The live executor, ``_width`` wide, started on first use; a
        process pool that cannot start falls back to threads."""
        if self._executor is None and self._use_processes:
            try:
                self._executor = ProcessPoolExecutor(max_workers=self._width)
            except (OSError, PermissionError, RuntimeError) as exc:
                log.warning("process pool unavailable (%s); supervising "
                            "threads instead", exc)
                self._use_processes = False
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self._width,
                thread_name_prefix="repro-supervised")
        return self._executor

    def _shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def _taint_executor(self) -> None:
        """Replace an executor holding hung or dead workers."""
        self._shutdown()
        self._generation += 1

    # -- unit execution ----------------------------------------------------

    def _unit_config(self, unit: _Unit) -> BatchConfig:
        """The unit's engine config: the base one, or its rung's -- a
        pure function of (base batch config, fault), so never stored."""
        if unit.rung is None:
            return self._inner
        return dict(ladder.plan_rungs(self.batch, unit.fault or "error")
                    ).get(unit.rung, self._inner)

    def _submit(self, unit: _Unit) -> Future:
        pool = self._executor_for()
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
            with chaos.scoped(plan, attempt):
                return engine.run(pairs), [], None

        return pool.submit(call)

    def _collect(self, queue: deque, outcome: BatchOutcome, unit: _Unit,
                 deadline: Deadline, submitted: tuple | None = None
                 ) -> float | None:
        """Wait for one unit, enforcing timeout + deadline, and absorb
        its results or dispose of its failure.

        A wave unit arrives ``submitted`` as ``(future, pool generation,
        start time)``; a recovery unit is submitted here, inside the
        guard. Returns the seconds an absorbed unit took, else ``None``.
        """
        future, generation, started = submitted or (
            None, self._generation, time.perf_counter())
        try:
            if future is None:
                future = self._submit(unit)
            results, fired, state = future.result(
                timeout=deadline.clamp(self.resilience.shard_timeout_s))
        except BrokenExecutor as exc:
            self._taint_executor()
            # One unit killed this pool generation; its shardmates'
            # futures break too, through no fault of their own -- those
            # requeue uncharged at the same attempt. (A recovery unit
            # runs alone on a fresh generation: always charged.)
            if generation in self._charged_generations:
                queue.append(unit)
            else:
                self._charged_generations.add(generation)
                self._dispose(queue, outcome, unit, exc, deadline)
            return None
        except CancelledError:
            # Lost to an executor taint before it started; re-run as if
            # never submitted.
            queue.append(unit)
            return None
        except FuturesTimeoutError as exc:
            # A hung worker: replace its executor. Past the deadline the
            # wait was cut short by the budget, not by the hang.
            self._taint_executor()
            self._dispose(queue, outcome, unit, DeadlineExceeded(
                "supervised batch exceeded its deadline")
                if deadline.expired else exc, deadline)
            return None
        except Exception as exc:  # noqa: BLE001 - classified below
            self._dispose(queue, outcome, unit, exc, deadline)
            return None
        if fired and self.plan is not None:
            # Pool workers run on an unpickled plan copy: merge their
            # injection log back into the supervisor-side ground truth.
            with self.plan._lock:
                self.plan.fired.extend(fired)
        self.obs.merge_state(state)
        elapsed = time.perf_counter() - started
        self._absorb(queue, outcome, unit, results, deadline)
        self.obs.metrics.distribution(
            "resilience.unit_latency_us").observe(elapsed * 1e6)
        return elapsed

    # -- policy ------------------------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        """Telemetry event, dropped for free when events are off."""
        events = self.obs.events
        if events.enabled:
            events.emit(kind, **fields)

    def _count(self, outcome: BatchOutcome, name: str, amount: int = 1,
               **label) -> None:
        """Book one counter twice: ``name[.<label value>]`` in the
        outcome, ``resilience.<name>{label}`` in the metrics."""
        outcome.bump(".".join((name, *label.values())), amount)
        self.obs.metrics.counter(f"resilience.{name}", **label).inc(amount)

    def _charge(self, outcome: BatchOutcome, unit: _Unit,
                fault: str) -> None:
        self._count(outcome, "faults", fault=fault)
        self._emit("fault", fault=fault, pairs=len(unit.indices),
                   attempt=unit.attempt)

    def _requeue_retry(self, queue: deque, outcome: BatchOutcome,
                       unit: _Unit, deadline: Deadline) -> None:
        """Queue the same pairs again at the next attempt, after an
        exponential backoff -- the one place the supervisor sleeps."""
        attempt = unit.attempt + 1
        self._count(outcome, "retries")
        self._emit("retry", pairs=len(unit.indices), attempt=attempt)
        delay = min(BACKOFF_MAX_S, self.resilience.backoff_base_s
                    * BACKOFF_FACTOR ** (attempt - 1),
                    deadline.remaining())
        if delay > 0:
            time.sleep(delay)
        queue.append(replace(unit, attempt=attempt))

    def _fail(self, outcome: BatchOutcome, unit: _Unit,
              indices: list[int], fault: str, error_type: str,
              message: str, attempts: int) -> list[PairFailure]:
        """Record a terminal failure for each of ``indices``."""
        failures = [PairFailure(index=index, fault=fault,
                                error_type=error_type, message=message,
                                attempts=attempts, rungs=unit.rungs)
                    for index in indices]
        outcome.failures.extend(failures)
        return failures

    def _quarantine(self, outcome: BatchOutcome, unit: _Unit) -> None:
        index = unit.indices[0]
        fault = unit.fault or "error"
        error = unit.error
        error_type = ("Timeout" if fault == "hang"
                      else "Validation" if fault == "bitflip" and
                      isinstance(error, AlignmentError)
                      else type(error).__name__ if error is not None
                      else "Error")
        (failure,) = self._fail(
            outcome, unit, [index], fault, error_type,
            str(error) if error is not None else "", unit.attempt + 1)
        self._count(outcome, "quarantined", fault=fault)
        self._emit("quarantine", index=index, fault=fault,
                   error_type=error_type, attempts=unit.attempt + 1,
                   rungs=list(unit.rungs))
        log.warning("quarantined %s", failure)
        if self.resilience.raise_on_failure:
            raise PoisonPairError(str(failure), pair_index=index,
                                  fault=fault)

    def _enqueue_rung(self, queue: deque, outcome: BatchOutcome,
                      unit: _Unit) -> bool:
        """Queue the next untried ladder rung for a single-pair unit."""
        fault = unit.fault or "error"
        rung = next((name for name, _ in ladder.plan_rungs(self.batch, fault)
                     if name not in unit.rungs), None)
        if rung is None or not self.resilience.degrade:
            return False
        self._count(outcome, "degraded", rung=rung)
        self._emit("degrade", index=unit.indices[0], rung=rung, fault=fault)
        queue.append(replace(unit, attempt=unit.attempt + 1, rung=rung,
                             rungs=unit.rungs + (rung,)))
        return True

    def _escalate(self, queue: deque, outcome: BatchOutcome, unit: _Unit,
                  deadline: Deadline) -> None:
        """The one-pair rule for a unit that failed at ``unit.attempt``:
        retry on the base path, then the next rung, then quarantine."""
        if unit.rung is None and unit.attempt < self.resilience.max_retries:
            self._requeue_retry(queue, outcome, unit, deadline)
        elif not self._enqueue_rung(queue, outcome, unit):
            self._quarantine(outcome, unit)

    def _dispose(self, queue: deque, outcome: BatchOutcome, unit: _Unit,
                 exc: BaseException, deadline: Deadline) -> None:
        """Decide what happens to a unit whose execution failed."""
        fault = _classify(exc)
        unit = replace(unit, fault=fault, error=exc)
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
            queue.append(replace(unit, indices=[poison],
                                 attempt=unit.attempt + 1))
            queue.append(replace(unit, indices=rest, fault=None,
                                 error=None))
            return
        if len(unit.indices) == 1:
            self._escalate(queue, outcome, unit, deadline)
            return
        if unit.attempt == 0:
            # One whole-shard retry clears every transient fault cheaply.
            self._requeue_retry(queue, outcome, unit, deadline)
            return
        mid = len(unit.indices) // 2
        self._count(outcome, "bisections")
        self._emit("bisect", pairs=len(unit.indices), fault=fault)
        queue.append(replace(unit, indices=unit.indices[:mid],
                             attempt=unit.attempt + 1))
        queue.append(replace(unit, indices=unit.indices[mid:],
                             attempt=unit.attempt + 1))

    def _fail_unit(self, outcome: BatchOutcome, unit: _Unit,
                   exc: BaseException | None) -> None:
        """Terminal deadline failure for every pair still in a unit."""
        self._fail(outcome, unit, unit.indices, "deadline",
                   "DeadlineExceeded",
                   str(exc) if exc is not None
                   else "work not started before the deadline",
                   unit.attempt)
        self._count(outcome, "quarantined", len(unit.indices),
                    fault="deadline")

    # -- load shedding -----------------------------------------------------

    def _shed_unit(self, outcome: BatchOutcome, unit: _Unit,
                   deadline: Deadline) -> _Unit | None:
        """Trim a unit to the pairs predicted to finish in the budget.

        When the cost model says the whole unit cannot complete inside
        ``deadline.remaining() / SHED_SAFETY``, the predicted-cost tail
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
        costs = [self._shed_model.estimate(self._pairs[index]).seconds
                 for index in unit.indices]
        predicted = sum(costs)
        if predicted * SHED_SAFETY <= remaining:
            return unit
        budget = remaining / SHED_SAFETY
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
        self._fail(outcome, unit, [unit.indices[local] for local in shed],
                   "deadline", "LoadShed", "shed: predicted cost exceeds "
                   "the remaining deadline", unit.attempt)
        outcome.bump("shed.pairs", len(shed))
        self.obs.metrics.counter("exec.shed.pairs").inc(len(shed))
        self._emit("shed", pairs=len(shed), kept=len(kept),
                   budget_s=round(budget, 6),
                   predicted_s=round(predicted, 6))
        if not kept:
            return None
        return replace(
            unit, indices=[unit.indices[local] for local in kept])

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
        # a clean redundant recompute (injection switched off so even a
        # plan active in the caller's context cannot corrupt the
        # reference).
        engine = BatchEngine(self.config, self._unit_config(unit),
                             self.obs)
        with chaos.scoped(None):
            clean = engine.run([self._pairs[i] for i in unit.indices])
        for local, (got, want) in enumerate(zip(results, clean)):
            if got.score != want.score:
                flagged.append(local)
        return flagged

    def _absorb(self, queue: deque, outcome: BatchOutcome, unit: _Unit,
                results: list[AlignerResult], deadline: Deadline) -> None:
        """Bank a unit's results; peel off corrupt / promotable pairs."""
        flagged = set(self._validate_unit(unit, results))
        for local in sorted(flagged):
            corrupt = replace(
                unit, indices=[unit.indices[local]], fault="bitflip",
                error=AlignmentError("result failed validation"))
            self._charge(outcome, corrupt, "bitflip")
            self._escalate(queue, outcome, corrupt, deadline)
        for local, result in enumerate(results):
            if local in flagged:
                continue
            index = unit.indices[local]
            if (result.failed and self.resilience.degrade
                    and self.batch.algorithm in
                    ladder.HEURISTIC_ALGORITHMS
                    and "exact" not in unit.rungs):
                # Heuristic gave up (band too narrow / path pruned):
                # promote this pair to the exact aligner.
                promoted = replace(
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

    @staticmethod
    def _unit_from_doc(doc: dict) -> _Unit:
        return _Unit(indices=[int(i) for i in doc["indices"]],
                     attempt=int(doc.get("attempt", 0)),
                     rung=doc.get("rung"),
                     rungs=tuple(doc.get("rungs") or ()),
                     fault=doc.get("fault"))

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
        if self.obs.events.enabled:
            self._emit("heartbeat", done=outcome.completed(),
                       total=len(outcome.results),
                       failures=len(outcome.failures), queued=len(queue))
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
        self._digest = (outcome_io.pairs_digest(self._pairs)
                        if (checkpoint_path is not None
                            or resume is not None) else None)
        self._units_settled = 0
        # Wave units not yet absorbed; indices banked since the last
        # journal line.
        self._wave_pending: list[_Unit] = []
        self._fresh: list[int] = []
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
        try:
            # Start the pool first so run_start names the backend that
            # runs (a pool that cannot start falls back to threads).
            self._executor_for()
            self._emit("run_start", pairs=len(self._pairs),
                       shards=len(wave),
                       backend="process" if self._use_processes
                       else "thread",
                       run_id=self.run_id, resumed=resume is not None,
                       completed=outcome.completed(), queued=len(queue))
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
            # A quarantine would have raised already: all are deadlines.
            raise DeadlineExceeded(
                f"{len(outcome.failures)} pair(s) missed the deadline "
                f"(first: pair {outcome.failures[0].index})")
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
        submitted = []
        for shard_id, unit in enumerate(wave):
            self._emit("shard_start", shard=shard_id,
                       pairs=len(unit.indices))
            submitted.append((unit, (self._submit(unit), self._generation,
                                     time.perf_counter())))
        for shard_id, (unit, handle) in enumerate(submitted):
            elapsed = self._collect(queue, outcome, unit, deadline, handle)
            if elapsed is not None:
                self._emit("shard_done", shard=shard_id,
                           pairs=len(unit.indices),
                           elapsed_s=round(elapsed, 6))
            self._wave_pending.pop(0)
            self._settle(outcome, queue)

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
            elapsed = self._collect(queue, outcome, unit, deadline)
            if elapsed is not None:
                self._emit("unit_done", pairs=len(unit.indices),
                           attempt=unit.attempt, rung=unit.rung,
                           elapsed_s=round(elapsed, 6))
            self._settle(outcome, queue)


def run_batch(config: AlignmentConfig, batch: BatchConfig, pairs,
              resilience: ResilienceConfig | None = None,
              deadline_s: float | None = None,
              obs: Observability | None = None) -> BatchOutcome:
    """Run a batch plain, or supervised when a policy or deadline is set.

    Without ``resilience`` and ``deadline_s`` this is the plain
    :class:`BatchEngine` (errors raise) and the outcome only carries
    ``results``. Otherwise :class:`SupervisedEngine` runs under
    ``resilience`` (default policy if ``None``), with ``deadline_s``
    filling its deadline when the policy has none.
    """
    if resilience is None and deadline_s is None:
        return BatchOutcome(
            results=BatchEngine(config, batch, obs=obs).run(pairs))
    policy = resilience or ResilienceConfig()
    if deadline_s is not None and policy.deadline_s is None:
        policy = replace(policy, deadline_s=deadline_s)
    return SupervisedEngine(config, batch, policy, obs=obs).run(pairs)


def cut_units(pairs, cap: int | None,
              batch: BatchConfig) -> list[list[int]]:
    """The first wave's units, as pair positions: per-worker contiguous
    shards, or -- capped -- the engine's bucket order (stable in
    submission index) cut every ``cap`` pairs, so each unit is a run
    of whole buckets plus at most one bucket slice at either end."""
    if cap is None:
        # Lazy: exec.sharding builds its strict policy from this module.
        from repro.exec.sharding import shard_spans

        return [list(range(start, stop)) for start, stop in
                shard_spans(len(pairs), batch.workers)]
    order = sorted(range(len(pairs)), key=lambda index: bucket_key(
        pairs[index], batch.bucket_granularity))
    return [order[start:start + cap]
            for start in range(0, len(order), cap)]

