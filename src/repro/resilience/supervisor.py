"""Supervised batch execution: retry, bisect, degrade, quarantine.

:class:`SupervisedEngine` wraps :class:`~repro.exec.engine.BatchEngine`
with the fault-tolerance policy of the execution layer:

1. The batch is cut into units -- contiguous shards, one per worker,
   or under ``max_unit_pairs`` runs of that many pairs taken in the
   engine's bucket order -- and run as a parallel wave, each unit
   guarded by a wall-clock timeout (``shard_timeout_s``) and the
   overall call deadline.
2. A failed unit goes to :func:`repro.resilience.policy.decide`, the
   one recovery policy, and the supervisor applies the actions it
   returns: a whole-unit retry of a first-wave unit, **bisection** down
   to single pairs (unaffected pairs keep their bit-identical results),
   isolation of a pair an exception names, ``max_retries`` plain
   retries for every single failing pair, the degradation ladder
   (wide-dtype, scalar, exact) and quarantine. Backoff is slept only
   before a retry of the same pairs on the same path.
3. Whatever still fails is a typed
   :class:`~repro.resilience.failures.PairFailure`; the batch always
   returns a full :class:`~repro.resilience.failures.BatchOutcome`,
   unless ``raise_on_failure`` asks for the exception: then the first
   quarantined pair raises at once, leaving the checkpoint as of the
   last settled unit (as a kill would).

Two backends: worker *processes* (``batch.workers > 1``; an injected
crash genuinely kills a worker and surfaces as ``BrokenProcessPool``)
or worker *threads* (single-worker batches, restricted sandboxes, or
``backend="thread"``; deterministic, with crashes modelled as raised
:class:`~repro.resilience.chaos.InjectedCrash`). A unit crosses the
process boundary as columns (:func:`pack_pairs` out, :func:`pack_results`
back). Hang detection needs a ``shard_timeout_s`` (or deadline). After a
timeout or pool break the tainted executor is replaced so stuck workers
cannot starve later recovery work. Every fault, retry, bisection, ladder
rung, and quarantine is counted both in ``repro.obs`` metrics
(``resilience.*``) and in the outcome's ``counters`` dict.

Crash safety: with a ``checkpoint_path``, :meth:`SupervisedEngine.run`
keeps an ``smx-outcome/1`` checkpoint as a base document plus a journal
(:mod:`repro.resilience.outcome_io` has the protocol): the base --
results, failures, counters, the recovery queue and the wave units at
their exact attempt and retry counts -- is written when the run starts
or resumes, and *every settled unit* appends one line with what it
changed. A run restarted with ``resume=`` re-executes only the
checkpoint's unfinished remainder, and because every decision is
deterministic in (pair content, attempt, retries), the resumed union is
bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import itertools
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
from dataclasses import asdict, replace

import numpy as np

from repro.algorithms.base import AlignerResult, DPStats
from repro.config import AlignmentConfig
from repro.errors import (
    AlignmentError,
    ConfigurationError,
    DeadlineExceeded,
    PoisonPairError,
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
from repro.resilience import chaos, outcome_io, policy
from repro.resilience.deadline import Deadline
from repro.resilience.failures import BatchOutcome, PairFailure
from repro.resilience.policy import ResilienceConfig, Unit

log = get_logger("resilience")

#: Load shedding's headroom multiplier on predicted cost (predictions
#: are optimistic on cold caches).
SHED_SAFETY = 1.5


def _pool_worker(config: AlignmentConfig, batch: BatchConfig, codes,
                 lengths, plan, attempt: int, collect: bool = False,
                 trace=None):
    """Run one unit inside a worker process (module-level: pickles).

    The pairs arrive as :func:`pack_pairs` columns, rebuilt here into
    views. Returns ``(columns, fired, state)``: the :func:`pack_results`
    columns of the results (after chaos acted on them), the injection
    log and, when ``collect``, the metric/profile snapshot, both merged
    into the parent; ``trace`` stitches the worker's spans onto the
    parent timeline.
    """
    from repro.exec.engine import BatchEngine as Engine
    worker_obs = Observability.collector(trace=trace) if collect else None
    with chaos.scoped(plan, attempt, in_worker=True):
        results = Engine(config, batch, obs=worker_obs).run(
            unpack_pairs(codes, lengths))
    return (pack_results(results),
            list(plan.fired) if plan is not None else [],
            worker_obs.export_state() if worker_obs is not None else None)


def pack_pairs(pairs) -> tuple[np.ndarray, np.ndarray]:
    """A unit's pairs as one ``uint8`` code buffer (``q0, r0, q1, ...``)
    plus ``int64`` side lengths: one buffer pickles at memcpy speed."""
    sides = [side for pair in pairs for side in pair]
    return (np.concatenate([np.empty(0, np.uint8), *sides]),
            np.array([len(side) for side in sides], dtype=np.int64))


def unpack_pairs(codes: np.ndarray, lengths: np.ndarray) -> list:
    """Inverse of :func:`pack_pairs`: the pairs as views of ``codes``."""
    ends = [0, *itertools.accumulate(lengths.tolist())]
    sides = [codes[start:stop] for start, stop in zip(ends, ends[1:])]
    return list(zip(sides[0::2], sides[1::2]))


def pack_results(results: list[AlignerResult]) -> tuple:
    """A unit's results as columns: ``int64`` scores, their ``None``
    mask, ``(n, 3)`` :class:`DPStats`, ``failed`` flags, and by position,
    only where set, ``(alignment, failure_reason, meta)``."""
    scores = [result.score for result in results]
    stats = [(result.stats.cells_computed, result.stats.cells_stored,
              result.stats.blocks) for result in results]
    extras = {local: (result.alignment, result.failure_reason, result.meta)
              for local, result in enumerate(results)
              if result.alignment is not None or result.failure_reason
              or result.meta}
    return (np.array([score or 0 for score in scores], dtype=np.int64),
            np.array([score is None for score in scores], dtype=bool),
            np.array(stats, dtype=np.int64).reshape(len(results), 3),
            np.array([result.failed for result in results], dtype=bool),
            extras)


def unpack_results(columns: tuple) -> list[AlignerResult]:
    """Inverse of :func:`pack_results`."""
    scores, missing, stats, failed, extras = columns
    results = []
    for local, (score, none, (cells, stored, blocks), gave_up) in \
            enumerate(zip(scores.tolist(), missing.tolist(),
                          stats.tolist(), failed.tolist())):
        alignment, reason, meta = extras.get(local, (None, "", {}))
        results.append(AlignerResult(
            alignment, None if none else score,
            DPStats(cells, stored, blocks), gave_up, reason, meta))
    return results


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
        tenant: Attribute every metric this run touches, worker
            snapshots included, to one tenant through a
            :class:`~repro.obs.metrics.LabeledRegistry` view.
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
        #: Per-unit engine config: the supervisor owns parallelism and
        #: the clock.
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

    def _unit_config(self, unit: Unit) -> BatchConfig:
        """The unit's engine config: the base one, or its last rung's --
        a pure function of (base batch config, fault), so never stored."""
        if not unit.rungs:
            return self._inner
        return dict(policy.plan_rungs(self.batch, unit.fault or "error")
                    ).get(unit.rungs[-1], self._inner)

    def _submit(self, unit: Unit) -> Future:
        pool = self._executor_for()
        pairs = [self._pairs[i] for i in unit.indices]
        if self._use_processes:
            label = (f"u{min(unit.indices)}-{max(unit.indices)}"
                     f".a{unit.attempt}")
            return pool.submit(_pool_worker, self.config,
                               self._unit_config(unit), *pack_pairs(pairs),
                               self.plan, unit.attempt, self.obs.collecting,
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

    def _collect(self, queue: deque, outcome: BatchOutcome, unit: Unit,
                 deadline: Deadline, submitted: tuple | None = None
                 ) -> float | None:
        """Wait for one unit under its timeout and the deadline, then
        absorb its results or hand its failure to the policy.

        A wave unit arrives ``submitted`` as ``(future, pool generation,
        start time)``; a recovery unit is submitted here. Returns the
        seconds an absorbed unit took, else ``None``."""
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
            # futures break too and requeue uncharged. (A recovery unit
            # runs alone on a fresh generation: always charged.)
            if generation in self._charged_generations:
                queue.append(unit)
            else:
                self._charged_generations.add(generation)
                self._failed(queue, outcome, unit, exc, deadline)
            return None
        except CancelledError:  # lost to a taint before it ran
            queue.append(unit)
            return None
        except FuturesTimeoutError as exc:
            # A hung worker, or the deadline cut the wait short: replace
            # the executor. Past the deadline, a unit still queued there
            # never ran: the recovery loop fails it unstarted.
            queued = future.cancel()
            self._taint_executor()
            if deadline.expired and queued:
                queue.append(unit)
            else:
                self._failed(queue, outcome, unit, DeadlineExceeded(
                    "supervised batch exceeded its deadline")
                    if deadline.expired else exc, deadline)
            return None
        except Exception as exc:  # noqa: BLE001 - classified by the policy
            self._failed(queue, outcome, unit, exc, deadline)
            return None
        if isinstance(results, tuple):  # a pool worker's columns
            results = unpack_results(results)
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

    def _failed(self, queue: deque, outcome: BatchOutcome, unit: Unit,
                exc: BaseException, deadline: Deadline,
                fault: str | None = None) -> None:
        """Book a failed execution's fault, then apply the policy's
        decision on it."""
        fault = fault or policy.classify(exc)
        self._count(outcome, "faults", fault=fault)
        self._emit("fault", fault=fault, pairs=len(unit.indices),
                   attempt=unit.attempt)
        self._apply(queue, outcome, deadline, policy.decide(
            unit, fault, self.resilience, self.batch, error=exc,
            pair_index=getattr(exc, "pair_index", None)))

    def _apply(self, queue: deque, outcome: BatchOutcome,
               deadline: Deadline, actions: list[policy.Action]) -> None:
        """Carry out a :func:`~repro.resilience.policy.decide` decision:
        count and announce each action, sleep a retry's backoff (the
        one place the supervisor sleeps), queue the children and record
        the terminal failures."""
        for action in actions:
            kind, units, failures = action.kind, action.units, action.failures
            if kind == "retry":
                self._count(outcome, "retries")
                self._emit("retry", pairs=len(units[0].indices),
                           attempt=units[0].attempt)
                delay = min(action.delay, deadline.remaining())
                if delay > 0:
                    time.sleep(delay)
            elif kind == "bisect":
                self._count(outcome, "bisections")
                self._emit("bisect", pairs=sum(len(unit.indices)
                                               for unit in units),
                           fault=units[0].fault)
            elif kind == "isolate":
                outcome.bump("isolations")
            elif kind == "degrade":
                rung = units[0].rungs[-1]
                self._count(outcome, "degraded", rung=rung)
                self._emit("degrade", index=units[0].indices[0], rung=rung,
                           fault=units[0].fault)
            queue.extend(units)
            if not failures:
                continue
            outcome.failures.extend(failures)
            self._count(outcome, "quarantined", len(failures),
                        fault=failures[0].fault)
            if kind == "quarantine":
                (failure,) = failures
                self._emit("quarantine", index=failure.index,
                           fault=failure.fault, error_type=failure.error_type,
                           attempts=failure.attempts,
                           rungs=list(failure.rungs))
                log.warning("quarantined %s", failure)
                if self.resilience.raise_on_failure:
                    raise PoisonPairError(str(failure),
                                          pair_index=failure.index,
                                          fault=failure.fault)

    # -- load shedding -----------------------------------------------------

    def _shed_unit(self, outcome: BatchOutcome, unit: Unit,
                   deadline: Deadline) -> Unit | None:
        """Trim a unit to the pairs predicted to finish in the budget.

        When the cost model says the unit cannot complete inside
        ``deadline.remaining() / SHED_SAFETY``, the predicted-cost tail
        is shed up front as ``"deadline"`` failures (error type
        ``LoadShed``). Returns the trimmed unit, or ``None`` when every
        pair was shed. No-op without a bounded deadline."""
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
        # Cheapest first, while the running total fits the budget.
        order = sorted(range(len(costs)), key=lambda one: (costs[one], one))
        fits = sum(1 for total in itertools.accumulate(
            costs[one] for one in order) if total <= budget)
        kept, shed = sorted(order[:fits]), sorted(order[fits:])
        outcome.failures.extend(
            PairFailure(index=unit.indices[local], fault="deadline",
                        error_type="LoadShed", message="shed: predicted "
                        "cost exceeds the remaining deadline",
                        attempts=unit.attempt, rungs=unit.rungs)
            for local in shed)
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

    def _validate_unit(self, unit: Unit,
                       results: list[AlignerResult]) -> list[int]:
        """Local indices whose results fail integrity checks."""
        if not self.resilience.validate:
            return []
        if self.batch.traceback:
            flagged: list[int] = []
            for local, result in enumerate(results):
                if result.alignment is not None:
                    try:
                        result.alignment.validate(
                            *self._pairs[unit.indices[local]],
                            self.config.model)
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
        return [local for local, (got, want) in enumerate(zip(results, clean))
                if got.score != want.score]

    def _absorb(self, queue: deque, outcome: BatchOutcome, unit: Unit,
                results: list[AlignerResult], deadline: Deadline) -> None:
        """Bank a unit's results; peel off corrupt / promotable pairs."""
        flagged = set(self._validate_unit(unit, results))
        for local in sorted(flagged):
            self._failed(queue, outcome, unit.only(unit.indices[local]),
                         AlignmentError("result failed validation"),
                         deadline, fault="bitflip")
        for local, result in enumerate(results):
            if local in flagged:
                continue
            index = unit.indices[local]
            if result.failed:
                # A heuristic gave up (band too narrow / path pruned):
                # the policy promotes the pair to the exact aligner, or
                # the result stands.
                promotion = policy.decide(
                    unit.only(index), "alignment", self.resilience,
                    self.batch, gave_up=True)
                if promotion:
                    self._apply(queue, outcome, deadline, promotion)
                    continue
            outcome.results[index] = result
            self._fresh.append(index)
            if unit.rungs:
                outcome.degraded[index] = unit.rungs

    # -- checkpoint / resume ----------------------------------------------

    @staticmethod
    def _unit_from_doc(doc: dict) -> Unit:
        return Unit([int(i) for i in doc["indices"]],
                    int(doc.get("attempt", 0)), int(doc.get("retries", 0)),
                    tuple(doc.get("rungs") or ()), doc.get("fault"))

    def _write_document(self, outcome: BatchOutcome, queue: deque,
                        complete: bool) -> None:
        """A full checkpoint document: the base this run's journal
        extends, or the final ``complete`` one -- never per settle."""
        if self._journal is None:
            return
        write = self._journal.finish if complete else self._journal.begin
        write(outcome_io.to_document(
            outcome, pairs=len(self._pairs), complete=complete,
            queue=[asdict(unit) for unit in queue],
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
                [asdict(unit) for unit in queue],
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
            pairs: The full submitted batch (on resume too: the
                checkpoint names which indices still need work).
            checkpoint_path: Keep an ``smx-outcome/1`` checkpoint here:
                a base document, one ``.journal`` line per settled unit,
                and a final ``complete`` document.
            resume: A :class:`~repro.resilience.outcome_io.Checkpoint`
                (or path to one) from a killed run; only its unfinished
                remainder re-runs.
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
        self._wave_pending: list[Unit] = []
        self._fresh: list[int] = []
        queue: deque[Unit] = deque()
        if resume is not None:
            checkpoint = self._load_resume(resume)
            outcome = checkpoint.outcome
            queue.extend(self._unit_from_doc(doc)
                         for doc in checkpoint.queue)
            wave = [Unit(indices=list(indices))
                    for indices in checkpoint.remaining]
        else:
            outcome = BatchOutcome(results=[None] * len(self._pairs))
            wave = [Unit(indices=indices) for indices in cut_units(
                self._pairs, self.resilience.max_unit_pairs, self.batch)]
        if not self._pairs:
            self._write_document(outcome, queue, complete=True)
            return outcome
        deadline = Deadline.after(self.resilience.deadline_s
                                  or self.batch.deadline_s)
        self._shed_model = (self.resilience.cost_model
                            or CostModel.from_profile(self.obs.profiler))
        self._width = max(1, min(self.batch.workers, len(wave)))
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

    def _run_wave(self, wave: list[Unit], queue: deque,
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
                self._apply(queue, outcome, deadline, policy.decide(
                    unit, "deadline", self.resilience, self.batch,
                    ran=False))
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
            if deadline.expired:  # before the unit started
                self._apply(queue, outcome, deadline, policy.decide(
                    unit, "deadline", self.resilience, self.batch,
                    ran=False))
            elif unit := self._shed_unit(outcome, unit, deadline):
                elapsed = self._collect(queue, outcome, unit, deadline)
                if elapsed is not None:
                    self._emit("unit_done", pairs=len(unit.indices),
                               attempt=unit.attempt,
                               rung=unit.rungs[-1] if unit.rungs else None,
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
    supervision = resilience or ResilienceConfig()
    if deadline_s is not None and supervision.deadline_s is None:
        supervision = replace(supervision, deadline_s=deadline_s)
    return SupervisedEngine(config, batch, supervision, obs=obs).run(pairs)


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

