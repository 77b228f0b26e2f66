"""The alignment service daemon: lease, price, run, settle, resume.

``repro serve`` drives one :class:`AlignmentDaemon` over a
:class:`~repro.service.spool.JobSpool`:

1. **Ingest** -- every pending job file is parsed
   (:mod:`repro.service.protocol`; unparseable files settle as
   ``malformed`` rejections) and priced by the
   :class:`~repro.service.admission.AdmissionController` against its
   declared deadline and the backlog already admitted. Rejected jobs
   settle immediately with a ``.rejected.json`` record and exactly one
   ``job_rejected`` event -- they never start a shard. Accepted jobs
   join the weighted-fair picker.
2. **Run** -- the picked job is leased (atomic rename into
   ``running/``) and executed by a
   :class:`~repro.resilience.SupervisedEngine` with an incremental
   ``smx-outcome/1`` checkpoint beside it, streaming the same
   ``smx-events/1`` telemetry ``repro monitor`` already renders.
3. **Settle** -- checkpoint and job file move to ``done/``.

Crash safety is inherited, not bolted on: a SIGKILL at any instant
leaves either a pending file (re-ingested next start), or a running
file plus its last checkpoint (:meth:`AlignmentDaemon.recover` resumes
it from the incomplete remainder -- bit-identical to an uninterrupted
run, see :mod:`repro.resilience.supervisor`), or a settled record.
No state lives anywhere but the spool.
"""

from __future__ import annotations

import os
import time

from repro import obs as obs_module
from repro.config import standard_configs
from repro.errors import ConfigurationError, EncodingError
from repro.exec.engine import BatchConfig
from repro.service.admission import (
    AdmissionController,
    AdmissionPolicy,
    FairPicker,
)
from repro.service.spool import JobSpool


class AlignmentDaemon:
    """One daemon process serving jobs from one spool.

    Args:
        spool: The durable queue to serve (or a root path).
        obs: Observability context; the daemon emits ``job_*`` events
            and ``service.*`` metrics through it, and hands it to every
            engine run so per-shard telemetry lands in the same stream.
        policy: Admission knobs (queue depth, safety factor).
        cost_model: Pricing model for admission; defaults to the
            conservative built-in rate.
        max_unit_pairs: Checkpoint granularity forwarded to
            :class:`~repro.resilience.ResilienceConfig` -- smaller
            units mean finer-grained resume at one more journal line
            each. Units follow the engine's bucket order, not
            submission order.
        plan: Optional chaos plan forwarded to every engine run (tests
            use ``kill_at_unit`` to SIGKILL the daemon deterministically
            mid-job).
        telemetry: Optional
            :class:`~repro.obs.timeseries.TimeSeriesStore` ticked once
            per serve-loop iteration; every sealed window runs through
            the anomaly ``detector`` (structured ``alert`` events) and
            triggers a flush of ``telemetry_path`` (the store's JSON
            document) and ``metrics_path`` (Prometheus textfile), both
            write-then-rename.
        detector: Anomaly detector fed each sealed window; defaults to
            :class:`~repro.obs.anomaly.AnomalyDetector` when
            ``telemetry`` is given.
    """

    def __init__(self, spool: JobSpool | str, *,
                 obs: "obs_module.Observability | None" = None,
                 policy: AdmissionPolicy | None = None,
                 cost_model=None, max_unit_pairs: int | None = 32,
                 plan=None, telemetry=None, detector=None,
                 telemetry_path: str | None = None,
                 metrics_path: str | None = None) -> None:
        self.spool = (spool if isinstance(spool, JobSpool)
                      else JobSpool(spool))
        self.obs = obs if obs is not None else obs_module.get_obs()
        self.admission = AdmissionController(policy, cost_model)
        self.max_unit_pairs = max_unit_pairs
        self.plan = plan
        self.picker = FairPicker()
        self.telemetry = telemetry
        if detector is None and telemetry is not None:
            from repro.obs.anomaly import AnomalyDetector
            detector = AnomalyDetector()
        self.detector = detector
        self.telemetry_path = telemetry_path
        self.metrics_path = metrics_path
        self._backlog_s = 0.0
        self._predicted: dict[str, float] = {}
        #: Pending paths already admitted and not yet leased: ingest
        #: skips them by name, before parsing.
        self._admitted: set[str] = set()
        self._running_tenant: str | None = None
        self._gauged_tenants: set[str] = set()
        self._last_depths: dict[str, int] | None = None
        self.settled = 0
        self.alerts = 0

    # -- events / metrics ----------------------------------------------

    def _emit(self, kind: str, **fields) -> None:
        self.obs.events.emit(kind, **fields)

    def _gauge_depth(self) -> None:
        """Refresh ``service.queue_depth`` (pending + running): the
        unlabeled total plus one gauge per tenant. Tenants that drain
        to empty are gauged back to zero, not left stale."""
        depths = self.picker.depths()
        if self._running_tenant is not None:
            depths[self._running_tenant] = \
                depths.get(self._running_tenant, 0) + 1
        total = sum(depths.values())
        self.obs.metrics.gauge("service.queue_depth").set(total)
        for tenant in self._gauged_tenants - set(depths):
            self.obs.metrics.gauge("service.queue_depth",
                                   tenant=tenant).set(0)
        for tenant, depth in depths.items():
            self.obs.metrics.gauge("service.queue_depth",
                                   tenant=tenant).set(depth)
        self._gauged_tenants |= set(depths)
        if depths != self._last_depths:
            self._last_depths = dict(depths)
            self._emit("queue", depth=total,
                       tenants={t: depths[t] for t in sorted(depths)})

    # -- telemetry ------------------------------------------------------

    def sample_telemetry(self, *, flush: bool = False) -> list:
        """Tick the time-series store once (one serve-loop sample).

        Sealed windows run through the anomaly detector; each alert is
        re-emitted as a structured ``alert`` event. Window seals (or
        ``flush=True``) persist the store document and the Prometheus
        textfile atomically. Returns the sealed windows.
        """
        if self.telemetry is None:
            return []
        self._gauge_depth()
        sealed = self.telemetry.tick(self.obs.metrics)
        for window in sealed:
            if self.detector is None:
                continue
            for alert in self.detector.ingest_window(window):
                self.alerts += 1
                self._emit("alert", **alert.to_dict())
        if sealed or flush:
            if self.telemetry_path:
                self.telemetry.save(self.telemetry_path)
            if self.metrics_path:
                from repro.obs import export
                export.write_textfile(self.metrics_path,
                                      self.obs.metrics)
        return sealed

    # -- recovery ------------------------------------------------------

    def recover(self) -> list[str]:
        """Re-admit jobs orphaned in ``running/`` by a dead daemon.

        Orphans skip admission (they were already admitted once) and
        rejoin the fair picker carrying their running path, so the run
        step resumes from the on-disk checkpoint instead of starting
        over. Returns the recovered job ids.
        """
        from repro.service import protocol
        recovered = []
        for running_path in self.spool.orphaned():
            try:
                job = protocol.load_job(running_path)
            except ValueError as exc:
                stem = os.path.basename(running_path)[:-len(".json")]
                self.spool.fail(running_path, stem,
                                {"job_id": stem, "reason": "malformed",
                                 "detail": str(exc)})
                self.obs.metrics.counter("service.jobs",
                                         verdict="failed").inc()
                self._emit("job_failed", job_id=stem,
                           reason="malformed", detail=str(exc))
                continue
            predicted = self.admission.price(job)
            self._predicted[job.job_id] = predicted
            self._backlog_s += predicted
            self.picker.add(job.tenant, job.priority,
                            (job, running_path))
            recovered.append(job.job_id)
            self._emit("job_pending", job_id=job.job_id,
                       tenant=job.tenant, recovered=True,
                       predicted_s=round(predicted, 6))
        self._gauge_depth()
        return recovered

    # -- ingest --------------------------------------------------------

    def ingest(self) -> int:
        """Admit (or reject) every pending job; returns admitted count."""
        from repro.service import protocol
        admitted = 0
        for pending_path in self.spool.pending_jobs():
            if pending_path in self._admitted:
                continue
            try:
                job = protocol.load_job(pending_path)
            except ValueError as exc:
                self.spool.discard_malformed(pending_path, str(exc))
                self.obs.metrics.counter("service.jobs",
                                         verdict="rejected").inc()
                self._emit("job_rejected",
                           job_id=os.path.basename(pending_path),
                           reason="malformed", detail=str(exc))
                continue
            if job.job_id in self._predicted:
                # A recovered orphan of the same id is still in flight:
                # admitting this file too would double the backlog.
                continue
            if job.config not in standard_configs():
                self._reject(pending_path, job, reason="bad-config")
                continue
            verdict = self.admission.decide(
                job, queue_depth=len(self.picker),
                backlog_s=self._backlog_s)
            if verdict is not None:
                self._reject(pending_path, job, record=verdict.to_dict())
                continue
            predicted = self.admission.price(job)
            self._predicted[job.job_id] = predicted
            self._backlog_s += predicted
            self._admitted.add(pending_path)
            self.picker.add(job.tenant, job.priority,
                            (job, pending_path))
            admitted += 1
            self._emit("job_pending", job_id=job.job_id,
                       tenant=job.tenant,
                       predicted_s=round(predicted, 6),
                       queue_depth=len(self.picker))
        self._gauge_depth()
        return admitted

    def _reject(self, pending_path: str, job, *, reason: str = "",
                record: dict | None = None) -> None:
        if record is None:
            record = {"job_id": job.job_id, "tenant": job.tenant,
                      "reason": reason,
                      "predicted_s": 0.0, "deadline_s": job.deadline_s,
                      "queue_depth": len(self.picker)}
        self.spool.reject(pending_path, job.job_id, record)
        self.obs.metrics.counter("service.jobs", verdict="rejected",
                                 tenant=job.tenant).inc()
        self._emit("job_rejected", **record)

    # -- run -----------------------------------------------------------

    def run_next(self) -> bool:
        """Lease and run the fair picker's next job; True when one ran."""
        picked = self.picker.pop()
        if picked is None:
            return False
        _, (job, path) = picked
        self._admitted.discard(path)
        self._backlog_s = max(
            0.0, self._backlog_s - self._predicted.pop(job.job_id, 0.0))
        self._gauge_depth()
        in_running = os.sep + "running" + os.sep in path
        running_path = path if in_running else self.spool.lease(path)
        if running_path is None:  # lost the lease race
            return True
        self._run_job(running_path, job, resumed=in_running)
        return True

    def _run_job(self, running_path: str, job, *,
                 resumed: bool) -> None:
        from repro.resilience import (
            ResilienceConfig,
            SupervisedEngine,
            outcome_io,
        )
        checkpoint = self.spool.checkpoint_path(job.job_id)
        resume = None
        if resumed and os.path.exists(checkpoint):
            try:
                loaded = outcome_io.load(checkpoint)
                if not loaded.complete:
                    resume = loaded
            except ValueError:
                # Unreadable checkpoint or journal: start over.
                self.spool.drop_checkpoint(job.job_id)
        self._emit("job_start", job_id=job.job_id, tenant=job.tenant,
                   pairs=len(job.pairs), engine=job.engine,
                   resumed=resume is not None)
        started = time.perf_counter()
        self._running_tenant = job.tenant
        self._gauge_depth()
        try:
            config = standard_configs()[job.config]
            encoded = config.encode_pairs(job.pairs)
            batch = BatchConfig(engine=job.engine, mode=job.mode,
                                traceback=job.traceback,
                                workers=job.workers)
            engine = SupervisedEngine(
                config, batch,
                ResilienceConfig(max_unit_pairs=self.max_unit_pairs,
                                 validate=self.plan is not None),
                obs=self.obs, plan=self.plan, tenant=job.tenant)
            outcome = engine.run(encoded, checkpoint_path=checkpoint,
                                 resume=resume)
        except (ConfigurationError, EncodingError, ValueError) as exc:
            self.spool.fail(running_path, job.job_id,
                            {"job_id": job.job_id, "tenant": job.tenant,
                             "reason": type(exc).__name__,
                             "detail": str(exc)})
            self.settled += 1
            self.obs.metrics.counter("service.jobs", verdict="failed",
                                     tenant=job.tenant).inc()
            self._emit("job_failed", job_id=job.job_id,
                       reason=type(exc).__name__, detail=str(exc))
            return
        finally:
            self._running_tenant = None
            self._gauge_depth()
        elapsed = time.perf_counter() - started
        self.spool.complete(running_path, job.job_id)
        self.settled += 1
        self.obs.metrics.counter("service.jobs", verdict="done",
                                 tenant=job.tenant).inc()
        self.obs.metrics.distribution(
            "service.job_latency_s", tenant=job.tenant).observe(elapsed)
        self._emit("job_done", job_id=job.job_id, tenant=job.tenant,
                   completed=outcome.completed(),
                   failures=len(outcome.failures),
                   elapsed_s=round(elapsed, 6))

    # -- the executive loop --------------------------------------------

    def serve(self, *, max_jobs: int | None = None,
              idle_exit_s: float | None = None,
              poll_s: float = 0.2) -> int:
        """Serve until ``max_jobs`` are settled or the spool stays
        idle for ``idle_exit_s`` seconds; returns jobs settled."""
        self.recover()
        last_activity = time.monotonic()
        while True:
            self.ingest()
            worked = self.run_next()
            self.sample_telemetry()
            if worked:
                last_activity = time.monotonic()
                if max_jobs is not None and self.settled >= max_jobs:
                    self.sample_telemetry(flush=True)
                    return self.settled
                continue
            if (idle_exit_s is not None
                    and time.monotonic() - last_activity > idle_exit_s):
                self.sample_telemetry(flush=True)
                return self.settled
            time.sleep(poll_s)
