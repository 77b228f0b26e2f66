"""Traced pass: times the calls into each layer's public functions.

All spans are recorded here, around calls made from the benchmark;
nothing inside ``repro`` is changed or wrapped. The layers are peeled
as an onion on identical inputs -- the same encoded pairs go through
the engine alone, the engine under the supervisor, the supervisor with
32-pair units, the supervisor with a checkpoint, and the daemon -- so
each layer's self time is the difference between two neighbouring
walls. Inside ``BatchEngine.run`` the split comes from the profiler
ledger of one extra run under ``Observability.enabled_context``.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import statistics
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np

import workloads
from repro import api
from repro.exec import planner as planning
from repro.exec.bitparallel import sweep_bitparallel
from repro.exec.buckets import bucketize
from repro.exec.engine import BatchConfig, BatchEngine
from repro.exec.kernels import sweep_banded, sweep_linear
from repro.exec.sharding import run_sharded, shard_spans
from repro.exec.wavefront import sweep_wavefront
from repro.obs import Observability, get_obs
from repro.resilience import ResilienceConfig, SupervisedEngine, outcome_io
from repro.service import AdmissionController, AlignmentDaemon, JobSpool
from repro.service import protocol

REPS = 3
#: Half-width of the direct ``sweep_banded`` probe.
BAND_HALF_WIDTH = 32
#: Leaf phases of the profiler ledger that are kernel sweeps.
KERNEL_PHASES = ("linear.", "banded", "affine", "xdrop")
KERNELS = ("exec.kernels.linear", "exec.kernels.linear_keep",
           "exec.kernels.banded", "exec.wavefront", "exec.bitparallel")


class Spans:
    """In-memory span log: name, parent, repetition, start, end.

    ``delays`` maps a span name to seconds slept inside that span; the
    self-test uses it to show that a slow layer moves its own metric
    and the root and nothing else.
    """

    def __init__(self, delays: dict | None = None) -> None:
        self.rows: list[dict] = []
        self.rep = 0
        self._stack: list[str] = []
        self._delays = delays or {}

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            if name in self._delays:
                time.sleep(self._delays[name])
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.rows.append({"name": name, "parent": parent,
                              "rep": self.rep, "start": start, "end": end})

    def record(self, name: str, seconds: float,
               parent: str | None = None) -> None:
        """A duration measured elsewhere (a ledger entry, a wall the
        workload timed itself)."""
        self.rows.append({"name": name, "parent": parent, "rep": self.rep,
                          "start": 0.0, "end": seconds})

    def _per_rep(self, key: str, name: str) -> Counter:
        totals: Counter = Counter()
        for row in self.rows:
            if row[key] == name:
                totals[row["rep"]] += row["end"] - row["start"]
        return totals

    def median(self, name: str) -> float:
        """Median over repetitions of the time spent in ``name``."""
        totals = self._per_rep("name", name)
        return statistics.median(totals.values()) if totals else 0.0

    def unclaimed_share(self, name: str) -> float:
        """Share of the time in ``name`` that none of its child spans
        covers (median over repetitions)."""
        totals = self._per_rep("name", name)
        claimed = self._per_rep("parent", name)
        return statistics.median(
            (total - claimed[rep]) / total for rep, total in totals.items())

    def calls(self, name: str) -> list[float]:
        """Duration of every call of ``name``, over all repetitions."""
        return [row["end"] - row["start"] for row in self.rows
                if row["name"] == name]

    def call_median(self, name: str) -> float:
        calls = self.calls(name)
        return statistics.median(calls) if calls else 0.0


def _ratio(value: float, base: float) -> float:
    return value / base if base else 0.0


def _encode(config, pairs):
    return [(config.encode(q), config.encode(r)) for q, r in pairs]


# -- probes shared by library and service workloads ------------------------

def _profiled(spans: Spans, config, runs, counts: Counter) -> None:
    """Run each ``(BatchConfig, encoded)`` once more under an enabled
    context and read the engine's phase ledger and counters."""
    wall = 0.0
    ledger: Counter = Counter()
    for batch, encoded in runs:
        obs = Observability.enabled_context(profile=True)
        engine = BatchEngine(config, batch, obs=obs)
        started = time.perf_counter()
        engine.run(encoded)
        wall += time.perf_counter() - started
        for path, stat in obs.profiler.stacks.items():
            leaf = path[-1]
            if leaf == "exec.plan":
                ledger["plan"] += stat.wall_s
            elif leaf == "traceback":
                ledger["traceback"] += stat.wall_s
            elif leaf.startswith(KERNEL_PHASES):
                ledger["kernel"] += stat.wall_s
            counts["exec.engine.cells"] += stat.cells
            counts["exec.engine.bytes_moved"] += stat.bytes_moved
        snapshot = obs.metrics.snapshot()
        counts["exec.engine.plan_demoted"] += int(
            snapshot.get("exec.plan.demoted", 0))
        counts["exec.engine.wavefront_fallbacks"] += int(
            snapshot.get("exec.wavefront.fallbacks", 0))
    spans.record("exec.engine.profiled", wall)
    for phase in ("plan", "traceback", "kernel"):
        spans.record(f"exec.engine.{phase}", ledger[phase],
                     parent="exec.engine.run")


def _sweep(spans: Spans, config, route: str, traceback: bool, buckets,
           counts: Counter) -> None:
    """Call the kernel of ``route`` directly on ``buckets``."""
    model = config.model
    max_cells = BatchConfig().max_batch_cells
    for bucket in buckets:
        pieces = [bucket]
        if traceback:  # kept matrices are chunked as the engine does
            per_pair = (bucket.n_max + 1) * (bucket.m_max + 1)
            pieces = bucket.slices(max(1, max_cells // per_pair))
        if route == planning.ROUTE_WAVEFRONT:
            with spans.span("exec.wavefront"):
                cells = sweep_wavefront(bucket, model).cells
            counts["exec.wavefront.cells"] += int(cells.sum())
        elif route == planning.ROUTE_BITPARALLEL:
            with spans.span("exec.bitparallel"):
                cells = sweep_bitparallel(
                    bucket, n_symbols=config.alphabet.size).cells
            counts["exec.bitparallel.cells"] += int(cells.sum())
        elif route == planning.ROUTE_BANDED:
            for piece in pieces:
                with spans.span("exec.kernels.banded"):
                    _, cells, _ = sweep_banded(
                        piece, model, BAND_HALF_WIDTH, None, keep=traceback)
                counts["exec.kernels.banded.cells"] += int(cells.sum())
        else:
            name = "exec.kernels.linear_keep" if traceback \
                else "exec.kernels.linear"
            for piece in pieces:
                with spans.span(name):
                    sweep_linear(piece, model, "global", keep=traceback)
            counts[name + ".cells"] += int(
                (bucket.q_len * bucket.r_len).sum())


def _layer_probes(spans: Spans, config, engine: str, units,
                  counts: Counter) -> None:
    """Planner, bucketing and kernels on each ``(traceback, encoded)``
    unit: the whole batch for a library call, one supervisor unit at a
    time for the service (which is what fragments its buckets)."""
    granularity = BatchConfig().bucket_granularity
    for traceback, encoded in units:
        with spans.span("exec.buckets.bucketize"):
            buckets = bucketize(encoded, granularity)
        counts["exec.buckets.count"] += len(buckets)
        for bucket in buckets:
            padded = bucket.size * (bucket.n_max + 1) * (bucket.m_max + 1)
            counts["buckets.padded"] += padded
            counts["buckets.useful"] += round(bucket.fill_ratio * padded)
        if engine != "auto":
            _sweep(spans, config, planning.ROUTE_FULL, traceback, buckets,
                   counts)
            continue
        with spans.span("exec.planner.plan"):
            routes, _ = planning.plan_routes(
                encoded, config.model, planning.PlannerPolicy(),
                traceback=traceback)
        for route in planning.ROUTES:
            members = [pair for pair, chosen in zip(encoded, routes)
                       if chosen == route]
            counts[f"route.{route}"] += len(members)
            if members:
                _sweep(spans, config, route, traceback,
                       bucketize(members, granularity), counts)


def _shared_metrics(spans: Spans, counts: Counter, pairs: int,
                    cigar_pairs: int) -> dict:
    run = spans.median("exec.engine.run")
    # The ledger belongs to the profiled run, so the four parts are
    # taken against its wall and sum to it; obs.enabled_overhead says
    # how far that wall is from run_s.
    profiled = spans.median("exec.engine.profiled")
    kernel = spans.median("exec.engine.kernel")
    traceback = spans.median("exec.engine.traceback")
    plan = spans.median("exec.engine.plan")
    metrics = {
        "api.encode_s": spans.median("api.encode"),
        "exec.planner.plan_s": spans.median("exec.planner.plan"),
        "exec.buckets.bucketize_s": spans.median("exec.buckets.bucketize"),
        "exec.buckets.count": counts["exec.buckets.count"],
        "exec.buckets.fill_ratio": _ratio(counts["buckets.useful"],
                                          counts["buckets.padded"]),
        "dp.traceback.us_per_pair": 1e6 * _ratio(traceback, cigar_pairs),
        "exec.engine.run_s": run,
        "exec.engine.kernel_s": kernel,
        "exec.engine.traceback_s": traceback,
        "exec.engine.plan_s": plan,
        "exec.engine.self_s": profiled - kernel - traceback - plan,
        "exec.engine.kernel_fraction": _ratio(kernel, profiled),
        "obs.enabled_overhead": _ratio(profiled, run),
        "bench.trace_overhead": _ratio(spans.median("replay"),
                                       spans.median("untraced")),
        "bench.unattributed_share": spans.unclaimed_share("replay"),
    }
    for route in planning.ROUTES:
        metrics[f"exec.planner.route_share.{route}"] = \
            counts[f"route.{route}"] / pairs
    for name in KERNELS:
        cells = counts[name + ".cells"]
        metrics[name + ".cups"] = _ratio(cells, spans.median(name))
        metrics[name + ".cells"] = cells
    for name in ("cells", "bytes_moved", "plan_demoted",
                 "wavefront_fallbacks"):
        metrics["exec.engine." + name] = counts["exec.engine." + name]
    return metrics


# -- library workloads ----------------------------------------------------

def _library_rep(spans: Spans, state, counts: Counter) -> None:
    workload = state.workload
    config = api.PRESETS[workload.preset]()
    inline = BatchConfig(engine=workload.engine,
                         traceback=workload.traceback)
    spans.record("untraced", workloads.run_once(state).wall)
    with spans.span("replay"):
        with spans.span("api.encode"):
            encoded = _encode(config, state.pairs)
        if workload.workers > 1:
            with spans.span("exec.sharding.run"):
                results = run_sharded(
                    config, replace(inline, workers=workload.workers),
                    encoded, get_obs())
        else:
            with spans.span("exec.engine.run"):
                results = BatchEngine(config, inline).run(encoded)
        with spans.span("api.results"):
            [result.alignment if workload.traceback else result.score
             for result in results]
    if workload.workers > 1:
        with spans.span("exec.engine.run"):  # single-process baseline
            results = BatchEngine(config, inline).run(encoded)
        _sharding_probes(spans, config, inline, workload.workers, encoded,
                         results, counts)
    _profiled(spans, config, [(inline, encoded)], counts)
    _layer_probes(spans, config, workload.engine,
                  [(workload.traceback, encoded)], counts)


def _sharding_probes(spans: Spans, config, inline, workers: int, encoded,
                     results, counts: Counter) -> None:
    with spans.span("exec.sharding.pool_start"):
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(os.getpid) for _ in range(workers)]:
                future.result()
    for start, stop in shard_spans(len(encoded), workers):
        # What run_sharded hands to pool.submit, and what comes back.
        call = (config, inline, encoded[start:stop], False, None, None)
        with spans.span("exec.sharding.pickle"):
            sent = pickle.dumps(call)
            pickle.loads(sent)
            returned = pickle.dumps(results[start:stop])
            pickle.loads(returned)
        counts["exec.sharding.pickle_out_bytes"] += len(sent)
        counts["exec.sharding.pickle_in_bytes"] += len(returned)


def _library_metrics(spans: Spans, counts: Counter, state) -> dict:
    pairs = len(state.pairs)
    metrics = _shared_metrics(spans, counts, pairs,
                              pairs * state.workload.traceback)
    sharded = spans.median("exec.sharding.run")
    pickle_s = spans.median("exec.sharding.pickle")
    metrics.update({
        "exec.sharding.run_s": sharded,
        "exec.sharding.speedup": _ratio(
            spans.median("exec.engine.run"), sharded),
        "exec.sharding.pickle_out_bytes":
            counts["exec.sharding.pickle_out_bytes"],
        "exec.sharding.pickle_in_bytes":
            counts["exec.sharding.pickle_in_bytes"],
        "exec.sharding.pickle_s": pickle_s,
        "exec.sharding.pickle_share": _ratio(pickle_s, sharded),
        "exec.sharding.pool_start_s":
            spans.median("exec.sharding.pool_start"),
    })
    return metrics


# -- the service workload -------------------------------------------------

def _job_batch(job) -> BatchConfig:
    """The engine configuration the daemon builds for ``job``."""
    return BatchConfig(engine=job.engine, mode=job.mode,
                       traceback=job.traceback, workers=job.workers)


def _supervised(spans: Spans, name: str, config, jobs, encoded, unit,
                directory: str | None = None) -> list:
    """Every job through ``SupervisedEngine`` as the daemon builds it."""
    outcomes = []
    with spans.span(name):
        for job in jobs:
            engine = SupervisedEngine(
                config, _job_batch(job),
                ResilienceConfig(max_unit_pairs=unit), tenant=job.tenant)
            path = os.path.join(directory, job.job_id + ".json") \
                if directory else None
            outcomes.append(engine.run(encoded[job.job_id],
                                       checkpoint_path=path))
    return outcomes


def _serve_rep(spans: Spans, state, counts: Counter) -> None:
    jobs = state.jobs
    config = api.PRESETS[state.workload.preset]()
    rep = workloads.run_once(state)
    spans.record("untraced", sum(rep.latencies))
    for latency in rep.latencies:
        spans.record("untraced.job", latency, parent="untraced")
    spans.record("untraced.drain", rep.wall)

    # Phase 1 again, one span per public call.
    with workloads.spool_dir() as root:
        spool = JobSpool(root)
        daemon = AlignmentDaemon(spool)
        unit = daemon.max_unit_pairs
        with spans.span("replay"):
            for job in jobs:
                with spans.span("service.spool.submit"):
                    spool.submit(job)
                with spans.span("service.daemon.ingest_one"):
                    daemon.ingest()
                with spans.span("service.daemon.run_one"):
                    daemon.run_next()
                with spans.span("resilience.outcome_io.load"):
                    workloads.load_outcome(spool, job)
        counts["resilience.outcome_io.final_doc_bytes"] += sum(
            os.path.getsize(spool.outcome_path(job.job_id)) for job in jobs)

    # Phase 2 again: a backlog of every job, drained by hand.
    with workloads.spool_dir() as root:
        spool = JobSpool(root)
        daemon = AlignmentDaemon(spool)
        for job in jobs:
            spool.submit(job)
        with spans.span("service.spool.pending_scan"):
            pending = spool.pending_jobs()
        for path in pending:
            counts["service.protocol.job_bytes"] += os.path.getsize(path)
            with spans.span("service.protocol.load_job"):
                protocol.load_job(path)
        while daemon.settled < len(jobs):
            with spans.span("service.daemon.ingest"):
                daemon.ingest()
            with spans.span("service.daemon.run_next"):
                if not daemon.run_next():
                    break
    controller = AdmissionController()
    for job in jobs:
        with spans.span("service.admission.decide"):
            controller.decide(job, queue_depth=0, backlog_s=0.0)
    spans.record("service.admission.predicted",
                 sum(controller.price(job) for job in jobs))

    # The onion below the daemon, on the same jobs.
    with spans.span("api.encode"):
        encoded = {job.job_id: _encode(config, job.pairs) for job in jobs}
    runs = [(_job_batch(job), encoded[job.job_id]) for job in jobs]
    with spans.span("exec.engine.run"):
        for batch, pairs in runs:
            BatchEngine(config, batch).run(pairs)
    _supervised(spans, "resilience.supervisor.whole", config, jobs, encoded,
                None)
    outcomes = _supervised(spans, "resilience.supervisor.units", config,
                           jobs, encoded, unit)
    counts["resilience.supervisor.retries"] += sum(
        outcome.counters.get("retries", 0) for outcome in outcomes)
    with workloads.spool_dir() as root:
        _supervised(spans, "resilience.supervisor.checkpointed", config,
                    jobs, encoded, unit, directory=root)
        for job, outcome in zip(jobs, outcomes):
            with spans.span("resilience.outcome_io.write"):
                outcome_io.write(
                    os.path.join(root, job.job_id + ".final.json"),
                    outcome_io.to_document(outcome, pairs=len(job.pairs)))

    # The library on the same pairs, for the daemon's tax.
    with spans.span("library"):
        preset = state.workload.preset
        api.align_batch([pair for job in jobs if job.traceback
                         for pair in job.pairs], preset=preset)
        api.score_batch([pair for job in jobs if not job.traceback
                         for pair in job.pairs], preset=preset)
    _profiled(spans, config, runs, counts)
    units = [(job.traceback, encoded[job.job_id][start:start + unit])
             for job in jobs for start in range(0, len(job.pairs), unit)]
    counts["resilience.supervisor.units"] += len(units)
    _layer_probes(spans, config, "vector", units, counts)


def _serve_metrics(spans: Spans, counts: Counter, state) -> dict:
    metrics = _shared_metrics(
        spans, counts, len(state.pairs), sum(state.expect_cigar))
    job_wall = spans.median("untraced")
    engine = spans.median("exec.engine.run")
    whole = spans.median("resilience.supervisor.whole")
    units = spans.median("resilience.supervisor.units")
    checkpointed = spans.median("resilience.supervisor.checkpointed")
    attributed = sum(spans.median(name) for name in (
        "service.spool.submit", "service.daemon.ingest_one",
        "resilience.outcome_io.load", "api.encode")) + checkpointed
    metrics.update({
        "resilience.supervisor.self_s": whole - engine,
        "resilience.supervisor.fragmentation_s": units - whole,
        "resilience.supervisor.units": counts["resilience.supervisor.units"],
        "resilience.supervisor.retries":
            counts["resilience.supervisor.retries"],
        "resilience.supervisor.tax": _ratio(units, engine),
        "resilience.outcome_io.checkpoint_s": checkpointed - units,
        "resilience.outcome_io.checkpoint_share":
            _ratio(checkpointed - units, job_wall),
        "resilience.outcome_io.final_doc_bytes":
            counts["resilience.outcome_io.final_doc_bytes"],
        "resilience.outcome_io.write_s":
            spans.median("resilience.outcome_io.write"),
        "resilience.outcome_io.load_s":
            spans.median("resilience.outcome_io.load"),
        "service.job_latency_p90_ms": 1e3 * float(
            np.percentile(spans.calls("untraced.job"), 90)),
        "service.spool.submit_s": spans.call_median("service.spool.submit"),
        "service.spool.pending_scan_s":
            spans.median("service.spool.pending_scan"),
        "service.protocol.load_job_s":
            spans.call_median("service.protocol.load_job"),
        "service.protocol.job_bytes": counts["service.protocol.job_bytes"],
        "service.admission.decide_s":
            spans.call_median("service.admission.decide"),
        "service.admission.predicted_over_actual": _ratio(
            spans.median("service.admission.predicted"), checkpointed),
        "service.daemon.ingest_s": spans.median("service.daemon.ingest"),
        "service.daemon.run_s": spans.median("service.daemon.run_next"),
        "service.daemon.self_s": job_wall - attributed,
        "service.daemon.tax": _ratio(spans.median("untraced.drain"),
                                     spans.median("library")),
    })
    return metrics


# -- entry point ----------------------------------------------------------

def trace(workload, seed: int, tiny: bool, delays: dict | None) -> dict:
    """Set the workload up once, make ``REPS`` traced repetitions, and
    return the metrics of the layers this workload runs (``run.py``
    reports the declared metrics of every other layer as 0)."""
    state = workloads.setup(workload, seed, tiny)
    one_rep, to_metrics = (_serve_rep, _serve_metrics) if workload.serve \
        else (_library_rep, _library_metrics)
    spans = Spans(delays)
    per_rep = []
    for spans.rep in range(REPS):
        counts: Counter = Counter()
        one_rep(spans, state, counts)
        per_rep.append(counts)
    return {
        "workload": workload.name, "seed": seed, "tiny": tiny,
        "pairs": len(state.pairs), "reps": REPS,
        "attempted": sum(len(results) for results in state.golden),
        "failed": sum(state.golden_failed), "digest": state.digest,
        "counts_repeat": all(counts == per_rep[0] for counts in per_rep),
        "metrics": to_metrics(spans, per_rep[-1], state),
        "spans": spans.rows,
    }
