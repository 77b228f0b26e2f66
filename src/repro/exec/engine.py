"""Batched alignment engine: scalar loop or vectorized NumPy kernels.

:class:`BatchEngine` runs many independent (query, reference) pairs
through one alignment configuration. The ``scalar`` engine simply loops
the existing per-pair aligners; every other engine buckets pairs by
length (:mod:`repro.exec.buckets`) and drives one registered kernel
route (:mod:`repro.exec.routes`) per bucket through a single loop,
:meth:`BatchEngine._sweep` -- ``auto`` plans a route per pair and runs
each group through that same loop. All engines return the *same*
``AlignerResult`` objects -- scores, CIGARs, stats, and failure reasons
are bit-identical, which the conformance and property suites enforce.

Multi-process sharding (``BatchConfig.workers > 1``) is one strict call
into the supervisor's process pool (:mod:`repro.exec.sharding`):
results equal an inline run's, but an error inside a worker raises
:class:`~repro.errors.PoisonPairError` (naming the pair, the fault and
the original error type) instead of the bare exception, and a missed
``deadline_s`` raises :class:`~repro.errors.DeadlineExceeded`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.algorithms.affine import AffineAligner, AffineGapPenalties
from repro.algorithms.banded import BandedAligner
from repro.algorithms.base import Aligner, AlignerResult
from repro.algorithms.full import FullAligner
from repro.algorithms.local import LocalAligner, SemiGlobalAligner
from repro.config import AlignmentConfig
from repro.errors import ConfigurationError
from repro.exec import kernels, planner as planning, routes
from repro.exec.buckets import PairBatch, bucketize
from repro.exec.planner import PlannerPolicy
from repro.exec.routes import tag_pair
from repro.obs import Observability, get_obs
from repro.resilience import chaos
from repro.resilience.deadline import Deadline


@dataclass(frozen=True)
class BatchConfig:
    """How a batch of alignments is executed.

    Attributes:
        engine: ``"scalar"`` (loop the per-pair aligners), a fixed
            engine from the route registry (:mod:`repro.exec.routes`)
            -- ``"vector"`` (the default: the batched kernel of
            ``algorithm``), ``"wavefront"`` (O(n*s) wavefront sweep)
            and ``"bitparallel"`` (blocked-Myers, 64 DP rows per uint64
            lane, *score only*) both need the unit-cost edit model and
            global/full -- or ``"auto"`` (the adaptive planner: per-pair
            routing between those kernels, bit-identical to the full
            vector engine).
        mode: ``"global"``, ``"local"`` or ``"semiglobal"``; the latter
            two require ``algorithm="full"``.
        algorithm: ``"full"``, ``"affine"`` or ``"banded"`` (global
            mode only for the last two).
        traceback: Produce full alignments (CIGARs) instead of scores.
        workers: Shard across this many worker processes when > 1.
        bucket_granularity: Finest length rounding of bucket keys;
            :func:`~repro.exec.buckets.bucketize` merges adjacent keys
            whose one sweep costs less than two.
        max_batch_cells: Cap on resident DP cells per vectorized
            traceback chunk (kept move bits and the walk group that
            shares them, banded corridor, or affine matrices).
        band_width / band_fraction: Banded half-width (exactly one).
        affine_penalties: Gap parameters for ``algorithm="affine"``.
        deadline_s: Cooperative per-call budget: the engine checks the
            clock between buckets (vector) / pairs (scalar) and raises
            :class:`~repro.errors.DeadlineExceeded` once it expires.
            For partial results instead of a raise, run through the
            supervised layer (:mod:`repro.resilience`).
        wide_dtype: Force the vectorized kernels onto full-width int64
            rows, bypassing the int-narrowed fast path (the
            degradation ladder sets this after a range/overflow trip).
        wavefront_max_score: Distance cap of the ``"wavefront"``
            engine's sweep; pairs whose edit distance exceeds it fall
            back to the full vector kernel (the scalar aligner raises
            instead). ``None`` never caps.
        planner: Routing policy of the ``"auto"`` engine; ``None``
            uses :class:`~repro.exec.planner.PlannerPolicy` defaults.
    """

    engine: str = "vector"
    mode: str = "global"
    algorithm: str = "full"
    traceback: bool = True
    workers: int = 1
    bucket_granularity: int = 16
    max_batch_cells: int = 8_000_000
    band_width: int | None = None
    band_fraction: float | None = None
    affine_penalties: AffineGapPenalties | None = None
    deadline_s: float | None = None
    wide_dtype: bool = False
    wavefront_max_score: int | None = None
    planner: PlannerPolicy | None = None

    def __post_init__(self) -> None:
        for knob, names in (("engine", routes.engines()),
                            ("mode", routes.modes()),
                            ("algorithm", routes.algorithms())):
            if getattr(self, knob) not in names:
                raise ConfigurationError(
                    f"unknown {knob} {getattr(self, knob)!r}; choose from "
                    f"{names}")
        if self.mode != "global" and self.algorithm != "full":
            raise ConfigurationError(
                f"mode {self.mode!r} only supports algorithm='full', "
                f"got {self.algorithm!r}")
        if self.algorithm == "banded" and \
                (self.band_width is None) == (self.band_fraction is None):
            raise ConfigurationError(
                "banded batches need exactly one of band_width / "
                "band_fraction")
        if self.algorithm == "affine" and self.affine_penalties is None:
            raise ConfigurationError(
                "algorithm='affine' needs affine_penalties")
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}")
        if self.max_batch_cells < 1:
            raise ConfigurationError(
                f"max_batch_cells must be >= 1, got {self.max_batch_cells}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(
                f"deadline_s must be > 0 seconds, got {self.deadline_s}")
        route = routes.for_engine(self.engine, self.algorithm)
        if self.engine == "auto":   # plans over global/full routes only
            supported = (self.mode, self.algorithm) == ("global", "full")
        else:
            supported = self.engine == "scalar" or (
                route is not None and self.mode in route.modes)
        if not supported:
            raise ConfigurationError(
                f"engine {self.engine!r} supports mode='global' with "
                f"algorithm='full' only, got mode={self.mode!r}, "
                f"algorithm={self.algorithm!r}")
        if route is not None and route.score_only and self.traceback:
            raise ConfigurationError(
                f"engine {self.engine!r} is score-only "
                f"({route.score_only}); set traceback=False or use "
                "engine='wavefront' / 'auto' for CIGARs")
        if self.wavefront_max_score is not None and \
                self.wavefront_max_score < 1:
            raise ConfigurationError(
                "wavefront_max_score must be >= 1, got "
                f"{self.wavefront_max_score}")


def make_scalar_aligner(batch: BatchConfig) -> Aligner:
    """The per-pair aligner a batch configuration corresponds to."""
    if batch.mode == "local":
        return LocalAligner()
    if batch.mode == "semiglobal":
        return SemiGlobalAligner()
    if batch.algorithm == "full":
        return FullAligner()
    if batch.algorithm == "affine":
        return AffineAligner(batch.affine_penalties)
    return BandedAligner(width=batch.band_width,
                         fraction=batch.band_fraction)


def _as_pairs(pairs) -> list[tuple[np.ndarray, np.ndarray]]:
    coerced = []
    for q_codes, r_codes in pairs:
        coerced.append((np.asarray(q_codes, dtype=np.uint8),
                        np.asarray(r_codes, dtype=np.uint8)))
    return coerced


@dataclass
class _Job:
    """One ``run()`` call, as the passes of the bucket loop share it."""

    pairs: list
    results: list
    deadline: Deadline
    done: int = 0


class BatchEngine:
    """Executes batches of pairwise alignments under one scoring model.

    Args:
        config: The alignment problem (alphabet + scoring model).
        batch: Execution policy; defaults to the vector engine with
            tracebacks in global/full mode.
        obs: Observability context; defaults to the process-global one.
    """

    def __init__(self, config: AlignmentConfig,
                 batch: BatchConfig | None = None,
                 obs: Observability | None = None) -> None:
        self.config = config
        self.batch = batch or BatchConfig()
        self.obs = obs or get_obs()

    # -- public entry points -----------------------------------------------

    def check(self) -> None:
        """Raise :class:`~repro.errors.ConfigurationError` when this
        batch's kernel route cannot run the configured scoring model
        (``scalar`` aligners and ``auto``'s planner check per pair)."""
        route = routes.for_engine(self.batch.engine, self.batch.algorithm)
        if route is not None:
            route.check(self.config.model, self.batch)

    def run(self, pairs) -> list[AlignerResult]:
        """Align every (query_codes, reference_codes) pair.

        Results come back in submission order regardless of bucketing
        or sharding. An empty request returns an empty list.
        """
        pairs = _as_pairs(pairs)
        if not pairs:
            return []
        batch = self.batch
        deadline = Deadline.after(batch.deadline_s)
        events = self.obs.events
        if events.enabled:
            events.emit("batch_start", engine=batch.engine,
                        mode=batch.mode, algorithm=batch.algorithm,
                        traceback=batch.traceback, pairs=len(pairs))
        started = time.perf_counter()
        sharded = batch.workers > 1 and len(pairs) > 1
        # A sharded parent mostly *waits* on the pool, so its phase
        # lives outside the ``exec`` subtree CostModel calibrates from;
        # the workers' own ``exec.*`` stacks merge in with the real
        # compute time.
        phase_name = "sharding.pool" if sharded else f"exec.{batch.engine}"
        with self.obs.tracer.host_span(
                "exec.run", engine=batch.engine, mode=batch.mode,
                algorithm=batch.algorithm, pairs=len(pairs)), \
                self.obs.profiler.phase(phase_name):
            if sharded:
                from repro.exec.sharding import run_sharded
                self.check()  # raises here, not once per worker pair
                results = run_sharded(self.config, batch, pairs, self.obs)
            else:
                results = self._run_inline(pairs, deadline)
                # Fault-injection hook: a no-op unless a chaos plan is
                # active for this execution. Sharded runs inject inside
                # each worker's inline engine instead.
                chaos.apply_to_results(pairs, results)
        elapsed = time.perf_counter() - started
        if not sharded:
            # Sharded runs report per shard (worker snapshots merge
            # into this registry), so the parent skips batch-level
            # counters to keep exec.pairs an exactly-once total.
            metrics = self.obs.metrics
            metrics.counter("exec.pairs",
                            engine=batch.engine).inc(len(pairs))
            metrics.counter("exec.batches", engine=batch.engine).inc()
            if elapsed > 0:
                metrics.distribution(
                    "exec.pairs_per_sec",
                    engine=batch.engine).observe(len(pairs) / elapsed)
            metrics.distribution(
                "exec.batch_latency_us",
                engine=batch.engine).observe(elapsed * 1e6)
            if metrics.enabled:
                # Per-pair work distribution: cells_computed is derived
                # from sequence lengths, never sampled, so the digest
                # merged from sharded workers is reproducible and its
                # percentiles match an offline pass over the union.
                cells_dist = metrics.distribution("exec.pair_cells",
                                                  engine=batch.engine)
                for result in results:
                    if result is not None:
                        cells_dist.observe(result.stats.cells_computed)
        if events.enabled:
            events.emit("batch_end", engine=batch.engine,
                        pairs=len(pairs), elapsed_s=round(elapsed, 6))
        return results

    def _run_inline(self, pairs, deadline: Deadline) -> list[AlignerResult]:
        batch = self.batch
        if batch.engine == "scalar":
            return self._run_scalar(pairs, deadline)
        self.check()
        job = _Job(pairs, [None] * len(pairs), deadline)
        if batch.engine == "auto":
            self._run_planned(job)
        else:
            # One route for the whole batch; pairs it rejects (a capped
            # wavefront sweep) fall back to the full kernel.
            route = routes.for_engine(batch.engine, batch.algorithm)
            fallback = self._sweep(job, route)
            if fallback:
                self.obs.metrics.counter(
                    f"exec.{route.name}.fallbacks").inc(len(fallback))
                self._sweep(job, routes.ROUTES[planning.ROUTE_FULL],
                            fallback)
        return job.results

    # -- work accounting ---------------------------------------------------

    def _account(self, cells: int, nbytes: int) -> None:
        """Attribute deterministic work units to the open profiler
        phase *and* the metric counters with one number, so flamegraph
        totals reconcile exactly with ``exec.cells``."""
        self.obs.profiler.work(cells=cells, bytes_moved=nbytes)
        engine = self.batch.engine
        self.obs.metrics.counter("exec.cells", engine=engine).inc(cells)
        self.obs.metrics.counter("exec.bytes_moved",
                                 engine=engine).inc(nbytes)

    # -- scalar path -------------------------------------------------------

    def _run_scalar(self, pairs,
                    deadline: Deadline = Deadline.unbounded(),
                    ) -> list[AlignerResult]:
        aligner = make_scalar_aligner(self.batch)
        model = self.config.model
        batch = self.batch
        observing = self.obs.enabled
        label = batch.mode if batch.mode != "global" else batch.algorithm
        events = self.obs.events
        stride = max(1, min(64, len(pairs) // 8 or 1))
        latency = self.obs.metrics.distribution("exec.pair_latency_us",
                                                engine="scalar")
        clock = time.perf_counter
        results = []
        for index, (q_codes, r_codes) in enumerate(pairs):
            deadline.check("scalar batch")
            pair_started = clock()
            with tag_pair(index), \
                    self.obs.profiler.phase(f"pair.{label}"):
                if batch.traceback:
                    result = aligner.align(q_codes, r_codes, model)
                else:
                    result = aligner.compute_score(q_codes, r_codes, model)
                if observing:
                    cells = result.stats.cells_computed
                    self._account(cells, 8 * cells)
            latency.observe((clock() - pair_started) * 1e6)
            results.append(result)
            if events.enabled and (index + 1) % stride == 0:
                events.emit("progress", engine="scalar",
                            done=index + 1, total=len(pairs))
        return results

    # -- the one bucket loop -----------------------------------------------

    def _pieces(self, bucket: PairBatch, per_pair: int,
                even: bool) -> list[PairBatch]:
        """Slices of ``bucket`` whose ``per_pair`` resident cells each
        fit ``max_batch_cells`` (0 never splits): ``even`` ones, or
        full ones and a remainder."""
        limit = max(1, self.batch.max_batch_cells // max(1, per_pair))
        if even:
            limit = -(-bucket.size // -(-bucket.size // limit))
        return bucket.slices(limit) if per_pair else [bucket]

    def _sweep(self, job: _Job, route: routes.Route,
               positions: list[int] | None = None, *,
               keep: bool | None = None, tally: bool = True,
               **options) -> list[int]:
        """Run ``positions`` of the job (every pair when ``None``)
        through ``route``: bucketize, then per bucket the deadline
        check, the fill / latency / progress telemetry under this
        batch's engine label, and per slice one sweep (labelled and
        accounted) and one settle.

        Buckets are re-addressed to submission indices before anything
        sees them, so results land in place and a kernel-tagged
        ``AlignmentError.pair_index`` names the submitted pair.
        ``keep`` defaults to the batch's ``traceback``; ``options`` are
        the route overrides of :class:`~repro.exec.routes.Pass`.
        ``tally=False`` is for a probe whose stores a later pass
        replaces, so its pairs do not count as settled. Returns the
        positions the route rejected.
        """
        batch, obs = self.batch, self.obs
        run = routes.Pass(self.config, batch, obs, job.results,
                          batch.traceback if keep is None else keep,
                          **options)
        pairs = job.pairs
        if positions is not None:
            lift = np.asarray(positions, dtype=np.int64)
            pairs = [pairs[p] for p in positions]
        metrics, profiler, events = obs.metrics, obs.profiler, obs.events
        fill = metrics.distribution("exec.bucket_fill")
        bucket_lat = metrics.distribution("exec.bucket_latency_us",
                                          engine=batch.engine)
        pair_lat = metrics.distribution("exec.pair_latency_us",
                                        engine=batch.engine)
        rejected: list[int] = []
        for bucket in bucketize(pairs, batch.bucket_granularity):
            job.deadline.check(f"{batch.engine} batch")
            if positions is not None:
                bucket.index = lift[bucket.index]
            fill.observe(bucket.fill_ratio)
            shape = f"{bucket.n_max}x{bucket.m_max}"
            missed = len(rejected)
            started = time.perf_counter()
            with obs.tracer.host_span(
                    "exec.bucket", pairs=bucket.size, n=bucket.n_max,
                    m=bucket.m_max), profiler.phase(f"bucket[{shape}]"):
                if route.empty is not None and \
                        not (bucket.n_max and bucket.m_max):
                    route.empty(run, bucket)
                    pieces = []
                else:
                    # A full slice of kept moves is walked on its own,
                    # which spares the walk merging planes; slices kept
                    # only while they are settled are balanced instead.
                    per_pair = route.resident(run, bucket)
                    pieces = self._pieces(bucket, per_pair,
                                          even=route.walk is None)
                for piece in pieces:
                    if run.kept and kernels.walk_cells(
                            run.kept, piece, per_pair) \
                            > batch.max_batch_cells:
                        route.walk(run)
                    with profiler.phase(route.phase(run, piece)):
                        swept, cells, nbytes = route.sweep(run, piece)
                        if obs.enabled:
                            self._account(cells, nbytes)
                    rejected.extend(route.settle(run, piece, swept))
                    del swept   # kept state dies with its group walk
            elapsed_us = (time.perf_counter() - started) * 1e6
            bucket_lat.observe(elapsed_us)
            settled = bucket.size - (len(rejected) - missed) if tally else 0
            if settled:
                # Amortized per-pair latency, weighted by the pairs the
                # bucket settled so merged percentiles stay consistent
                # with pair totals.
                pair_lat.observe(elapsed_us / bucket.size, count=settled)
                job.done += settled
                if events.enabled:
                    events.emit("progress", engine=batch.engine,
                                done=job.done, total=len(job.pairs),
                                bucket=shape)
        if run.kept:
            route.walk(run)
        return rejected

    # -- adaptive planner --------------------------------------------------

    def _run_planned(self, job: _Job) -> None:
        """Adaptive planner: route each pair to the cheapest exact
        kernel. Scores, CIGARs and meta are bit-identical to the full
        vector engine; only ``DPStats`` reflect the (smaller) work
        actually done. Each route re-buckets its own pairs, so kernels
        keep dense buckets after routing."""
        batch = self.batch
        policy = batch.planner or PlannerPolicy()
        with self.obs.profiler.phase("exec.plan"):
            labels, estimates = planning.plan_routes(
                job.pairs, self.config.model, policy,
                traceback=batch.traceback)
        planned: dict[str, list[int]] = {
            label: [] for label in planning.ROUTES}
        for position, label in enumerate(labels):
            planned[label].append(position)
        metrics = self.obs.metrics
        for label, members in planned.items():
            if members:
                metrics.counter(f"exec.plan.{label}").inc(len(members))
        if self.obs.events.enabled:
            self.obs.events.emit("plan", pairs=len(job.pairs), **{
                label: len(members) for label, members in planned.items()})
        demoted: list[int] = []
        if planned[planning.ROUTE_WAVEFRONT]:
            demoted += self._probe_then_replay(
                job, planned[planning.ROUTE_WAVEFRONT], estimates, policy)
        if planned[planning.ROUTE_BANDED]:
            demoted += self._estimated_bands(
                job, planned[planning.ROUTE_BANDED], estimates, policy)
        if planned[planning.ROUTE_BITPARALLEL]:
            # Exact at any divergence, so nothing ever demotes.
            self._sweep(job, routes.ROUTES[planning.ROUTE_BITPARALLEL],
                        planned[planning.ROUTE_BITPARALLEL])
        if demoted:
            metrics.counter("exec.plan.demoted").inc(len(demoted))
        full = planned[planning.ROUTE_FULL] + demoted
        if full:
            self._sweep(job, routes.ROUTES[planning.ROUTE_FULL], full)

    def _probe_then_replay(self, job: _Job, positions: list[int],
                           estimates: list[int],
                           policy: PlannerPolicy) -> list[int]:
        """Wavefront-routed pairs: sweep for the exact distance (capped
        probe), then -- in traceback mode -- replay each pair through a
        banded corridor certified by that distance, so the canonical
        traceback equals the full-matrix traceback bit for bit.
        Returns positions demoted to the full kernel."""
        traceback = self.batch.traceback
        # Each pair's own cap, so bucket-mates never change its route.
        caps = policy.probe_slack * np.maximum(8, np.asarray(estimates))
        demoted = self._sweep(
            job, routes.ROUTES[planning.ROUTE_WAVEFRONT], positions,
            keep=False, tally=not traceback,
            cap=lambda piece: caps[piece.index])
        if not traceback:
            return demoted
        blown, bands = set(demoted), []
        for position in positions:
            if position not in blown:
                n, m = map(len, job.pairs[position])
                half = planning.certified_half_width(
                    self.config.model, n, m, job.results[position].score)
                if half is None or half >= min(n, m):
                    demoted.append(position)
                else:
                    bands.append((position, planning.width_class(half)))
        return demoted + self._widen_until_certified(job, bands)

    def _estimated_bands(self, job: _Job, positions: list[int],
                         estimates: list[int],
                         policy: PlannerPolicy) -> list[int]:
        """Banded-routed pairs: a corridor sized from the estimated
        distance, certified or widened. Returns demoted positions."""
        demoted, bands = [], []
        for position in positions:
            n, m = map(len, job.pairs[position])
            half = planning.width_class(
                abs(m - n) + estimates[position] + policy.band_slack)
            if half >= min(n, m):
                demoted.append(position)
            else:
                bands.append((position, half))
        return demoted + self._widen_until_certified(job, bands)

    def _widen_until_certified(self, job: _Job,
                               bands: list[tuple[int, int]]) -> list[int]:
        """Sweep each ``(position, half)`` in its banded corridor, one
        pass per half-width and narrowest first, until the band
        certificate proves the achieved score exact; a pair it does not
        is retried twice as wide. Returns the positions whose band
        outgrew the pair, for the full kernel."""
        model = self.config.model
        banded = routes.ROUTES[planning.ROUTE_BANDED]
        demoted: list[int] = []
        while bands:
            groups: dict[int, list[int]] = {}
            for position, half in bands:
                groups.setdefault(half, []).append(position)
            bands = []
            for half, members in sorted(groups.items()):
                for position in self._sweep(
                        job, banded, members, band=(half, None),
                        accept=lambda _position, n, m, score, half=half:
                        planning.band_is_certified(model, n, m, score, half)):
                    if 2 * half >= min(map(len, job.pairs[position])):
                        demoted.append(position)
                    else:
                        bands.append((position, 2 * half))
        return demoted
