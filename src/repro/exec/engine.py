"""Batched alignment engine: scalar loop or vectorized NumPy kernels.

:class:`BatchEngine` runs many independent (query, reference) pairs
through one alignment configuration. The ``scalar`` engine simply loops
the existing per-pair aligners; the ``vector`` engine buckets pairs by
length (:mod:`repro.exec.buckets`) and sweeps each bucket with the
batched kernels (:mod:`repro.exec.kernels`). Both return the *same*
``AlignerResult`` objects -- scores, CIGARs, stats, and failure reasons
are bit-identical, which the conformance and property suites enforce.

Multi-process sharding (``BatchConfig.workers > 1``) lives in
:mod:`repro.exec.sharding`.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass

import numpy as np

from repro.algorithms.affine import (
    AffineAligner,
    AffineGapPenalties,
    affine_traceback,
)
from repro.algorithms.banded import BandedAligner
from repro.algorithms.base import Aligner, AlignerResult, DPStats
from repro.algorithms.full import FullAligner
from repro.algorithms.local import (
    LocalAligner,
    SemiGlobalAligner,
    _require_positive_scores,
)
from repro.algorithms.wavefront import _check_edit_model
from repro.algorithms.xdrop import XdropAligner
from repro.config import AlignmentConfig
from repro.dp.alignment import Alignment
from repro.dp.traceback import traceback_banded, traceback_full, walk_moves
from repro.errors import AlignmentError, ConfigurationError
from repro.exec import bitparallel as bitparallel_kernel
from repro.exec import kernels, planner as planning
from repro.exec import wavefront as wavefront_kernel
from repro.exec.buckets import PairBatch, bucketize
from repro.exec.planner import PlannerPolicy
from repro.obs import Observability, get_obs
from repro.resilience import chaos
from repro.resilience.deadline import Deadline

ENGINES = ("scalar", "vector", "wavefront", "bitparallel", "auto")
MODES = ("global", "local", "semiglobal")
ALGORITHMS = ("full", "affine", "banded", "xdrop")


@dataclass(frozen=True)
class BatchConfig:
    """How a batch of alignments is executed.

    Attributes:
        engine: ``"vector"`` (batched NumPy kernels, the default),
            ``"scalar"`` (loop the per-pair aligners), ``"wavefront"``
            (batched O(n*s) wavefront sweep; unit-cost edit model and
            global/full only, bit-identical to the scalar
            ``WavefrontAligner``), ``"bitparallel"`` (batched
            blocked-Myers bit-parallel sweep, 64 DP rows per uint64
            lane; unit-cost edit model, global/full, *score only* --
            ``traceback=True`` raises) or ``"auto"`` (the adaptive
            planner: per-pair routing between wavefront, certified
            banded, bit-parallel and full kernels, bit-identical to
            the full vector engine).
        mode: ``"global"``, ``"local"`` or ``"semiglobal"``; the latter
            two require ``algorithm="full"``.
        algorithm: ``"full"``, ``"affine"``, ``"banded"`` or
            ``"xdrop"`` (global mode only for the last three).
        traceback: Produce full alignments (CIGARs) instead of scores.
        workers: Shard across this many worker processes when > 1.
        bucket_granularity: Length rounding for bucket keys.
        max_batch_cells: Cap on resident DP cells per vectorized
            traceback chunk (kept move bits and the walk group that
            shares them, banded corridor, or affine/X-drop matrices).
        band_width / band_fraction: Banded half-width (exactly one).
        xdrop / xdrop_fraction: X-drop threshold (exactly one).
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
    xdrop: int | None = None
    xdrop_fraction: float | None = None
    affine_penalties: AffineGapPenalties | None = None
    deadline_s: float | None = None
    wide_dtype: bool = False
    wavefront_max_score: int | None = None
    planner: PlannerPolicy | None = None

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown mode {self.mode!r}; choose from {MODES}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigurationError(
                f"unknown algorithm {self.algorithm!r}; choose from "
                f"{ALGORITHMS}")
        if self.mode != "global" and self.algorithm != "full":
            raise ConfigurationError(
                f"mode {self.mode!r} only supports algorithm='full', "
                f"got {self.algorithm!r}")
        if self.algorithm == "banded" and \
                (self.band_width is None) == (self.band_fraction is None):
            raise ConfigurationError(
                "banded batches need exactly one of band_width / "
                "band_fraction")
        if self.algorithm == "xdrop" and \
                (self.xdrop is None) == (self.xdrop_fraction is None):
            raise ConfigurationError(
                "xdrop batches need exactly one of xdrop / xdrop_fraction")
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
        if self.engine in ("wavefront", "bitparallel", "auto"):
            if self.mode != "global" or self.algorithm != "full":
                raise ConfigurationError(
                    f"engine {self.engine!r} supports mode='global' with "
                    f"algorithm='full' only, got mode={self.mode!r}, "
                    f"algorithm={self.algorithm!r}")
        if self.engine == "bitparallel" and self.traceback:
            raise ConfigurationError(
                "engine 'bitparallel' is score-only (the bit vectors "
                "carry no path state); set traceback=False or use "
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
    if batch.algorithm == "banded":
        return BandedAligner(width=batch.band_width,
                             fraction=batch.band_fraction)
    return XdropAligner(xdrop=batch.xdrop, fraction=batch.xdrop_fraction)


@contextlib.contextmanager
def _tag_pair(index: int):
    """Stamp the batch position onto heuristic AlignmentErrors so the
    supervised layer can quarantine the one poison pair instead of
    bisecting the whole shard."""
    try:
        yield
    except AlignmentError as exc:
        if exc.pair_index is None:
            exc.pair_index = index
        raise


def _as_pairs(pairs) -> list[tuple[np.ndarray, np.ndarray]]:
    coerced = []
    for q_codes, r_codes in pairs:
        coerced.append((np.asarray(q_codes, dtype=np.uint8),
                        np.asarray(r_codes, dtype=np.uint8)))
    return coerced


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

    # -- public entry point ------------------------------------------------

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
                results = run_sharded(self.config, batch, pairs, self.obs)
            else:
                if batch.engine == "scalar":
                    results = self._run_scalar(pairs, deadline)
                elif batch.engine == "wavefront":
                    results = self._run_wavefront(pairs, deadline)
                elif batch.engine == "bitparallel":
                    results = self._run_bitparallel(pairs, deadline)
                elif batch.engine == "auto":
                    results = self._run_auto(pairs, deadline)
                else:
                    results = self._run_vector(pairs, deadline)
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

    # -- work accounting ---------------------------------------------------

    def _latency_instruments(self, engine: str):
        """The (bucket, pair) latency distributions for one engine."""
        metrics = self.obs.metrics
        return (metrics.distribution("exec.bucket_latency_us",
                                     engine=engine),
                metrics.distribution("exec.pair_latency_us",
                                     engine=engine))

    @staticmethod
    def _observe_bucket_latency(bucket_lat, pair_lat, started: float,
                                size: int) -> None:
        """Record one bucket's wall time and its amortized per-pair
        latency (weighted by pair count so merged percentiles stay
        consistent with pair totals)."""
        elapsed_us = (time.perf_counter() - started) * 1e6
        bucket_lat.observe(elapsed_us)
        if size > 0:
            pair_lat.observe(elapsed_us / size, count=size)

    def _account(self, cells: int, itemsize: int,
                 nbytes: int | None = None) -> None:
        """Attribute deterministic work units to the open profiler
        phase *and* the metric counters with one number, so flamegraph
        totals reconcile exactly with ``exec.cells``. ``nbytes``
        overrides the ``cells * itemsize`` default for kernels whose
        traffic is not proportional to cells (the bit-parallel sweep
        moves 3 words per 64-cell block step)."""
        if nbytes is None:
            nbytes = cells * itemsize
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
            with _tag_pair(index), \
                    self.obs.profiler.phase(f"pair.{label}"):
                if batch.traceback:
                    result = aligner.align(q_codes, r_codes, model)
                else:
                    result = aligner.compute_score(q_codes, r_codes, model)
                if observing:
                    self._account(result.stats.cells_computed, 8)
            latency.observe((clock() - pair_started) * 1e6)
            results.append(result)
            if events.enabled and (index + 1) % stride == 0:
                events.emit("progress", engine="scalar",
                            done=index + 1, total=len(pairs))
        return results

    # -- vector path -------------------------------------------------------

    def _run_vector(self, pairs,
                    deadline: Deadline = Deadline.unbounded(),
                    ) -> list[AlignerResult]:
        batch = self.batch
        model = self.config.model
        if batch.mode == "local":
            _require_positive_scores(model)
        results: list[AlignerResult | None] = [None] * len(pairs)
        matrices_per_cell = 3 if batch.algorithm == "affine" else 1
        events = self.obs.events
        bucket_lat, pair_lat = self._latency_instruments("vector")
        kept: list[kernels.KeptMoves] = []
        done = 0
        for bucket in bucketize(pairs, batch.bucket_granularity):
            deadline.check("vector batch")
            self.obs.metrics.distribution(
                "exec.bucket_fill").observe(bucket.fill_ratio)
            bucket_started = time.perf_counter()
            with self.obs.tracer.host_span(
                    "exec.bucket", pairs=bucket.size, n=bucket.n_max,
                    m=bucket.m_max), \
                    self.obs.profiler.phase(
                        f"bucket[{bucket.n_max}x{bucket.m_max}]"):
                if batch.traceback and batch.algorithm == "banded":
                    for piece in self._band_slices(
                            bucket, batch.band_width, batch.band_fraction):
                        self._vector_align(piece, results, kept)
                elif batch.traceback:
                    cells = matrices_per_cell * (bucket.n_max + 1) \
                        * (bucket.m_max + 1)
                    chunk = max(1, batch.max_batch_cells // cells)
                    for piece in bucket.slices(chunk):
                        self._vector_align(piece, results, kept)
                else:
                    self._vector_score(bucket, results)
            self._observe_bucket_latency(bucket_lat, pair_lat,
                                         bucket_started, bucket.size)
            done += bucket.size
            if events.enabled:
                events.emit("progress", engine="vector", done=done,
                            total=len(pairs), bucket=f"{bucket.n_max}x"
                            f"{bucket.m_max}")
        if kept:
            self._walk_kept(kept, results)
        return results

    # -- wavefront path ----------------------------------------------------

    def _wavefront_empty(self, bucket: PairBatch,
                         results: list[AlignerResult | None]) -> None:
        """Zero-length pairs, answered exactly as the scalar
        ``WavefrontAligner``'s native empty path answers them."""
        for b, position in enumerate(bucket.index):
            n, m = int(bucket.q_len[b]), int(bucket.r_len[b])
            score = -(n + m)
            stats = DPStats(blocks=1)
            if self.batch.traceback:
                cigar = [(m, "D")] if m else ([(n, "I")] if n else [])
                alignment = Alignment(score=score, cigar=cigar,
                                      query_len=n, ref_len=m,
                                      meta={"path_cells": n + m + 1})
                results[position] = AlignerResult(
                    alignment=alignment, score=score, stats=stats)
            else:
                results[position] = AlignerResult(
                    alignment=None, score=score, stats=stats)

    def _run_wavefront(self, pairs,
                       deadline: Deadline = Deadline.unbounded(),
                       ) -> list[AlignerResult]:
        """Batched wavefront sweep; scores, CIGARs and stats are
        bit-identical to the scalar ``WavefrontAligner``. Pairs that
        blow ``wavefront_max_score`` fall back to the full vector
        kernel (exact score, canonical full-matrix CIGAR)."""
        batch = self.batch
        _check_edit_model(self.config.model)
        events = self.obs.events
        results: list[AlignerResult | None] = [None] * len(pairs)
        fallback: list[int] = []
        bucket_lat, pair_lat = self._latency_instruments("wavefront")
        done = 0
        for bucket in bucketize(pairs, batch.bucket_granularity):
            deadline.check("wavefront batch")
            self.obs.metrics.distribution(
                "exec.bucket_fill").observe(bucket.fill_ratio)
            bucket_started = time.perf_counter()
            with self.obs.tracer.host_span(
                    "exec.bucket", pairs=bucket.size, n=bucket.n_max,
                    m=bucket.m_max), \
                    self.obs.profiler.phase(
                        f"bucket[{bucket.n_max}x{bucket.m_max}]"):
                if bucket.n_max == 0 or bucket.m_max == 0:
                    self._wavefront_empty(bucket, results)
                else:
                    # Wavefront history is O(B * s^2); bound resident
                    # memory by the worst case s ~ n + m.
                    span = bucket.n_max + bucket.m_max + 1
                    per_pair = span * span if batch.traceback else span
                    chunk = max(1, batch.max_batch_cells // per_pair)
                    for piece in bucket.slices(chunk):
                        fallback.extend(
                            self._wavefront_piece(piece, results))
            self._observe_bucket_latency(bucket_lat, pair_lat,
                                         bucket_started, bucket.size)
            done += bucket.size
            if events.enabled:
                events.emit("progress", engine="wavefront", done=done,
                            total=len(pairs), bucket=f"{bucket.n_max}x"
                            f"{bucket.m_max}")
        if fallback:
            self.obs.metrics.counter(
                "exec.wavefront.fallbacks").inc(len(fallback))
            sub = self._run_vector([pairs[p] for p in fallback], deadline)
            for position, result in zip(fallback, sub):
                results[position] = result
        return results

    def _wavefront_piece(self, bucket: PairBatch,
                         results: list[AlignerResult | None]) -> list[int]:
        """Sweep one bucket slice; returns the positions that exceeded
        the distance cap and need the full-kernel fallback."""
        batch = self.batch
        with self.obs.profiler.phase("linear.wavefront"):
            sweep = wavefront_kernel.sweep_wavefront(
                bucket, self.config.model,
                max_score=batch.wavefront_max_score,
                keep=batch.traceback)
            if self.obs.enabled:
                self._account(int(np.sum(sweep.cells)), 8)
        fallback: list[int] = []
        q_len, r_len = bucket.q_len, bucket.r_len
        if batch.traceback:
            with self.obs.profiler.phase("traceback"):
                for b, position in enumerate(bucket.index):
                    position = int(position)
                    if sweep.exceeded[b]:
                        fallback.append(position)
                        continue
                    n, m = int(q_len[b]), int(r_len[b])
                    distance = int(sweep.distance[b])
                    with _tag_pair(position):
                        cigar = wavefront_kernel.wavefront_cigar(
                            sweep, b, n, m)
                    alignment = Alignment(score=-distance, cigar=cigar,
                                          query_len=n, ref_len=m)
                    stats = DPStats(cells_computed=int(sweep.cells[b]),
                                    cells_stored=int(sweep.stored[b]),
                                    blocks=1)
                    results[position] = AlignerResult(
                        alignment=alignment, score=-distance, stats=stats)
        else:
            for b, position in enumerate(bucket.index):
                position = int(position)
                if sweep.exceeded[b]:
                    fallback.append(position)
                    continue
                distance = int(sweep.distance[b])
                stats = DPStats(cells_computed=int(sweep.cells[b]),
                                cells_stored=2 * int(sweep.peak[b]),
                                blocks=1)
                results[position] = AlignerResult(
                    alignment=None, score=-distance, stats=stats)
        return fallback

    # -- bit-parallel path -------------------------------------------------

    def _run_bitparallel(self, pairs,
                         deadline: Deadline = Deadline.unbounded(),
                         ) -> list[AlignerResult]:
        """Batched blocked-Myers bit-parallel sweep (64 DP rows per
        uint64 lane, all pairs of a bucket per NumPy op). Score-only;
        distances are bit-identical to ``myers_edit_distance`` and the
        scalar ``WavefrontAligner`` at any divergence."""
        batch = self.batch
        _check_edit_model(self.config.model, "engine 'bitparallel'")
        events = self.obs.events
        results: list[AlignerResult | None] = [None] * len(pairs)
        bucket_lat, pair_lat = self._latency_instruments("bitparallel")
        done = 0
        for bucket in bucketize(pairs, batch.bucket_granularity):
            deadline.check("bitparallel batch")
            self.obs.metrics.distribution(
                "exec.bucket_fill").observe(bucket.fill_ratio)
            bucket_started = time.perf_counter()
            with self.obs.tracer.host_span(
                    "exec.bucket", pairs=bucket.size, n=bucket.n_max,
                    m=bucket.m_max), \
                    self.obs.profiler.phase(
                        f"bucket[{bucket.n_max}x{bucket.m_max}]"):
                if bucket.n_max == 0 or bucket.m_max == 0:
                    self._wavefront_empty(bucket, results)
                else:
                    self._bitparallel_bucket(bucket, results)
            self._observe_bucket_latency(bucket_lat, pair_lat,
                                         bucket_started, bucket.size)
            done += bucket.size
            if events.enabled:
                events.emit("progress", engine="bitparallel", done=done,
                            total=len(pairs), bucket=f"{bucket.n_max}x"
                            f"{bucket.m_max}")
        return results

    def _bitparallel_bucket(self, bucket: PairBatch,
                            results: list[AlignerResult | None]) -> None:
        """Sweep one bucket and store its score-only results."""
        n_symbols = self.config.alphabet.size
        with self.obs.profiler.phase("linear.bitparallel"):
            sweep = bitparallel_kernel.sweep_bitparallel(
                bucket, n_symbols=n_symbols)
            if self.obs.enabled:
                # Real traffic is per lane-word block step, not per
                # cell: 3 words (Eq gather + Pv/Mv read-modify-write)
                # cover 64 DP cells each.
                self._account(
                    int(np.sum(sweep.cells)), 8,
                    nbytes=bitparallel_kernel.WORDS_PER_BLOCK_STEP * 8
                    * int(np.sum(sweep.words)))
        state_words = bitparallel_kernel.WORDS_PER_BLOCK_STATE + n_symbols
        for b, position in enumerate(bucket.index):
            distance = int(sweep.distance[b])
            blocks = int(sweep.blocks[b])
            stats = DPStats(cells_computed=int(sweep.cells[b]),
                            cells_stored=blocks * state_words,
                            blocks=max(1, blocks))
            results[int(position)] = AlignerResult(
                alignment=None, score=-distance, stats=stats)

    # -- adaptive planner path ---------------------------------------------

    def _run_auto(self, pairs,
                  deadline: Deadline = Deadline.unbounded(),
                  ) -> list[AlignerResult]:
        """Adaptive planner: route each pair to the cheapest exact
        kernel. Scores, CIGARs and meta are bit-identical to the full
        vector engine; only ``DPStats`` reflect the (smaller) work
        actually done. Each route re-buckets its own pairs, so kernels
        keep dense buckets after routing."""
        batch = self.batch
        policy = batch.planner or PlannerPolicy()
        with self.obs.profiler.phase("exec.plan"):
            routes, estimates = planning.plan_routes(
                pairs, self.config.model, policy,
                traceback=batch.traceback)
        metrics = self.obs.metrics
        counts = {route: 0 for route in planning.ROUTES}
        for route in routes:
            counts[route] += 1
        for route, count in counts.items():
            if count:
                metrics.counter(f"exec.plan.{route}").inc(count)
        events = self.obs.events
        if events.enabled:
            events.emit("plan", pairs=len(pairs), **counts)
        results: list[AlignerResult | None] = [None] * len(pairs)
        demoted: list[int] = []
        wavefront_pos = [p for p, route in enumerate(routes)
                         if route == planning.ROUTE_WAVEFRONT]
        banded_pos = [p for p, route in enumerate(routes)
                      if route == planning.ROUTE_BANDED]
        bitparallel_pos = [p for p, route in enumerate(routes)
                           if route == planning.ROUTE_BITPARALLEL]
        full_pos = [p for p, route in enumerate(routes)
                    if route == planning.ROUTE_FULL]
        if wavefront_pos:
            demoted.extend(self._auto_wavefront(
                pairs, wavefront_pos, estimates, results, deadline))
        if banded_pos:
            demoted.extend(self._auto_banded(
                pairs, banded_pos, estimates, results, deadline))
        if bitparallel_pos:
            self._auto_bitparallel(pairs, bitparallel_pos, results,
                                   deadline)
        if demoted:
            metrics.counter("exec.plan.demoted").inc(len(demoted))
            full_pos.extend(demoted)
        if full_pos:
            sub = self._run_vector([pairs[p] for p in full_pos], deadline)
            for position, result in zip(full_pos, sub):
                results[position] = result
        return results

    def _auto_wavefront(self, pairs, positions: list[int],
                        estimates: list[int],
                        results: list[AlignerResult | None],
                        deadline: Deadline) -> list[int]:
        """Wavefront-routed pairs: sweep for the exact distance (capped
        probe), then -- in traceback mode -- replay each pair through a
        banded corridor certified by that distance, so the canonical
        traceback equals the full-matrix traceback bit for bit.
        Returns positions demoted to the full kernel."""
        batch = self.batch
        model = self.config.model
        policy = batch.planner or PlannerPolicy()
        demoted: list[int] = []
        certified: list[tuple[int, int]] = []
        sub_pairs = [pairs[p] for p in positions]
        for bucket in bucketize(sub_pairs, batch.bucket_granularity):
            deadline.check("auto wavefront bucket")
            cap = policy.probe_slack * max(
                8, max(estimates[positions[int(local)]]
                       for local in bucket.index))
            with self.obs.profiler.phase(
                    f"bucket[{bucket.n_max}x{bucket.m_max}]"), \
                    self.obs.profiler.phase("linear.wavefront"):
                sweep = wavefront_kernel.sweep_wavefront(
                    bucket, model, max_score=cap, keep=False)
                if self.obs.enabled:
                    self._account(int(np.sum(sweep.cells)), 8)
            for b, local in enumerate(bucket.index):
                position = positions[int(local)]
                if sweep.exceeded[b]:
                    demoted.append(position)
                    continue
                distance = int(sweep.distance[b])
                if batch.traceback:
                    certified.append((position, distance))
                else:
                    stats = DPStats(cells_computed=int(sweep.cells[b]),
                                    cells_stored=2 * int(sweep.peak[b]),
                                    blocks=1)
                    results[position] = AlignerResult(
                        alignment=None, score=-distance, stats=stats)
        if certified:
            groups: dict[int, list[int]] = {}
            for position, distance in certified:
                q_codes, r_codes = pairs[position]
                n, m = len(q_codes), len(r_codes)
                half = planning.certified_half_width(model, n, m, -distance)
                if half is None or half >= min(n, m):
                    demoted.append(position)
                    continue
                groups.setdefault(planning.width_class(half),
                                  []).append(position)
            # Defensive only: the certificate guarantees the replay
            # reproduces the probed distance.
            expected = dict(certified)
            for half, members in sorted(groups.items()):
                demoted.extend(self._banded_sweep(
                    pairs, members, half,
                    lambda position, _n, _m, score:
                    score == -expected[position],
                    results, deadline))
        return demoted

    def _auto_bitparallel(self, pairs, positions: list[int],
                          results: list[AlignerResult | None],
                          deadline: Deadline) -> None:
        """Bit-parallel-routed pairs (score-only edit pairs too
        divergent for the wavefront): exact at any divergence, so --
        unlike the other routes -- nothing ever demotes."""
        batch = self.batch
        n_symbols = self.config.alphabet.size
        state_words = bitparallel_kernel.WORDS_PER_BLOCK_STATE + n_symbols
        sub_pairs = [pairs[p] for p in positions]
        for bucket in bucketize(sub_pairs, batch.bucket_granularity):
            deadline.check("auto bitparallel bucket")
            with self.obs.profiler.phase(
                    f"bucket[{bucket.n_max}x{bucket.m_max}]"), \
                    self.obs.profiler.phase("linear.bitparallel"):
                try:
                    sweep = bitparallel_kernel.sweep_bitparallel(
                        bucket, n_symbols=n_symbols)
                except AlignmentError as exc:
                    if exc.pair_index is not None:
                        # The kernel tags the bucket-local position;
                        # lift it to the submission index so the
                        # supervised layer quarantines the right pair.
                        exc.pair_index = positions[exc.pair_index]
                    raise
                if self.obs.enabled:
                    self._account(
                        int(np.sum(sweep.cells)), 8,
                        nbytes=bitparallel_kernel.WORDS_PER_BLOCK_STEP
                        * 8 * int(np.sum(sweep.words)))
            for b, local in enumerate(bucket.index):
                position = positions[int(local)]
                distance = int(sweep.distance[b])
                blocks = int(sweep.blocks[b])
                stats = DPStats(cells_computed=int(sweep.cells[b]),
                                cells_stored=blocks * state_words,
                                blocks=max(1, blocks))
                results[position] = AlignerResult(
                    alignment=None, score=-distance, stats=stats)

    def _auto_banded(self, pairs, positions: list[int],
                     estimates: list[int],
                     results: list[AlignerResult | None],
                     deadline: Deadline) -> list[int]:
        """Banded-routed pairs: estimated corridor, certificate-checked
        against the achieved score and widened (x2) until certified;
        hopeless pairs demote to the full kernel. Returns demoted
        positions."""
        batch = self.batch
        model = self.config.model
        policy = batch.planner or PlannerPolicy()
        demoted: list[int] = []
        pending: list[tuple[int, int]] = []
        for position in positions:
            q_codes, r_codes = pairs[position]
            n, m = len(q_codes), len(r_codes)
            half = planning.width_class(
                abs(m - n) + estimates[position] + policy.band_slack)
            if half >= min(n, m):
                demoted.append(position)
            else:
                pending.append((position, half))
        while pending:
            groups: dict[int, list[int]] = {}
            for position, half in pending:
                groups.setdefault(half, []).append(position)
            pending = []
            for half, members in sorted(groups.items()):
                retry = self._banded_sweep(
                    pairs, members, half,
                    lambda _position, n, m, score, half=half:
                    planning.band_is_certified(model, n, m, score, half),
                    results, deadline)
                for position in retry:
                    q_codes, r_codes = pairs[position]
                    wider = half * 2
                    if wider >= min(len(q_codes), len(r_codes)):
                        demoted.append(position)
                    else:
                        pending.append((position, wider))
        return demoted

    def _band_slices(self, bucket: PairBatch, width: int | None,
                     fraction: float | None) -> list[PairBatch]:
        """Even slices of ``bucket`` whose kept bands each fit
        ``max_batch_cells`` (the band is what ``keep=True`` stores)."""
        per_pair = kernels.band_storage_cells(bucket, width, fraction)
        limit = max(1, self.batch.max_batch_cells // per_pair)
        pieces = -(-bucket.size // limit)
        return bucket.slices(-(-bucket.size // pieces))

    def _banded_sweep(self, pairs, positions: list[int], half: int,
                      accept, results: list[AlignerResult | None],
                      deadline: Deadline) -> list[int]:
        """One banded pass over ``positions`` at half-width ``half``:
        stores the result of every pair whose corner score
        ``accept(position, n, m, score)`` proves exact and returns the
        positions it does not."""
        batch = self.batch
        model = self.config.model
        profiler = self.obs.profiler
        rejected: list[int] = []
        sub = [pairs[p] for p in positions]
        for bucket in bucketize(sub, batch.bucket_granularity):
            deadline.check("auto banded bucket")
            pieces = self._band_slices(bucket, half, None) \
                if batch.traceback else [bucket]
            dtype = self._banded_dtype(bucket)
            for piece in pieces:
                with profiler.phase(
                        f"bucket[{bucket.n_max}x{bucket.m_max}]"):
                    with profiler.phase(f"banded[{dtype.name}]"):
                        swept, cells, widths = kernels.sweep_banded(
                            piece, model, half, None, keep=batch.traceback,
                            force_wide=batch.wide_dtype)
                        if self.obs.enabled:
                            self._account(int(np.sum(cells)),
                                          dtype.itemsize)
                    scores = swept.scores if batch.traceback else swept
                    for b, local in enumerate(piece.index):
                        position = positions[int(local)]
                        q_codes, r_codes = pairs[position]
                        n, m = len(q_codes), len(r_codes)
                        score = int(scores[b])
                        if score <= kernels.PRUNE_FLOOR or \
                                not accept(position, n, m, score):
                            rejected.append(position)
                            continue
                        alignment, stored = None, int(widths[b])
                        if batch.traceback:
                            with profiler.phase("traceback"), \
                                    _tag_pair(position):
                                alignment = _walk_alignment(
                                    functools.partial(
                                        traceback_banded, swept.rows[b],
                                        swept.start),
                                    q_codes, r_codes, model, score)
                            stored = int(cells[b])
                        stats = DPStats(cells_computed=int(cells[b]),
                                        cells_stored=stored, blocks=1)
                        results[position] = AlignerResult(
                            alignment=alignment, score=score, stats=stats)
        return rejected

    # Score-only kernels: rolling rows, one sweep per bucket.

    def _pair_cells(self, bucket: PairBatch) -> int:
        """Deterministic total of n*m over a bucket's true lengths."""
        return int(np.sum(bucket.q_len.astype(np.int64)
                          * bucket.r_len.astype(np.int64)))

    def _kernel_phase(self, bucket: PairBatch):
        """The profiler phase labeling this batch's kernel + dtype."""
        batch = self.batch
        name = f"{batch.algorithm}[int64]"
        if batch.algorithm == "full":   # the only one with other modes
            name = f"linear.{batch.mode}[{self._linear_dtype(bucket).name}]"
        elif batch.algorithm == "banded":
            name = f"banded[{self._banded_dtype(bucket).name}]"
        return self.obs.profiler.phase(name)

    def _linear_dtype(self, bucket: PairBatch) -> np.dtype:
        """The dtype ``sweep_linear`` runs this bucket in."""
        return np.dtype(kernels.linear_dtype(
            self.config.model, bucket.n_max, bucket.m_max,
            self.batch.wide_dtype))

    def _banded_dtype(self, bucket: PairBatch) -> np.dtype:
        """The dtype ``sweep_banded`` runs (and keeps) this bucket in."""
        return np.dtype(kernels.banded_dtype(
            self.config.model, bucket.q.shape[1], bucket.r.shape[1],
            self.batch.wide_dtype))

    def _vector_score(self, bucket: PairBatch,
                      results: list[AlignerResult | None]) -> None:
        batch = self.batch
        model = self.config.model
        observing = self.obs.enabled
        q_len, r_len = bucket.q_len, bucket.r_len
        if batch.algorithm == "full":
            with self._kernel_phase(bucket):
                scores = kernels.sweep_linear(
                    bucket, model, batch.mode, keep=False,
                    force_wide=batch.wide_dtype)
                if observing:
                    self._account(self._pair_cells(bucket),
                                  self._linear_dtype(bucket).itemsize)
            for b, position in enumerate(bucket.index):
                n, m = int(q_len[b]), int(r_len[b])
                stats = DPStats(cells_computed=n * m, cells_stored=m + 1,
                                blocks=1)
                results[position] = AlignerResult(
                    alignment=None, score=int(scores[b]), stats=stats)
        elif batch.algorithm == "affine":
            with self._kernel_phase(bucket):
                scores = kernels.sweep_affine(bucket, model,
                                              batch.affine_penalties,
                                              keep=False)
                if observing:
                    self._account(3 * self._pair_cells(bucket), 8)
            for b, position in enumerate(bucket.index):
                n, m = int(q_len[b]), int(r_len[b])
                stats = DPStats(cells_computed=3 * n * m,
                                cells_stored=3 * (m + 1), blocks=1)
                results[position] = AlignerResult(
                    alignment=None, score=int(scores[b]), stats=stats)
        elif batch.algorithm == "banded":
            with self._kernel_phase(bucket):
                scores, cells, widths = kernels.sweep_banded(
                    bucket, model, batch.band_width, batch.band_fraction,
                    keep=False, force_wide=batch.wide_dtype)
                if observing:
                    self._account(int(np.sum(cells)),
                                  self._banded_dtype(bucket).itemsize)
            for b, position in enumerate(bucket.index):
                stats = DPStats(cells_computed=int(cells[b]),
                                cells_stored=int(widths[b]), blocks=1)
                failed = int(scores[b]) <= kernels.PRUNE_FLOOR
                results[position] = AlignerResult(
                    alignment=None,
                    score=None if failed else int(scores[b]),
                    stats=stats, failed=failed,
                    failure_reason="band too narrow" if failed else "")
        else:  # xdrop
            with self._kernel_phase(bucket):
                scores, cells, widths, failed = kernels.sweep_xdrop(
                    bucket, model, batch.xdrop, batch.xdrop_fraction,
                    keep=False)
                if observing:
                    self._account(int(np.sum(cells)), 8)
            for b, position in enumerate(bucket.index):
                stats = DPStats(cells_computed=int(cells[b]),
                                cells_stored=int(widths[b]), blocks=1)
                bad = bool(failed[b])
                results[position] = AlignerResult(
                    alignment=None, score=None if bad else int(scores[b]),
                    stats=stats, failed=bad,
                    failure_reason="alignment dropped" if bad else "")

    # Traceback kernels. The linear route keeps move bits and defers the
    # walk: consecutive pieces share one lock-step walk while they fit
    # ``max_batch_cells``. The others walk each pair's kept score slice.

    def _walk_kept(self, kept: list[kernels.KeptMoves],
                   results: list[AlignerResult | None]) -> None:
        """One lock-step walk over all of ``kept``: stored, then emptied."""
        kind = self.batch.mode
        with self.obs.profiler.phase("traceback"):
            cigars, start_i, start_j = walk_moves(
                [(k.planes, k.end_i, k.end_j, k.batch.q, k.batch.r)
                 for k in kept], kind)
            columns = [(k.batch.index, k.batch.q_len * k.batch.r_len,
                        k.scores, k.end_i, k.end_j) for k in kept]
            lanes = zip(cigars, start_i, start_j, *(
                np.concatenate(column).tolist() for column in zip(*columns)))
            for cigar, i, j, position, cells, score, end_i, end_j in lanes:
                meta = {"path_cells": 1 + sum(c for c, _ in cigar)} \
                    if kind == "global" else \
                    {"ref_start": j, "ref_end": end_j, "mode": kind}
                if kind == "local":
                    meta = {"query_start": i, "query_end": end_i, **meta}
                alignment = Alignment(score=score, cigar=cigar, meta=meta,
                                      query_len=end_i - i, ref_len=end_j - j)
                results[position] = AlignerResult(
                    alignment=alignment, score=score, stats=DPStats(
                        cells_computed=cells, cells_stored=cells, blocks=1))
        kept.clear()

    def _vector_align(self, bucket: PairBatch,
                      results: list[AlignerResult | None],
                      kept: list[kernels.KeptMoves]) -> None:
        batch = self.batch
        model = self.config.model
        observing = self.obs.enabled
        profiler = self.obs.profiler
        q_len, r_len = bucket.q_len, bucket.r_len

        def pair_view(b: int) -> tuple[np.ndarray, np.ndarray, int, int]:
            n, m = int(q_len[b]), int(r_len[b])
            return bucket.q[b, :n], bucket.r[b, :m], n, m

        if batch.algorithm == "full":
            if kept and kernels.walk_cells([bucket] + [
                    k.batch for k in kept]) > batch.max_batch_cells:
                self._walk_kept(kept, results)
            with self._kernel_phase(bucket):
                kept.append(kernels.sweep_linear(
                    bucket, model, batch.mode, keep=True,
                    force_wide=batch.wide_dtype))
                if observing:   # sweep rows plus a byte per kept plane
                    self._account(
                        self._pair_cells(bucket), len(kept[-1].planes)
                        + self._linear_dtype(bucket).itemsize)
        elif batch.algorithm == "affine":
            with self._kernel_phase(bucket):
                h, e, f = kernels.sweep_affine(bucket, model,
                                               batch.affine_penalties,
                                               keep=True)
                if observing:
                    self._account(3 * self._pair_cells(bucket), 8)
            with profiler.phase("traceback"):
                for b, position in enumerate(bucket.index):
                    q_codes, r_codes, n, m = pair_view(b)
                    with _tag_pair(position):
                        alignment = affine_traceback(
                            h[b, :n + 1, :m + 1], e[b, :n + 1, :m + 1],
                            f[b, :n + 1, :m + 1], q_codes, r_codes, model,
                            batch.affine_penalties)
                    stats = DPStats(cells_computed=3 * n * m,
                                    cells_stored=3 * n * m, blocks=1)
                    results[position] = AlignerResult(
                        alignment=alignment, score=alignment.score,
                        stats=stats)
        elif batch.algorithm == "banded":
            with self._kernel_phase(bucket):
                band, cells, widths = kernels.sweep_banded(
                    bucket, model, batch.band_width, batch.band_fraction,
                    keep=True, force_wide=batch.wide_dtype)
                if observing:
                    self._account(int(np.sum(cells)),
                                  band.rows.dtype.itemsize)
            with profiler.phase("traceback"):
                for b, position in enumerate(bucket.index):
                    q_codes, r_codes, n, m = pair_view(b)
                    stats = DPStats(cells_computed=int(cells[b]),
                                    cells_stored=int(cells[b]), blocks=1)
                    score = int(band.scores[b])
                    if score <= kernels.PRUNE_FLOOR:
                        results[position] = AlignerResult(
                            alignment=None, score=None, stats=stats,
                            failed=True,
                            failure_reason="band excluded (n, m)")
                        continue
                    results[position] = _heuristic_traceback(
                        functools.partial(traceback_banded, band.rows[b],
                                          band.start),
                        q_codes, r_codes, model, score, stats)
        else:  # xdrop
            with self._kernel_phase(bucket):
                matrices, cells, widths, failed = kernels.sweep_xdrop(
                    bucket, model, batch.xdrop, batch.xdrop_fraction,
                    keep=True)
                if observing:
                    self._account(int(np.sum(cells)), 8)
            with profiler.phase("traceback"):
                for b, position in enumerate(bucket.index):
                    q_codes, r_codes, n, m = pair_view(b)
                    stats = DPStats(cells_computed=int(cells[b]),
                                    cells_stored=int(cells[b]), blocks=1)
                    if failed[b]:
                        results[position] = AlignerResult(
                            alignment=None, score=None, stats=stats,
                            failed=True, failure_reason="alignment dropped")
                        continue
                    results[position] = _heuristic_traceback(
                        functools.partial(traceback_full,
                                          matrices[b, :n + 1, :m + 1]),
                        q_codes, r_codes, model, int(matrices[b, n, m]),
                        stats)


def _walk_alignment(trace, q_codes: np.ndarray, r_codes: np.ndarray,
                    model, score: int) -> Alignment:
    """The alignment ``trace(q_codes, r_codes, model) -> (cigar, path)``
    walks out of kept banded / X-drop state."""
    cigar, path = trace(q_codes, r_codes, model)
    return Alignment(score=score, cigar=cigar, query_len=len(q_codes),
                     ref_len=len(r_codes), meta={"path_cells": len(path)})


def _heuristic_traceback(trace, q_codes: np.ndarray, r_codes: np.ndarray,
                         model, score: int,
                         stats: DPStats) -> AlignerResult:
    """Banded/X-drop traceback with the same failure semantics as the
    scalar aligners (a pruned path surfaces as a failed result)."""
    try:
        alignment = _walk_alignment(trace, q_codes, r_codes, model, score)
    except AlignmentError as exc:
        return AlignerResult(alignment=None, score=score, stats=stats,
                             failed=True, failure_reason=str(exc))
    return AlignerResult(alignment=alignment, score=score, stats=stats)
