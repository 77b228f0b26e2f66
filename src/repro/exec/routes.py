"""Kernel-route registry: one :class:`Route` per batched kernel.

A route is what the engine's single bucket loop
(:meth:`repro.exec.engine.BatchEngine._sweep`) needs to drive one
kernel: who may use it, how much it keeps resident per pair, how to
sweep a bucket slice and what that cost, and how to turn the sweep into
results. The fixed engines and every ``engine="auto"`` route dispatch
through the same objects, and every list of engine names in the
package -- ``BatchConfig`` validation, the job protocol, the CLI
choices, the degradation ladder -- is read off :data:`ROUTES`: adding a
kernel is one :func:`register` call.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.algorithms.affine import affine_traceback
from repro.algorithms.base import AlignerResult, DPStats
from repro.algorithms.local import _require_positive_scores
from repro.algorithms.wavefront import _check_edit_model
from repro.dp.alignment import Alignment
from repro.dp.traceback import traceback_banded, traceback_full, walk_moves
from repro.errors import AlignmentError
from repro.exec import bitparallel as bitparallel_kernel
from repro.exec import kernels
from repro.exec import wavefront as wavefront_kernel
from repro.exec.buckets import PairBatch

#: The engine whose route is picked by ``BatchConfig.algorithm``; every
#: other fixed engine is the one route registered under its own name.
VECTOR = "vector"


@dataclass
class Pass:
    """What a route sees of one pass of the engine's bucket loop: the
    engine's ``config`` / ``batch`` / ``obs``, the submission-ordered
    ``results`` to store into, whether to ``keep`` traceback state and
    settle alignments instead of scores, and ``auto``'s overrides.

    Attributes:
        band: ``(width, fraction)`` of the banded corridor, when not
            the batch's.
        accept: ``accept(position, n, m, score)``; a banded result it
            does not prove exact is rejected instead of stored.
        cap: ``cap(piece)``, the wavefront distance cap, when not the
            batch's ``wavefront_max_score``.
        kept: Kept records whose shared group walk is still due.
    """

    config: object
    batch: object
    obs: object
    results: list
    keep: bool
    band: tuple | None = None
    accept: Callable | None = None
    cap: Callable | None = None
    kept: list = field(default_factory=list)


class Route:
    """One batched kernel, as the bucket loop drives it: subclass, set
    ``name``, define ``phase`` / ``sweep`` / ``settle`` and whatever
    else differs from the defaults, and :func:`register` an instance.
    """

    #: Registry key; also the planner's route label and, for
    #: ``engine="vector"``, the ``algorithm`` that selects the route.
    name: str
    #: The fixed engine that runs this route.
    engine: str = VECTOR
    #: Alignment modes the kernel implements.
    modes: tuple = ("global",)
    #: Why the kernel has no alignments; empty if it has.
    score_only: str = ""
    #: The engine the degradation ladder falls back to.
    degrade_to: str = "scalar"
    #: Floor of the bucket-key rounding: a bucket holds the pairs whose
    #: lengths round to the same multiple of the larger of this and the
    #: batch's ``bucket_granularity``.
    granularity: int = 1
    #: ``empty(run, bucket)`` settles a bucket with a zero-length side
    #: unswept, for kernels whose scalar twin answers those natively.
    empty = None
    #: ``walk(run)`` settles ``run.kept`` with one group walk and clears
    #: it, for a route whose ``settle`` defers there.
    walk = None

    def check(self, model, batch) -> None:
        """Raise ``ConfigurationError`` when the route cannot run this
        scoring model / batch."""

    def resident(self, run: Pass, bucket: PairBatch) -> int:
        """Cells resident per pair while a slice is swept and settled,
        for ``max_batch_cells`` chunking; 0 never chunks."""
        return (bucket.n_max + 1) * (bucket.m_max + 1) if run.keep else 0

    def phase(self, run: Pass, piece: PairBatch) -> str:
        """The profiler phase of the sweep."""
        raise NotImplementedError

    def sweep(self, run: Pass, piece: PairBatch):
        """The kernel call: ``(swept, cells, bytes_moved)``."""
        raise NotImplementedError

    def settle(self, run: Pass, piece: PairBatch, swept):
        """Store a result for every pair the route accepts (whole-piece
        passes, never a call per pair through the registry) and return
        the positions it rejects."""
        raise NotImplementedError


ROUTES: dict[str, Route] = {}


def register(route: Route) -> Route:
    """Add (or replace) a route; its engine becomes selectable."""
    ROUTES[route.name] = route
    return route


def for_engine(engine: str, algorithm: str = "full") -> Route | None:
    """The route a fixed engine runs, ``None`` for an engine with no
    route of its own (``scalar``, ``auto``) or no such algorithm."""
    route = ROUTES.get(engine) or ROUTES.get(algorithm)
    return route if route is not None and route.engine == engine else None


def engines() -> tuple[str, ...]:
    """Every engine name: the scalar loop, one per registered engine,
    and the adaptive planner over them."""
    return ("scalar", *dict.fromkeys(
        route.engine for route in ROUTES.values()), "auto")


def algorithms() -> tuple[str, ...]:
    return tuple(name for name, route in ROUTES.items()
                 if route.engine == VECTOR)


def modes() -> tuple[str, ...]:
    return tuple(dict.fromkeys(
        mode for route in ROUTES.values() for mode in route.modes))


def score_only(engine: str) -> str:
    """Why ``engine`` yields scores but no alignments ('' if it does)."""
    route = for_engine(engine)
    return route.score_only if route is not None else ""


def degrade_to(engine: str, algorithm: str = "full") -> str | None:
    """The engine the ladder's fallback rung runs instead of ``engine``
    (``None`` for the scalar reference path itself)."""
    route = for_engine(engine, algorithm)
    return "scalar" if engine == "auto" else route and route.degrade_to


# -- shared settling helpers -------------------------------------------------

@contextlib.contextmanager
def tag_pair(index: int):
    """Stamp the batch position onto heuristic AlignmentErrors so the
    supervised layer can quarantine the one poison pair instead of
    bisecting the whole shard."""
    try:
        yield
    except AlignmentError as exc:
        if exc.pair_index is None:
            exc.pair_index = index
        raise


def _store(results: list, index: np.ndarray, scores: np.ndarray,
           computed: np.ndarray, stored: np.ndarray,
           blocks: np.ndarray | None = None, alignments=None,
           reason: str = "") -> None:
    """Results of one piece from its per-pair columns: score-only
    unless ``alignments`` come along; ``reason`` marks them failed."""
    if blocks is None:
        blocks = np.ones_like(index)
    if alignments is None:
        alignments = [None] * len(index)
    for position, score, cells, held, count, alignment in zip(
            index.tolist(), scores.tolist(), computed.tolist(),
            stored.tolist(), blocks.tolist(), alignments):
        results[position] = AlignerResult(
            alignment=alignment, score=None if reason else score,
            stats=DPStats(cells_computed=cells, cells_stored=held,
                          blocks=count),
            failed=bool(reason), failure_reason=reason)


def _pair_view(piece: PairBatch, b: int):
    n, m = int(piece.q_len[b]), int(piece.r_len[b])
    return piece.q[b, :n], piece.r[b, :m], n, m


# -- linear gaps: global / local / semiglobal ----------------------------------

class _Linear(Route):
    name = "full"
    modes = ("global", "local", "semiglobal")

    def check(self, model, batch) -> None:
        if batch.mode == "local":
            _require_positive_scores(model)

    @staticmethod
    def _dtype(run: Pass, piece: PairBatch) -> np.dtype:
        return np.dtype(kernels.linear_dtype(
            run.config.model, piece.n_max, piece.m_max,
            run.batch.wide_dtype))

    def phase(self, run, piece) -> str:
        return f"linear.{run.batch.mode}[{self._dtype(run, piece).name}]"

    def sweep(self, run, piece):
        swept = kernels.sweep_linear(
            piece, run.config.model, run.batch.mode, keep=run.keep,
            force_wide=run.batch.wide_dtype)
        cells = int(np.sum(piece.q_len * piece.r_len))
        # Traffic: sweep rows plus a byte per kept plane.
        planes = len(swept.planes) if run.keep else 0
        return swept, cells, cells * (
            planes + self._dtype(run, piece).itemsize)

    def settle(self, run, piece, swept):
        if run.keep:    # moves, not scores: walked with their whole group
            run.kept.append(swept)
        else:
            _store(run.results, piece.index, swept,
                   piece.q_len * piece.r_len, piece.r_len + 1)
        return ()

    def walk(self, run) -> None:
        """One lock-step walk over all of ``run.kept``."""
        kind, kept, results = run.batch.mode, run.kept, run.results
        with run.obs.profiler.phase("traceback"):
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
                alignment = Alignment(
                    score=score, cigar=cigar, meta=meta,
                    query_len=end_i - i, ref_len=end_j - j)
                results[position] = AlignerResult(
                    alignment=alignment, score=score, stats=DPStats(
                        cells_computed=cells, cells_stored=cells, blocks=1))
        kept.clear()


# -- affine gaps (three matrices) ----------------------------------------------

class _Affine(Route):
    name = "affine"

    def resident(self, run, bucket) -> int:
        return 3 * super().resident(run, bucket)

    def phase(self, run, piece) -> str:
        return "affine[int64]"

    def sweep(self, run, piece):
        cells = 3 * int(np.sum(piece.q_len * piece.r_len))
        return kernels.sweep_affine(
            piece, run.config.model, run.batch.affine_penalties,
            keep=run.keep), cells, 8 * cells

    def settle(self, run, piece, swept):
        cells = 3 * piece.q_len * piece.r_len
        if not run.keep:
            _store(run.results, piece.index, swept, cells,
                   3 * (piece.r_len + 1))
            return ()
        h, e, f = swept
        alignments = []
        with run.obs.profiler.phase("traceback"):
            for b, position in enumerate(piece.index.tolist()):
                q_codes, r_codes, n, m = _pair_view(piece, b)
                with tag_pair(position):
                    alignments.append(affine_traceback(
                        h[b, :n + 1, :m + 1], e[b, :n + 1, :m + 1],
                        f[b, :n + 1, :m + 1], q_codes, r_codes,
                        run.config.model, run.batch.affine_penalties))
        _store(run.results, piece.index,
               np.array([a.score for a in alignments]), cells, cells,
               alignments=alignments)
        return ()


# -- heuristics that can cut a pair off: banded, X-drop -------------------------

class _Pruning(Route):
    """Shared settle of a sweep that reached the corner of the ``ok``
    pairs only."""

    #: Failure reason of a cut-off pair: in score mode, with traceback.
    reasons: tuple[str, str]

    def _settle(self, run, piece, ok, scores, cells, widths, trace,
                certified: bool = False):
        """A pair the sweep cut off gets a failed result -- or, when the
        sweep must be ``certified`` exact, is returned instead, as is a
        pair whose walk fails. ``trace(b, q_codes, r_codes)`` walks
        pair ``b`` to ``(cigar, path)``; a pruned path surfaces as a
        failed result, as in the scalar aligners."""
        index, results = piece.index, run.results
        if not run.keep:
            _store(results, index[ok], scores[ok], cells[ok], widths[ok])
            if not certified:
                _store(results, index[~ok], scores[~ok], cells[~ok],
                       widths[~ok], reason=self.reasons[0])
        rows = np.flatnonzero(ok) if certified else np.arange(piece.size)
        if run.keep and rows.size:
            with run.obs.profiler.phase("traceback"):
                for b in rows.tolist():
                    work = int(cells[b])
                    score, alignment, reason = None, None, self.reasons[1]
                    if ok[b]:
                        q_codes, r_codes, n, m = _pair_view(piece, b)
                        score = int(scores[b])
                        try:
                            cigar, path = trace(b, q_codes, r_codes)
                            alignment, reason = Alignment(
                                score=score, cigar=cigar, query_len=n,
                                ref_len=m,
                                meta={"path_cells": len(path)}), ""
                        except AlignmentError as exc:
                            reason, ok[b] = str(exc), not certified
                    results[int(index[b])] = AlignerResult(
                        alignment=alignment, score=score,
                        failed=alignment is None, failure_reason=reason,
                        stats=DPStats(cells_computed=work,
                                      cells_stored=work, blocks=1))
        return index[~ok].tolist() if certified else ()


class _Banded(_Pruning):
    """The batch's corridor, or (``run.band``) a certified one."""

    name = "banded"
    reasons = ("band too narrow", "band excluded (n, m)")

    @staticmethod
    def _band(run: Pass) -> tuple:
        return run.band or (run.batch.band_width, run.batch.band_fraction)

    @staticmethod
    def _dtype(run: Pass, piece: PairBatch) -> np.dtype:
        return np.dtype(kernels.banded_dtype(
            run.config.model, piece.n_max, piece.m_max,
            run.batch.wide_dtype))

    def resident(self, run, bucket) -> int:
        return kernels.band_storage_cells(bucket, *self._band(run)) \
            if run.keep else 0

    def phase(self, run, piece) -> str:
        return f"banded[{self._dtype(run, piece).name}]"

    def sweep(self, run, piece):
        swept = kernels.sweep_banded(
            piece, run.config.model, *self._band(run), keep=run.keep,
            force_wide=run.batch.wide_dtype)
        cells = int(np.sum(swept[1]))
        return swept, cells, cells * self._dtype(run, piece).itemsize

    def settle(self, run, piece, swept):
        """With ``run.accept``, pairs whose corner score does not prove
        the band exact are returned instead of settled."""
        band, cells, widths = swept
        scores = band.scores if run.keep else band
        ok = scores > kernels.PRUNE_FLOOR
        if run.accept is not None:
            ok &= np.fromiter(
                map(run.accept, piece.index.tolist(), piece.q_len.tolist(),
                    piece.r_len.tolist(), scores.tolist()),
                dtype=bool, count=piece.size)
        return self._settle(
            run, piece, ok, scores, cells, widths,
            lambda b, q_codes, r_codes: traceback_banded(
                band.rows[b], band.start, q_codes, r_codes,
                run.config.model),
            certified=run.accept is not None)


class _Xdrop(_Pruning):
    name = "xdrop"
    reasons = ("alignment dropped", "alignment dropped")

    def phase(self, run, piece) -> str:
        return "xdrop[int64]"

    def sweep(self, run, piece):
        swept = kernels.sweep_xdrop(
            piece, run.config.model, run.batch.xdrop,
            run.batch.xdrop_fraction, keep=run.keep)
        cells = int(np.sum(swept[1]))
        return swept, cells, 8 * cells

    def settle(self, run, piece, swept):
        matrices, cells, widths, failed = swept
        scores = matrices[np.arange(piece.size), piece.q_len, piece.r_len] \
            if run.keep else matrices
        return self._settle(
            run, piece, ~failed, scores, cells, widths,
            lambda b, q_codes, r_codes: traceback_full(
                matrices[b, :len(q_codes) + 1, :len(r_codes) + 1],
                q_codes, r_codes, run.config.model))


# -- unit-cost edit kernels: wavefront and bit-parallel -------------------------

class _Edit(Route):
    """Global alignment under the unit-cost edit model only."""

    #: How ``check`` names the kernel in its error.
    what: str

    def check(self, model, batch) -> None:
        _check_edit_model(model, self.what)

    def empty(self, run, bucket) -> None:
        """Zero-length pairs, answered exactly as the scalar
        ``WavefrontAligner``'s native empty path answers them."""
        q_len, r_len = bucket.q_len, bucket.r_len
        alignments = None
        if run.keep:
            alignments = [Alignment(
                score=-(n + m), query_len=n, ref_len=m,
                cigar=[(m, "D")] if m else ([(n, "I")] if n else []),
                meta={"path_cells": n + m + 1})
                for n, m in zip(q_len.tolist(), r_len.tolist())]
        zeros = np.zeros_like(q_len)
        _store(run.results, bucket.index, -(q_len + r_len), zeros, zeros,
               alignments=alignments)


class _Wavefront(_Edit):
    name = engine = "wavefront"
    what = "the wavefront aligner"

    def resident(self, run, bucket) -> int:
        # Wavefront history is O(B * s^2); bound resident memory by the
        # worst case s ~ n + m.
        span = bucket.n_max + bucket.m_max + 1
        return span * span if run.keep else span

    def phase(self, run, piece) -> str:
        return "linear.wavefront"

    def sweep(self, run, piece):
        cap = run.cap(piece) if run.cap is not None \
            else run.batch.wavefront_max_score
        sweep = wavefront_kernel.sweep_wavefront(
            piece, run.config.model, max_score=cap, keep=run.keep)
        cells = int(np.sum(sweep.cells))
        return sweep, cells, 8 * cells

    def settle(self, run, piece, sweep):
        """Pairs past the distance cap are rejected (the caller sends
        them to the full kernel); the rest are bit-identical to the
        scalar ``WavefrontAligner``."""
        index, ok = piece.index, ~sweep.exceeded
        scores, alignments = -sweep.distance[ok], None
        if run.keep:
            with run.obs.profiler.phase("traceback"):
                alignments = []
                for b in np.flatnonzero(ok).tolist():
                    n, m = int(piece.q_len[b]), int(piece.r_len[b])
                    with tag_pair(int(index[b])):
                        cigar = wavefront_kernel.wavefront_cigar(
                            sweep, b, n, m)
                    alignments.append(Alignment(
                        score=-int(sweep.distance[b]), cigar=cigar,
                        query_len=n, ref_len=m))
        _store(run.results, index[ok], scores, sweep.cells[ok],
               sweep.stored[ok] if run.keep else 2 * sweep.peak[ok],
               alignments=alignments)
        return index[sweep.exceeded].tolist()


class _Bitparallel(_Edit):
    name = engine = "bitparallel"
    what = "engine 'bitparallel'"
    score_only = "the bit vectors carry no path state"
    # A sweep costs one step per anti-diagonal whatever its lane count,
    # so every pair of a 64-row block class shares one.
    granularity = bitparallel_kernel.WORD_BITS

    def phase(self, run, piece) -> str:
        return "linear.bitparallel"

    def sweep(self, run, piece):
        sweep = bitparallel_kernel.sweep_bitparallel(
            piece, n_symbols=run.config.alphabet.size)
        # Real traffic is per lane-word block step, not per cell: 3
        # words (Eq gather + Pv/Mv read-modify-write) cover 64 DP cells.
        return sweep, int(np.sum(sweep.cells)), \
            bitparallel_kernel.WORDS_PER_BLOCK_STEP * 8 \
            * int(np.sum(sweep.words))

    def settle(self, run, piece, sweep):
        state_words = bitparallel_kernel.WORDS_PER_BLOCK_STATE \
            + run.config.alphabet.size
        _store(run.results, piece.index, -sweep.distance, sweep.cells,
               sweep.blocks * state_words,
               blocks=np.maximum(1, sweep.blocks))
        return ()


for _route in (_Linear(), _Affine(), _Banded(), _Xdrop(), _Wavefront(),
               _Bitparallel()):
    register(_route)
