"""Batched vectorized DP kernels: one NumPy sweep, many alignments.

Every kernel runs the *same* integer recurrence as its scalar
counterpart in ``repro.algorithms`` -- same ``NEG_INF`` sentinel, in
int64 or a narrower dtype proven safe for the bucket -- but over a
whole :class:`~repro.exec.buckets.PairBatch` at once, the batching
axis playing the role the anti-diagonal lanes play in Scrooge/KSW2.
The linear and banded sweeps share one body that advances one
*anti-diagonal* of every pair per step, a handful of element-wise ops
on ``(diag, B)`` lanes with no scan (SMX-1D's schedule); a band is
each diagonal's window of rows, masked at its edges. The affine sweep
advances one DP row per step with the scalar aligner's prefix-scan
row trick. Because
integer max/add is exact, the results are bit-identical to the scalar
algorithms; the conformance suite (``tests/test_conformance.py``)
locks both to the brute-force oracle.

Kernels come in two shapes:

- ``keep=False`` (score mode): rolling buffers, each pair's score
  captured the moment the sweep passes its true ``(q_len, r_len)``
  extent;
- ``keep=True`` (alignment mode): the state a traceback reads, for
  callers that chunk the batch to bound memory. The linear and banded
  sweeps keep *moves*, not scores -- one byte per cell and plane saying
  which predecessor reproduces ``H[i][j]`` -- over the rows each
  diagonal computed: the rectangle, or the lanes' corridors
  (:class:`KeptMoves`, walked by :func:`repro.dp.traceback.walk_moves`);
  the affine sweep still keeps full ``(B, n+1, m+1)`` int64 score
  matrices.

Padding never leaks into a result: DP dependencies only flow
right/down, so a pair's cells never read its padding, and kernels read
each pair's answer at its true extent and mask padded cells wherever
they reduce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.base import NEG_INF
from repro.algorithms.affine import AffineGapPenalties
from repro.exec.buckets import PairBatch
from repro.scoring.model import MatchMismatchModel, ScoringModel

#: Scores at or below this are "pruned / unreachable" (same floor the
#: scalar banded / X-drop aligners test against).
PRUNE_FLOOR = int(NEG_INF) // 2


def _row_scores(model: ScoringModel, table: np.ndarray | None,
                q_col: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Substitution scores ``S(q_col[b], r[b, j])`` as ``(B, m)`` int64.

    Identical values to ``model.substitution_row`` applied per pair.
    """
    if isinstance(model, MatchMismatchModel):
        return np.where(r == q_col[:, None], np.int64(model.match),
                        np.int64(model.mismatch))
    return table[q_col.astype(np.intp)[:, None], r.astype(np.intp)]


def _score_table(model: ScoringModel) -> np.ndarray | None:
    if isinstance(model, MatchMismatchModel):
        return None
    return model.substitution_table().astype(np.int64)


# ----------------------------------------------------------------------
# Linear-gap kernels: global / semiglobal / local, and banded global
# ----------------------------------------------------------------------

def _max_abs_term(model: ScoringModel, table: np.ndarray | None) -> int:
    """Largest magnitude of any substitution score or gap penalty."""
    if table is None:
        return max(abs(model.match), abs(model.mismatch),
                   abs(model.gap_i), abs(model.gap_d), 1)
    return max(int(np.abs(table).max()), abs(model.gap_i),
               abs(model.gap_d), 1)


def _linear_dtype(model: ScoringModel, table: np.ndarray | None,
                  n_max: int, m_max: int, force_wide: bool = False,
                  headroom: int = 1) -> type:
    """Narrowest safe dtype for the linear sweep.

    Every value the sweep forms -- a cell, or a cell plus one term --
    sums at most ``n + m + 1`` score terms, so it is bounded by
    ``(n + m + 2) * max|score term|``. Below ``2**14`` the sweep runs
    on int16 lanes, below ``2**30`` on int32, each with a factor of two
    to spare (integer max/add is exact in any width, so results are
    bit-identical); ``headroom`` multiplies the bound. ``force_wide``
    pins int64 -- the degradation ladder's answer when an overflow
    guard / range check trips on the narrowed path.
    """
    if force_wide:
        return np.int64
    bound = headroom * (n_max + m_max + 2) * _max_abs_term(model, table)
    if bound < 2 ** 14:
        return np.int16
    return np.int32 if bound < 2 ** 30 else np.int64


def linear_dtype(model: ScoringModel, n_max: int, m_max: int,
                 force_wide: bool = False) -> type:
    """The dtype :func:`sweep_linear` will pick for these dimensions.

    Public so the engine's profiler can label kernel phases
    (``linear.global[int16]``) and size modeled memory traffic without
    duplicating the narrowing rule.
    """
    return _linear_dtype(model, _score_table(model), n_max, m_max,
                         force_wide)


def banded_dtype(model: ScoringModel, n_max: int, m_max: int,
                 force_wide: bool = False) -> type:
    """The dtype :func:`sweep_banded` will pick for these dimensions:
    :func:`linear_dtype`'s rule with one bit more room (int16 below
    ``2**13``, int32 below ``2**29``). The cells at the edges of a
    pair's corridor hold the sentinel, half the dtype's minimum, and
    every value derived from it must stay below every reachable one
    without wrapping.
    """
    return _linear_dtype(model, _score_table(model), n_max, m_max,
                         force_wide, headroom=2)


@dataclass(frozen=True)
class KeptMoves:
    """Kept state of a linear or banded sweep: moves, not scores.

    Attributes:
        batch: The bucket that was swept.
        planes: ``(P, cells, B)`` bool, lanes innermost: the window of
            rows the sweep computed on each anti-diagonal, one diagonal
            after the other, so cell ``(i, j)`` is row
            ``offsets[i + j] + i`` -- the whole ``(n+1) x (m+1)``
            rectangle, or a band's corridors. ``planes[0]`` says the
            diagonal reproduces ``H_b[i][j]``, ``planes[1]`` that the up
            move does; the library-wide tie priority is how they are
            read -- diagonal, else up, else left -- so row 0 is all
            false and column 0 all up. ``local`` sweeps add
            ``planes[2]``, the ``H == 0`` bit that stops the walk.
        offsets: ``(n+m+1,)`` int64, per diagonal its first kept row
            less its first swept row.
        scores: ``(B,)`` int64 scores, the same ``keep=False`` returns.
        end_i / end_j: ``(B,)`` cell each pair's walk starts from: the
            ``(q_len, r_len)`` corner, the first maximum of the last
            row (semiglobal) or of the matrix in row-major order
            (local).
        band_lo: ``(B, n+1)`` first in-band column of each row of a
            banded sweep, ``None`` for the rectangle. A walk that steps
            left of it has left the band (:func:`repro.dp.traceback.
            walk_moves`).
    """

    batch: PairBatch
    planes: np.ndarray
    offsets: np.ndarray
    scores: np.ndarray
    end_i: np.ndarray
    end_j: np.ndarray
    band_lo: np.ndarray | None = None


def _band_matrix(batch: PairBatch, width: int | None,
                 fraction: float | None,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair ``(B, n+1)`` band intervals over the bucket's rows,
    replicating :func:`repro.algorithms.banded.band_intervals` exactly.

    Returns ``(swept, lo, hi)``; ``swept[b, i]`` marks ``i <= q_len[b]``,
    the rows on which pair ``b``'s interval means anything.
    """
    B = batch.size
    rows = np.arange(batch.n_max + 1, dtype=np.float64)
    q_len = batch.q_len.astype(np.float64)
    r_len = batch.r_len.astype(np.float64)
    if width is not None:
        half = np.full(B, int(width), dtype=np.int64)
    else:
        half = np.maximum(
            1, np.round(fraction * np.maximum(batch.q_len, batch.r_len))
            .astype(np.int64))
    safe_q = np.where(batch.q_len > 0, q_len, 1.0)
    slope = r_len / safe_q
    half_eff = np.maximum(np.maximum(half, np.ceil(slope).astype(np.int64)),
                          1)
    centers = np.round(rows[None, :] * slope[:, None]).astype(np.int64)
    lo = np.maximum(centers - half_eff[:, None], 0)
    hi = np.minimum(centers + half_eff[:, None], batch.r_len[:, None])
    zero_q = batch.q_len == 0
    if zero_q.any():
        lo[zero_q] = 0
        hi[zero_q] = batch.r_len[zero_q, None]
    return rows[None, :] <= q_len[:, None], lo, hi


@dataclass(frozen=True)
class _Band:
    """A bucket's corridors as the diagonal sweep reads them.

    The scalar :class:`~repro.algorithms.banded.BandedAligner` scans
    row ``i`` left to right and masks it to ``[lo[i], hi[i]]`` only
    afterwards, so values reach its band through the *shadow* columns
    ``lo[i-1] <= j < lo[i]``. Pair ``b`` therefore computes row ``i``
    on columns ``lo[i-1] .. hi[i]``, and its rows on one diagonal are
    one run ``top .. bottom``. (The scalar leaves ``H[i][0]``
    unreachable once the band has left column 0; the sweep's
    ``i * gap_i`` there never wins, as no model may price a mismatch
    below two gaps.) A cell of the run reads
    rows ``top - 1 .. bottom`` of the diagonal before and ``top - 1 ..
    bottom - 1`` of the one before that, and runs move by at most a
    row per diagonal, so the only cells off a run that its diagonal's
    successors read are rows ``top - 1`` and ``bottom + 1``. The sweep
    sets those two to the sentinel after each diagonal, and the shadow
    cell -- at most one per run, its last row -- once its left read is
    done; every other cell a lane computes off its run is never read.

    Attributes:
        lo: ``(B, n+1)`` first in-band column of each row.
        cells / widths: ``(B,)`` band cells and widest band row per
            pair (the scalar's ``DPStats``).
        first / last: ``(n+m+1,)`` the union over lanes of the rows
            each diagonal computes (``last < first`` where none does).
        edges: ``(n+m+1, 3B)`` what diagonal ``d`` masks, as flat
            indices into the sweep's ``(3, n+2, B)`` buffers (diagonal
            ``d`` in ``d % 3``, a spare last row for lanes with
            nothing to mask): its runs' edge rows and diagonal
            ``d - 1``'s shadow cells.
    """

    lo: np.ndarray
    cells: np.ndarray
    widths: np.ndarray
    first: np.ndarray
    last: np.ndarray
    edges: np.ndarray

    @classmethod
    def of(cls, batch: PairBatch, width: int | None,
           fraction: float | None) -> "_Band":
        B, n_max = batch.size, batch.n_max
        steps = n_max + batch.m_max + 1
        swept, lo, hi = _band_matrix(batch, width, fraction)
        band = np.where(swept, hi - lo + 1, 0)
        top, bottom, first, last = _runs(steps, swept, lo, hi)
        live = top <= bottom
        below = np.minimum(bottom, n_max)
        # A run's last row is a shadow cell until the row enters the band.
        shaded = live & (np.arange(steps) < np.take_along_axis(
            lo, below, axis=1) + below)
        spare = n_max + 1
        edges = np.empty((steps, 3, B), dtype=np.int32)
        edges[:, 0] = np.where(live & (top > 0), top - 1, spare).T
        edges[:, 1] = np.where(live, bottom + 1, spare).T
        edges[0, 2] = spare
        edges[1:, 2] = np.where(shaded[:, :-1], bottom[:, :-1], spare).T
        edges *= B
        edges += np.arange(B)
        slot = np.arange(steps) % 3 * ((spare + 1) * B)
        edges[:, :2] += slot[:, None, None]
        edges[1:, 2] += slot[:-1, None]
        return cls(lo, band.sum(axis=1), band.max(axis=1, initial=0),
                   first, last, edges.reshape(steps, 3 * B))


def _runs(steps: int, swept: np.ndarray, lo: np.ndarray, hi: np.ndarray,
          ) -> tuple[np.ndarray, ...]:
    """Each lane's run of rows on each diagonal, and their union.

    Row ``i`` of pair ``b`` is computed on diagonals ``i + lo[i-1]``
    to ``i + hi[i]`` (see :class:`_Band`); both rise with ``i``, so the
    run on ``d`` is from the first row not yet closed to the last one
    opened.

    Returns ``(top, bottom, first, last)``: the ``(B, steps)`` runs
    ``top .. bottom`` (empty once a pair is done) and their
    ``(steps,)`` union.
    """
    B, rows = lo.shape
    row = np.arange(rows)
    lane = np.arange(B)[:, None] * (steps + 1)

    def reached(diagonal: np.ndarray) -> np.ndarray:
        """A lane's rows whose ``diagonal <= d``, per ``d``."""
        at = np.where(swept, np.minimum(diagonal, steps), steps) + lane
        return np.bincount(at.ravel(), minlength=B * (steps + 1)) \
            .reshape(B, steps + 1)[:, :steps].cumsum(axis=1, dtype=np.int32)

    opens = row + np.concatenate([lo[:, :1], lo[:, :-1]], axis=1)
    top, bottom = reached(row + hi + 1), reached(opens)
    bottom -= 1
    live = top <= bottom
    first = np.where(live, top, rows).min(axis=0, initial=rows)
    last = np.where(live, bottom, -1).max(axis=0, initial=-1)
    first[last < 0] = 0
    return top, bottom, first, last


def kept_cells(batch: PairBatch, width: int | None = None,
               fraction: float | None = None) -> int:
    """Kept cells per pair of a ``keep=True`` sweep of ``batch``: the
    rectangle, or with a band the rows its lanes' runs span on each
    diagonal -- what :attr:`KeptMoves.planes` allocates."""
    if width is None and fraction is None:
        return (batch.n_max + 1) * (batch.m_max + 1)
    *_, first, last = _runs(batch.n_max + batch.m_max + 1,
                            *_band_matrix(batch, width, fraction))
    return int(np.maximum(last - first + 1, 0).sum())


def sweep_linear(batch: PairBatch, model: ScoringModel, kind: str,
                 keep: bool, force_wide: bool = False,
                 ) -> np.ndarray | KeptMoves:
    """Batched linear-gap sweep, one anti-diagonal at a time.

    Cell ``(i, j)`` reads only cells of the two diagonals before
    ``d = i + j``, so one diagonal of every pair in the bucket is a
    handful of element-wise ops -- substitution scores, the diagonal,
    up and left adds, two maxima (and a clamp at zero for ``local``)
    -- with no prefix scan. Three rolling ``(n+1, B)`` buffers hold
    diagonals ``d-2``, ``d-1`` and ``d`` by row ``i``, lanes innermost;
    with the query transposed to ``(n, B)`` and the reference reversed
    and transposed to ``(m, B)``, every operand of a diagonal is a
    contiguous row slice. Interior cells read only cells of the
    rectangle, each written on its own diagonal (each kind writes its
    own borders ``H[0][d]`` and ``H[d][0]``), so no sentinel enters
    and every value is the scalar recurrence's.

    Args:
        kind: ``"global"`` (NW borders), ``"semiglobal"`` (free leading
            reference gap) or ``"local"`` (clamp at zero).
        keep: Also keep what a traceback reads (:class:`KeptMoves`).

    Returns:
        ``(B,)`` int64 scores, or the :class:`KeptMoves` when ``keep``.
    """
    if kind not in ("global", "semiglobal", "local"):
        raise ValueError(f"unknown linear sweep kind {kind!r}")
    dtype = _linear_dtype(model, _score_table(model), batch.n_max,
                          batch.m_max, force_wide)
    return _sweep(batch, model, kind, keep, dtype)


def sweep_banded(batch: PairBatch, model: ScoringModel,
                 width: int | None, fraction: float | None, keep: bool,
                 force_wide: bool = False,
                 ) -> tuple[np.ndarray | KeptMoves, np.ndarray, np.ndarray]:
    """Batched banded NW (same corridor as
    :class:`~repro.algorithms.banded.BandedAligner`): the global
    :func:`sweep_linear` body on each diagonal's rows of the lanes'
    corridors, the cells at the edges of each lane's masked after
    every diagonal (:class:`_Band`).

    Returns ``(scores_or_moves, cells_computed, max_widths)``: ``(B,)``
    int64 scores, or the :class:`KeptMoves` of the corridors when
    ``keep``. A score at or below :data:`PRUNE_FLOOR` means the band
    excluded the ``(n, m)`` corner for that pair.
    """
    band = _Band.of(batch, width, fraction)
    dtype = banded_dtype(model, batch.n_max, batch.m_max, force_wide)
    return _sweep(batch, model, "global", keep, dtype, band), band.cells, \
        band.widths


def _sweep(batch: PairBatch, model: ScoringModel, kind: str, keep: bool,
           dtype: type, band: _Band | None = None,
           ) -> np.ndarray | KeptMoves:
    """The one anti-diagonal body of :func:`sweep_linear` and
    :func:`sweep_banded`: diagonal ``d`` computes rows ``first[d]`` to
    ``last[d]`` -- the rectangle's, or the union of a band's lanes'."""
    B, m_max = batch.r.shape
    n_max = batch.q.shape[1]
    table = _score_table(model)
    gap_i, gap_d = dtype(model.gap_i), dtype(model.gap_d)
    local = kind == "local"
    steps = n_max + m_max + 1
    if band is None:
        diagonal = np.arange(steps)
        first = np.maximum(diagonal - m_max, 0)
        last = np.minimum(diagonal, n_max)
    else:
        first, last = band.first, band.last
    # Cell (i, d - i) reads query row i - 1 and reversed reference row
    # m - d + i: both step by one row as i does.
    q = np.ascontiguousarray(batch.q.T)
    r = np.ascontiguousarray(batch.r[:, ::-1].T)
    if table is None:
        mismatch = dtype(model.mismatch)
        delta = dtype(model.match - model.mismatch)
        eq = np.empty((n_max, B), dtype=bool)
    else:
        flat = table.astype(dtype).ravel()
        index = np.min_scalar_type(table.size - 1)
        q = q.astype(index) * table.shape[0]
        r = r.astype(index)
        at = np.empty((n_max, B), dtype=index)
    sub, diag, up = (np.empty((n_max, B), dtype=dtype) for _ in range(3))
    if band is None:
        buffers = np.empty((3, n_max + 1, B), dtype=dtype)
    else:
        neg = dtype(NEG_INF if dtype is np.int64
                    else np.iinfo(dtype).min // 2)
        buffers = np.full((3, n_max + 2, B), neg, dtype=dtype)
    h2, h1, h = buffers         # diagonal d in buffers[d % 3]

    # Each diagonal records what the captures need into ``seen``,
    # resolved once the sweep is done: each lane's row q_len (global /
    # semiglobal), or the diagonal's peak over the pair's own cells and,
    # as n + 1 - i, the first row holding it (local).
    if local:
        seen = np.zeros((steps, B), dtype=dtype)
        zeros = np.zeros((n_max, B), dtype=dtype)
        # Padded cells capped to 0: row i <= q_len, and reversed
        # reference row m - j with j <= r_len.
        top = np.iinfo(dtype).max
        q_cap = np.where(np.arange(n_max + 1)[:, None] <= batch.q_len,
                         top, 0).astype(dtype)
        r_cap = np.where(np.arange(m_max, 0, -1)[:, None] <= batch.r_len,
                         top, 0).astype(dtype)
        masked = np.empty((n_max, B), dtype=dtype)
        ranks = np.zeros((steps, B), dtype=dtype)
        ranks[0] = n_max + 1                        # H[0][0] = 0
    else:
        row_at = batch.q_len * B + np.arange(B)
        last_d = batch.q_len + batch.r_len
        first_d = last_d if kind == "global" else batch.q_len
        reads = range(int(first_d.min()), int(last_d.max()) + 1)
        seen = np.empty((len(reads), B), dtype=dtype)
    if keep:
        sizes = np.maximum(last - first + 1, 0)
        offsets = np.cumsum(sizes) - sizes - first
        planes = np.zeros((2 + local, int(sizes.sum()), B), dtype=bool)
        rows = np.arange(1, n_max + 1)
        rows = rows[last[rows] == rows]             # cells (i, 0) swept
        if local:
            planes[2, offsets[:m_max + 1]] = True   # H = 0 on the borders
            planes[2, offsets[rows] + rows] = True
            rank = np.arange(n_max + 1, 0, -1, dtype=dtype)[:, None]
            hit = np.empty((n_max, B), dtype=bool)
            ranked = np.empty((n_max, B), dtype=dtype)
        else:
            planes[1, offsets[rows] + rows] = True  # H[i][0] = i * gap_i
        kept_at = offsets.tolist()

    firsts, lasts = first.tolist(), last.tolist()
    edges = None if band is None else band.edges
    for d in range(steps):
        h2, h1, h = h1, h, h2
        a, z = firsts[d], lasts[d]
        if a > z:
            continue
        if a == 0:
            h[0] = d * model.gap_d if kind == "global" else 0
        if z == d:
            h[d] = 0 if local else d * model.gap_i
        lo, hi = max(1, a), min(z, d - 1) + 1
        if lo < hi:
            L, k = hi - lo, m_max - d
            cell, s, dg, u = h[lo:hi], sub[:L], diag[:L], up[:L]
            if table is None:
                np.equal(q[lo - 1:hi - 1], r[k + lo:k + hi], out=eq[:L])
                np.multiply(eq[:L], delta, out=s)
                np.add(s, mismatch, out=s)
            else:
                np.add(q[lo - 1:hi - 1], r[k + lo:k + hi], out=at[:L])
                flat.take(at[:L], out=s)
            np.add(h2[lo - 1:hi - 1], s, out=dg)
            np.add(h1[lo - 1:hi - 1], gap_i, out=u)
            np.add(h1[lo:hi], gap_d, out=cell)
            np.maximum(cell, u, out=cell)
            np.maximum(cell, dg, out=cell)
            if local:
                np.maximum(cell, zeros[:L], out=cell)
            if keep:
                o = kept_at[d]
                np.equal(cell, dg, out=planes[0, o + lo:o + hi])
                np.equal(cell, u, out=planes[1, o + lo:o + hi])
                if local:
                    np.equal(cell, zeros[:L], out=planes[2, o + lo:o + hi])
            if local:
                own = masked[:L]
                np.minimum(cell, q_cap[lo:hi], out=own)
                np.minimum(own, r_cap[k + lo:k + hi], out=own)
                own.max(axis=0, out=seen[d])
                if keep:
                    np.equal(own, seen[d], out=hit[:L])
                    np.multiply(hit[:L], rank[lo:hi], out=ranked[:L])
                    ranked[:L].max(axis=0, out=ranks[d])
        if band is not None:
            buffers.put(edges[d], neg)
        if not local and d in reads:
            h.take(row_at, out=seen[d - reads.start])

    if local:
        # The first maximum in row-major order: the smallest i among the
        # diagonals that reach the score, then the smallest d (so j).
        scores = seen.max(axis=0)
        ranks *= seen == scores
        earliest = ranks.max(axis=0)
        end_i = n_max + 1 - earliest.astype(np.int64)
        end_j = (ranks == earliest).argmax(axis=0) - end_i
    else:
        # Lane b's row q_len is its own on diagonals first..last; argmax
        # keeps the first maximum, the smallest j.
        diagonal = np.arange(reads.start, reads.stop)[:, None]
        window = (diagonal >= first_d) & (diagonal <= last_d)
        ends = np.where(window, seen, np.iinfo(dtype).min).argmax(axis=0)
        scores = seen[ends, np.arange(B)]
        end_i, end_j = batch.q_len, ends + reads.start - batch.q_len
    scores = scores.astype(np.int64)
    if not keep:
        return scores
    return KeptMoves(batch, planes, offsets, scores, end_i, end_j,
                     None if band is None else band.lo)


def walk_cells(kept: list[KeptMoves], piece: PairBatch, cells: int) -> int:
    """Resident cells of one lock-step walk over ``kept`` and the moves
    of ``piece``, ``cells`` per pair (:func:`kept_cells`): their planes
    plus the walk's ``steps x lanes`` history, so callers can size
    their walk groups."""
    batches = [piece] + [k.batch for k in kept]
    return piece.size * cells + sum(k.planes[0].size for k in kept) \
        + sum(b.size for b in batches) \
        * max(b.n_max + b.m_max + 1 for b in batches)


# ----------------------------------------------------------------------
# Affine-gap kernel (batched Gotoh)
# ----------------------------------------------------------------------

def sweep_affine(batch: PairBatch, model: ScoringModel,
                 penalties: AffineGapPenalties, keep: bool,
                 ) -> np.ndarray | tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched three-matrix Gotoh sweep (same recurrence as
    :class:`~repro.algorithms.affine.AffineAligner`).

    Returns ``(B,)`` scores, or the ``(H, E, F)`` matrix stacks when
    ``keep`` (for the shared :func:`affine_traceback`).
    """
    B, m_max = batch.r.shape
    n_max = batch.q.shape[1]
    table = _score_table(model)
    gap_open = np.int64(penalties.open)
    gap_ext = np.int64(penalties.extend)
    first = gap_open + gap_ext
    cols = np.arange(m_max + 1, dtype=np.int64)
    offsets = cols * gap_ext

    h_row = np.where(cols > 0, gap_open + gap_ext * cols, np.int64(0))
    h_row = np.broadcast_to(h_row, (B, m_max + 1)).copy()
    e_row = np.where(cols > 0, gap_open + gap_ext * cols, NEG_INF)
    e_row = np.broadcast_to(e_row, (B, m_max + 1)).copy()
    f_row = np.full((B, m_max + 1), NEG_INF, dtype=np.int64)

    h_mat = e_mat = f_mat = None
    if keep:
        shape = (B, n_max + 1, m_max + 1)
        h_mat = np.empty(shape, dtype=np.int64)
        e_mat = np.empty(shape, dtype=np.int64)
        f_mat = np.empty(shape, dtype=np.int64)
        h_mat[:, 0, :], e_mat[:, 0, :], f_mat[:, 0, :] = h_row, e_row, f_row
    out = np.zeros(B, dtype=np.int64)
    done = batch.q_len == 0
    if done.any():
        out[done] = h_row[done, batch.r_len[done]]

    g = np.empty((B, m_max + 1), dtype=np.int64)
    for i in range(1, n_max + 1):
        scores = _row_scores(model, table, batch.q[:, i - 1], batch.r)
        border = gap_open + gap_ext * np.int64(i)
        f_new = np.empty((B, m_max + 1), dtype=np.int64)
        f_new[:, 0] = border
        np.maximum(h_row[:, 1:] + first, f_row[:, 1:] + gap_ext,
                   out=f_new[:, 1:])
        diag = h_row[:, :-1] + scores
        g[:, 0] = border
        np.maximum(diag, f_new[:, 1:], out=g[:, 1:])
        opened = g + gap_open - offsets
        e_new = np.full((B, m_max + 1), NEG_INF, dtype=np.int64)
        if m_max:
            running = np.maximum.accumulate(opened[:, :-1], axis=1)
            e_new[:, 1:] = running + offsets[1:]
        h_new = np.empty((B, m_max + 1), dtype=np.int64)
        h_new[:, 0] = border
        np.maximum(g[:, 1:], e_new[:, 1:], out=h_new[:, 1:])
        h_row, e_row, f_row = h_new, e_new, f_new
        if keep:
            h_mat[:, i, :], e_mat[:, i, :], f_mat[:, i, :] = h_new, e_new, \
                f_new
        done = batch.q_len == i
        if done.any():
            out[done] = h_row[done, batch.r_len[done]]
    if keep:
        return h_mat, e_mat, f_mat
    return out
