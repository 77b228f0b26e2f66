"""Batched vectorized DP kernels: one NumPy sweep, many alignments.

Every kernel runs the *same* integer recurrence as its scalar
counterpart in ``repro.algorithms`` -- same ``NEG_INF`` sentinel, in
int64 or a narrower dtype proven safe for the bucket -- but over a
whole :class:`~repro.exec.buckets.PairBatch` at once, the batching
axis playing the role the anti-diagonal lanes play in Scrooge/KSW2.
The linear sweep advances one *anti-diagonal* of every pair per step,
a handful of element-wise ops on ``(diag, B)`` lanes with no scan
(SMX-1D's schedule); the affine and banded sweeps advance one DP row
per step with the scalar aligners' prefix-scan row trick. Because
integer max/add is exact, the results are bit-identical to the scalar
algorithms; the conformance suite (``tests/test_conformance.py``)
locks both to the brute-force oracle.

Kernels come in two shapes:

- ``keep=False`` (score mode): rolling buffers, each pair's score
  captured the moment the sweep passes its true ``(q_len, r_len)``
  extent;
- ``keep=True`` (alignment mode): the state a traceback reads, for
  callers that chunk the batch to bound memory. The linear sweep keeps
  *moves*, not scores -- one byte per cell and plane saying which
  predecessor reproduces ``H[i][j]`` (:class:`KeptMoves`, walked by
  :func:`repro.dp.traceback.walk_moves`); the banded sweep keeps only
  its corridor (:class:`KeptBand`); the affine sweep still keeps full
  ``(B, n+1, m+1)`` int64 score matrices.

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
# Linear-gap kernels: global / semiglobal / local
# ----------------------------------------------------------------------

def _max_abs_term(model: ScoringModel, table: np.ndarray | None) -> int:
    """Largest magnitude of any substitution score or gap penalty."""
    if table is None:
        return max(abs(model.match), abs(model.mismatch),
                   abs(model.gap_i), abs(model.gap_d), 1)
    return max(int(np.abs(table).max()), abs(model.gap_i),
               abs(model.gap_d), 1)


def _linear_dtype(model: ScoringModel, table: np.ndarray | None,
                  n_max: int, m_max: int,
                  force_wide: bool = False) -> type:
    """Narrowest safe dtype for the linear sweep.

    Every value the sweep forms -- a cell, or a cell plus one term --
    sums at most ``n + m + 1`` score terms, so it is bounded by
    ``(n + m + 2) * max|score term|``. Below ``2**14`` the sweep runs
    on int16 lanes, below ``2**30`` on int32, each with a factor of two
    to spare (integer max/add is exact in any width, so results are
    bit-identical). ``force_wide`` pins int64 -- the degradation
    ladder's answer when an overflow guard / range check trips on the
    narrowed path.
    """
    if force_wide:
        return np.int64
    bound = (n_max + m_max + 2) * _max_abs_term(model, table)
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


@dataclass(frozen=True)
class KeptMoves:
    """Kept state of a linear sweep: moves, not scores.

    Attributes:
        batch: The bucket that was swept.
        planes: ``(P, n+1, m+1, B)`` bool, lanes innermost.
            ``planes[0][i, j, b]`` says the diagonal reproduces
            ``H_b[i][j]``, ``planes[1]`` that the up move does; the
            library-wide tie priority is how they are read -- diagonal,
            else up, else left -- so row 0 is all false and column 0
            all up. ``local`` sweeps add ``planes[2]``, the ``H == 0``
            bit that stops the walk.
        scores: ``(B,)`` int64 scores, the same ``keep=False`` returns.
        end_i / end_j: ``(B,)`` cell each pair's walk starts from: the
            ``(q_len, r_len)`` corner, the first maximum of the last
            row (semiglobal) or of the matrix in row-major order
            (local).
    """

    batch: PairBatch
    planes: np.ndarray
    scores: np.ndarray
    end_i: np.ndarray
    end_j: np.ndarray


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
    B, m_max = batch.r.shape
    n_max = batch.q.shape[1]
    table = _score_table(model)
    dtype = _linear_dtype(model, table, n_max, m_max, force_wide)
    gap_i, gap_d = dtype(model.gap_i), dtype(model.gap_d)
    local = kind == "local"
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
    h2, h1, h = (np.empty((n_max + 1, B), dtype=dtype) for _ in range(3))

    # Each diagonal records what the captures need into ``seen``,
    # resolved once the sweep is done: each lane's row q_len (global /
    # semiglobal), or the diagonal's peak over the pair's own cells and,
    # as n + 1 - i, the first row holding it (local).
    steps = n_max + m_max + 1
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
        last = batch.q_len + batch.r_len
        first = last if kind == "global" else batch.q_len
        reads = range(int(first.min()), int(last.max()) + 1)
        seen = np.empty((len(reads), B), dtype=dtype)
    if keep:
        planes = np.zeros((2 + local, n_max + 1, m_max + 1, B), dtype=bool)
        if local:
            planes[2, 0] = planes[2, :, 0] = True   # H = 0 on the borders
            rank = np.arange(n_max + 1, 0, -1, dtype=dtype)[:, None]
            hit = np.empty((n_max, B), dtype=bool)
            ranked = np.empty((n_max, B), dtype=dtype)
        else:
            planes[1, 1:, 0] = True                 # H[i][0] = i * gap_i
        # views[p][i, d] is plane p's cell (i, d - i).
        views = [np.lib.stride_tricks.as_strided(
            plane, shape=(n_max + 1, steps, B),
            strides=(m_max * B, B, 1)) for plane in planes]

    for d in range(steps):
        h2, h1, h = h1, h, h2
        if d <= m_max:
            h[0] = d * model.gap_d if kind == "global" else 0
        if d <= n_max:
            h[d] = 0 if local else d * model.gap_i
        lo, hi = max(1, d - m_max), min(n_max, d - 1) + 1
        if lo < hi:
            L, k = hi - lo, m_max - d
            cell, s, dg, u = h[lo:hi], sub[:L], diag[:L], up[:L]
            if table is None:
                np.equal(q[lo - 1:hi - 1], r[k + lo:k + hi], out=eq[:L])
                np.multiply(eq[:L], delta, out=s)
                np.add(s, mismatch, out=s)
            else:
                np.add(q[lo - 1:hi - 1], r[k + lo:k + hi], out=at[:L])
                np.take(flat, at[:L], out=s)
            np.add(h2[lo - 1:hi - 1], s, out=dg)
            np.add(h1[lo - 1:hi - 1], gap_i, out=u)
            np.add(h1[lo:hi], gap_d, out=cell)
            np.maximum(cell, u, out=cell)
            np.maximum(cell, dg, out=cell)
            if local:
                np.maximum(cell, zeros[:L], out=cell)
            if keep:
                np.equal(cell, dg, out=views[0][lo:hi, d])
                np.equal(cell, u, out=views[1][lo:hi, d])
                if local:
                    np.equal(cell, zeros[:L], out=views[2][lo:hi, d])
            if local:
                own = masked[:L]
                np.minimum(cell, q_cap[lo:hi], out=own)
                np.minimum(own, r_cap[k + lo:k + hi], out=own)
                own.max(axis=0, out=seen[d])
                if keep:
                    np.equal(own, seen[d], out=hit[:L])
                    np.multiply(hit[:L], rank[lo:hi], out=ranked[:L])
                    ranked[:L].max(axis=0, out=ranks[d])
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
        window = (diagonal >= first) & (diagonal <= last)
        ends = np.where(window, seen, np.iinfo(dtype).min).argmax(axis=0)
        scores = seen[ends, np.arange(B)]
        end_i, end_j = batch.q_len, ends + reads.start - batch.q_len
    scores = scores.astype(np.int64)
    if not keep:
        return scores
    return KeptMoves(batch, planes, scores, end_i, end_j)


def walk_cells(pieces: list[PairBatch]) -> int:
    """Resident cells of one lock-step walk over the kept moves of
    ``pieces``: their planes plus the walk's ``steps x lanes`` history,
    so callers can size their walk groups."""
    return sum(piece.size * (piece.n_max + 1) * (piece.m_max + 1)
               for piece in pieces) \
        + sum(piece.size for piece in pieces) \
        * max(piece.n_max + piece.m_max + 1 for piece in pieces)


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


# ----------------------------------------------------------------------
# Banded kernel
# ----------------------------------------------------------------------

def _band_matrix(batch: PairBatch, width: int | None,
                 fraction: float | None,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-pair ``(B, n+1)`` band intervals over the rows ``0..n`` some
    pair sweeps (``n = max q_len``), replicating
    :func:`repro.algorithms.banded.band_intervals` exactly.

    Returns ``(swept, lo, hi)``; ``swept[b, i]`` marks ``i <= q_len[b]``,
    the rows on which pair ``b``'s interval means anything.
    """
    B = batch.size
    rows = np.arange(int(batch.q_len.max(initial=0)) + 1, dtype=np.float64)
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
class KeptBand:
    """Compact kept matrices of a banded sweep: the corridor only.

    Attributes:
        rows: ``(B, n+1, W)`` band storage, ``rows[b, i, k]`` being
            ``H_b[i][start[i] + k]``. ``W`` is the bucket's widest
            union window -- ``2*half + 1`` plus the spread of the
            pairs' diagonals plus the one-row lag of the window -- not
            ``m+1``. Masked cells hold the sweep dtype's sentinel.
        start: ``(n+1,)`` first stored column of each row; a column
            outside ``[start[i], start[i] + W)`` is outside every
            pair's band and reads as unreachable
            (:func:`repro.dp.traceback.traceback_banded`).
        scores: ``(B,)`` int64 corner scores ``H_b[q_len][r_len]``,
            ``NEG_INF`` where the band excluded the corner.
    """

    rows: np.ndarray
    start: np.ndarray
    scores: np.ndarray


def _band_windows(swept: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                  ) -> tuple[np.ndarray, int]:
    """Per-row union window ``[start[i], start[i] + W)`` of a bucket's
    bands: over the pairs sweeping row ``i``, the union of
    ``[min(lo[i-1], lo[i]), hi[i]]``.

    The window opens at the *previous* row's ``lo`` because the scalar
    recurrence lets values flow through columns ``lo[i-1] <= j <
    lo[i]`` of row ``i`` during the horizontal scan before it masks
    them.
    """
    first = lo.copy()
    np.minimum(lo[:, :-1], lo[:, 1:], out=first[:, 1:])
    start = np.where(swept, first, np.iinfo(np.int64).max).min(axis=0)
    stop = np.where(swept, hi, 0).max(axis=0)
    return start, int((stop - start).max()) + 1


def band_storage_cells(batch: PairBatch, width: int | None,
                       fraction: float | None) -> int:
    """Cells per pair that ``sweep_banded(keep=True)`` stores for this
    bucket -- an upper bound for any slice of it -- so callers can
    size their chunks."""
    swept, lo, hi = _band_matrix(batch, width, fraction)
    return lo.shape[1] * _band_windows(swept, lo, hi)[1]


def banded_dtype(model: ScoringModel, n_max: int, m_max: int,
                 force_wide: bool = False) -> type:
    """The dtype :func:`sweep_banded` will pick for these dimensions.

    Stricter than :func:`linear_dtype`: the window runs up to
    ``m_max + 1`` padding columns past the rectangle, and the int32
    sentinel ``-2**30`` needs room on both sides -- reachable values
    stay above ``-2**29``, values derived from the sentinel stay below
    it and never wrap.
    """
    if force_wide:
        return np.int64
    bound = (n_max + 2 * (2 * m_max + 1) + 2) \
        * _max_abs_term(model, _score_table(model))
    return np.int32 if bound < 2 ** 27 else np.int64


def sweep_banded(batch: PairBatch, model: ScoringModel,
                 width: int | None, fraction: float | None, keep: bool,
                 force_wide: bool = False,
                 ) -> tuple[np.ndarray | KeptBand, np.ndarray, np.ndarray]:
    """Batched banded NW (same corridor as
    :class:`~repro.algorithms.banded.BandedAligner`).

    Every row is computed, scanned and masked on the bucket's union
    window of ``W`` columns only (:func:`_band_windows`), in place on
    one tilted running row as in :func:`sweep_linear`; ``keep`` stores
    that window and nothing else.

    Returns ``(scores_or_band, cells_computed, max_widths)``: ``(B,)``
    int64 scores, or a :class:`KeptBand` when ``keep``. A score at or
    below :data:`PRUNE_FLOOR` means the band excluded the ``(n, m)``
    corner for that pair.
    """
    B, m_max = batch.r.shape
    table = _score_table(model)
    dtype = banded_dtype(model, batch.q.shape[1], m_max, force_wide)
    neg = dtype(NEG_INF if dtype is np.int64 else -(1 << 30))
    gap_i, gap_d = model.gap_i, model.gap_d
    swept, lo, hi = _band_matrix(batch, width, fraction)
    band = np.where(swept, hi - lo + 1, 0)
    cells, widths = band.sum(axis=1), band.max(axis=1)
    start, W = _band_windows(swept, lo, hi)
    starts = start.tolist()
    # Window-relative band edges, one contiguous row per DP row: pair
    # b's band in row i is columns start[i] + (left[i, b] ..
    # right[i, b]). Only the strips [0, strip_l[i]) and [strip_r[i], W)
    # of the window hold out-of-band cells of any pair, so only they
    # are compared and masked. Rows a pair no longer sweeps are never
    # read back; they keep the whole window.
    left = np.ascontiguousarray(np.where(swept, lo - start, 0).T)
    right = np.ascontiguousarray(np.where(swept, hi - start, W).T)
    strip_l = left.max(axis=1).tolist()
    strip_r = (right.min(axis=1) + 1).tolist()
    ks = np.arange(W)

    # Buffer index = column + 1 (index 0 is a sentinel guard for the
    # diagonal read of column 0); W padding columns on the right let
    # every window be W wide. The columns a window leaves behind on its
    # left lie below every sweeping pair's lo of that row, so the mask
    # has already reset them. r_pad[:, j] is the reference symbol that
    # cell column j consumes.
    columns = m_max + 1 + W
    row = np.full((B, columns + 1), neg, dtype=dtype)
    r_pad = np.zeros((B, columns), dtype=np.uint8)
    r_pad[:, 1:m_max + 1] = batch.r
    q_cols = np.ascontiguousarray(batch.q.T)
    score_dtype = dtype if force_wide or \
        2 * _max_abs_term(model, table) >= 2 ** 14 else np.int16
    if table is None:
        # Fold the tilt's "- gap_d" into the substitution scores.
        match_t = score_dtype(model.match - gap_d)
        miss_t = score_dtype(model.mismatch - gap_d)
        eq = np.empty((B, W), dtype=bool)
        scores = np.empty((B, W), dtype=score_dtype)
    else:
        # profile[b, c, j] = S(c, r_pad[b, j]) - gap_d: each row pulls
        # one window of one profile row per pair.
        profile = np.ascontiguousarray(
            (table - gap_d).astype(score_dtype)[:, r_pad].transpose(1, 0, 2))
        pair_ids = np.arange(B)
        q_cols = q_cols.astype(np.intp)

    offsets = np.arange(columns, dtype=dtype) * dtype(gap_d)
    stored = np.empty((B, len(starts), W), dtype=dtype) if keep else None
    finishing: dict[int, list[int]] = {}
    for b, n in enumerate(batch.q_len.tolist()):
        finishing.setdefault(n, []).append(b)
    raw = np.full(B, neg, dtype=dtype)

    def settle(i: int, window: np.ndarray) -> None:
        """Mask row ``i`` to the bands, keep it, capture finished pairs."""
        cut = strip_l[i]
        if cut:
            np.copyto(window[:, :cut], neg,
                      where=ks[:cut] < left[i][:, None])
        cut = strip_r[i]
        if cut < W:
            np.copyto(window[:, cut:], neg,
                      where=ks[cut:] > right[i][:, None])
        if keep:
            np.add(window, offsets[starts[i]:starts[i] + W],
                   out=stored[:, i])
        done = finishing.get(i)
        if done:
            raw[done] = row[done, batch.r_len[done] + 1]

    window = row[:, starts[0] + 1:starts[0] + 1 + W]
    window[...] = 0                                  # H[0][j] = j * gap_d
    settle(0, window)
    up_step = dtype(gap_i)
    diag = np.empty((B, W), dtype=dtype)
    g = np.empty((B, W), dtype=dtype)
    for i in range(1, len(starts)):
        s = starts[i]
        if table is None:
            np.equal(r_pad[:, s:s + W], q_cols[i - 1][:, None], out=eq)
            np.multiply(eq, match_t - miss_t, out=scores)
            scores += miss_t
        else:
            scores = profile[pair_ids, q_cols[i - 1], s:s + W]
        window = row[:, s + 1:s + 1 + W]
        np.add(row[:, s:s + W], scores, out=diag)
        np.add(window, up_step, out=g)
        np.maximum(diag, g, out=g)
        if s == 0:
            g[:, 0] = np.where(lo[:, i] == 0, dtype(i * gap_i), neg)
        np.maximum.accumulate(g, axis=1, out=window)
        settle(i, window)
    out = np.where(raw <= neg // 2, NEG_INF,
                   raw.astype(np.int64) + batch.r_len * gap_d)
    return (KeptBand(stored, start, out) if keep else out), cells, widths

