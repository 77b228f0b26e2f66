"""Batched vectorized DP kernels: one NumPy sweep, many alignments.

Every kernel runs the *same* integer recurrence as its scalar
counterpart in ``repro.algorithms`` -- same prefix-scan row trick, same
``NEG_INF`` sentinel, in int64 or a narrower dtype proven safe for the
bucket -- but over a whole :class:`~repro.exec.buckets.PairBatch` at
once: each ``np.maximum`` / ``np.maximum.accumulate`` sweep advances
one DP row of *every* pair in the bucket (the batching axis plays the
role the anti-diagonal lanes play in Scrooge/KSW2). Because integer max/add is exact, the results
are bit-identical to the scalar algorithms; the conformance suite
(``tests/test_conformance.py``) locks both to the brute-force oracle.

Kernels come in two shapes:

- ``keep=False`` (score mode): rolling ``(B, m+1)`` rows, each pair's
  score captured the moment the sweep passes its true ``q_len`` row;
- ``keep=True`` (alignment mode): the state a traceback reads, for
  callers that chunk the batch to bound memory. The linear sweep keeps
  *moves*, not scores -- one byte per cell and plane saying which
  predecessor reproduces ``H[i][j]`` (:class:`KeptMoves`, walked by
  :func:`repro.dp.traceback.walk_moves`); the banded sweep keeps only
  its corridor (:class:`KeptBand`); the affine and X-drop sweeps still
  keep full ``(B, n+1, m+1)`` int64 score matrices.

Pairs shorter than the bucket rectangle are *frozen* once their rows
are done (``np.where`` keeps their state), and reductions mask padded
columns, so padding never leaks into a result.
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
    """Narrowest safe dtype for the tilted linear sweep.

    Tilted values are bounded by ``(n + 2m) * max|score term|``; when
    that fits comfortably in int32 the sweep halves its memory traffic
    (integer max/add is exact in either width, so results are
    bit-identical). ``force_wide`` pins int64 -- the degradation
    ladder's answer when an overflow guard / range check trips on the
    narrowed path.
    """
    if force_wide:
        return np.int64
    bound = (n_max + 2 * m_max + 2) * _max_abs_term(model, table)
    return np.int32 if bound < 2 ** 30 else np.int64


def linear_dtype(model: ScoringModel, n_max: int, m_max: int,
                 force_wide: bool = False) -> type:
    """The dtype :func:`sweep_linear` will pick for these dimensions.

    Public so the engine's profiler can label kernel phases
    (``linear.global[int32]``) and size modeled memory traffic without
    duplicating the narrowing rule.
    """
    return _linear_dtype(model, _score_table(model), n_max, m_max,
                         force_wide)


@dataclass(frozen=True)
class KeptMoves:
    """Kept state of a linear sweep: moves, not scores.

    Attributes:
        batch: The bucket that was swept.
        planes: ``(P, B, n+1, m+1)`` bool. ``planes[0][b, i, j]`` says
            the diagonal reproduces ``H_b[i][j]``, ``planes[1]`` that
            the up move does; the library-wide tie priority is how
            they are read -- diagonal, else up, else left -- so row 0
            is all false and column 0 all up. ``local`` sweeps add
            ``planes[2]``, the ``H == 0`` bit that stops the walk.
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
    """Batched linear-gap sweep.

    The running row is kept *tilted* -- ``row'[j] = H[i][j] - j*gap_d``
    -- so the prefix-scan needs no per-row offset subtract/add: the
    horizontal chain becomes a plain ``np.maximum.accumulate`` and the
    two offset passes vanish. Values are untilted only where they
    escape (captures), so every emitted number is identical to the
    untilted scalar recurrence; the kept move bits compare tilted
    values of one column with each other, which the tilt cancels out
    of.

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
    gap_i, gap_d = model.gap_i, model.gap_d
    cols = np.arange(m_max + 1, dtype=dtype)
    offsets = cols * dtype(gap_d)
    valid = cols <= batch.r_len[:, None]
    mm = isinstance(model, MatchMismatchModel)
    if mm:
        score_bound = max(abs(model.match - gap_d),
                          abs(model.mismatch - gap_d))
    else:
        score_bound = int(np.abs(table - gap_d).max())
    # Substitution scores are tiny; a narrow buffer halves their
    # memory traffic (adds upcast to the row dtype exactly). For table
    # models whose bucket fits a modest int8 tensor, precompute every
    # row's scores in one vectorized gather so the sweep reads
    # zero-copy views (match/mismatch scores are cheap to recompute
    # per row, so they skip the tensor).
    score_dtype = dtype if force_wide else (
        np.int16 if score_bound < 2 ** 14 else dtype)
    tensor = None
    if not mm and not force_wide and score_bound < 127 \
            and B * n_max * m_max <= (1 << 26):
        table_i8 = (table - gap_d).astype(np.int8)
        n_sym = table_i8.shape[0]
        flat = table_i8[:, batch.r.astype(np.intp)].transpose(1, 0, 2)
        flat = np.ascontiguousarray(flat).reshape(B * n_sym, m_max)
        idx = np.arange(B, dtype=np.int64)[:, None] * n_sym + batch.q
        tensor = np.take(flat, idx, axis=0)
        scores = eq = None
    elif mm:
        # Fold the tilt's "- gap_d" into the substitution scores.
        match_t = score_dtype(model.match - gap_d)
        miss_t = score_dtype(model.mismatch - gap_d)
        eq = np.empty((B, m_max), dtype=bool)
        scores = np.empty((B, m_max), dtype=score_dtype)
    else:
        # Per-pair scoring profile: profile[b * n_sym + c, j] =
        # S(c, r[b, j]) - gap_d. One random-access gather per bucket;
        # every row then pulls one contiguous profile row per pair
        # (``np.take`` straight into the scores buffer) instead of
        # doing a 2-D random gather into the substitution table.
        table_t = (table - gap_d).astype(score_dtype)
        n_sym = table_t.shape[0]
        profile = np.ascontiguousarray(
            table_t[:, batch.r.astype(np.intp)].transpose(1, 0, 2)
        ).reshape(B * n_sym, m_max)
        b_base = np.arange(B, dtype=np.int64) * n_sym
        eq = None
        scores = np.empty((B, m_max), dtype=score_dtype)
    diag = np.empty((B, m_max), dtype=dtype)

    if kind == "global":
        row = np.zeros((B, m_max + 1), dtype=dtype)  # H = offsets
    else:
        row = np.negative(np.broadcast_to(offsets, (B, m_max + 1)))
        row = np.ascontiguousarray(row)              # H = 0
    neg_offsets = -offsets
    out = np.zeros(B, dtype=np.int64)
    masked_floor = dtype(np.iinfo(dtype).min // 4)
    local = kind == "local"
    if local:
        best = np.zeros(B, dtype=np.int64)          # running maximum
        untilted = np.empty((B, m_max + 1), dtype=dtype)
    if keep:
        planes = np.zeros((2 + local, B, n_max + 1, m_max + 1), dtype=bool)
        diag_ok, up_ok = planes[0], planes[1]
        if local:
            planes[2, :, 0, :] = True                # H[0][j] = 0
        else:
            up_ok[:, 1:, 0] = True                   # H[i][0] = i * gap_i
        end_i = np.zeros(B, dtype=np.int64) if local else batch.q_len
        end_j = batch.r_len if kind == "global" \
            else np.zeros(B, dtype=np.int64)
    up_kept = np.empty((B, m_max), dtype=dtype) if keep else None

    def capture(i: int, current: np.ndarray) -> None:
        done = batch.q_len == i
        if not done.any():
            return
        if kind == "global":
            ends = batch.r_len[done]
            out[done] = current[done, ends].astype(np.int64) \
                + ends * gap_d
        elif kind == "semiglobal":
            # Untilt + mask only the finishing pairs (column 0 is
            # always valid, so the mask floor never escapes).
            masked = np.where(valid[done], current[done] + offsets,
                              masked_floor)
            out[done] = masked.max(axis=1).astype(np.int64)
            if keep:
                end_j[done] = masked.argmax(axis=1)
        # local is captured via the running best below

    capture(0, row)
    g = np.empty((B, m_max + 1), dtype=dtype)
    for i in range(1, n_max + 1):
        if tensor is not None:
            scores = tensor[:, i - 1, :]
        elif mm:
            np.equal(batch.r, batch.q[:, i - 1][:, None], out=eq)
            np.multiply(eq, match_t - miss_t, out=scores)
            scores += miss_t
        else:
            np.take(profile, b_base + batch.q[:, i - 1], axis=0,
                    out=scores)
        g[:, 0] = 0 if local else i * gap_i
        inner = g[:, 1:]
        up = up_kept if keep else inner     # score mode: built in place
        np.add(row[:, :-1], scores, out=diag)
        np.add(row[:, 1:], dtype(gap_i), out=up)
        np.maximum(diag, up, out=inner)
        np.maximum.accumulate(g, axis=1, out=g)
        row, g = g, row
        if local:
            np.maximum(row, neg_offsets, out=row)   # H = max(H, 0)
            active = batch.q_len >= i
            if active.any():
                np.add(row, offsets, out=untilted)
                masked = np.where(valid, untilted, 0)
                row_best = masked.max(axis=1)
                if keep:
                    # Strictly better only: the first maximum in
                    # row-major order is where the scalar walk starts.
                    better = active & (row_best > best)
                    end_i[better] = i
                    end_j[better] = masked[better].argmax(axis=1)
                np.maximum(best, np.where(active, row_best, 0), out=best)
        if keep:
            # One compare per move, against the buffers the row was
            # just built from.
            np.equal(inner, diag, out=diag_ok[:, i, 1:])
            np.equal(inner, up, out=up_ok[:, i, 1:])
            if local:
                np.equal(row, neg_offsets, out=planes[2, :, i, :])
        capture(i, row)
    final = best if local else out
    return KeptMoves(batch, planes, final, end_i, end_j) if keep else final


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


# ----------------------------------------------------------------------
# X-drop kernel
# ----------------------------------------------------------------------

def sweep_xdrop(batch: PairBatch, model: ScoringModel,
                xdrop: int | None, fraction: float | None, keep: bool,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Batched X-drop global sweep (same pruning schedule as
    :class:`~repro.algorithms.xdrop.XdropAligner`).

    Returns ``(scores_or_matrices, cells, max_widths, failed)``; a
    pair fails when every active cell dropped below ``best - x`` or the
    final corner was pruned.
    """
    B, m_max = batch.r.shape
    n_max = batch.q.shape[1]
    table = _score_table(model)
    gap_i, gap_d = np.int64(model.gap_i), np.int64(model.gap_d)
    if xdrop is not None:
        threshold = np.full(B, int(xdrop), dtype=np.int64)
    else:
        threshold = np.maximum(1, np.round(
            fraction * model.theta
            * np.maximum(batch.q_len, batch.r_len)).astype(np.int64))
    cols = np.arange(m_max + 1, dtype=np.int64)
    offsets = cols * gap_d
    valid = cols[None, :] <= batch.r_len[:, None]

    row = np.where(valid, offsets[None, :], NEG_INF)
    best = np.where(valid, row, NEG_INF).max(axis=1)
    row = np.where(row < (best - threshold)[:, None], NEG_INF, row)
    alive = row > PRUNE_FLOOR
    lo = np.argmax(alive, axis=1).astype(np.int64)
    hi = (m_max - np.argmax(alive[:, ::-1], axis=1)).astype(np.int64)
    cells = hi - lo + 1
    widths = cells.copy()
    dropped = np.zeros(B, dtype=bool)
    matrices = None
    if keep:
        matrices = np.full((B, n_max + 1, m_max + 1), NEG_INF,
                           dtype=np.int64)
        matrices[:, 0, :] = row
    out = np.full(B, NEG_INF, dtype=np.int64)
    done = batch.q_len == 0
    if done.any():
        out[done] = row[done, batch.r_len[done]]

    g = np.empty((B, m_max + 1), dtype=np.int64)
    for i in range(1, n_max + 1):
        active = (~dropped) & (batch.q_len >= i)
        if not active.any():
            break
        scores = _row_scores(model, table, batch.q[:, i - 1], batch.r)
        g[:, 0] = np.where(lo == 0, np.int64(i) * gap_i, NEG_INF)
        np.maximum(row[:, :-1] + scores, row[:, 1:] + gap_i, out=g[:, 1:])
        new_row = np.maximum.accumulate(g - offsets, axis=1) + offsets
        window_hi = np.minimum(batch.r_len, hi + 1)
        col_ok = (cols[None, :] >= lo[:, None]) \
            & (cols[None, :] <= window_hi[:, None])
        new_row = np.where(col_ok, new_row, NEG_INF)
        best = np.where(active, np.maximum(best, new_row.max(axis=1)), best)
        new_row = np.where(new_row < (best - threshold)[:, None], NEG_INF,
                           new_row)
        row = np.where(active[:, None], new_row, row)
        if keep:
            matrices[:, i, :] = np.where(active[:, None], new_row, NEG_INF)
        alive = row > PRUNE_FLOOR
        any_alive = alive.any(axis=1)
        dropped |= active & ~any_alive
        still = active & any_alive
        new_lo = np.argmax(alive, axis=1).astype(np.int64)
        new_hi = (m_max - np.argmax(alive[:, ::-1], axis=1)).astype(np.int64)
        lo = np.where(still, new_lo, lo)
        hi = np.where(still, new_hi, hi)
        band_cells = new_hi - new_lo + 1
        cells += np.where(still, band_cells, 0)
        np.maximum(widths, np.where(still, band_cells, 0), out=widths)
        done = (batch.q_len == i) & ~dropped
        if done.any():
            out[done] = row[done, batch.r_len[done]]
    failed = dropped | (out <= PRUNE_FLOOR)
    result = matrices if keep else out
    return result, cells, widths, failed
