"""Traceback over an absolute DP matrix (paper Sec. 2.1, Fig. 3c).

Traceback walks from ``M[n][m]`` to ``M[0][0]`` following whichever
predecessor produced each cell's value. Ties are broken with a fixed
priority -- diagonal, then up (insertion), then left (deletion) -- and
*every* traceback in the library (gold, delta-domain, SMX tile recompute)
uses the same priority so alignments are bit-identical across paths.
"""

from __future__ import annotations

import numpy as np

from repro.dp.alignment import Alignment, compress_ops
from repro.errors import AlignmentError
from repro.scoring.model import ScoringModel

#: Move codes (also used by the delta-domain and tile tracebacks).
DIAG, UP, LEFT = 0, 1, 2


def traceback_full(matrix: np.ndarray, q_codes: np.ndarray,
                   r_codes: np.ndarray, model: ScoringModel,
                   ) -> tuple[list[tuple[int, str]], list[tuple[int, int]]]:
    """Trace the optimal path through a full absolute DP matrix.

    Returns:
        ``(cigar, path)`` where ``path`` lists the visited ``(i, j)``
        cells from ``(n, m)`` down to ``(0, 0)`` inclusive.
    """
    i, j = len(q_codes), len(r_codes)
    if matrix.shape != (i + 1, j + 1):
        raise AlignmentError(
            f"matrix shape {matrix.shape} does not match sequences "
            f"({i + 1}, {j + 1})"
        )
    ops: list[str] = []
    path = [(i, j)]
    while i > 0 or j > 0:
        here = int(matrix[i, j])
        if i > 0 and j > 0:
            sub = model.substitution(int(q_codes[i - 1]), int(r_codes[j - 1]))
            if here == int(matrix[i - 1, j - 1]) + sub:
                ops.append("=" if q_codes[i - 1] == r_codes[j - 1] else "X")
                i, j = i - 1, j - 1
                path.append((i, j))
                continue
        if i > 0 and here == int(matrix[i - 1, j]) + model.gap_i:
            ops.append("I")
            i -= 1
        elif j > 0 and here == int(matrix[i, j - 1]) + model.gap_d:
            ops.append("D")
            j -= 1
        else:
            raise AlignmentError(
                f"no valid predecessor at ({i}, {j}); matrix is inconsistent"
            )
        path.append((i, j))
    ops.reverse()
    path.reverse()
    return compress_ops(ops), path


def traceback_banded(rows: np.ndarray, start: np.ndarray,
                     q_codes: np.ndarray, r_codes: np.ndarray,
                     model: ScoringModel,
                     ) -> tuple[list[tuple[int, str]], list[tuple[int, int]]]:
    """:func:`traceback_full` over compact band storage.

    ``rows[i, k]`` holds ``M[i][start[i] + k]``; a column outside
    ``[start[i], start[i] + W)`` was never computed and reads as
    unreachable (half the storage dtype's minimum, which no reachable
    score derives from). Same tie priority, same ``(cigar, path)``,
    same "no valid predecessor" error as the full-matrix walk over the
    equivalent ``NEG_INF``-filled matrix.
    """
    i, j = len(q_codes), len(r_codes)
    width = rows.shape[1]
    if rows.shape[0] <= i or len(start) <= i:
        raise AlignmentError(
            f"band storage of {rows.shape[0]} rows does not cover "
            f"{i + 1} query rows")
    neg = int(np.iinfo(rows.dtype).min) // 2
    starts = start.tolist()
    q, r = np.asarray(q_codes).tolist(), np.asarray(r_codes).tolist()
    cell, substitution = rows.item, model.substitution
    gap_i, gap_d = model.gap_i, model.gap_d

    k = j - starts[i]
    here = cell(i, k) if 0 <= k < width else neg
    ops: list[str] = []
    path = [(i, j)]
    while i > 0 or j > 0:
        if i > 0:
            k = j - starts[i - 1]
            if j > 0:
                diag = cell(i - 1, k - 1) if 0 < k <= width else neg
                if here == diag + substitution(q[i - 1], r[j - 1]):
                    ops.append("=" if q[i - 1] == r[j - 1] else "X")
                    i, j, here = i - 1, j - 1, diag
                    path.append((i, j))
                    continue
            up = cell(i - 1, k) if 0 <= k < width else neg
        if i > 0 and here == up + gap_i:
            ops.append("I")
            i, here = i - 1, up
        else:
            k = j - 1 - starts[i]
            left = cell(i, k) if 0 <= k < width else neg
            if j > 0 and here == left + gap_d:
                ops.append("D")
                j, here = j - 1, left
            else:
                raise AlignmentError(
                    f"no valid predecessor at ({i}, {j}); matrix is "
                    "inconsistent")
        path.append((i, j))
    ops.reverse()
    path.reverse()
    return compress_ops(ops), path


#: CIGAR letters of the lock-step walk's step codes; 0 pads the steps
#: a lane did not take.
_STEP_OPS = np.array([" ", "=", "X", "I", "D"])


def walk_moves(buckets, kind: str,
               ) -> tuple[list[list[tuple[int, str]]], list[int], list[int]]:
    """Walk the kept move planes of a group of buckets in lock step.

    Every pair is a *lane*; one step gathers each live lane's move bits
    from the concatenated planes and moves it one cell, for all lanes
    at once. The bits are read in the library's tie priority --
    diagonal, else up, else left -- so the paths are those of
    :func:`traceback_full` (``global``), ``semiglobal_traceback`` and
    ``local_traceback`` over the score matrices the bits were taken
    from, without the scores.

    Args:
        buckets: Per bucket ``(planes, end_i, end_j, q, r)``: the
            ``(P, B, n+1, m+1)`` bool planes ``[diag_ok, up_ok]`` (plus
            the ``H == 0`` stop plane of a ``local`` sweep), the
            ``(B,)`` cells the walks start from, and the padded
            ``(B, n)`` / ``(B, m)`` code arrays.
        kind: ``"global"`` walks to ``(0, 0)``, ``"semiglobal"`` to row
            0, ``"local"`` to the first cell whose stop bit is set.

    Returns:
        ``(cigars, start_i, start_j)``, one entry per lane in bucket
        order: the run-length encoded path and the cell it stopped at.
        The walk keeps ``steps x lanes`` bytes of history per plane,
        ``steps`` being the largest ``end_i + end_j``.
    """
    base, stride, q_at, r_at = [], [], [], []
    cells = q_cells = r_cells = 0
    for planes, _, _, q, r in buckets:
        _, size, rows, cols = planes.shape
        lane = np.arange(size, dtype=np.int64)
        base.append(cells + lane * (rows * cols))
        stride.append(np.full(size, cols, dtype=np.int64))
        q_at.append(q_cells + lane * q.shape[1])
        r_at.append(r_cells + lane * r.shape[1])
        cells += size * rows * cols
        q_cells += q.size
        r_cells += r.size
    depth = buckets[0][0].shape[0]
    flat = buckets[0][0].reshape(depth, -1) if len(buckets) == 1 else \
        np.concatenate([b[0].reshape(depth, -1) for b in buckets], axis=1)
    # One spare symbol keeps the clipped look-ups legal for empty codes.
    spare = [np.zeros(1, dtype=np.uint8)]
    q_flat = np.concatenate([b[3].ravel() for b in buckets] + spare)
    r_flat = np.concatenate([b[4].ravel() for b in buckets] + spare)
    end_i = np.concatenate([b[1] for b in buckets])
    end_j = np.concatenate([b[2] for b in buckets])
    # Longest possible walk first, so finished lanes are shed from the
    # tail by shortening views; every step leaves a row or a column.
    order = np.argsort(-(end_i + end_j), kind="stable")
    end_i, end_j = end_i[order], end_j[order]
    base, stride = np.concatenate(base)[order], np.concatenate(stride)[order]
    q_at, r_at = np.concatenate(q_at)[order], np.concatenate(r_at)[order]
    floor = base + (stride - 1) * (kind == "semiglobal")
    pos = base + end_i * stride + end_j
    lanes = len(base)
    steps = int((end_i + end_j).max(initial=0)) + 1
    bits = np.zeros((steps, depth, lanes), dtype=bool)
    alive = np.zeros((steps, lanes), dtype=bool)
    rolling = (pos, floor, stride, np.empty(lanes, dtype=bool),
               np.empty(lanes, dtype=bool), np.empty(lanes, dtype=np.int64))
    width, step = lanes, 0
    while True:
        at, stop, pitch, down, left, jump = rolling
        got, live = bits[step, :, :width], alive[step, :width]
        np.take(flat, at, axis=1, out=got, mode="clip")
        if kind == "local":
            np.logical_not(got[2], out=live)
        else:
            np.greater(at, stop, out=live)
        if not live[-1]:
            width = int(np.flatnonzero(live)[-1]) + 1 if live.any() else 0
            if not width:
                break
            rolling = tuple(view[:width] for view in rolling)
            continue
        # diagonal: row and column; up: the row; left: the column.
        np.logical_or(got[0], got[1], out=down)
        np.greater_equal(got[0], got[1], out=left)
        np.multiply(down, pitch, out=jump)
        np.add(jump, left, out=jump)
        np.multiply(jump, live, out=jump)       # a finished lane stays
        np.subtract(at, jump, out=at)
        step += 1
    # The rest is whole-group array work on the (step, lanes) history.
    alive, diag, up = alive[:step], bits[:step, 0], bits[:step, 1]

    def consumed(symbols, last, moved):
        """The symbol each step's move consumed, were it diagonal."""
        return symbols.take(last - np.cumsum(moved & alive, axis=0),
                            mode="clip")

    same = consumed(q_flat, q_at + end_i, diag | up) \
        == consumed(r_flat, r_at + end_j, diag >= up)
    codes = np.where(diag, np.subtract(2, same, dtype=np.uint8),
                     np.subtract(4, up, dtype=np.uint8))
    codes *= alive
    # Run-length encode all lanes at once: lane-major, path order (the
    # walk ran backwards), one pad column so no run spans two lanes.
    padded = np.zeros((lanes, step + 1), dtype=np.uint8)
    padded[:, 1:] = codes[::-1].T
    padded = padded.ravel()
    edges = np.flatnonzero(np.not_equal(padded[1:], padded[:-1])) + 1
    counts = np.diff(edges, append=padded.size)
    kept = padded[edges] != 0
    edges, counts = edges[kept], counts[kept]
    runs = list(zip(counts.tolist(), _STEP_OPS[padded[edges]].tolist()))
    stops = np.cumsum(np.bincount(edges // (step + 1),
                                  minlength=lanes)).tolist()
    starts = [0] + stops
    undo = np.argsort(order)
    start_i, start_j = np.divmod(pos - base, stride)
    return ([runs[starts[k]:stops[k]] for k in undo.tolist()],
            start_i[undo].tolist(), start_j[undo].tolist())


def alignment_from_matrix(matrix: np.ndarray, q_codes: np.ndarray,
                          r_codes: np.ndarray,
                          model: ScoringModel) -> Alignment:
    """Build a validated :class:`Alignment` from a full DP matrix."""
    cigar, path = traceback_full(matrix, q_codes, r_codes, model)
    result = Alignment(score=int(matrix[-1, -1]), cigar=cigar,
                       query_len=len(q_codes), ref_len=len(r_codes),
                       meta={"path_cells": len(path)})
    return result


def merge_cigars(parts: list[list[tuple[int, str]]]) -> list[tuple[int, str]]:
    """Concatenate CIGAR fragments, fusing runs across boundaries.

    Used by Hirschberg and the tile-by-tile SMX traceback, both of which
    produce the alignment in pieces.
    """
    merged: list[tuple[int, str]] = []
    for part in parts:
        for count, op in part:
            if merged and merged[-1][1] == op:
                merged[-1] = (merged[-1][0] + count, op)
            else:
                merged.append((count, op))
    return merged
