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
