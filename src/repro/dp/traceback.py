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


def no_predecessor(i: int, j: int) -> str:
    """Why a walk stopped at ``(i, j)``: no predecessor reproduces it."""
    return f"no valid predecessor at ({i}, {j}); matrix is inconsistent"


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
            raise AlignmentError(no_predecessor(i, j))
        path.append((i, j))
    ops.reverse()
    path.reverse()
    return compress_ops(ops), path


#: CIGAR letters of the lock-step walk's step codes; 0 pads the steps
#: a lane did not take.
_STEP_OPS = np.array([" ", "=", "X", "I", "D"])


def walk_moves(kept, kind: str,
               ) -> tuple[list[list[tuple[int, str]] | None], list[int],
                          list[int]]:
    """Walk the kept move planes of a group of buckets in lock step.

    Every pair is a *lane*; one step gathers each live lane's move bits
    from the concatenated planes and moves it one cell, for all lanes
    at once. The bits are read in the library's tie priority --
    diagonal, else up, else left -- so the paths are those of
    :func:`traceback_full` (``global``), ``semiglobal_traceback`` and
    ``local_traceback`` over the score matrices the bits were taken
    from, without the scores.

    Args:
        kept: Per bucket its :class:`repro.exec.kernels.KeptMoves`: the
            ``(P, cells, B)`` bool planes ``[diag_ok, up_ok]`` (plus the
            ``H == 0`` stop plane of a ``local`` sweep), lanes innermost,
            cell ``(i, j)`` at row ``offsets[i + j] + i``; the ``(B,)``
            cells the walks start from; the bucket's padded codes; and,
            for a band (all buckets of a group or none), its first
            in-band column per row.
        kind: ``"global"`` walks to ``(0, 0)``, ``"semiglobal"`` to row
            0, ``"local"`` to the first cell whose stop bit is set.

    Returns:
        ``(cigars, start_i, start_j)``, one entry per lane in bucket
        order: the run-length encoded path and the cell it stopped at.
        A lane whose walk leaves its band gets ``None`` and the cell it
        left from, where :func:`traceback_full` over the band's
        ``NEG_INF``-masked matrix finds no valid predecessor; that is
        read off the walk's ``steps x lanes`` history once every lane
        is done. A lane that has stopped keeps moving on bits that no
        longer count; the walk keeps ``steps x lanes`` bytes of history
        per plane, ``steps`` being the largest ``end_i + end_j``.
    """
    table, base, pitch, row, lane_at, q_at, r_at, lo_at = \
        [], [], [], [], [], [], [], []
    cells = diagonals = q_cells = r_cells = lo_cells = 0
    for k in kept:
        _, height, size = k.planes.shape
        lane = np.arange(size, dtype=np.int64)
        # Cell (i, d - i) of lane b: table[base + d] + i * size + b.
        table.append(k.offsets * size + cells)
        base.append(np.full(size, diagonals, dtype=np.int64))
        pitch.append(np.full(size, size, dtype=np.int64))
        row.append(k.end_i * size + lane)
        lane_at.append(lane)
        q_at.append(q_cells + lane * k.batch.q.shape[1])
        r_at.append(r_cells + lane * k.batch.r.shape[1])
        if k.band_lo is not None:
            lo_at.append(lo_cells + lane * k.band_lo.shape[1])
            lo_cells += k.band_lo.size
        cells += height * size
        diagonals += len(k.offsets)
        q_cells += k.batch.q.size
        r_cells += k.batch.r.size
    depth = kept[0].planes.shape[0]
    flat = kept[0].planes.reshape(depth, -1) if len(kept) == 1 else \
        np.concatenate([k.planes.reshape(depth, -1) for k in kept], axis=1)
    table = np.concatenate(table)
    # One spare symbol keeps the clipped look-ups legal for empty codes.
    spare = [np.zeros(1, dtype=np.uint8)]
    q_flat = np.concatenate([k.batch.q.ravel() for k in kept] + spare)
    r_flat = np.concatenate([k.batch.r.ravel() for k in kept] + spare)
    end_i = np.concatenate([k.end_i for k in kept])
    end_j = np.concatenate([k.end_j for k in kept])
    # Longest possible walk first, so finished lanes are shed from the
    # tail by shortening views; every step leaves a row or a column.
    order = np.argsort(-(end_i + end_j), kind="stable")
    end_i, end_j = end_i[order], end_j[order]
    base = np.concatenate(base)[order]
    pitch = np.concatenate(pitch)[order]
    row = np.concatenate(row)[order]
    lane_at = np.concatenate(lane_at)[order]
    q_at, r_at = np.concatenate(q_at)[order], np.concatenate(r_at)[order]
    diagonal = base + end_i + end_j
    pos = table[diagonal] + row
    # A global walk stops on diagonal 0, a semiglobal one on row 0.
    floor = lane_at if kind == "semiglobal" else base
    lanes = len(base)
    steps = int((end_i + end_j).max(initial=0)) + 1
    bits = np.zeros((steps, depth, lanes), dtype=bool)
    alive = np.zeros((steps, lanes), dtype=bool)
    rolling = (pos, diagonal, row, floor, pitch, np.empty(lanes, dtype=bool),
               np.empty(lanes, dtype=bool), np.empty(lanes, dtype=np.int64))
    width, step = lanes, 0
    while True:
        at, diag_at, row_at, stop, row_step, down, left, jump = rolling
        got, live = bits[step, :, :width], alive[step, :width]
        flat.take(at, axis=1, out=got, mode="clip")
        if kind == "local":
            np.logical_not(got[2], out=live)
            if step:
                np.logical_and(live, alive[step - 1, :width], out=live)
        else:
            np.greater(row_at if kind == "semiglobal" else diag_at, stop,
                       out=live)
        if not live[-1]:
            width = int(np.flatnonzero(live)[-1]) + 1 if live.any() else 0
            if not width:
                break
            rolling = tuple(view[:width] for view in rolling)
            continue
        # diagonal: row and column; up: the row; left: the column.
        np.logical_or(got[0], got[1], out=down)
        np.greater_equal(got[0], got[1], out=left)
        np.subtract(diag_at, down, out=diag_at)
        np.subtract(diag_at, left, out=diag_at)
        np.multiply(down, row_step, out=jump)
        np.subtract(row_at, jump, out=row_at)
        table.take(diag_at, out=at, mode="clip")
        np.add(at, row_at, out=at)
        step += 1
    # The rest is whole-group array work on the (step, lanes) history:
    # the cell each lane stood on after each step it took.
    alive, diag, up = alive[:step], bits[:step, 0], bits[:step, 1]
    down, across = (diag | up) & alive, (diag >= up) & alive
    rows = np.subtract(end_i, np.cumsum(down, axis=0, dtype=np.int32))
    cols = np.subtract(end_j, np.cumsum(across, axis=0, dtype=np.int32))
    same = q_flat.take(q_at + rows, mode="clip") \
        == r_flat.take(r_at + cols, mode="clip")
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
    kept_runs = padded[edges] != 0
    edges, counts = edges[kept_runs], counts[kept_runs]
    runs = list(zip(counts.tolist(), _STEP_OPS[padded[edges]].tolist()))
    stops = np.cumsum(np.bincount(edges // (step + 1),
                                  minlength=lanes)).tolist()
    starts = [0] + stops
    cigars = [runs[starts[k]:stops[k]] for k in range(lanes)]
    start_i, start_j = end_i - down.sum(axis=0), end_j - across.sum(axis=0)
    if lo_at:
        # Only a left move leaves a band: into a column below its row's
        # lo, the scalar's masked cell, whose left check fails.
        lo_flat = np.concatenate([k.band_lo.ravel() for k in kept])
        lo_at = np.concatenate(lo_at)[order]
        out = alive & (cols < lo_flat.take(lo_at + rows, mode="clip"))
        for lane in np.flatnonzero(out.any(axis=0)).tolist():
            t = int(out[:, lane].argmax())
            cigars[lane] = None
            start_i[lane] = rows[t, lane] + down[t, lane]
            start_j[lane] = cols[t, lane] + across[t, lane]
    undo = np.argsort(order)
    return ([cigars[k] for k in undo.tolist()], start_i[undo].tolist(),
            start_j[undo].tolist())


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
