"""Batched wavefront (WFA) kernel: one NumPy sweep, many alignments.

:func:`sweep_wavefront` advances the per-score wavefront of a whole
length bucket at once over a ``(batch, diagonal)`` offsets array --
the batching axis plays the role the diagonal lanes play in WFA-GPU.
Per score ``s`` and diagonal ``k = j - i`` the array holds the
furthest-reaching reference offset after greedy match extension, and
one vectorized ``np.maximum`` pass applies the edit-wavefront
recurrence ``M[s][k] = max(M[s-1][k-1]+1, M[s-1][k]+1, M[s-1][k+1])``
to every pair simultaneously. Match extension runs in chunked
vectorized compares across every live front point of every pair.

The recurrence, clipping, sentinel arithmetic and traceback predecessor
order replicate :class:`repro.algorithms.wavefront.WavefrontAligner`
step for step, so scores, CIGARs *and* DP stats are bit-identical to
the scalar aligner (the conformance suite locks this). Only the
unit-cost edit model is supported -- callers must check
:func:`repro.algorithms.wavefront._check_edit_model` first.

A ``max_score`` cap bounds the sweep: pairs whose distance exceeds
their cap come back flagged in ``exceeded`` (instead of raising, as the
scalar aligner does) so the engine can fall back to the full kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dp.alignment import compress_ops
from repro.exec.buckets import PairBatch

#: Sentinel for "no wavefront point on this diagonal". Matches the
#: scalar traceback's ``previous.get(k, -(1 << 30))`` default exactly,
#: so the batched traceback's tie-break arithmetic is bit-identical.
ABSENT = np.int64(-(1 << 30))

#: Maximum chunk width of the vectorized greedy match extension.
EXTEND_CHUNK = 64


@dataclass
class WavefrontSweep:
    """Result of one batched wavefront sweep.

    Attributes:
        distance: ``(B,)`` edit distances (score is ``-distance``);
            undefined where ``exceeded``.
        cells: ``(B,)`` wavefront cells touched (extend steps + 1 per
            front point, as the scalar aligner counts).
        stored: ``(B,)`` total front points over all wavefronts
            (``cells_stored`` of alignment mode).
        peak: ``(B,)`` widest single wavefront (score mode stores two
            rolling fronts, so ``cells_stored`` is ``2 * peak``).
        exceeded: ``(B,)`` pairs whose distance passed ``max_score``.
        history: Per-score ``(B, 2s + 1)`` offset windows (diagonal
            ``k`` lives at column ``k + s``), kept when ``keep`` for
            the traceback; empty otherwise.
    """

    distance: np.ndarray
    cells: np.ndarray
    stored: np.ndarray
    peak: np.ndarray
    exceeded: np.ndarray
    history: list[np.ndarray] = field(default_factory=list)


def _extend_points(q: np.ndarray, r: np.ndarray, q_len: np.ndarray,
                   r_len: np.ndarray, rows: np.ndarray, i_pts: np.ndarray,
                   j_pts: np.ndarray) -> np.ndarray:
    """Greedy match extension for a flat set of front points.

    Advances every ``(rows[p], i_pts[p], j_pts[p])`` point along its
    diagonal while query and reference agree. Most front points stop
    immediately (they sit off the optimal path), so the compare width
    grows geometrically: a single-character first pass culls the bulk
    of the points and only the survivors pay for wider chunks (capped
    at :data:`EXTEND_CHUNK` characters per point per pass). Chunking
    never changes the returned per-point match counts.
    """
    advanced = np.zeros(len(rows), dtype=np.int64)
    if len(rows) == 0 or q.shape[1] == 0 or r.shape[1] == 0:
        return advanced
    live = np.arange(len(rows))
    q_edge = q.shape[1] - 1
    r_edge = r.shape[1] - 1
    chunk = 1
    while live.size:
        b = rows[live]
        ii = i_pts[live] + advanced[live]
        jj = j_pts[live] + advanced[live]
        if chunk == 1:
            ok = (ii < q_len[b]) & (jj < r_len[b])
            ok &= q[b, np.minimum(ii, q_edge)] \
                == r[b, np.minimum(jj, r_edge)]
            advanced[live] += ok
            live = live[ok]
        else:
            offs = np.arange(chunk, dtype=np.int64)
            span = np.minimum(chunk,
                              np.minimum(q_len[b] - ii, r_len[b] - jj))
            q_chunk = q[b[:, None],
                        np.minimum(ii[:, None] + offs, q_edge)]
            r_chunk = r[b[:, None],
                        np.minimum(jj[:, None] + offs, r_edge)]
            stop = (q_chunk != r_chunk) | (offs[None, :] >= span[:, None])
            has_stop = stop.any(axis=1)
            first = np.where(has_stop, np.argmax(stop, axis=1), span)
            advanced[live] += first
            live = live[~has_stop]
        chunk = min(chunk * 8, EXTEND_CHUNK)
    return advanced


def sweep_wavefront(batch: PairBatch, model=None,
                    max_score: int | np.ndarray | None = None,
                    keep: bool = False) -> WavefrontSweep:
    """Batched edit-wavefront sweep over one length bucket.

    Args:
        batch: The bucket; zero-length pairs are answered natively
            (distance ``n + m``, a pure-gap alignment).
        model: Unused (the kernel is edit-model only); accepted for
            signature parity with the other kernels.
        max_score: Distance cap, one for every pair or a ``(B,)``
            array of per-pair caps; pairs that pass theirs stop
            sweeping and come back in ``exceeded``. ``None`` means
            ``n + m`` (never exceeded), like the scalar aligner.
        keep: Keep every per-score wavefront window for the traceback.
    """
    B = batch.size
    q, r = batch.q, batch.r
    n = batch.q_len.astype(np.int64)
    m = batch.r_len.astype(np.int64)
    limit = n + m if max_score is None else np.broadcast_to(
        np.asarray(max_score, dtype=np.int64), (B,))
    target = m - n

    distance = np.full(B, -1, dtype=np.int64)
    exceeded = np.zeros(B, dtype=bool)
    all_rows = np.arange(B, dtype=np.int64)

    # Score 0: extend from (0, 0) along diagonal 0 for every pair.
    matched0 = _extend_points(q, r, n, m, all_rows,
                              np.zeros(B, dtype=np.int64),
                              np.zeros(B, dtype=np.int64))
    j0 = matched0.copy()
    cells = matched0 + 1
    stored = np.ones(B, dtype=np.int64)
    peak = np.ones(B, dtype=np.int64)
    history: list[np.ndarray] = []
    wf = j0[:, None].copy()
    if keep:
        history.append(wf)

    done = (j0 >= m) & (j0 >= n) & (target == 0)
    distance[done] = 0
    # Pure-gap alignments: the leftover length is the distance.
    empty = (~done) & ((n == 0) | (m == 0))
    distance[empty] = n[empty] + m[empty]
    active = ~(done | empty)

    score = 0
    while active.any():
        score += 1
        over = active & (limit < score)
        if over.any():
            exceeded |= over
            active &= ~over
            if not active.any():
                break
        width = 2 * score + 1
        new = np.full((B, width), ABSENT, dtype=np.int64)
        # Deletion (consume reference), mismatch, insertion -- the same
        # three predecessors, max-combined, as the scalar recurrence.
        new[:, 2:] = wf + 1
        np.maximum(new[:, 1:-1], wf + 1, out=new[:, 1:-1])
        np.maximum(new[:, :-2], wf, out=new[:, :-2])
        k_axis = np.arange(-score, score + 1, dtype=np.int64)
        j_new = np.minimum(new, m[:, None])
        i_new = j_new - k_axis[None, :]
        ok = (new > ABSENT // 2) & (i_new >= 0) & (i_new <= n[:, None]) \
            & active[:, None]
        rows, diags = np.nonzero(ok)
        wf = np.full((B, width), ABSENT, dtype=np.int64)
        if rows.size:
            i_pts = i_new[rows, diags]
            j_pts = j_new[rows, diags]
            adv = _extend_points(q, r, n, m, rows, i_pts, j_pts)
            wf[rows, diags] = j_pts + adv
            np.add.at(cells, rows, adv + 1)
            counts = np.bincount(rows, minlength=B)
            stored += counts
            np.maximum(peak, counts, out=peak)
        if keep:
            history.append(wf)
        # A pair is done once its target diagonal's front reaches m.
        t_target = target + score
        in_window = (t_target >= 0) & (t_target < width)
        reach = np.full(B, ABSENT, dtype=np.int64)
        safe_t = np.clip(t_target, 0, width - 1)
        reach[in_window] = wf[all_rows[in_window], safe_t[in_window]]
        done_now = active & (reach >= m)
        distance[done_now] = score
        active &= ~done_now

    return WavefrontSweep(distance=distance, cells=cells, stored=stored,
                          peak=peak, exceeded=exceeded, history=history)


def wavefront_cigar(sweep: WavefrontSweep, b: int, n: int,
                    m: int) -> list[tuple[int, str]]:
    """Trace one pair's CIGAR through the kept wavefront history.

    Walks scores from the pair's distance down to 0, choosing the
    predecessor in the same order (mismatch, deletion, insertion) and
    with the same sentinel arithmetic as the scalar
    ``WavefrontAligner._traceback``, so the CIGAR is bit-identical.
    """
    if not sweep.history:
        raise ValueError("traceback needs a sweep with keep=True")
    dist = int(sweep.distance[b])

    def get(s: int, k: int) -> int:
        window = sweep.history[s]
        t = k + s
        if 0 <= t < window.shape[1]:
            return int(window[b, t])
        return int(ABSENT)

    ops: list[str] = []
    k = m - n
    j = m
    for score in range(dist, 0, -1):
        from_del = get(score - 1, k - 1) + 1
        from_mis = get(score - 1, k) + 1
        from_ins = get(score - 1, k + 1)
        entry = max(from_del, from_mis, from_ins)
        ops.extend("=" * max(0, j - entry))
        if entry == from_mis:
            ops.append("X")
            j = entry - 1
        elif entry == from_del:
            ops.append("D")
            k -= 1
            j = entry - 1
        else:
            ops.append("I")
            k += 1
            j = entry
    ops.extend("=" * max(0, j))
    ops.reverse()
    return compress_ops(ops)
