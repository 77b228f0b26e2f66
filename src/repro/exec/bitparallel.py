"""Batched bit-parallel Myers edit kernel: 64 DP rows per uint64 lane.

Myers' blocked bit-parallel algorithm (the Edlib/GenASM core already
implemented per pair in :mod:`repro.baselines.myers`) packs 64 DP rows
of one pattern into a single machine word and advances a whole text
column with ~17 bitwise operations. This module lifts that recurrence
onto NumPy uint64 *lanes* laid out along the dependency wavefront, as
SMX-1D lays its processing elements along an anti-diagonal: block ``k``
at text column ``j`` needs only block ``k`` at ``j - 1`` and block
``k - 1`` at ``j``, so every block on one anti-diagonal ``t = j + k``
is independent. The ``Pv``/``Mv`` words of every pair and block live in
``(n_blocks, B)`` uint64 arrays, and one step advances the whole
anti-diagonal of **all B pairs at once** with ~25 whole-array ops on
its ``(K_active, B)`` slice -- ``m + n_blocks - 1`` steps per bucket
instead of ``m * n_blocks`` block steps, on top of the same
O(1)-per-64-cells arithmetic.

Lane layout and carries:

- pattern row ``i`` of pair ``b`` lives in bit ``i % 64`` of word
  ``[i // 64, b]``; ``Peq[b, symbol, block]`` holds the per-symbol
  match masks (padding rows never set a bit);
- at step ``t`` block ``k`` advances column ``t - k``; the active
  blocks are the contiguous slice ``[max(0, t - m + 1), min(K - 1,
  t)]``, and ``Eq`` is gathered for a bounded chunk of steps at a time
  in skewed ``(step, block, lane)`` layout;
- the horizontal delta ``hout`` of block ``k`` is written to row
  ``k + 1`` of two 0/1 ``(K + 1, B)`` carry arrays (``hin_pos`` /
  ``hin_neg``), which block ``k + 1`` reads on the next step; row 0
  stays NW's ``+1`` top row, so the chain is branch-free across lanes;
- each pair's running distance is the sum of the *pre-shift*
  horizontal bits of **its own** last block at **its own** boundary bit
  (``(q_len - 1) % 64``), exactly like the scalar
  :func:`~repro.baselines.myers.myers_edit_distance`: every block
  counts into a per-``(block, lane)`` counter and each lane reads only
  its last block's at the end;
- a lane's counts stop once its last block passes its own text length
  (the early-termination mask) -- its words keep sweeping harmlessly
  but contribute nothing.

The kernel is global (NW), score-only, unit-cost edit model: distances
are bit-identical to ``myers_edit_distance`` and to the brute-force
oracle (the conformance and Hypothesis suites lock all three
together). Tracebacks stay on the wavefront / full kernels -- the bit
vectors carry no path state, which is exactly why they are
memory-frugal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AlignmentError
from repro.exec.buckets import PairBatch

#: DP rows per uint64 lane word.
WORD_BITS = 64

#: Words resident per (pair, block): ``Pv + Mv + Peq[n_symbols]``.
WORDS_PER_BLOCK_STATE = 2

#: Words read+written per (column, block) lane step: Eq gather, Pv and
#: Mv read-modify-write. Used for ``bytes_moved`` accounting.
WORDS_PER_BLOCK_STEP = 3

#: Anti-diagonal steps per ``Eq`` gather: bounds the resident skewed
#: ``(chunk, n_blocks, B)`` gather. On a 24-lane 2 kb bucket, 256
#: steps raised peak RSS by 4.5 MiB over 64 steps at equal speed.
STEP_CHUNK = 64

_ONE = np.uint64(1)
_TOP = np.uint64(WORD_BITS - 1)


@dataclass
class BitparallelSweep:
    """Result of one batched bit-parallel sweep.

    Attributes:
        distance: ``(B,)`` global edit distances (score is
            ``-distance``).
        cells: ``(B,)`` DP cells covered (``n * m`` -- the bit-parallel
            sweep evaluates every cell of the matrix, 64 per word op).
        words: ``(B,)`` lane-word block steps (``n_blocks * m``), the
            work actually performed; ``cells / words ~ 64`` is the
            parallelism the packing buys.
        blocks: ``(B,)`` 64-row blocks per pattern.
    """

    distance: np.ndarray
    cells: np.ndarray
    words: np.ndarray
    blocks: np.ndarray


def _check_codes(batch: PairBatch, n_symbols: int) -> None:
    """Reject codes outside the declared alphabet, tagging the first
    offending pair so the supervised layer can quarantine it."""
    if n_symbols >= 256:
        return  # uint8 codes cannot exceed a 256-symbol alphabet
    bad = (batch.q >= n_symbols).any(axis=1) \
        | (batch.r >= n_symbols).any(axis=1)
    if bad.any():
        first = int(np.argmax(bad))
        error = AlignmentError(
            f"codes exceed the declared alphabet size {n_symbols}")
        error.pair_index = int(batch.index[first])
        raise error


def pattern_masks(batch: PairBatch, n_symbols: int) -> np.ndarray:
    """Per-pair, per-symbol, per-block match masks.

    Returns ``(B, n_symbols, n_blocks)`` uint64 where bit ``i % 64`` of
    ``[b, s, i // 64]`` is set iff row ``i < q_len[b]`` and
    ``q[b, i] == s``. Padding rows never set a bit, so lanes of
    different pattern lengths share one block schedule safely.
    """
    B, n_max = batch.q.shape
    n_blocks = max(1, -(-n_max // WORD_BITS))
    peq = np.zeros((B, n_symbols, n_blocks), dtype=np.uint64)
    if n_max == 0:
        return peq
    padded = n_blocks * WORD_BITS
    codes = np.zeros((B, padded), dtype=np.int64)
    codes[:, :n_max] = batch.q
    valid = np.arange(padded)[None, :] < batch.q_len[:, None]
    codes_v = codes.reshape(B, n_blocks, WORD_BITS)
    valid_v = valid.reshape(B, n_blocks, WORD_BITS)
    weights = _ONE << np.arange(WORD_BITS, dtype=np.uint64)
    for symbol in np.unique(codes[valid]):
        match = (codes_v == symbol) & valid_v
        peq[:, int(symbol), :] = (match * weights).sum(
            axis=2, dtype=np.uint64)
    return peq


def sweep_bitparallel(batch: PairBatch, n_symbols: int = 4,
                      ) -> BitparallelSweep:
    """Batched blocked-Myers sweep over one length bucket, one
    anti-diagonal of 64-row blocks per step.

    Args:
        batch: The bucket; zero-length patterns/texts are answered
            natively (distance is the leftover length).
        n_symbols: Declared alphabet size; codes at or beyond it raise
            :class:`~repro.errors.AlignmentError` (with ``pair_index``
            set), matching the scalar baseline's contract.
    """
    _check_codes(batch, n_symbols)
    B = batch.size
    n = batch.q_len.astype(np.int64)
    m = batch.r_len.astype(np.int64)
    blocks = -(-n // WORD_BITS)
    cells = n * m
    words = blocks * m
    if batch.n_max == 0 or batch.m_max == 0:
        # Pure-gap lanes: the leftover length is the distance.
        return BitparallelSweep(distance=n + m, cells=cells,
                                words=words, blocks=blocks)

    K, m_max = -(-batch.n_max // WORD_BITS), batch.m_max
    # Flat (symbol, block, lane) masks, and each text code pre-scaled to
    # its symbol's offset: a chunk's Eq is then one flat take.
    peq = pattern_masks(batch, n_symbols).transpose(1, 2, 0).ravel()
    text = batch.r.T.astype(np.intp) * (K * B)
    slot = np.arange(K * B).reshape(K, B)
    last_block = np.maximum(n - 1, 0) // WORD_BITS
    boundary = (np.maximum(n - 1, 0) % WORD_BITS).astype(np.uint64)
    # Lane b's last block reads column t - last_block[b] at step t, a
    # column of its text while t < end[b].
    end = m + last_block

    pv = np.full((K, B), ~np.uint64(0), dtype=np.uint64)
    mv = np.zeros((K, B), dtype=np.uint64)
    # Row k is block k's hin: row 0 is NW's top row (+1 per column),
    # row K catches the last block's unused hout.
    hin_pos = np.zeros((K + 1, B), dtype=np.uint64)
    hin_pos[0] = _ONE
    hin_neg = np.zeros((K + 1, B), dtype=np.uint64)
    # Signed deltas would force per-step astype; accumulate +1/-1
    # boundary bits in two uint64 counters instead.
    score_pos = np.zeros((K, B), dtype=np.uint64)
    score_neg = np.zeros((K, B), dtype=np.uint64)

    steps = m_max + K - 1
    for first in range(0, steps, STEP_CHUNK):
        t = np.arange(first, min(steps, first + STEP_CHUNK))
        column = np.clip(t[:, None] - np.arange(K), 0, m_max - 1)
        eq_chunk = peq[text[column] + slot]     # (chunk, K, B)
        live_chunk = (t[:, None] < end).astype(np.uint64)
        for s, step in enumerate(t.tolist()):
            lo, hi = max(0, step - m_max + 1), min(K, step + 1)
            pv_k, mv_k = pv[lo:hi], mv[lo:hi]
            hp, hn = hin_pos[lo:hi], hin_neg[lo:hi]
            live = live_chunk[s]
            eq = eq_chunk[s, lo:hi] | hn
            xv = eq | mv_k
            xh = eq & pv_k
            xh += pv_k
            xh ^= pv_k
            xh |= eq
            ph = xh | pv_k
            np.invert(ph, out=ph)
            ph |= mv_k
            mh = pv_k & xh
            score_pos[lo:hi] += (ph >> boundary) & live
            score_neg[lo:hi] += (mh >> boundary) & live
            # Shift in this block's hin before hout overwrites it as
            # the next block's.
            ph_in = ph << _ONE
            ph_in |= hp
            mh_in = mh << _ONE
            mh_in |= hn
            np.right_shift(ph, _TOP, out=hin_pos[lo + 1:hi + 1])
            np.right_shift(mh, _TOP, out=hin_neg[lo + 1:hi + 1])
            np.bitwise_and(ph_in, xv, out=mv_k)
            xv |= ph_in
            np.invert(xv, out=xv)
            np.bitwise_or(mh_in, xv, out=pv_k)

    lanes = np.arange(B)
    score = n + score_pos[last_block, lanes].astype(np.int64) \
        - score_neg[last_block, lanes].astype(np.int64)
    distance = np.where(n > 0, score, m)
    return BitparallelSweep(distance=distance, cells=cells,
                            words=words, blocks=blocks)
