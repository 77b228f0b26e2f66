"""Length-bucketing for batched alignment, priced by the sweep it buys.

Batched DP kernels sweep every pair in a batch with the same row
schedule, so pairs are grouped into *buckets* of similar (n, m) and
padded up to the bucket's rectangle. Padding is waste --
``PairBatch.fill_ratio`` measures it -- but so is a bucket: every row
sweep pays a fixed NumPy dispatch cost whatever its width, and a small
bucket pays it for few cells. :func:`bucketize` therefore groups pairs
by their lengths rounded up to the finest rounding (the Scrooge/GenASM
recipe), then merges adjacent groups whenever one sweep of the union
is modelled no dearer than two (:func:`sweep_cost`): a large batch
keeps its fine buckets, a small one sweeps a few coarse ones.

Padding is functionally invisible: DP dependencies only flow right/down,
so cells at ``(i <= q_len, j <= r_len)`` never read a padded cell, and
kernels extract each pair's answer at its true ``(q_len, r_len)`` corner
(masking padded columns wherever a kernel reduces over a row).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

#: Padding code: 0 is valid in every alphabet, and padded cells are
#: never read back, so any in-range value works.
PAD_CODE = 0

#: Padded cells one row sweep is worth: the fixed per-row NumPy
#: dispatch cost of a sweep, in cells (fit in EXPERIMENTS E29).
STEP_CELLS = 4096


@dataclass
class PairBatch:
    """One length bucket: padded code arrays plus true lengths.

    Attributes:
        q: ``(B, n_max)`` uint8 query codes, zero-padded.
        r: ``(B, m_max)`` uint8 reference codes, zero-padded.
        q_len: ``(B,)`` true query lengths.
        r_len: ``(B,)`` true reference lengths.
        index: ``(B,)`` positions of each pair in the original request,
            used to scatter results back into submission order.
    """

    q: np.ndarray
    r: np.ndarray
    q_len: np.ndarray
    r_len: np.ndarray
    index: np.ndarray

    @property
    def size(self) -> int:
        return int(self.q.shape[0])

    @property
    def n_max(self) -> int:
        return int(self.q.shape[1])

    @property
    def m_max(self) -> int:
        return int(self.r.shape[1])

    @property
    def fill_ratio(self) -> float:
        """Useful cells / padded cells of this bucket's DP volume."""
        padded = self.size * (self.n_max + 1) * (self.m_max + 1)
        useful = int(np.sum((self.q_len + 1) * (self.r_len + 1)))
        return useful / padded if padded else 1.0

    def slices(self, max_size: int) -> list["PairBatch"]:
        """Split into sub-batches of at most ``max_size`` pairs."""
        if self.size <= max_size:
            return [self]
        return [PairBatch(q=self.q[s:s + max_size],
                          r=self.r[s:s + max_size],
                          q_len=self.q_len[s:s + max_size],
                          r_len=self.r_len[s:s + max_size],
                          index=self.index[s:s + max_size])
                for s in range(0, self.size, max_size)]


def _round_up(length: int, granularity: int) -> int:
    if length == 0:
        return 0
    return ((length + granularity - 1) // granularity) * granularity


def bucket_key(pair: tuple[np.ndarray, np.ndarray],
               granularity: int) -> tuple[int, int]:
    """The bucket a pair falls in: both lengths rounded up to
    ``granularity``. Callers that order pairs by this key (the
    supervisor's unit cut) hand the engine runs of whole buckets."""
    return (_round_up(len(pair[0]), granularity),
            _round_up(len(pair[1]), granularity))


def sweep_cost(size: int, n_max: int, m_max: int) -> int:
    """Modelled cost, in cells, of sweeping a ``size``-pair bucket
    padded to ``n_max x m_max``: per row a fixed :data:`STEP_CELLS`
    plus the row's padded cells."""
    return n_max * (STEP_CELLS + size * (m_max + 1))


def bucketize(pairs: list[tuple[np.ndarray, np.ndarray]],
              granularity: int = 16) -> list[PairBatch]:
    """Group (query, reference) code pairs into padded length buckets.

    Pairs are grouped by :func:`bucket_key`; walking the keys in order,
    a group joins the bucket before it when one sweep of the union
    costs no more than the two (:func:`sweep_cost`), so every bucket is
    modelled no dearer than its groups swept apart. A group with a
    zero-length side never merges, so a route's ``empty`` path still
    answers it. Arrays are padded to the *actual* maximum lengths
    inside each bucket, so a bucket of uniform-length pairs has fill
    ratio 1.0.
    """
    if granularity < 1:
        raise ConfigurationError(
            f"bucket granularity must be >= 1, got {granularity}")
    groups: dict[tuple[int, int], list[int]] = defaultdict(list)
    for position, pair in enumerate(pairs):
        groups[bucket_key(pair, granularity)].append(position)
    runs: list[list[int]] = []
    shape = None    # (size, n_max, m_max) of the last run while it may grow
    for key in sorted(groups):
        members = groups[key]
        own = (len(members), max(len(pairs[p][0]) for p in members),
               max(len(pairs[p][1]) for p in members))
        if shape is not None and 0 not in key:
            union = (shape[0] + own[0], max(shape[1], own[1]),
                     max(shape[2], own[2]))
            if sweep_cost(*union) <= sweep_cost(*shape) + sweep_cost(*own):
                runs[-1] += members
                shape = union
                continue
        runs.append(members)
        shape = None if 0 in key else own
    batches = []
    for members in runs:
        q_len = np.array([len(pairs[p][0]) for p in members],
                         dtype=np.int64)
        r_len = np.array([len(pairs[p][1]) for p in members],
                         dtype=np.int64)
        n_max = int(q_len.max(initial=0))
        m_max = int(r_len.max(initial=0))
        q = np.full((len(members), n_max), PAD_CODE, dtype=np.uint8)
        r = np.full((len(members), m_max), PAD_CODE, dtype=np.uint8)
        for row, position in enumerate(members):
            q_codes, r_codes = pairs[position]
            q[row, :len(q_codes)] = q_codes
            r[row, :len(r_codes)] = r_codes
        batches.append(PairBatch(
            q=q, r=r, q_len=q_len, r_len=r_len,
            index=np.array(members, dtype=np.int64)))
    return batches
