"""Length-bucketing for batched alignment (the Scrooge/GenASM recipe).

Batched DP kernels sweep every pair in a batch with the same row
schedule, so pairs are grouped into *buckets* of similar (n, m) and
padded up to the bucket's rectangle. Padding is pure waste --
``PairBatch.fill_ratio`` measures it -- so bucket keys round lengths up
to a configurable granularity: coarse enough to form large batches,
fine enough to keep the fill ratio high.

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


def bucketize(pairs: list[tuple[np.ndarray, np.ndarray]],
              granularity: int = 16) -> list[PairBatch]:
    """Group (query, reference) code pairs into padded length buckets.

    Bucket keys are ``(ceil(n / g) * g, ceil(m / g) * g)``; arrays are
    padded to the *actual* maximum length inside each bucket (never
    beyond the key), so a bucket of uniform-length pairs has fill
    ratio 1.0.
    """
    if granularity < 1:
        raise ConfigurationError(
            f"bucket granularity must be >= 1, got {granularity}")
    groups: dict[tuple[int, int], list[int]] = defaultdict(list)
    for position, pair in enumerate(pairs):
        groups[bucket_key(pair, granularity)].append(position)
    batches = []
    for key in sorted(groups):
        members = groups[key]
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
