"""Independent output check for the layered benchmark.

Works on the raw strings the benchmark generated and imports nothing
from ``repro``: a row-scan Needleman-Wunsch scorer and a CIGAR
rescoring/span check, so a bug shared by every ``repro.exec`` kernel
still shows as a failed pair.
"""

from __future__ import annotations

import re

import numpy as np

#: ``(match, mismatch, gap)`` of the presets the workloads use.
SCORING = {"dna-gap": (2, -4, -2), "dna-edit": (0, -1, -1)}

_CIGAR_OP = re.compile(r"(\d+)([=XID])")


def _bytes(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8)


def global_score(query: str, reference: str, match: int, mismatch: int,
                 gap: int) -> int:
    """Global alignment score, one NumPy row per query character."""
    q, r = _bytes(query), _bytes(reference)
    ramp = np.arange(len(r) + 1, dtype=np.int64) * gap
    row = ramp.copy()
    for i, char in enumerate(q, 1):
        step = np.empty_like(row)
        step[0] = i * gap
        np.maximum(row[:-1] + np.where(r == char, match, mismatch),
                   row[1:] + gap, out=step[1:])
        # A run of horizontal gaps ending at j costs (j - k) * gap from
        # its start k, so the best start is a running maximum of
        # step[k] - k * gap.
        row = np.maximum.accumulate(step - ramp) + ramp
    return int(row[-1])


def cigar_score(cigar: str, query: str, reference: str, match: int,
                mismatch: int, gap: int) -> int | None:
    """Score the CIGAR implies, or ``None`` when it mislabels a column
    or does not consume both strings exactly."""
    q, r = _bytes(query), _bytes(reference)
    ops = _CIGAR_OP.findall(cigar)
    if sum(len(count) + 1 for count, _ in ops) != len(cigar):
        return None
    i = j = score = 0
    for count, op in ops:
        count = int(count)
        if op in "=X":
            if i + count > len(q) or j + count > len(r):
                return None
            same = q[i:i + count] == r[j:j + count]
            if not same.all() if op == "=" else same.any():
                return None
            score += count * (match if op == "=" else mismatch)
            i += count
            j += count
        elif op == "I":
            score += count * gap
            i += count
        else:
            score += count * gap
            j += count
    if i != len(q) or j != len(r):
        return None
    return score
