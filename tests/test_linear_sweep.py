"""Kernel-level oracle checks of the anti-diagonal linear sweep.

``exec.kernels.sweep_linear`` is checked directly, below the engine:
its scores against the brute-force oracle, every kept move bit against
the bit the oracle's ``H`` matrix implies, its walk start cells against
the scalar aligners', and its dtype rule at the exact bounds where it
narrows to int16 / int32.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import FullAligner
from repro.algorithms.local import LocalAligner, SemiGlobalAligner
from repro.exec import kernels
from repro.exec.buckets import PAD_CODE, PairBatch
from repro.scoring.model import MatchMismatchModel
from tests.characterisation import seam_corpus
from tests.oracle import _linear_matrix

KINDS = ("global", "semiglobal", "local")
SCALAR = {"global": FullAligner, "semiglobal": SemiGlobalAligner,
          "local": LocalAligner}


def _batch(pairs) -> PairBatch:
    """All ``pairs`` as one padded bucket, however their lengths mix."""
    q_len = np.array([len(q) for q, _ in pairs], dtype=np.int64)
    r_len = np.array([len(r) for _, r in pairs], dtype=np.int64)
    q = np.full((len(pairs), int(q_len.max())), PAD_CODE, dtype=np.uint8)
    r = np.full((len(pairs), int(r_len.max())), PAD_CODE, dtype=np.uint8)
    for lane, (q_codes, r_codes) in enumerate(pairs):
        q[lane, :len(q_codes)] = q_codes
        r[lane, :len(r_codes)] = r_codes
    return PairBatch(q=q, r=r, q_len=q_len, r_len=r_len,
                     index=np.arange(len(pairs), dtype=np.int64))


def _buckets(config) -> list[PairBatch]:
    """The seam corpus (zero-length sides, 63/64/65) as one bucket, and
    random mixed-length buckets whose padding a short lane must never
    read."""
    rng = np.random.default_rng(36)
    alphabet = config.alphabet
    buckets = [_batch(seam_corpus(config))]
    for size, longest in ((9, 12), (17, 40)):
        pairs = [(alphabet.random(int(rng.integers(0, longest + 1)), rng),
                  alphabet.random(int(rng.integers(0, longest + 1)), rng))
                 for _ in range(size)]
        pairs.append((alphabet.random(longest, rng),
                      alphabet.random(longest, rng)))
        buckets.append(_batch(pairs))
    return buckets


def _oracle_end(h: np.ndarray, kind: str) -> tuple[int, int]:
    """The cell a traceback starts from: the corner, the first maximum
    of the last row, or the first maximum in row-major order."""
    n, m = h.shape[0] - 1, h.shape[1] - 1
    if kind == "global":
        return n, m
    if kind == "semiglobal":
        return n, int(np.argmax(h[n]))
    at = int(np.argmax(h))
    return at // (m + 1), at % (m + 1)


def _oracle_bits(h: np.ndarray, q, r, model, kind: str) -> list:
    """The move bits ``H`` implies: diagonal, up, and (local) the stop
    bit ``H == 0``."""
    n, m = h.shape[0] - 1, h.shape[1] - 1
    sub = np.array([[model.substitution(int(a), int(b)) for b in r]
                    for a in q], dtype=np.int64).reshape(n, m)
    diag = np.zeros(h.shape, dtype=bool)
    up = np.zeros(h.shape, dtype=bool)
    diag[1:, 1:] = h[1:, 1:] == h[:-1, :-1] + sub
    up[1:, :] = h[1:, :] == h[:-1, :] + model.gap_i
    return [diag, up] + ([h == 0] if kind == "local" else [])


def _rectangle(kept) -> np.ndarray:
    """The kept planes as ``(P, n+1, m+1, B)``: cell ``(i, j)`` is
    row ``offsets[i + j] + i`` of the diagonal layout."""
    i, j = np.indices((kept.batch.n_max + 1, kept.batch.m_max + 1))
    return kept.planes[:, kept.offsets[i + j] + i]


@pytest.fixture(params=["dna-gap", "protein"])
def linear_config(request, configs):
    """Match/mismatch scores and a substitution table (BLOSUM50)."""
    return configs[request.param]


@pytest.mark.parametrize("kind", KINDS)
def test_sweep_matches_oracle(linear_config, kind):
    model = linear_config.model
    for batch in _buckets(linear_config):
        scores = kernels.sweep_linear(batch, model, kind, keep=False)
        kept = kernels.sweep_linear(batch, model, kind, keep=True)
        assert scores.dtype == np.int64
        cells = (batch.n_max + 1) * (batch.m_max + 1)
        assert kept.planes.shape == (2 + (kind == "local"), cells,
                                     batch.size)
        assert kernels.kept_cells(batch) == cells
        np.testing.assert_array_equal(kept.scores, scores)
        for lane in range(batch.size):
            n, m = int(batch.q_len[lane]), int(batch.r_len[lane])
            q, r = batch.q[lane, :n], batch.r[lane, :m]
            h = np.array(_linear_matrix(q, r, model, kind), dtype=np.int64)
            end = _oracle_end(h, kind)
            assert scores[lane] == h[end], (kind, lane)
            assert (kept.end_i[lane], kept.end_j[lane]) == end, (kind, lane)
            for plane, want in zip(_rectangle(kept),
                                   _oracle_bits(h, q, r, model, kind)):
                np.testing.assert_array_equal(
                    plane[:n + 1, :m + 1, lane], want, err_msg=f"{kind} "
                    f"lane {lane}")


@pytest.mark.parametrize("kind", ("semiglobal", "local"))
def test_walk_start_is_scalar_end(linear_config, kind):
    """``end_i`` / ``end_j`` are where the scalar aligner's alignment
    ends (its traceback's start cell)."""
    model = linear_config.model
    batch = _buckets(linear_config)[0]
    kept = kernels.sweep_linear(batch, model, kind, keep=True)
    for lane in range(batch.size):
        n, m = int(batch.q_len[lane]), int(batch.r_len[lane])
        meta = SCALAR[kind]().align(batch.q[lane, :n], batch.r[lane, :m],
                                    model).alignment.meta
        assert kept.end_i[lane] == meta.get("query_end", n), lane
        assert kept.end_j[lane] == meta["ref_end"], lane


# ---------------------------------------------------------------------
# The dtype rule
# ---------------------------------------------------------------------

def test_linear_dtype_switches_exactly_at_bounds():
    """``(n + m + 2) * max|term|``: int16 below 2**14, int32 below
    2**30, int64 otherwise; ``force_wide`` pins int64."""
    edit = MatchMismatchModel(match=0, mismatch=-1, gap_i=-1, gap_d=-1)
    assert kernels.linear_dtype(edit, 8000, 2 ** 14 - 8003) is np.int16
    assert kernels.linear_dtype(edit, 8000, 2 ** 14 - 8002) is np.int32
    assert kernels.linear_dtype(edit, 0, 2 ** 14 - 3) is np.int16
    assert kernels.linear_dtype(edit, 0, 2 ** 14 - 2) is np.int32
    steep = MatchMismatchModel(match=0, mismatch=-(1 << 20),
                               gap_i=-(1 << 20), gap_d=-(1 << 20))
    assert kernels.linear_dtype(steep, 500, 2 ** 10 - 503) is np.int32
    assert kernels.linear_dtype(steep, 500, 2 ** 10 - 502) is np.int64
    for n, m in ((1, 1), (100, 100)):
        assert kernels.linear_dtype(edit, n, m, force_wide=True) \
            is np.int64


def test_bucket_just_under_int16_bound_is_exact(configs):
    """dna-gap's largest term is 4, so ``n + m = 4093`` is the largest
    int16 bucket. At its extremes -- an all-mismatch pair, whose every
    path scores ``-2 (n + m)``, and a zero-length query against the
    longest reference -- every kind equals the scalar aligners and the
    int64 sweep, kept moves included."""
    model = configs["dna-gap"].model
    n, m = 1000, 3093
    assert kernels.linear_dtype(model, n, m) is np.int16
    assert kernels.linear_dtype(model, n, m + 1) is np.int32
    rng = np.random.default_rng(7)
    reference = rng.integers(0, 4, m).astype(np.uint8)
    pairs = [(np.zeros(n, dtype=np.uint8), np.ones(m, dtype=np.uint8)),
             (np.zeros(0, dtype=np.uint8), reference),
             (reference[:n].copy(), reference)]
    batch = _batch(pairs)
    for kind in KINDS:
        narrow = kernels.sweep_linear(batch, model, kind, keep=True)
        wide = kernels.sweep_linear(batch, model, kind, keep=True,
                                    force_wide=True)
        np.testing.assert_array_equal(narrow.scores, wide.scores)
        np.testing.assert_array_equal(narrow.end_i, wide.end_i)
        np.testing.assert_array_equal(narrow.end_j, wide.end_j)
        assert np.array_equal(narrow.planes, wide.planes), kind
        want = [SCALAR[kind]().compute_score(q, r, model).score
                for q, r in pairs]
        assert narrow.scores.tolist() == want, kind
    corner = kernels.sweep_linear(batch, model, "global", keep=False)
    assert corner[:2].tolist() == [-2 * (n + m), m * model.gap_d]
