"""Kernel-level oracle checks of the banded anti-diagonal sweep.

``exec.kernels.sweep_banded`` runs ``sweep_linear``'s anti-diagonal
body on each diagonal's rows of the lanes' corridors and keeps move
bits over those rows. It is checked here directly, below the engine,
against the scalar ``BandedAligner``: scores and excluded corners,
band cells and widths, the move bit of every reachable in-band cell,
the walk's CIGARs and its "no valid predecessor" failures with their
coordinates, the kept layout's size and the dtype rule at its bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.banded import BandedAligner, band_intervals
from repro.dp.traceback import no_predecessor, walk_moves
from repro.exec import kernels
from repro.exec.engine import BatchConfig, BatchEngine
from repro.scoring.model import MatchMismatchModel
from tests.test_linear_sweep import _batch
from tests.test_conformance import _band_sweep_pairs

#: A pair whose optimal path enters the band through a shadow cell:
#: at width 1 (widened to 3 by the slope 7/3) row 3's band starts at
#: column 4, and ``H[3][4]`` takes its value from ``H[3][3]`` -- a cell
#: the scalar row scan computes before masking -- so the scalar
#: traceback stops at ``(3, 4)``.
SHADOWED = ("GTT", "TTTAACC")


def _bits(kept, lane: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``(P, cells)`` kept bits of ``lane`` at cells ``(i, j)``."""
    return kept.planes[:, kept.offsets[i + j] + i, lane]


def _check(batch, model, width=None, fraction=None) -> list[str]:
    """Assert every lane of ``batch`` matches the scalar aligner at
    this band; return the scalar's failure reasons."""
    scalar = BandedAligner(width=width, fraction=fraction)
    scores, cells, widths = kernels.sweep_banded(batch, model, width,
                                                 fraction, keep=False)
    kept, kept_cells, _ = kernels.sweep_banded(batch, model, width,
                                               fraction, keep=True)
    np.testing.assert_array_equal(kept.scores, scores)
    np.testing.assert_array_equal(kept_cells, cells)
    assert kept.planes.shape[1] == kernels.kept_cells(batch, width,
                                                      fraction)
    cigars, stop_i, stop_j = walk_moves([kept], "global")
    reasons = []
    for lane in range(batch.size):
        n, m = int(batch.q_len[lane]), int(batch.r_len[lane])
        q, r = batch.q[lane, :n], batch.r[lane, :m]
        where = (width, fraction, lane)
        scored = scalar.compute_score(q, r, model)
        assert (cells[lane], widths[lane]) == (
            scored.stats.cells_computed, scored.stats.cells_stored), where
        if scored.failed:
            assert scores[lane] <= kernels.PRUNE_FLOOR, where
        else:
            assert scores[lane] == scored.score, where
        # Every reachable in-band cell's bits are the ones the scalar's
        # masked matrix implies.
        h, _, _, _ = scalar._run(q, r, model, keep_matrix=True)
        lo, hi = band_intervals(n, m, scalar._half_width(n, m))
        i, j = np.indices(h.shape)
        inside = (j >= lo[:, None]) & (j <= hi[:, None]) \
            & (h > kernels.PRUNE_FLOOR)
        i, j = i[inside], j[inside]
        diag = np.zeros(len(i), dtype=bool)
        up = np.zeros(len(i), dtype=bool)
        inner = (i > 0) & (j > 0)
        sub = np.array([model.substitution(int(q[a - 1]), int(r[b - 1]))
                        for a, b in zip(i[inner], j[inner])], dtype=np.int64)
        diag[inner] = h[i, j][inner] == h[i - 1, j - 1][inner] + sub
        up[i > 0] = h[i, j][i > 0] == h[i - 1, j][i > 0] + model.gap_i
        got = _bits(kept, lane, i, j)
        np.testing.assert_array_equal(got[0], diag, err_msg=str(where))
        np.testing.assert_array_equal(got[1], up, err_msg=str(where))
        aligned = scalar.align(q, r, model)
        reasons.append(aligned.failure_reason)
        if not aligned.failed:
            assert cigars[lane] == aligned.alignment.cigar, where
        elif aligned.score is not None:     # the walk left the band
            assert cigars[lane] is None, where
            assert no_predecessor(stop_i[lane], stop_j[lane]) \
                == aligned.failure_reason, where
    return reasons


@pytest.fixture(params=["dna-gap", "protein"])
def band_config(request, configs):
    """Match/mismatch scores and a substitution table (BLOSUM50)."""
    return configs[request.param]


def test_widths_and_fractions_match_scalar(band_config):
    """Widths 1 to full and four fractions over one bucket of slopes
    0.5, 1 and 2, related and unrelated pairs and zero-length lanes."""
    batch = _batch(_band_sweep_pairs(band_config))
    full = max(batch.n_max, batch.m_max) + 1
    reasons = set()
    for width in range(1, full + 1):
        reasons |= set(_check(batch, band_config.model, width=width))
    for fraction in (0.02, 0.1, 0.33, 1.0):
        reasons |= set(_check(batch, band_config.model, fraction=fraction))
    assert {reason.split(" at ")[0] for reason in reasons} \
        >= {"", "no valid predecessor"}


def test_shadow_cell_failure_is_the_scalars(configs):
    """A cell whose value flows in through a shadow cell is computed
    as the scalar's row scan computes it, and the walk fails where the
    scalar traceback fails, with the same reason -- coordinates
    included -- in a bucket beside pairs that do not fail."""
    config = configs["dna-gap"]
    shadowed = tuple(config.alphabet.encode(s) for s in SHADOWED)
    n, m = map(len, shadowed)
    lo, _ = band_intervals(n, m, 1)
    assert lo[2] <= 3 < lo[3] == 4          # (3, 3) is a shadow cell
    reason = BandedAligner(width=1).align(*shadowed,
                                          config.model).failure_reason
    assert reason == no_predecessor(3, 4)
    pairs = [shadowed] + [(q[:12], r[:12])
                          for q, r in _band_sweep_pairs(config)[:6]]
    batch = _batch(pairs)
    assert _check(batch, config.model, width=1)[0] == reason
    got = BatchEngine(config, BatchConfig(
        engine="vector", algorithm="banded", band_width=1)).run(pairs)
    want = BatchEngine(config, BatchConfig(
        engine="scalar", algorithm="banded", band_width=1)).run(pairs)
    assert got == want
    assert got[0].failure_reason == reason and got[0].score == -8


def test_zero_length_lanes_in_one_bucket(configs):
    """Empty queries, empty references and both, mixed with long
    lanes of every slope, under narrow and full bands."""
    config = configs["dna-gap"]
    rng = np.random.default_rng(44)
    alphabet = config.alphabet
    pairs = [(alphabet.random(n, rng), alphabet.random(m, rng))
             for n, m in ((0, 0), (0, 30), (25, 0), (30, 15), (15, 30),
                          (0, 1), (1, 0), (28, 28))]
    batch = _batch(pairs)
    for width in (1, 2, 5, 40):
        _check(batch, config.model, width=width)


def test_kept_layout_is_the_union_of_the_runs(configs):
    """The planes hold, per diagonal, the rows from the first any lane
    computes to the last: far fewer than the rectangle for a narrow
    band, exactly the rectangle once the band covers it."""
    config = configs["dna-gap"]
    batch = _batch(_band_sweep_pairs(config))
    rectangle = (batch.n_max + 1) * (batch.m_max + 1)
    narrow = kernels.kept_cells(batch, 2, None)
    assert narrow < rectangle // 2
    assert kernels.kept_cells(batch, batch.m_max + 1, None) == rectangle
    kept, _, _ = kernels.sweep_banded(batch, config.model, 2, None,
                                      keep=True)
    assert kept.planes.shape == (2, narrow, batch.size)
    assert kept.offsets.shape == (batch.n_max + batch.m_max + 1,)


# ---------------------------------------------------------------------
# The dtype rule
# ---------------------------------------------------------------------

def test_banded_dtype_switches_exactly_at_bounds():
    """``(n + m + 2) * max|term|``: int16 below ``2**13``, int32 below
    ``2**29``, int64 otherwise -- the linear rule with one bit more
    room; ``force_wide`` pins int64."""
    edit = MatchMismatchModel(match=0, mismatch=-1, gap_i=-1, gap_d=-1)
    assert kernels.banded_dtype(edit, 4000, 2 ** 13 - 4003) is np.int16
    assert kernels.banded_dtype(edit, 4000, 2 ** 13 - 4002) is np.int32
    steep = MatchMismatchModel(match=0, mismatch=-(1 << 20),
                               gap_i=-(1 << 20), gap_d=-(1 << 20))
    assert kernels.banded_dtype(steep, 250, 2 ** 9 - 253) is np.int32
    assert kernels.banded_dtype(steep, 250, 2 ** 9 - 252) is np.int64
    assert kernels.banded_dtype(edit, 10, 10, force_wide=True) is np.int64


def _at_bound(model, n: int, m: int):
    """An all-mismatch pair, a related pair and an empty query."""
    rng = np.random.default_rng(9)
    reference = rng.integers(0, 4, m).astype(np.uint8)
    query = reference[:n].copy()
    query[::7] = (query[::7] + 1) % 4
    return _batch([(np.zeros(n, dtype=np.uint8), np.ones(m, dtype=np.uint8)),
                   (query, reference), (np.zeros(0, dtype=np.uint8),
                                        reference)])


@pytest.mark.parametrize("n, m, term, want", [
    (1000, 1045, 4, np.int16), (1000, 1046, 4, np.int32),
    (250, 2 ** 9 - 253, 1 << 20, np.int32),
    (250, 2 ** 9 - 252, 1 << 20, np.int64)])
def test_buckets_at_the_dtype_bounds_are_exact(n, m, term, want):
    """Terms of 4 put ``n + m = 2045`` just under the int16 bound and
    2046 just over it; terms of ``2**20`` put 509 just under the int32
    bound and 510 just over. Under a narrow and a full band every lane
    equals the scalar aligner and the int64 sweep, kept moves
    included."""
    model = MatchMismatchModel(match=term // 2, mismatch=-term,
                               gap_i=-term // 2, gap_d=-term // 2)
    batch = _at_bound(model, n, m)
    assert kernels.banded_dtype(model, batch.n_max, batch.m_max) is want
    for width in (8, m + 1):
        _check(batch, model, width=width)
        narrow, _, _ = kernels.sweep_banded(batch, model, width, None,
                                            keep=True)
        wide, _, _ = kernels.sweep_banded(batch, model, width, None,
                                          keep=True, force_wide=True)
        np.testing.assert_array_equal(narrow.scores, wide.scores)
        assert np.array_equal(narrow.planes, wide.planes)
