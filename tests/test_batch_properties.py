"""Property-based invariants of the batched execution engine.

Hypothesis drives random batches through ``repro.exec`` and checks the
structural properties the engine promises independent of any oracle:
submission order never changes results, batching is exactly the same
as aligning each pair alone (for the linear route with CIGARs, field
by field against the scalar aligners of all three modes), the
unit-cost edit score is symmetric, and widening a band (or X-drop threshold) can only improve heuristic
scores until they reach the exact optimum.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import FullAligner
from repro.config import standard_configs
from repro.exec import BatchConfig, BatchEngine
from repro.exec.engine import make_scalar_aligner

CONFIGS = standard_configs()

NEG = -(1 << 40)


def dna_codes(min_size=0, max_size=48):
    return st.lists(st.integers(0, 3), min_size=min_size,
                    max_size=max_size).map(
        lambda codes: np.asarray(codes, dtype=np.uint8))


def pair_batches(max_pairs=8, max_len=48):
    return st.lists(st.tuples(dna_codes(max_size=max_len),
                              dna_codes(max_size=max_len)),
                    min_size=1, max_size=max_pairs)


def _key(result):
    """Comparable digest of one AlignerResult."""
    cigar = result.alignment.cigar_string if result.alignment else None
    return (result.score, result.failed, result.failure_reason, cigar)


@settings(deadline=None, max_examples=40)
@given(pairs=pair_batches(), config_name=st.sampled_from(sorted(CONFIGS)),
       seed=st.integers(0, 2**32 - 1))
def test_batch_is_order_invariant(pairs, config_name, seed):
    """Shuffling the submission order permutes the results identically:
    no pair's answer depends on its bucket neighbours."""
    config = CONFIGS[config_name]
    batch = BatchConfig(engine="vector", mode="global", traceback=True)
    baseline = BatchEngine(config, batch).run(pairs)
    order = np.random.default_rng(seed).permutation(len(pairs))
    shuffled = BatchEngine(config, batch).run([pairs[i] for i in order])
    for position, original in enumerate(order):
        assert _key(shuffled[position]) == _key(baseline[original])


@settings(deadline=None, max_examples=40)
@given(pairs=pair_batches(max_pairs=6),
       config_name=st.sampled_from(sorted(CONFIGS)))
def test_batch_equals_per_pair_alignment(pairs, config_name):
    """One batched call is exactly the per-pair scalar aligner looped:
    same scores, same CIGARs, pair by pair."""
    config = CONFIGS[config_name]
    batch = BatchConfig(engine="vector", mode="global", traceback=True)
    results = BatchEngine(config, batch).run(pairs)
    aligner = FullAligner()
    for (q, r), result in zip(pairs, results):
        single = aligner.align(q, r, config.model)
        assert result.score == single.score
        assert result.alignment.cigar_string \
            == single.alignment.cigar_string


@settings(deadline=None, max_examples=40)
@given(pairs=pair_batches(max_pairs=6))
def test_edit_score_is_symmetric(pairs):
    """Under the unit-cost edit model, score(q, r) == score(r, q)."""
    config = CONFIGS["dna-edit"]
    batch = BatchConfig(engine="vector", mode="global", traceback=False)
    engine = BatchEngine(config, batch)
    forward = engine.run(pairs)
    backward = engine.run([(r, q) for q, r in pairs])
    for fwd, bwd in zip(forward, backward):
        assert fwd.score == bwd.score


@settings(deadline=None, max_examples=25)
@given(pairs=pair_batches(max_pairs=4, max_len=40),
       config_name=st.sampled_from(sorted(CONFIGS)))
def test_band_widening_is_monotone(pairs, config_name):
    """Widening the band never lowers a banded score, and a full-width
    band reaches the exact optimum."""
    config = CONFIGS[config_name]
    exact = [FullAligner().compute_score(q, r, config.model).score
             for q, r in pairs]
    previous = [NEG] * len(pairs)
    for width in (1, 2, 4, 8, 16, 64):
        batch = BatchConfig(engine="vector", algorithm="banded",
                            band_width=width, traceback=False)
        scores = [r.score if not r.failed else NEG
                  for r in BatchEngine(config, batch).run(pairs)]
        for i, (score, prev) in enumerate(zip(scores, previous)):
            assert score >= prev, (width, i)
            assert score <= exact[i], (width, i)
        previous = scores
    full = BatchConfig(engine="vector", algorithm="banded",
                       band_fraction=1.0, traceback=False)
    final = [r.score for r in BatchEngine(config, full).run(pairs)]
    assert final == exact


@settings(deadline=None, max_examples=25)
@given(pairs=pair_batches(max_pairs=4, max_len=40),
       config_name=st.sampled_from(sorted(CONFIGS)))
def test_xdrop_threshold_widening_is_monotone(pairs, config_name):
    """Raising the X-drop threshold never lowers the score; a huge
    threshold disables pruning and reaches the exact optimum."""
    config = CONFIGS[config_name]
    exact = [FullAligner().compute_score(q, r, config.model).score
             for q, r in pairs]
    previous = [NEG] * len(pairs)
    for threshold in (1, 4, 16, 64, 1 << 30):
        batch = BatchConfig(engine="vector", algorithm="xdrop",
                            xdrop=threshold, traceback=False)
        scores = [r.score if not r.failed else NEG
                  for r in BatchEngine(config, batch).run(pairs)]
        for i, (score, prev) in enumerate(zip(scores, previous)):
            assert score >= prev, (threshold, i)
            assert score <= exact[i], (threshold, i)
        previous = scores
    assert previous == exact


# ---------------------------------------------------------------------
# Linear route with CIGARs: kept move bits walked in lock step must be
# the scalar aligners' tracebacks, field by field
# ---------------------------------------------------------------------

def _tie_heavy(size: int, max_len: int):
    """Pairs on which diagonal, up and left all reproduce ``H`` in
    many cells, so only the fixed priority picks the path."""
    symbol = st.integers(0, size - 1)
    length = st.integers(0, max_len)
    homopolymers = st.tuples(symbol, length, length).map(
        lambda t: (np.full(t[1], t[0], dtype=np.uint8),
                   np.full(t[2], t[0], dtype=np.uint8)))
    identical = st.lists(symbol, max_size=max_len).map(
        lambda codes: (np.asarray(codes, dtype=np.uint8),) * 2)
    all_mismatch = st.tuples(length, length).map(
        lambda t: (np.zeros(t[0], dtype=np.uint8),
                   np.ones(t[1], dtype=np.uint8)))

    def substituted(codes):
        q = np.asarray(codes, dtype=np.uint8)
        r = q.copy()
        r[len(r) // 2] = (r[len(r) // 2] + 1) % size
        return q, r

    # One substitution inside a long match ties all three moves at a
    # cell with H > 0, the only kind a local walk ever reads.
    one_substitution = st.lists(symbol, min_size=9,
                                max_size=max_len).map(substituted)
    return st.one_of(homopolymers, identical, all_mismatch,
                     one_substitution)


def _linear_batches(size: int, max_pairs: int = 8, max_len: int = 40):
    """Mixed-length batches: random, tie-heavy and length-0/1 pairs,
    and always ``("", "")``."""
    def codes(max_size):
        return st.lists(st.integers(0, size - 1), max_size=max_size).map(
            lambda values: np.asarray(values, dtype=np.uint8))

    pair = st.one_of(st.tuples(codes(max_len), codes(max_len)),
                     st.tuples(codes(1), codes(max_len)),
                     st.tuples(codes(max_len), codes(1)),
                     _tie_heavy(size, max_len))
    empty = np.zeros(0, dtype=np.uint8)
    return st.lists(pair, min_size=1, max_size=max_pairs).map(
        lambda pairs: pairs + [(empty, empty)])


def _aligned_region(alignment, q, r):
    """The subsequences an alignment's CIGAR spells out."""
    meta = alignment.meta
    return (q[meta.get("query_start", 0):meta.get("query_end", len(q))],
            r[meta.get("ref_start", 0):meta.get("ref_end", len(r))])


@pytest.mark.parametrize("wide", [False, True], ids=["narrow", "wide"])
@pytest.mark.parametrize("config_name", ["dna-gap", "protein"])
@pytest.mark.parametrize("kind", ["global", "semiglobal", "local"])
@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_linear_cigars_equal_the_scalar_aligners(kind, config_name, wide,
                                                 data):
    """Score, CIGAR, lengths, meta and stats of the batched linear
    route ``==`` ``FullAligner`` / ``SemiGlobalAligner`` /
    ``LocalAligner`` on every pair, in any submission order, alone or
    batched, and however the cell budget groups the walks."""
    config = CONFIGS[config_name]
    pairs = data.draw(_linear_batches(config.alphabet.size))
    cells = data.draw(st.sampled_from([300, 4_000, 8_000_000]))
    batch = BatchConfig(engine="vector", mode=kind, traceback=True,
                        wide_dtype=wide, max_batch_cells=cells)
    engine = BatchEngine(config, batch)
    results = engine.run(pairs)
    aligner = make_scalar_aligner(batch)
    for (q, r), result in zip(pairs, results):
        expected = aligner.align(q, r, config.model)
        got, want = result.alignment, expected.alignment
        assert result.score == expected.score == got.score
        assert got.cigar == want.cigar
        assert (got.query_len, got.ref_len) \
            == (want.query_len, want.ref_len)
        assert got.meta == want.meta
        assert result.stats == expected.stats
        assert result == expected
        got.validate(*_aligned_region(got, q, r), config.model)
        assert engine.run([(q, r)]) == [result]
    order = data.draw(st.permutations(range(len(pairs))))
    shuffled = engine.run([pairs[i] for i in order])
    assert shuffled == [results[i] for i in order]
