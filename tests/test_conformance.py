"""Differential conformance: every DP implementation vs one oracle.

A fast second implementation of every algorithm (the batched vector
engine) is a correctness hazard, so this suite pins *all* of them --
the scalar ``algorithms/`` classes, the ``repro.exec`` kernels, the
SMX functional model, and the functional baselines -- to the
brute-force oracles in ``tests/oracle.py`` on one seeded corpus per
configuration (DNA + protein, lengths 0-200, plus the classic edge
cases: empty, identical, all-mismatch, homopolymer).

Exact implementations must match the oracle's score *and* CIGAR;
heuristics must be admissible (never exceed the optimum, and their
CIGARs must rescore to their claimed score); the vector engine must be
bit-identical to the scalar engine on every field of every result.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.algorithms import (
    AdaptiveBandAligner,
    AffineAligner,
    AffineGapPenalties,
    BandedAligner,
    FullAligner,
    HirschbergAligner,
    LocalAligner,
    SemiGlobalAligner,
    WavefrontAligner,
    WindowAligner,
    XdropAligner,
    band_intervals,
)
from repro.api import align, align_batch, score, score_batch
from repro.baselines.ksw2 import ksw2_score
from repro.baselines.myers import myers_edit_distance
from repro.core.system import SmxSystem
from repro.dp.dense import nw_score
from repro.errors import ConfigurationError
from repro.exec import BatchConfig, BatchEngine, kernels
from repro.scoring.model import MatchMismatchModel
from repro.workloads.synthetic import ErrorProfile, mutate

from tests.oracle import cached_oracle

SEED = 0x534D58  # "SMX"

PENALTIES = AffineGapPenalties(open=-6, extend=-1)


def corpus(config) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Deterministic per-configuration corpus of (name, query, ref)."""
    rng = np.random.default_rng([SEED, zlib.crc32(config.name.encode())])
    alphabet = config.alphabet

    def rand(length: int) -> np.ndarray:
        return alphabet.random(length, rng)

    code_a = int(rand(1)[0])
    code_b = code_a
    while code_b == code_a:
        code_b = int(rand(1)[0])
    identical = rand(83)
    cases = [
        ("empty-both", rand(0), rand(0)),
        ("empty-query", rand(0), rand(40)),
        ("empty-ref", rand(37), rand(0)),
        ("single", rand(1), rand(1)),
        ("identical", identical, identical.copy()),
        ("all-mismatch", np.full(50, code_a, dtype=np.uint8),
         np.full(61, code_b, dtype=np.uint8)),
        ("homopolymer", np.full(64, code_a, dtype=np.uint8),
         np.full(57, code_a, dtype=np.uint8)),
    ]
    profile = ErrorProfile(substitution=0.08, insertion=0.04,
                           deletion=0.04)
    for length in (17, 45, 90, 200):
        reference = rand(length)
        mutated, _ = mutate(reference, profile, alphabet, rng)
        cases.append((f"mutated-{length}", mutated, reference))
    for tag, (n, m) in (("skew-a", (25, 120)), ("skew-b", (120, 25))):
        cases.append((tag, rand(n), rand(m)))
    return cases


def _g(config, q, r):
    return cached_oracle("global", config, q, r)


# ---------------------------------------------------------------------
# Exact global implementations
# ---------------------------------------------------------------------

def test_full_aligner_matches_oracle(config):
    aligner = FullAligner()
    for name, q, r in corpus(config):
        exp_score, exp_cigar = _g(config, q, r)
        result = aligner.align(q, r, config.model)
        assert result.score == exp_score, name
        assert result.alignment.cigar_string == exp_cigar, name
        assert nw_score(q, r, config.model) == exp_score, name


def test_smx_system_matches_oracle(config):
    system = SmxSystem(config)
    for name, q, r in corpus(config):
        if len(q) == 0 or len(r) == 0:
            continue  # the offload model rejects empty blocks
        exp_score, exp_cigar = _g(config, q, r)
        assert system.score(q, r).score == exp_score, name
        result = system.align(q, r)
        assert result.score == exp_score, name
        assert result.alignment.cigar_string == exp_cigar, name


def test_hirschberg_matches_oracle(config):
    aligner = HirschbergAligner()
    for name, q, r in corpus(config):
        exp_score, _ = _g(config, q, r)
        assert aligner.compute_score(q, r, config.model).score \
            == exp_score, name
        result = aligner.align(q, r, config.model)
        assert result.score == exp_score, name
        # Hirschberg may legally pick a different co-optimal path; its
        # CIGAR must still rescore to the optimum.
        result.alignment.validate(q, r, config.model)


def test_wavefront_matches_oracle(config):
    if config.model.theta != 2 or config.model.smax != 0:
        pytest.skip("wavefront implements the unit-cost edit model only")
    aligner = WavefrontAligner()
    for name, q, r in corpus(config):
        exp_score, _ = _g(config, q, r)
        assert aligner.compute_score(q, r, config.model).score \
            == exp_score, name
        result = aligner.align(q, r, config.model)
        assert result.score == exp_score, name
        result.alignment.validate(q, r, config.model)


def test_ksw2_differential_matches_oracle(config):
    for name, q, r in corpus(config):
        exp_score, _ = _g(config, q, r)
        assert ksw2_score(q, r, config.model) == exp_score, name


def test_myers_matches_oracle(configs):
    config = configs["dna-edit"]
    for name, q, r in corpus(config):
        exp_score, _ = _g(config, q, r)
        assert myers_edit_distance(q, r) == -exp_score, name


@pytest.mark.parametrize("config_name", ["dna-edit", "ascii"])
def test_myers_bitparallel_oracle_three_way_lock(configs, config_name):
    """Scalar Myers == batched bit-parallel engine == brute-force
    oracle, on the full corpus (multi-block m > 64 patterns via the
    200-length cases, plus the empty / length-1 degenerates)."""
    config = configs[config_name]
    n_symbols = config.alphabet.size
    cases = corpus(config)
    assert any(len(q) > 64 for _, q, r in cases)  # multi-block covered
    engine = BatchEngine(config, BatchConfig(engine="bitparallel",
                                             traceback=False))
    results = engine.run([(q, r) for _, q, r in cases])
    for (name, q, r), result in zip(cases, results):
        exp_score, _ = _g(config, q, r)
        scalar = myers_edit_distance(q, r, n_symbols=n_symbols)
        assert scalar == -exp_score, name
        assert result.score == -scalar == exp_score, name
        assert result.alignment is None, name


# ---------------------------------------------------------------------
# Heuristics: exact when wide open, admissible otherwise
# ---------------------------------------------------------------------

def test_wide_heuristics_are_exact(config):
    banded = BandedAligner(fraction=1.0)
    xdrop = XdropAligner(xdrop=1 << 30)
    for name, q, r in corpus(config):
        exp_score, exp_cigar = _g(config, q, r)
        for aligner in (banded, xdrop):
            result = aligner.align(q, r, config.model)
            assert not result.failed, (name, aligner.name)
            assert result.score == exp_score, (name, aligner.name)
            assert result.alignment.cigar_string == exp_cigar, \
                (name, aligner.name)
            assert aligner.compute_score(q, r, config.model).score \
                == exp_score, (name, aligner.name)


def test_heuristics_are_admissible(config):
    aligners = (BandedAligner(fraction=0.15), XdropAligner(fraction=0.1),
                AdaptiveBandAligner(width=16),
                WindowAligner(window=48, overlap=16))
    for name, q, r in corpus(config):
        exp_score, _ = _g(config, q, r)
        for aligner in aligners:
            result = aligner.align(q, r, config.model)
            if result.failed:
                continue  # dropping the pair entirely is allowed
            assert result.score <= exp_score, (name, aligner.name)
            result.alignment.validate(q, r, config.model)


# ---------------------------------------------------------------------
# Local / semiglobal / affine modes
# ---------------------------------------------------------------------

def test_semiglobal_matches_oracle(config):
    aligner = SemiGlobalAligner()
    for name, q, r in corpus(config):
        exp_score, exp_cigar, ref_start, ref_end = cached_oracle(
            "semiglobal", config, q, r)
        assert aligner.compute_score(q, r, config.model).score \
            == exp_score, name
        result = aligner.align(q, r, config.model)
        assert result.score == exp_score, name
        assert result.alignment.cigar_string == exp_cigar, name
        assert result.alignment.meta["ref_start"] == ref_start, name
        assert result.alignment.meta["ref_end"] == ref_end, name


def test_local_matches_oracle(config):
    if config.model.smax <= 0:
        pytest.skip("local mode needs a positive match score")
    aligner = LocalAligner()
    for name, q, r in corpus(config):
        exp_score, exp_cigar, (q_start, q_end, r_start, r_end) = \
            cached_oracle("local", config, q, r)
        assert aligner.compute_score(q, r, config.model).score \
            == exp_score, name
        result = aligner.align(q, r, config.model)
        assert result.score == exp_score, name
        assert result.alignment.cigar_string == exp_cigar, name
        meta = result.alignment.meta
        assert (meta["query_start"], meta["query_end"],
                meta["ref_start"], meta["ref_end"]) \
            == (q_start, q_end, r_start, r_end), name


def test_affine_matches_oracle(config):
    aligner = AffineAligner(PENALTIES)
    for name, q, r in corpus(config):
        exp_score, exp_cigar = cached_oracle(
            "affine", config, q, r,
            extra=(PENALTIES.open, PENALTIES.extend))
        assert aligner.compute_score(q, r, config.model).score \
            == exp_score, name
        result = aligner.align(q, r, config.model)
        assert result.score == exp_score, name
        assert result.alignment.cigar_string == exp_cigar, name


# ---------------------------------------------------------------------
# Batched vector engine: bit-identical to scalar, pinned to the oracle
# ---------------------------------------------------------------------

def _batch_cases(config):
    cases = [
        BatchConfig(engine="vector", mode="global", traceback=True),
        BatchConfig(engine="vector", mode="global", traceback=False),
        BatchConfig(engine="vector", mode="semiglobal", traceback=True),
        BatchConfig(engine="vector", mode="semiglobal", traceback=False),
        BatchConfig(engine="vector", algorithm="affine",
                    affine_penalties=PENALTIES, traceback=True),
        BatchConfig(engine="vector", algorithm="affine",
                    affine_penalties=PENALTIES, traceback=False),
        BatchConfig(engine="vector", algorithm="banded",
                    band_fraction=0.15, traceback=True),
        BatchConfig(engine="vector", algorithm="banded",
                    band_fraction=0.15, traceback=False),
        BatchConfig(engine="vector", algorithm="xdrop",
                    xdrop_fraction=0.1, traceback=True),
        BatchConfig(engine="vector", algorithm="xdrop",
                    xdrop_fraction=0.1, traceback=False),
    ]
    if config.model.smax > 0:
        cases.append(BatchConfig(engine="vector", mode="local",
                                 traceback=True))
        cases.append(BatchConfig(engine="vector", mode="local",
                                 traceback=False))
    return cases


def _assert_identical(vec, sca, context):
    assert vec.score == sca.score, context
    assert vec.failed == sca.failed, context
    assert vec.failure_reason == sca.failure_reason, context
    assert vec.stats == sca.stats, context
    if sca.alignment is None:
        assert vec.alignment is None, context
    else:
        assert vec.alignment == sca.alignment, context


def test_vector_engine_bit_identical_to_scalar(config):
    pairs = [(q, r) for _, q, r in corpus(config)]
    names = [name for name, _, _ in corpus(config)]
    for batch in _batch_cases(config):
        vec = BatchEngine(config, batch).run(pairs)
        sca = BatchEngine(config,
                          replace(batch, engine="scalar")).run(pairs)
        assert len(vec) == len(sca) == len(pairs)
        for name, v, s in zip(names, vec, sca):
            _assert_identical(v, s, (batch.mode, batch.algorithm,
                                     batch.traceback, name))


def test_bitparallel_engine_matches_oracle_and_wavefront(config):
    """The score-only bit-parallel engine against the oracle and the
    scalar ``WavefrontAligner`` on every edit-model configuration;
    non-edit models are rejected with a typed ConfigurationError."""
    engine = BatchEngine(config, BatchConfig(engine="bitparallel",
                                             traceback=False))
    pairs = [(q, r) for _, q, r in corpus(config)]
    if config.model.theta != 2 or config.model.smax != 0:
        with pytest.raises(ConfigurationError):
            engine.run(pairs)
        return
    names = [name for name, _, _ in corpus(config)]
    wavefront = WavefrontAligner()
    results = engine.run(pairs)
    for name, (q, r), result in zip(names, pairs, results):
        exp_score, _ = _g(config, q, r)
        assert result.score == exp_score, name
        assert wavefront.compute_score(q, r, config.model).score \
            == result.score, name


def test_vector_global_matches_oracle(config):
    pairs = [(q, r) for _, q, r in corpus(config)]
    names = [name for name, _, _ in corpus(config)]
    batch = BatchConfig(engine="vector", mode="global", traceback=True)
    results = BatchEngine(config, batch).run(pairs)
    for name, (q, r), result in zip(names, pairs, results):
        exp_score, exp_cigar = _g(config, q, r)
        assert result.score == exp_score, name
        assert result.alignment.cigar_string == exp_cigar, name


def test_vector_engine_order_and_sharding(config):
    pairs = [(q, r) for _, q, r in corpus(config)]
    batch = BatchConfig(engine="vector", mode="global", traceback=True)
    baseline = BatchEngine(config, batch).run(pairs)
    # Reversed submission returns reversed results (order preserved).
    reversed_results = BatchEngine(config, batch).run(pairs[::-1])
    for a, b in zip(baseline, reversed_results[::-1]):
        _assert_identical(a, b, "order")
    # Sharded execution (process pool, or its inline fallback when the
    # sandbox forbids subprocesses) is also identical.
    sharded = BatchEngine(
        config, BatchConfig(engine="vector", mode="global",
                            traceback=True, workers=2)).run(pairs)
    for a, b in zip(baseline, sharded):
        _assert_identical(a, b, "sharded")


# ---------------------------------------------------------------------
# Banded kernel: band-size sweep (the Unicycler banded-verification
# shape): batched == scalar at every width, == oracle inside the band
# ---------------------------------------------------------------------

def _band_sweep_pairs(config) -> list[tuple[np.ndarray, np.ndarray]]:
    """Slopes m/n of 0.5, 1 and 2 (related and unrelated sequences, so
    optimal paths fall inside and outside narrow bands), a path that a
    30-column deletion drives out of any narrow band, and every
    zero-length / length-1 shape."""
    rng = np.random.default_rng([SEED, zlib.crc32(config.name.encode()), 13])
    alphabet = config.alphabet
    profile = ErrorProfile(substitution=0.06, insertion=0.03, deletion=0.03)
    pairs = []
    for n in (20, 44):
        for slope in (0.5, 1, 2):
            m = int(n * slope)
            core, _ = mutate(alphabet.random(min(n, m), rng), profile,
                             alphabet, rng)
            filler = alphabet.random(abs(m - n), rng)
            cut = len(core) // 2
            longer = np.concatenate([core[:cut], filler, core[cut:]])
            pairs.append((core, longer) if m > n else (longer, core))
            pairs.append((alphabet.random(n, rng), alphabet.random(m, rng)))
    reference = alphabet.random(70, rng)
    pairs.append((np.concatenate([reference[:20], reference[50:]]),
                  reference))
    for n, m in ((0, 0), (0, 7), (9, 0), (1, 1), (1, 5), (6, 1)):
        pairs.append((alphabet.random(n, rng), alphabet.random(m, rng)))
    return [(np.asarray(q, dtype=np.uint8), np.asarray(r, dtype=np.uint8))
            for q, r in pairs]


def _path_in_band(cigar, n: int, m: int, half: int) -> bool:
    """Whether every cell of a global path lies inside the banded
    corridor of half-width ``half``."""
    lo, hi = band_intervals(n, m, half)
    i = j = 0
    for count, op in cigar:
        for _ in range(count):
            i += op in "=XI"
            j += op in "=XD"
            if not lo[i] <= j <= hi[i]:
                return False
    return True


@pytest.mark.parametrize("config_name", ["dna-gap", "protein"])
def test_banded_band_size_sweep(configs, config_name):
    """Widths 1..64 and fractions over one mixed-length bucket (and the
    default dense buckets, and one-pair chunks): the batched kernel and
    its band-aware traceback equal the scalar ``BandedAligner`` in
    every field -- including "no valid predecessor" failures -- and
    equal the brute-force oracle whenever the optimal path stays inside
    the band."""
    config = configs[config_name]
    pairs = _band_sweep_pairs(config)
    oracle = []
    for q, r in pairs:
        exp_score, _ = _g(config, q, r)
        gold = FullAligner().align(q, r, config.model)
        assert gold.score == exp_score
        oracle.append(gold.alignment)
    bands = [dict(band_width=width) for width in range(1, 65)] \
        + [dict(band_fraction=fraction)
           for fraction in (0.02, 0.1, 0.33, 1.0)]
    reasons = set()
    for number, band in enumerate(bands):
        scalar = BandedAligner(width=band.get("band_width"),
                               fraction=band.get("band_fraction"))
        aligned = [scalar.align(q, r, config.model) for q, r in pairs]
        scored = [scalar.compute_score(q, r, config.model)
                  for q, r in pairs]
        # One mixed-length bucket always; dense buckets and one-pair
        # kept chunks on a rotating subset to bound the runtime.
        layouts = [dict(bucket_granularity=1024)]
        if number % 8 == 0:
            layouts += [dict(), dict(bucket_granularity=1024,
                                     max_batch_cells=1)]
        for layout in layouts:
            for traceback, expected in ((True, aligned), (False, scored)):
                batch = BatchConfig(engine="vector", algorithm="banded",
                                    traceback=traceback, **band, **layout)
                got = BatchEngine(config, batch).run(pairs)
                for index, (vec, sca) in enumerate(zip(got, expected)):
                    _assert_identical(vec, sca, (band, layout, traceback,
                                                 index))
        for (q, r), result, exact in zip(pairs, aligned, oracle):
            reasons.add(result.failure_reason.split(" at ")[0])
            half = scalar._half_width(len(q), len(r))
            if _path_in_band(exact.cigar, len(q), len(r), half):
                assert not result.failed, (band, len(q), len(r))
                assert result.score == exact.score
                assert result.alignment.cigar == exact.cigar
            elif not result.failed:
                assert result.score <= exact.score
    assert reasons == {"", "no valid predecessor"}


def test_banded_corner_below_prune_floor_fails_like_scalar(configs):
    """Penalties steep enough to push a true score under the prune
    floor: both engines report the corner as excluded (and the int64
    sweep is the one that runs)."""
    model = MatchMismatchModel(match=0, mismatch=-(1 << 30),
                               gap_i=-(1 << 30), gap_d=-(1 << 30))
    config = SimpleNamespace(name="steep", model=model,
                             alphabet=configs["dna-gap"].alphabet)
    pairs = [(np.zeros(600, dtype=np.uint8), np.ones(600, dtype=np.uint8)),
             (np.zeros(10, dtype=np.uint8), np.ones(10, dtype=np.uint8))]
    assert kernels.banded_dtype(model, 600, 600) is np.int64
    for traceback, reason in ((True, "band excluded (n, m)"),
                              (False, "band too narrow")):
        batch = BatchConfig(engine="vector", algorithm="banded",
                            band_width=4, traceback=traceback)
        vec = BatchEngine(config, batch).run(pairs)
        sca = BatchEngine(config, replace(batch, engine="scalar")).run(pairs)
        for v, s in zip(vec, sca):
            _assert_identical(v, s, traceback)
        assert vec[0].failed and vec[0].failure_reason == reason
        assert not vec[1].failed


def test_banded_wide_dtype_matches_narrow(configs):
    """``wide_dtype`` (the ladder's rung) switches the banded sweep to
    int64 rows without changing any result."""
    config = configs["dna-gap"]
    pairs = _band_sweep_pairs(config)
    assert kernels.banded_dtype(config.model, 64, 128) is np.int32
    for traceback in (True, False):
        batch = BatchConfig(engine="vector", algorithm="banded",
                            band_width=3, traceback=traceback)
        narrow = BatchEngine(config, batch).run(pairs)
        wide = BatchEngine(config, replace(batch, wide_dtype=True)).run(pairs)
        for a, b in zip(narrow, wide):
            _assert_identical(a, b, traceback)


# ---------------------------------------------------------------------
# Edge cases: empty batches and zero-length sequences stay well-formed
# ---------------------------------------------------------------------

def test_empty_batch_returns_empty_list(config):
    for batch in (BatchConfig(), BatchConfig(engine="scalar"),
                  BatchConfig(workers=4)):
        assert BatchEngine(config, batch).run([]) == []
    assert align_batch([]) == []
    assert score_batch([]) == []


def test_zero_length_sequences_well_formed():
    for preset in ("dna", "protein", "text"):
        for query, reference in (("", ""), ("", "ACGT"), ("ACGT", "")):
            for mode in ("global", "semiglobal"):
                alignment = align(query, reference, preset=preset,
                                  mode=mode)
                assert alignment is not None
                consumed = alignment.consumed()
                if mode == "global":
                    assert consumed == (len(query), len(reference))
                else:
                    assert consumed[0] == len(query)
                assert isinstance(
                    score(query, reference, preset=preset, mode=mode),
                    int)
    batch = align_batch([("", ""), ("", "AC"), ("AC", ""), ("AC", "AG")])
    assert [a.cigar_string for a in batch] == ["", "2D", "2I", "1=1X"]
