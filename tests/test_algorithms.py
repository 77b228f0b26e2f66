"""Tests for the practical alignment-algorithm family (paper Sec. 2.3)."""

import numpy as np
import pytest

from repro.algorithms import (
    BandedAligner,
    FullAligner,
    HirschbergAligner,
    WindowAligner,
    XdropAligner,
    band_intervals,
)
from repro.errors import AlignmentError
from repro.workloads.synthetic import ONT_NANOPORE, mutate
from tests.characterisation import seam_corpus
from tests.conftest import make_pair
from tests.oracle import cached_oracle


@pytest.fixture()
def gold():
    return FullAligner()


def similar_pair(config, n, rng, rate=0.05):
    return make_pair(config, n, rate, rng)


def _xdrop_matrix():
    """The thresholds the retired batched X-drop route was tested with,
    ``x {score, traceback}``."""
    for label, threshold in (("xdrop12", {"xdrop": 12}),
                             ("xdrop30", {"xdrop": 30}),
                             ("fraction10", {"fraction": 0.1})):
        for traceback in (False, True):
            yield pytest.param(
                threshold, traceback,
                id=f"{label}-{'cigar' if traceback else 'score'}")


class TestFullAligner:
    def test_align_validates(self, config, rng, gold):
        q, r = similar_pair(config, 60, rng)
        result = gold.align(q, r, config.model)
        result.alignment.validate(q, r, config.model)
        assert result.score == result.alignment.score

    def test_score_matches_align(self, config, rng, gold):
        q, r = similar_pair(config, 60, rng)
        assert (gold.compute_score(q, r, config.model).score
                == gold.align(q, r, config.model).score)

    def test_stats_full_matrix(self, configs, rng, gold):
        config = configs["dna-edit"]
        q, r = make_pair(config, 30, 0.1, rng, m=40)
        result = gold.align(q, r, config.model)
        assert result.stats.cells_computed == 30 * 40
        assert result.stats.cells_stored == 30 * 40

    def test_score_mode_linear_memory(self, configs, rng, gold):
        config = configs["dna-edit"]
        q, r = make_pair(config, 30, 0.1, rng, m=40)
        result = gold.compute_score(q, r, config.model)
        assert result.stats.cells_stored == 41

    def test_exact_flag(self, gold):
        assert gold.exact


class TestBandedAligner:
    def test_exact_when_band_contains_path(self, config, rng, gold):
        q, r = similar_pair(config, 120, rng)
        banded = BandedAligner(fraction=0.25)
        result = banded.align(q, r, config.model)
        assert result.score == gold.align(q, r, config.model).score
        result.alignment.validate(q, r, config.model)

    def test_narrow_band_suboptimal_or_failed(self, configs, rng, gold):
        """A 1-cell band cannot follow a path with big gaps."""
        config = configs["dna-edit"]
        rng2 = np.random.default_rng(5)
        r = config.alphabet.random(100, rng2)
        # Delete a 30-char chunk: path leaves any narrow band.
        q = np.concatenate([r[:20], r[50:]])
        banded = BandedAligner(width=2)
        gold_score = gold.align(q, r, config.model).score
        result = banded.align(q, r, config.model)
        assert result.failed or result.score < gold_score

    def test_band_cells_fraction(self, configs, rng):
        config = configs["dna-edit"]
        q, r = make_pair(config, 300, 0.05, rng)
        result = BandedAligner(fraction=0.10).compute_score(q, r,
                                                            config.model)
        frac, _ = result.stats.fractions_of(len(q), len(r))
        assert 0.05 < frac < 0.35

    def test_width_and_fraction_exclusive(self):
        with pytest.raises(AlignmentError):
            BandedAligner()
        with pytest.raises(AlignmentError):
            BandedAligner(width=3, fraction=0.1)

    def test_band_intervals_connected(self):
        lo, hi = band_intervals(50, 200, width=4)
        assert lo[0] == 0 and hi[-1] == 200
        for i in range(1, len(lo)):
            assert lo[i] <= hi[i - 1] + 1  # corridor is connected

    def test_asymmetric_lengths(self, configs, rng, gold):
        config = configs["dna-gap"]
        q, r = make_pair(config, 40, 0.05, rng, m=120)
        result = BandedAligner(fraction=0.5).align(q, r, config.model)
        assert result.score == gold.align(q, r, config.model).score


class TestXdropAligner:
    def test_exact_on_similar_pairs(self, config, rng, gold):
        q, r = similar_pair(config, 150, rng)
        result = XdropAligner(fraction=0.08).align(q, r, config.model)
        assert result.score == gold.align(q, r, config.model).score

    def test_drops_dissimilar_pair(self, configs):
        """Unrelated sequences drop early (the pre-filter use case)."""
        config = configs["dna-edit"]
        rng = np.random.default_rng(9)
        q = config.alphabet.random(400, rng)
        r = config.alphabet.random(400, rng)
        result = XdropAligner(xdrop=8).compute_score(q, r, config.model)
        assert result.failed

    def test_computes_fewer_cells(self, configs, rng):
        config = configs["dna-edit"]
        q, r = make_pair(config, 300, 0.05, rng)
        result = XdropAligner(fraction=0.08).compute_score(q, r,
                                                           config.model)
        frac, _ = result.stats.fractions_of(len(q), len(r))
        assert frac < 0.8

    def test_param_validation(self):
        with pytest.raises(AlignmentError):
            XdropAligner()
        with pytest.raises(AlignmentError):
            XdropAligner(xdrop=5, fraction=0.08)

    def test_alignment_validates(self, config, rng):
        q, r = similar_pair(config, 100, rng)
        result = XdropAligner(fraction=0.10).align(q, r, config.model)
        if not result.failed:
            result.alignment.validate(q, r, config.model)

    @pytest.mark.parametrize("threshold, traceback", _xdrop_matrix())
    def test_seam_corpus_answers_to_the_oracle(self, configs, threshold,
                                               traceback):
        """A dropped pair says why; a settled one never beats the
        brute-force optimum and its CIGAR rescores to its score."""
        config = configs["dna-gap"]
        aligner = XdropAligner(**threshold)
        run = aligner.align if traceback else aligner.compute_score
        pairs = seam_corpus(config)
        settled = 0
        for q, r in pairs:
            result = run(q, r, config.model)
            if result.failed:
                assert result.failure_reason
                continue
            settled += 1
            want, _ = cached_oracle("global", config, q, r)
            assert result.score <= want
            if traceback:
                assert result.alignment.rescore(q, r, config.model) \
                    == result.score
        assert settled >= len(pairs) // 2

    @pytest.mark.parametrize("threshold, traceback", _xdrop_matrix())
    def test_same_answer_alone_and_in_any_order(self, configs, threshold,
                                                traceback):
        """One aligner reused over the corpus, forwards or backwards,
        answers each pair as a fresh aligner does."""
        config = configs["dna-gap"]
        pairs = seam_corpus(config)

        def answers(aligner, order):
            run = aligner.align if traceback else aligner.compute_score
            return [run(*pairs[i], config.model) for i in order]

        shared = XdropAligner(**threshold)
        forward = answers(shared, range(len(pairs)))
        assert forward == [answers(XdropAligner(**threshold), [i])[0]
                           for i in range(len(pairs))]
        assert forward == answers(shared, reversed(range(len(pairs))))[::-1]


class TestHirschbergAligner:
    def test_exact_score_all_configs(self, config, rng, gold):
        q, r = make_pair(config, 90, 0.15, rng, m=110)
        result = HirschbergAligner().align(q, r, config.model)
        assert result.score == gold.align(q, r, config.model).score
        result.alignment.validate(q, r, config.model)

    def test_roughly_double_work(self, configs, rng):
        config = configs["dna-edit"]
        q, r = make_pair(config, 400, 0.1, rng)
        result = HirschbergAligner(base_cells=256).align(q, r, config.model)
        frac, _ = result.stats.fractions_of(len(q), len(r))
        assert 1.2 < frac < 2.2  # paper Fig. 2: ~2x computed

    def test_linear_memory(self, configs, rng):
        config = configs["dna-edit"]
        q, r = make_pair(config, 400, 0.1, rng)
        result = HirschbergAligner(base_cells=256).align(q, r, config.model)
        _, stored = result.stats.fractions_of(len(q), len(r))
        assert stored < 0.02

    def test_empty_sequences(self, configs):
        config = configs["dna-edit"]
        empty = np.array([], dtype=np.uint8)
        r = config.alphabet.random(5, np.random.default_rng(0))
        result = HirschbergAligner().align(empty, r, config.model)
        assert result.alignment.cigar == [(5, "D")]
        result = HirschbergAligner().align(r, empty, config.model)
        assert result.alignment.cigar == [(5, "I")]

    def test_many_blocks_issued(self, configs, rng):
        config = configs["dna-edit"]
        q, r = make_pair(config, 300, 0.1, rng)
        result = HirschbergAligner(base_cells=64).align(q, r, config.model)
        assert result.stats.blocks > 10


class TestWindowAligner:
    def test_exact_on_clean_pairs(self, configs, rng, gold):
        config = configs["dna-edit"]
        q, r = make_pair(config, 500, 0.02, rng)
        result = WindowAligner(window=128, overlap=48).align(q, r,
                                                             config.model)
        assert not result.failed
        assert result.score == gold.align(q, r, config.model).score

    def test_fails_or_degrades_on_large_indels(self, configs, gold):
        """A gap larger than the window defeats the heuristic (the
        paper's zero-recall GACT result on ONT reads)."""
        config = configs["dna-edit"]
        rng = np.random.default_rng(17)
        r = config.alphabet.random(600, rng)
        q = np.concatenate([r[:100], r[350:]])  # 250-char deletion
        result = WindowAligner(window=96, overlap=32).align(q, r,
                                                            config.model)
        gold_score = gold.align(q, r, config.model).score
        assert result.failed or result.score < gold_score

    def test_param_validation(self):
        with pytest.raises(AlignmentError, match="overlap"):
            WindowAligner(window=64, overlap=64)

    def test_constant_memory(self, configs, rng):
        config = configs["dna-edit"]
        q, r = make_pair(config, 800, 0.02, rng)
        result = WindowAligner(window=128, overlap=48).align(q, r,
                                                             config.model)
        assert result.stats.cells_stored <= 128 * 128

    def test_alignment_validates(self, configs, rng):
        config = configs["dna-edit"]
        q, r = make_pair(config, 400, 0.03, rng)
        result = WindowAligner(window=128, overlap=48).align(q, r,
                                                             config.model)
        if not result.failed:
            result.alignment.validate(q, r, config.model)

    def test_score_mode_same_as_align(self, configs, rng):
        """Window heuristic cannot skip traceback (paper Sec. 3)."""
        config = configs["dna-edit"]
        q, r = make_pair(config, 300, 0.02, rng)
        aligner = WindowAligner(window=96, overlap=32)
        assert (aligner.compute_score(q, r, config.model).score
                == aligner.align(q, r, config.model).score)


class TestCrossAlgorithmAgreement:
    def test_all_exact_algorithms_agree(self, config, rng):
        q, r = make_pair(config, 140, 0.10, rng, m=150)
        full = FullAligner().align(q, r, config.model)
        hirschberg = HirschbergAligner().align(q, r, config.model)
        wide_band = BandedAligner(fraction=0.5).align(q, r, config.model)
        assert full.score == hirschberg.score == wide_band.score

    def test_heuristics_never_beat_gold(self, configs, rng):
        config = configs["dna-edit"]
        rng2 = np.random.default_rng(33)
        r = config.alphabet.random(250, rng2)
        q, _ = mutate(r, ONT_NANOPORE, config.alphabet, rng2)
        gold_score = FullAligner().align(q, r, config.model).score
        for aligner in (BandedAligner(width=4), XdropAligner(xdrop=6),
                        WindowAligner(window=64, overlap=16)):
            result = aligner.align(q, r, config.model)
            if not result.failed:
                assert result.score <= gold_score
