"""The supervisor's process boundary: a unit goes to a worker as one
``uint8`` code buffer plus ``int64`` lengths, and its results come back
as columns (scores with a None mask, DPStats, failed flags, and the
alignment / reason / meta of the results that have one)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import api
from repro.algorithms.base import AlignerResult, DPStats
from repro.dp.alignment import Alignment
from repro.exec import BatchConfig
from repro.resilience import ResilienceConfig, SupervisedEngine
from repro.resilience.supervisor import (
    pack_pairs,
    pack_results,
    unpack_pairs,
    unpack_results,
)
from tests.characterisation import seam_corpus

codes = st.binary(max_size=24).map(
    lambda raw: np.frombuffer(raw, dtype=np.uint8).copy())

counts = st.integers(min_value=0, max_value=2**40)

alignments = st.builds(
    Alignment,
    score=st.integers(-2**40, 2**40),
    cigar=st.lists(st.tuples(st.integers(1, 50),
                             st.sampled_from("=XID")), max_size=4),
    query_len=st.integers(0, 100),
    ref_len=st.integers(0, 100),
    meta=st.dictionaries(st.sampled_from(["path_cells", "ref_start"]),
                         st.integers(0, 100), max_size=2))

results = st.builds(
    AlignerResult,
    alignment=st.none() | alignments,
    score=st.none() | st.integers(-2**62, 2**62),
    stats=st.builds(DPStats, counts, counts, counts),
    failed=st.booleans(),
    failure_reason=st.sampled_from(["", "band too narrow", "x-drop"]),
    meta=st.dictionaries(st.sampled_from(["reason", "window"]),
                         st.integers(0, 9), max_size=2))


def _same_pairs(got, want) -> bool:
    return len(got) == len(want) and all(
        a.dtype == np.uint8 and np.array_equal(a, b)
        for pair_got, pair_want in zip(got, want)
        for a, b in zip(pair_got, pair_want))


class TestPairs:
    @given(st.lists(st.tuples(codes, codes), max_size=12))
    def test_round_trip(self, pairs):
        buffer, lengths = pack_pairs(pairs)
        assert buffer.dtype == np.uint8 and lengths.dtype == np.int64
        assert lengths.tolist() == [len(side) for pair in pairs
                                    for side in pair]
        assert _same_pairs(unpack_pairs(buffer, lengths), pairs)

    def test_zero_length_sides(self):
        empty, some = np.empty(0, np.uint8), np.arange(3, dtype=np.uint8)
        pairs = [(empty, empty), (empty, some), (some, empty)]
        buffer, lengths = pack_pairs(pairs)
        assert buffer.tolist() == [0, 1, 2, 0, 1, 2]
        assert lengths.tolist() == [0, 0, 0, 3, 3, 0]
        assert _same_pairs(unpack_pairs(buffer, lengths), pairs)

    def test_empty_unit(self):
        buffer, lengths = pack_pairs([])
        assert buffer.size == 0 and buffer.dtype == np.uint8
        assert lengths.size == 0 and lengths.dtype == np.int64
        assert unpack_pairs(buffer, lengths) == []


class TestResults:
    @given(st.lists(results, max_size=8))
    def test_round_trip(self, unit):
        back = unpack_results(pack_results(unit))
        assert back == unit
        assert all(type(got.score) is int for got in back
                   if got.score is not None)

    def test_only_present_extras_are_sent(self):
        bare = AlignerResult(None, 7, DPStats(4, 4, 1))
        failed = AlignerResult(None, None, DPStats(), failed=True,
                               failure_reason="band too narrow")
        scores, missing, stats, flags, extras = pack_results([bare, failed])
        assert scores.dtype == np.int64 and stats.shape == (2, 3)
        assert missing.tolist() == [False, True]
        assert flags.tolist() == [False, True]
        assert extras == {1: (None, "band too narrow", {})}

    def test_default_meta_is_not_shared(self):
        back = unpack_results(pack_results(
            [AlignerResult(None, 1, DPStats()) for _ in range(2)]))
        back[0].meta["seen"] = 1
        assert back[1].meta == {}

    def test_all_zero_stats_and_empty_unit(self):
        zero = [AlignerResult(None, 0, DPStats(0, 0, 0))]
        assert unpack_results(pack_results(zero)) == zero
        assert unpack_results(pack_results([])) == []


class TestProcessBackend:
    @pytest.mark.parametrize("preset", ["dna-gap", "protein"])
    @pytest.mark.parametrize("traceback", [False, True],
                             ids=["score", "align"])
    def test_two_workers_equal_one(self, preset, traceback):
        """Across the seam corpus (zero-length sides included), the
        sharded and the supervised process runs answer as one worker."""
        config = api.PRESETS[preset]()
        decode = config.alphabet.decode
        pairs = [(decode(query), decode(reference))
                 for query, reference in seam_corpus(config)]
        call = api.align_batch if traceback else api.score_batch
        one = call(pairs, preset=preset, workers=1)
        assert call(pairs, preset=preset, workers=2) == one
        assert call(pairs, preset=preset, workers=2,
                    resilience=ResilienceConfig(backend="process")) == one

    def test_units_run_in_worker_processes(self, configs):
        config = configs["dna-gap"]
        pairs = seam_corpus(config)
        engine = SupervisedEngine(config, BatchConfig(workers=2),
                                  ResilienceConfig(max_unit_pairs=4))
        outcome = engine.run(pairs)
        assert engine._use_processes
        assert outcome.results == SupervisedEngine(
            config, BatchConfig(workers=2),
            ResilienceConfig(max_unit_pairs=4, backend="thread")).run(
                pairs).results
