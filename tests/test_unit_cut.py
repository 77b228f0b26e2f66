"""Bucket-ordered supervisor units: properties of the cut, and equality
with the plain engine whatever the cap."""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import standard_configs
from repro.exec import routes
from repro.exec.buckets import bucket_key, bucketize
from repro.exec.engine import BatchConfig, BatchEngine
from repro.resilience import ResilienceConfig, SupervisedEngine
from repro.resilience.supervisor import cut_units
from tests.conftest import make_pair

LENGTHS = st.lists(st.tuples(st.integers(0, 70), st.integers(0, 70)),
                   max_size=60)


@given(lengths=LENGTHS, cap=st.integers(1, 40),
       granularity=st.sampled_from([1, 8, 16]))
def test_cut_partitions_and_follows_buckets(lengths, cap, granularity):
    pairs = [(np.zeros(n, dtype=np.uint8), np.zeros(m, dtype=np.uint8))
             for n, m in lengths]
    units = cut_units(pairs, cap,
                      BatchConfig(bucket_granularity=granularity))
    assert sorted(i for unit in units for i in unit) == \
        list(range(len(pairs)))
    assert all(0 < len(unit) <= cap for unit in units)
    # A cut splits at most one bucket: sweeping unit by unit costs at
    # most one extra bucket per cut over sweeping the job whole.
    swept = sum(len(bucketize([pairs[i] for i in unit], granularity))
                for unit in units)
    assert swept <= len(bucketize(pairs, granularity)) + \
        max(0, len(units) - 1)
    # Stable: inside one bucket key, submission order survives.
    keyed = defaultdict(list)
    for unit in units:
        for i in unit:
            keyed[bucket_key(pairs[i], granularity)].append(i)
    assert all(members == sorted(members) for members in keyed.values())


def test_uncapped_cut_is_contiguous_worker_shards():
    pairs = [(np.zeros(9 - i, dtype=np.uint8),) * 2 for i in range(9)]
    units = cut_units(pairs, None, BatchConfig(workers=2))
    assert [i for unit in units for i in unit] == list(range(9))
    assert len(units) == 2


@pytest.fixture(scope="module")
def corpus():
    config = standard_configs()["dna-edit"]
    rng = np.random.default_rng(0xC07)
    return config, [make_pair(config, int(rng.integers(4, 72)), 0.15, rng)
                    for _ in range(40)]


@pytest.mark.parametrize("cap", [1, 2, 7, 32])
@pytest.mark.parametrize("engine", routes.engines())
def test_capped_supervised_run_equals_plain_engine(corpus, engine, cap):
    config, pairs = corpus
    batch = BatchConfig(engine=engine,
                        traceback=not routes.score_only(engine))
    plain = BatchEngine(config, batch).run(pairs)
    outcome = SupervisedEngine(
        config, batch,
        ResilienceConfig(max_unit_pairs=cap, backend="thread")).run(pairs)
    assert not outcome.failures and not outcome.counters
    for got, want in zip(outcome.results, plain):
        assert got.score == want.score
        assert got.stats == want.stats
        assert (got.alignment and got.alignment.cigar) == \
            (want.alignment and want.alignment.cigar)
