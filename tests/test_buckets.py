"""Cost-priced length buckets: what ``bucketize`` merges and what it
leaves apart."""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.exec.buckets import PAD_CODE, bucket_key, bucketize, sweep_cost


def _pairs(lengths, rng=None):
    rng = rng or np.random.default_rng(0)
    return [(rng.integers(0, 4, n, dtype=np.uint8),
             rng.integers(0, 4, m, dtype=np.uint8)) for n, m in lengths]


def _cost(pairs, members) -> int:
    return sweep_cost(len(members), max(len(pairs[p][0]) for p in members),
                      max(len(pairs[p][1]) for p in members))


@given(lengths=st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)),
                        max_size=60),
       granularity=st.sampled_from([1, 8, 16, 64]))
def test_merged_buckets_partition_and_never_cost_more(lengths, granularity):
    pairs = _pairs(lengths)
    buckets = bucketize(pairs, granularity)
    assert sorted(i for b in buckets for i in b.index.tolist()) == \
        list(range(len(pairs)))
    for bucket in buckets:
        groups = defaultdict(list)
        for position in bucket.index.tolist():
            groups[bucket_key(pairs[position], granularity)].append(position)
        # A bucket is a run of whole base groups, modelled no dearer
        # than sweeping those groups apart.
        assert _cost(pairs, bucket.index.tolist()) <= sum(
            _cost(pairs, members) for members in groups.values())
        # A group with a zero-length side stays on its own.
        if any(0 in key for key in groups):
            assert len(groups) == 1
        for row, position in enumerate(bucket.index.tolist()):
            q, r = pairs[position]
            assert (bucket.q_len[row], bucket.r_len[row]) == (len(q), len(r))
            assert bucket.q[row, :len(q)].tolist() == q.tolist()
            assert (bucket.r[row, len(r):] == PAD_CODE).all()


def test_small_batch_of_mixed_lengths_sweeps_one_bucket():
    """A 32-pair serve unit of 100-150 bp pairs: six-odd base keys,
    one sweep."""
    rng = np.random.default_rng(7)
    pairs = _pairs(rng.integers(100, 151, (32, 2)).tolist(), rng)
    assert len({bucket_key(pair, 16) for pair in pairs}) >= 6
    assert len(bucketize(pairs)) == 1


def test_large_buckets_keep_their_keys():
    """Two 256-pair buckets cost less apart than padded together."""
    pairs = _pairs([(112, 112)] * 256 + [(128, 128)] * 256)
    buckets = bucketize(pairs)
    assert [b.size for b in buckets] == [256, 256]
    assert [b.fill_ratio for b in buckets] == [1.0, 1.0]


def test_granularity_must_be_positive():
    with pytest.raises(ConfigurationError):
        bucketize(_pairs([(4, 4)]), 0)
