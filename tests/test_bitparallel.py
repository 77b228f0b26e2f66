"""Property and contract tests for the batched bit-parallel kernel.

The kernel packs 64 DP rows per uint64 word *and* vectorizes across
pairs, so the hazards are lane-mixing ones: a pair reading another
pair's block, a block-boundary carry lost at 64/128 rows, padding rows
leaking match bits, or the per-pair score mask slipping a column. The
Hypothesis suites here attack exactly those seams; conformance against
the brute-force oracle lives in ``tests/test_conformance.py``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import align, score
from repro.baselines.myers import myers_edit_distance
from repro.config import dna_edit_config, dna_gap_config, standard_configs
from repro.encoding.alphabet import DNA
from repro.errors import AlignmentError, ConfigurationError
from repro.exec import (
    BatchConfig,
    BatchEngine,
    BitparallelSweep,
    bucketize,
    plan_routes,
    sweep_bitparallel,
)
from repro.exec.bitparallel import STEP_CHUNK, WORD_BITS, pattern_masks
from repro.exec.planner import (
    ROUTE_BITPARALLEL,
    ROUTE_FULL,
    ROUTE_WAVEFRONT,
    PlannerPolicy,
)
from repro.obs import Observability
from repro.workloads.synthetic import ErrorProfile, mutate

CONFIG = dna_edit_config()


def _random_pairs(seed: int, count: int, max_len: int):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        n = int(rng.integers(0, max_len + 1))
        m = int(rng.integers(0, max_len + 1))
        pairs.append((DNA.random(n, rng), DNA.random(m, rng)))
    return pairs


def _engine(**kwargs):
    batch = BatchConfig(engine="bitparallel", traceback=False, **kwargs)
    return BatchEngine(CONFIG, batch)


# ---------------------------------------------------------------------
# Kernel properties
# ---------------------------------------------------------------------

class TestKernelProperties:
    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 24),
           max_len=st.integers(0, 160))
    def test_batch_equals_per_pair(self, seed, count, max_len):
        """A batch of B pairs scores identically to B one-pair calls
        (no lane can read a neighbour's blocks)."""
        pairs = _random_pairs(seed, count, max_len)
        batched = _engine().run(pairs)
        for pair, result in zip(pairs, batched):
            alone = _engine().run([pair])[0]
            assert alone.score == result.score

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000), count=st.integers(2, 24))
    def test_order_invariance(self, seed, count):
        """Reversing submission order reverses the results exactly
        (bucketing must restore submission order)."""
        pairs = _random_pairs(seed, count, 150)
        forward = _engine().run(pairs)
        backward = _engine().run(pairs[::-1])
        assert [r.score for r in forward] \
            == [r.score for r in backward][::-1]

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000),
           n=st.sampled_from([63, 64, 65, 127, 128, 129]),
           m=st.integers(0, 200))
    def test_block_boundary_lengths(self, seed, n, m):
        """Pattern lengths straddling the 64-row block boundary: the
        inter-block hin/hout carry chain and the boundary-bit score
        read must agree with the scalar reference."""
        rng = np.random.default_rng(seed)
        q, r = DNA.random(n, rng), DNA.random(m, rng)
        result = _engine().run([(q, r)])[0]
        assert result.score == -myers_edit_distance(q, r)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 10_000), count=st.integers(1, 16))
    def test_matches_scalar_myers_elementwise(self, seed, count):
        pairs = _random_pairs(seed, count, 200)
        for (q, r), result in zip(pairs, _engine().run(pairs)):
            assert result.score == -myers_edit_distance(q, r)

    def test_mixed_lengths_share_buckets_safely(self):
        """Pairs of different true lengths inside one padded bucket:
        padding rows must not contribute match bits, and each lane
        must stop its score at its own r_len column."""
        rng = np.random.default_rng(3)
        pairs = [(DNA.random(n, rng), DNA.random(m, rng))
                 for n in (1, 5, 9, 14) for m in (1, 6, 11, 15)]
        for (q, r), result in zip(pairs, _engine().run(pairs)):
            assert result.score == -myers_edit_distance(q, r)

    def test_sweep_work_metadata(self):
        rng = np.random.default_rng(5)
        pairs = [(DNA.random(130, rng), DNA.random(100, rng)),
                 (DNA.random(64, rng), DNA.random(100, rng))]
        [batch] = bucketize(pairs, 256)
        sweep = sweep_bitparallel(batch)
        assert isinstance(sweep, BitparallelSweep)
        by_pos = {int(batch.index[b]): b for b in range(batch.size)}
        assert sweep.blocks[by_pos[0]] == 3  # ceil(130 / 64)
        assert sweep.blocks[by_pos[1]] == 1
        assert sweep.cells[by_pos[0]] == 130 * 100
        assert sweep.words[by_pos[0]] == 3 * 100

    def test_pattern_masks_ignore_padding(self):
        rng = np.random.default_rng(9)
        pairs = [(DNA.random(10, rng), DNA.random(10, rng))]
        [batch] = bucketize(pairs, 64)
        peq = pattern_masks(batch, 4)
        union = np.bitwise_or.reduce(peq[0, :, 0])
        assert union == np.uint64((1 << 10) - 1)  # rows 10.. stay clear


# ---------------------------------------------------------------------
# The anti-diagonal schedule
# ---------------------------------------------------------------------

#: Text lengths at the schedule's seams: shorter than a bucket's block
#: count (the ramp, where not every block has a column yet), either side
#: of one Eq gather chunk, and anything up to three chunks.
_TEXT_LENGTHS = st.one_of(
    st.integers(0, 5), st.integers(STEP_CHUNK - 2, STEP_CHUNK + 2),
    st.integers(0, 3 * STEP_CHUNK))


class TestAntiDiagonalSchedule:
    @pytest.mark.parametrize("preset", ["dna-edit", "ascii"])
    @settings(deadline=None, max_examples=40)
    @given(lengths=st.lists(st.tuples(st.integers(0, 4 * WORD_BITS),
                                      _TEXT_LENGTHS),
                            min_size=1, max_size=6),
           pool=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
    def test_one_bucket_equals_scalar_myers(self, preset, lengths, pool,
                                            seed):
        """Queries of 1-4 blocks share one bucket, so lanes enter and
        leave the skewed schedule at different steps and read their
        scores off different blocks; every lane equals the scalar
        Myers. Zero-length pairs fall in buckets of their own. A small
        symbol pool, drawn anywhere in the alphabet's code range, keeps
        matches common."""
        size = standard_configs()[preset].alphabet.size
        rng = np.random.default_rng(seed)
        symbols = rng.choice(size, size=pool, replace=False).astype(np.uint8)
        pairs = [(rng.choice(symbols, n), rng.choice(symbols, m))
                 for n, m in lengths]
        for bucket in bucketize(pairs, 10 ** 6):
            sweep = sweep_bitparallel(bucket, n_symbols=size)
            for lane, position in enumerate(bucket.index.tolist()):
                assert sweep.distance[lane] == myers_edit_distance(
                    *pairs[position], n_symbols=size)

    @pytest.mark.parametrize("n, m", sorted({
        (n, m) for n in (63, 64, 65, 127, 128, 129, 191, 192, 193)
        for blocks in [-(-n // WORD_BITS)]
        for m in (0, 1, blocks - 1, blocks, blocks + 1)}))
    def test_block_count_seams(self, n, m):
        """Queries either side of a block edge against texts around
        their block count, where the ramp and drain of the schedule
        meet."""
        rng = np.random.default_rng(1000 * n + m)
        pair = (DNA.random(n, rng), DNA.random(m, rng))
        [bucket] = bucketize([pair], 16)
        assert sweep_bitparallel(bucket).distance[0] \
            == myers_edit_distance(*pair)


def _query_of(rng, reference, rows: int):
    """A query ``rows`` long, mutated 40 % from ``reference``."""
    profile = ErrorProfile(substitution=0.2, insertion=0.1, deletion=0.1)
    query, _ = mutate(reference, profile, DNA, rng)
    return np.concatenate([query, DNA.random(rows, rng)])[:rows]


class TestBlockClassBatch:
    """Queries that share a 64-row block count sweep as one bucket,
    whatever the batch's own (finer) bucket granularity."""

    @pytest.fixture(scope="class")
    def pairs(self):
        """12 queries of 2 000 rows and 12 of 2 016 against 2 kb
        references: two 16-granularity buckets, one block class."""
        rng = np.random.default_rng(41)
        pairs = []
        for rows in (2000, 2016):
            for _ in range(12):
                reference = DNA.random(2000, rng)
                pairs.append((_query_of(rng, reference, rows), reference))
        return pairs

    @pytest.fixture(scope="class")
    def distances(self, pairs):
        return [myers_edit_distance(q, r) for q, r in pairs]

    @staticmethod
    def _run(pairs, **knobs):
        ctx = Observability.enabled_context(profile=True)
        results = BatchEngine(CONFIG, BatchConfig(traceback=False, **knobs),
                              obs=ctx).run(pairs)
        sweeps = [path for path in ctx.profiler.stacks
                  if path[-1] == "linear.bitparallel"]
        return results, sweeps, ctx.metrics.snapshot()

    @pytest.mark.parametrize("engine", ["bitparallel", "auto"])
    def test_one_sweep_per_block_class(self, pairs, distances, engine):
        results, sweeps, counters = self._run(pairs, engine=engine)
        assert len(sweeps) == 1
        assert [r.score for r in results] == [-d for d in distances]
        if engine == "auto":
            assert counters["exec.plan.bitparallel"] == len(pairs)
        # Work counts are per lane, so the merged sweep's equal the two
        # per-bucket sweeps'.
        buckets = bucketize(pairs, BatchConfig().bucket_granularity)
        assert len(buckets) == 2
        per_bucket = [sweep_bitparallel(bucket) for bucket in buckets]

        def total(prefix):
            return sum(value for key, value in counters.items()
                       if key.startswith(prefix))
        assert total("exec.cells") \
            == sum(int(s.cells.sum()) for s in per_bucket)
        assert total("exec.bytes_moved") \
            == 3 * 8 * sum(int(s.words.sum()) for s in per_bucket)

    def test_coarser_batch_granularity_still_wins(self):
        """Queries of 1 950 and 2 000 rows are two block classes, but
        one 128-granularity bucket."""
        rng = np.random.default_rng(43)
        reference = DNA.random(2000, rng)
        mixed = [(_query_of(rng, reference, rows), reference)
                 for rows in (1950, 2000)]
        for granularity, count in ((16, 2), (128, 1)):
            results, sweeps, _ = self._run(
                mixed, engine="bitparallel", bucket_granularity=granularity)
            assert len(sweeps) == count
            assert [r.score for r in results] \
                == [-myers_edit_distance(q, r) for q, r in mixed]


# ---------------------------------------------------------------------
# Alphabet contract
# ---------------------------------------------------------------------

class TestAlphabetContract:
    def test_mixed_alphabet_rejected(self):
        """Codes beyond the declared alphabet raise the same
        AlignmentError contract as the scalar baseline, tagged with
        the submission index for quarantine."""
        good = np.array([0, 1, 2, 3], dtype=np.uint8)
        bad = np.array([0, 9, 1], dtype=np.uint8)
        with pytest.raises(AlignmentError, match="alphabet size") as info:
            _engine().run([(good, good), (bad, good)])
        assert info.value.pair_index == 1

    def test_reference_codes_checked_too(self):
        good = np.array([0, 1, 2, 3], dtype=np.uint8)
        bad = np.array([250], dtype=np.uint8)
        with pytest.raises(AlignmentError, match="alphabet size"):
            _engine().run([(good, bad)])

    def test_ascii_alphabet_accepts_any_byte(self):
        from repro.config import ascii_config
        config = ascii_config()
        engine = BatchEngine(config, BatchConfig(engine="bitparallel",
                                                 traceback=False))
        a = config.encode("kitten")
        b = config.encode("sitting")
        assert engine.run([(a, b)])[0].score == -3


# ---------------------------------------------------------------------
# Configuration and API surface
# ---------------------------------------------------------------------

class TestConfigurationContract:
    def test_traceback_requested_raises(self):
        with pytest.raises(ConfigurationError, match="score-only"):
            BatchConfig(engine="bitparallel", traceback=True)

    def test_non_global_mode_raises(self):
        with pytest.raises(ConfigurationError, match="global"):
            BatchConfig(engine="bitparallel", mode="local",
                        traceback=False)

    def test_non_edit_model_raises(self):
        engine = BatchEngine(dna_gap_config(),
                             BatchConfig(engine="bitparallel",
                                         traceback=False))
        pair = (np.zeros(4, dtype=np.uint8), np.zeros(4, dtype=np.uint8))
        with pytest.raises(ConfigurationError, match="edit model"):
            engine.run([pair])

    def test_api_score_method(self):
        assert score("GATTACA", "GATCA", method="bitparallel") == -2
        assert score("", "", method="bitparallel") == 0
        assert score("", "ACGT", method="bitparallel") == -4

    def test_api_align_method_rejected(self):
        with pytest.raises(ConfigurationError, match="score-only"):
            align("ACGT", "ACGA", method="bitparallel")

    def test_api_score_non_edit_preset_rejected(self):
        with pytest.raises(ConfigurationError):
            score("ACGT", "ACGA", preset="dna-gap", method="bitparallel")

    def test_service_job_validation(self):
        from repro.service.protocol import job_from_dict, job_to_dict
        from repro.service import JobSpec
        spec = JobSpec(job_id="job-1", pairs=[("ACGT", "ACGA")],
                       engine="bitparallel", traceback=False)
        assert job_from_dict(job_to_dict(spec)).engine == "bitparallel"
        with pytest.raises(ValueError, match="score-only"):
            job_from_dict(job_to_dict(
                JobSpec(job_id="job-2", pairs=[("ACGT", "ACGA")],
                        engine="bitparallel", traceback=True)))


# ---------------------------------------------------------------------
# Planner routing
# ---------------------------------------------------------------------

class TestPlannerRouting:
    def _divergent_pair(self, rng, length=256):
        return DNA.random(length, rng), DNA.random(length, rng)

    def test_score_only_divergent_edit_pairs_route_bitparallel(self):
        rng = np.random.default_rng(11)
        pairs = [self._divergent_pair(rng) for _ in range(4)]
        routes, _ = plan_routes(pairs, CONFIG.model, PlannerPolicy(),
                                traceback=False)
        assert routes == [ROUTE_BITPARALLEL] * 4

    def test_cigar_pairs_stay_off_bitparallel(self):
        rng = np.random.default_rng(11)
        pairs = [self._divergent_pair(rng) for _ in range(4)]
        routes, _ = plan_routes(pairs, CONFIG.model, PlannerPolicy(),
                                traceback=True)
        assert ROUTE_BITPARALLEL not in routes
        assert routes == [ROUTE_FULL] * 4

    def test_near_identical_pairs_stay_on_wavefront(self):
        rng = np.random.default_rng(13)
        r = DNA.random(300, rng)
        routes, _ = plan_routes([(r.copy(), r)], CONFIG.model,
                                PlannerPolicy(), traceback=False)
        assert routes == [ROUTE_WAVEFRONT]

    def test_short_and_empty_pairs_stay_on_full(self):
        rng = np.random.default_rng(17)
        pairs = [(DNA.random(4, rng), DNA.random(4, rng)),
                 (DNA.random(0, rng), DNA.random(90, rng))]
        routes, _ = plan_routes(pairs, CONFIG.model, PlannerPolicy(),
                                traceback=False)
        assert routes == [ROUTE_FULL, ROUTE_FULL]

    def test_non_edit_model_never_routes_bitparallel(self):
        rng = np.random.default_rng(19)
        pairs = [self._divergent_pair(rng) for _ in range(3)]
        routes, _ = plan_routes(pairs, dna_gap_config().model,
                                PlannerPolicy(), traceback=False)
        assert ROUTE_BITPARALLEL not in routes

    def test_auto_engine_matches_scalar_on_divergent_batch(self):
        rng = np.random.default_rng(23)
        pairs = [self._divergent_pair(rng, 128) for _ in range(12)]
        ctx = Observability.enabled_context()
        auto = BatchEngine(CONFIG, BatchConfig(engine="auto",
                                               traceback=False),
                           obs=ctx).run(pairs)
        scalar = BatchEngine(CONFIG, BatchConfig(engine="scalar",
                                                 traceback=False)
                             ).run(pairs)
        assert [a.score for a in auto] == [s.score for s in scalar]
        snapshot = ctx.metrics.snapshot()
        assert snapshot.get("exec.plan.bitparallel", 0) == len(pairs)


# ---------------------------------------------------------------------
# Telemetry reconciliation
# ---------------------------------------------------------------------

class TestTelemetry:
    def test_profile_cells_match_counters(self):
        pairs = _random_pairs(29, 24, 200)
        ctx = Observability.enabled_context(profile=True)
        batch = BatchConfig(engine="bitparallel", traceback=False)
        BatchEngine(CONFIG, batch, obs=ctx).run(pairs)
        cells = ctx.profiler.total("cells")
        assert cells == sum(len(q) * len(r) for q, r in pairs)
        counters = ctx.metrics.snapshot()
        assert cells == sum(value for key, value in counters.items()
                            if key.startswith("exec.cells"))
        assert ctx.profiler.total("bytes_moved") \
            == sum(value for key, value in counters.items()
                   if key.startswith("exec.bytes_moved"))

    def test_kernel_phase_present(self):
        pairs = _random_pairs(31, 8, 120)
        ctx = Observability.enabled_context(profile=True)
        batch = BatchConfig(engine="bitparallel", traceback=False)
        BatchEngine(CONFIG, batch, obs=ctx).run(pairs)
        folded = ctx.profiler.collapsed("cells")
        assert "linear.bitparallel" in folded
        assert folded.startswith("exec.bitparallel") or \
            "exec.bitparallel" in folded

    def test_bytes_moved_reflect_lane_words_not_cells(self):
        """The bit-parallel sweep's traffic is 3 words per 64-row
        block step -- far below the 8 bytes/cell a rolling-row kernel
        moves. The accounting must reflect the real (smaller) traffic;
        that frugality is the point of the kernel."""
        rng = np.random.default_rng(37)
        pairs = [(DNA.random(1024, rng), DNA.random(1024, rng))]
        ctx = Observability.enabled_context(profile=True)
        batch = BatchConfig(engine="bitparallel", traceback=False)
        BatchEngine(CONFIG, batch, obs=ctx).run(pairs)
        moved = ctx.profiler.total("bytes_moved")
        assert moved == 3 * 8 * 16 * 1024  # words_per_step * blocks * m
        assert moved < 8 * 1024 * 1024  # << the per-cell accounting

    def test_degradation_ladder_covers_bitparallel(self):
        from repro.exec import routes
        from repro.resilience.ladder import plan_rungs
        assert routes.degrade_to("bitparallel") == "scalar"
        batch = BatchConfig(engine="bitparallel", traceback=False)
        rungs = plan_rungs(batch, "alignment")
        assert [name for name, _ in rungs] == ["scalar"]
        scalar_cfg = rungs[0][1]
        assert scalar_cfg.engine == "scalar"
        assert scalar_cfg.traceback is False
