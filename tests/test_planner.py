"""Adaptive kernel planner: routing, conformance, and load shedding.

Locks the new adaptive execution paths to the brute-force oracles and
to each other:

- the batched wavefront kernel (``sweep_wavefront``) is bit-identical
  to the scalar :class:`WavefrontAligner` -- scores, CIGARs and DP
  stats -- and both agree with ``tests/oracle.py`` on scores;
- ``engine="auto"`` is bit-identical (score *and* CIGAR *and* meta) to
  the fixed full-vector engine, order-invariant, and routing decisions
  never change results;
- deadline-aware load shedding reports shed pairs exactly once as
  structured ``"deadline"`` failures with reconciling counters, and
  never expires a started shard mid-batch.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.wavefront import WavefrontAligner
from repro.api import align, align_batch, score, score_batch
from repro.config import dna_edit_config, dna_gap_config, standard_configs
from repro.errors import ConfigurationError
from repro.exec.buckets import bucket_key, bucketize
from repro.exec.engine import BatchConfig, BatchEngine
from repro.exec.planner import (
    ROUTE_BANDED,
    ROUTE_FULL,
    ROUTE_WAVEFRONT,
    PlannerPolicy,
    band_is_certified,
    certified_half_width,
    estimate_divergence,
    is_edit_model,
    plan_routes,
    width_class,
)
from repro.exec.wavefront import sweep_wavefront, wavefront_cigar
from repro.obs import Observability
from repro.obs.events import EventStream
from repro.obs.prof import CostModel
from repro.resilience import ResilienceConfig, SupervisedEngine, parse_rates
from tests.characterisation import routing_corpus
from tests.conftest import make_pair
from tests.oracle import cached_oracle

CONFIGS = standard_configs()
EDIT = dna_edit_config()
GAP = dna_gap_config()

THREAD = dict(backend="thread", backoff_base_s=0.0)


def dna_codes(min_size=0, max_size=48):
    return st.lists(st.integers(0, 3), min_size=min_size,
                    max_size=max_size).map(
        lambda codes: np.asarray(codes, dtype=np.uint8))


def pair_batches(max_pairs=8, max_len=48):
    return st.lists(st.tuples(dna_codes(max_size=max_len),
                              dna_codes(max_size=max_len)),
                    min_size=1, max_size=max_pairs)


def _mixed_corpus(rng, count=18):
    """Pairs spanning the planner's three routes plus degenerate ones."""
    pairs = []
    for i in range(count):
        error = (0.0, 0.03, 0.2, 0.5)[i % 4]
        n = 36 + int(rng.integers(0, 80))
        pairs.append(make_pair(EDIT, n, error, rng))
    empty = np.empty(0, dtype=np.uint8)
    pairs.append((empty, empty))
    pairs.append((EDIT.alphabet.random(9, rng), empty))
    pairs.append((empty, EDIT.alphabet.random(7, rng)))
    pairs.append((EDIT.alphabet.random(3, rng),
                  EDIT.alphabet.random(200, rng)))
    return pairs


# ----------------------------------------------------------------------
# Planner unit behaviour


class TestPlannerPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PlannerPolicy(k=0)
        with pytest.raises(ConfigurationError):
            PlannerPolicy(banded_divergence=1.5)
        with pytest.raises(ConfigurationError):
            PlannerPolicy(min_length=-1)
        with pytest.raises(ConfigurationError):
            PlannerPolicy(probe_slack=0)
        with pytest.raises(ConfigurationError):
            PlannerPolicy(band_slack=-1)

    def test_is_edit_model(self):
        assert is_edit_model(EDIT.model)
        assert not is_edit_model(GAP.model)

    def test_divergence_estimate_bounds(self, rng):
        q = EDIT.alphabet.random(120, rng)
        assert estimate_divergence(q, q, 8) == 0.0
        r = EDIT.alphabet.random(120, rng)
        assert 0.0 <= estimate_divergence(q, r, 8) <= 1.0
        short = EDIT.alphabet.random(4, rng)
        assert estimate_divergence(short, short, 8) == 1.0

    def test_routes_follow_divergence(self, rng):
        identical = EDIT.alphabet.random(100, rng)
        near = make_pair(EDIT, 100, 0.03, rng)
        far = (EDIT.alphabet.random(100, rng),
               EDIT.alphabet.random(100, rng))
        tiny = (EDIT.alphabet.random(4, rng), EDIT.alphabet.random(4, rng))
        empty = np.empty(0, dtype=np.uint8)
        pairs = [(identical, identical.copy()), near, far, tiny,
                 (empty, identical)]
        routes, estimates = plan_routes(pairs, EDIT.model, PlannerPolicy())
        assert routes[0] == ROUTE_WAVEFRONT
        assert routes[1] in (ROUTE_WAVEFRONT, ROUTE_BANDED)
        assert routes[2] == ROUTE_FULL
        assert routes[3] == ROUTE_FULL
        assert routes[4] == ROUTE_FULL
        assert len(estimates) == len(pairs)
        assert all(e >= 0 for e in estimates)

    def test_no_wavefront_route_for_gap_model(self, rng):
        q = GAP.alphabet.random(100, rng)
        routes, _ = plan_routes([(q, q.copy())], GAP.model, PlannerPolicy())
        assert routes == [ROUTE_BANDED]

    def test_width_class_rounds_up_to_power_of_two(self):
        assert width_class(1) == 1
        assert width_class(3) == 4
        assert width_class(4) == 4
        assert width_class(33) == 64


class TestBandCertificate:
    def test_certificate_is_safe_for_random_pairs(self, rng):
        """A banded run at the certified width reproduces the exact
        score: the corridor provably contains every optimal path."""
        from repro.exec import kernels
        for config in (EDIT, GAP):
            for _ in range(12):
                n = 24 + int(rng.integers(0, 60))
                q, r = make_pair(config, n, 0.25, rng)
                exact = cached_oracle("global", config,
                                      bytes(bytearray(q)),
                                      bytes(bytearray(r)))[0]
                half = certified_half_width(config.model, len(q), len(r),
                                            exact)
                assert half is not None
                assert band_is_certified(config.model, len(q), len(r),
                                         exact, half)
                for bucket in bucketize([(q, r)], 8):
                    swept, _, _ = kernels.sweep_banded(
                        bucket, config.model, width=half, fraction=None,
                        keep=False)
                    assert int(swept[0]) == exact

    def test_degenerate_model_has_no_certificate(self):
        from repro.scoring.model import MatchMismatchModel
        flat = MatchMismatchModel(match=-2, mismatch=-2,
                                  gap_i=-1, gap_d=-1)
        assert certified_half_width(flat, 10, 10, -5) is None
        assert not band_is_certified(flat, 10, 10, -5, 1000)

    def test_lower_scores_only_widen(self):
        tight = certified_half_width(EDIT.model, 50, 50, 0)
        loose = certified_half_width(EDIT.model, 50, 50, -20)
        assert loose > tight


class TestBandedMemory:
    """The banded route stores the corridor, never the rectangle."""

    HALF = 128

    def _kilobase_pairs(self, rng, count):
        return [make_pair(GAP, 1000, 0.08, rng) for _ in range(count)]

    def test_kept_band_is_corridor_sized(self, rng):
        from repro.exec import kernels
        pairs = self._kilobase_pairs(rng, 4)
        lengths = np.array([(len(q), len(r)) for q, r in pairs])
        (bucket,) = bucketize(pairs, 1024)
        kept, cells, _ = kernels.sweep_banded(
            bucket, GAP.model, self.HALF, None, keep=True)
        n, m = lengths.max(axis=0)
        # One pair's run on a diagonal is at most half + 1 band rows and
        # a shadow cell; the lanes' runs fan out by at most the bucket's
        # length spread (slopes here stay below 1.1), plus rounding.
        spread = int(2 * np.ptp(lengths[:, 0]) + np.ptp(lengths[:, 1])) + 3
        planes, per_pair, lanes = kept.planes.shape
        assert (planes, lanes) == (2, len(pairs))
        assert kept.planes.dtype == bool
        assert per_pair <= (n + m + 1) * (self.HALF + 2 + spread)
        assert per_pair * 2 < (n + 1) * (m + 1)
        assert kernels.kept_cells(bucket, self.HALF, None) == per_pair
        # One pair alone keeps its band and the shadow cells ahead of
        # it, at most one per column.
        (single,) = bucketize(pairs[:1], 16)
        alone, band, _ = kernels.sweep_banded(
            single, GAP.model, self.HALF, None, keep=True)
        assert band[0] < alone.planes.shape[1] <= band[0] + single.m_max

    def test_resident_is_the_allocated_planes(self, rng):
        """``_Banded.resident`` -- what the engine sizes pieces by --
        is the plane cells the sweep allocates per pair."""
        from repro.exec import routes
        pairs = self._kilobase_pairs(rng, 3)
        (bucket,) = bucketize(pairs, 1024)
        batch = BatchConfig(algorithm="banded", band_width=self.HALF)
        run = routes.Pass(GAP, batch, Observability(), [None] * 3, keep=True)
        route = routes.ROUTES[ROUTE_BANDED]
        (kept, _, _), _, _ = route.sweep(run, bucket)
        assert route.resident(run, bucket) * bucket.size \
            == kept.planes[0].size

    def test_kilobase_bucket_is_one_piece(self, rng):
        """32 1 kb pairs of one length class at half-width 128 keep
        under the default ``max_batch_cells``, so their bucket is swept
        and walked once."""
        from repro.exec import kernels
        batch = BatchConfig(algorithm="banded", band_width=self.HALF)
        pairs = []
        while len(pairs) < 32:
            pair = make_pair(GAP, 1000, 0.08, rng)
            if 992 < len(pair[0]) <= 1008:
                pairs.append(pair)
        (bucket,) = bucketize(pairs, batch.bucket_granularity)
        assert kernels.kept_cells(bucket, self.HALF, None) * 32 \
            <= batch.max_batch_cells
        obs = Observability.enabled_context(profile=True)
        results = BatchEngine(GAP, batch, obs=obs).run(pairs)
        calls = Counter()
        for path, stat in obs.profiler.stacks.items():
            calls[path[-1].split("[")[0]] += stat.calls
        assert calls["banded"] == calls["traceback"] == 1
        assert all(result.alignment is not None for result in results)

    def test_auto_banded_route_never_allocates_a_rectangle(self, rng):
        import tracemalloc
        pairs = self._kilobase_pairs(rng, 2)
        n, m = (max(len(pair[side]) for pair in pairs) for side in (0, 1))
        obs = Observability.enabled_context()
        engine = BatchEngine(GAP, BatchConfig(engine="auto", traceback=True),
                             obs=obs)
        tracemalloc.start()
        try:
            results = engine.run(pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert obs.metrics.counter("exec.plan.banded").value == len(pairs)
        assert obs.metrics.counter("exec.plan.demoted").value == 0
        assert all(result.alignment is not None for result in results)
        # Both pairs' kept bands, rows and results together stay under
        # ONE narrow (int32) rectangle; the old kernel kept an int64
        # rectangle per pair.
        assert peak < (n + 1) * (m + 1) * 4


class TestLinearWalkGroups:
    """The linear route keeps move bits and walks buckets together."""

    @staticmethod
    def _traceback_calls(obs) -> int:
        return sum(stat.calls for path, stat in obs.profiler.stacks.items()
                   if path[-1] == "traceback")

    def test_unit_spread_over_buckets_is_walked_once(self, rng):
        pairs = [make_pair(GAP, 24 + 16 * (index % 7), 0.05, rng)
                 for index in range(32)]
        granularity = BatchConfig().bucket_granularity
        assert len({bucket_key(pair, granularity) for pair in pairs}) >= 6
        buckets = len(bucketize(pairs, granularity))
        obs = Observability.enabled_context(profile=True)
        results = BatchEngine(GAP, BatchConfig(), obs=obs).run(pairs)
        kernels = sum(stat.calls
                      for path, stat in obs.profiler.stacks.items()
                      if path[-1].startswith("linear.global"))
        assert kernels == buckets
        assert self._traceback_calls(obs) == 1
        assert results == BatchEngine(
            GAP, BatchConfig(engine="scalar")).run(pairs)

    def test_kept_state_is_two_bytes_per_cell(self, rng):
        import tracemalloc
        pairs = [(rng.integers(0, 4, 128, dtype=np.uint8),
                  rng.integers(0, 4, 128, dtype=np.uint8))
                 for _ in range(256)]
        cells = len(pairs) * 129 * 129
        assert cells <= BatchConfig().max_batch_cells   # one chunk
        engine = BatchEngine(GAP, BatchConfig())
        tracemalloc.start()
        try:
            results = engine.run(pairs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(result.alignment is not None for result in results)
        # Planes, walk history and every result object together; one
        # int64 score stack alone would be 8 * cells.
        assert peak < 3 * cells

    def test_batch_over_the_cell_budget_splits_in_order(self, rng):
        pairs = [make_pair(GAP, 24 + 16 * (index % 5), 0.1, rng)
                 for index in range(40)]
        whole = BatchEngine(GAP, BatchConfig()).run(pairs)
        obs = Observability.enabled_context(profile=True)
        split = BatchEngine(GAP, BatchConfig(max_batch_cells=20_000),
                            obs=obs).run(pairs)
        assert self._traceback_calls(obs) > 1
        assert split == whole
        for (q, r), result in zip(pairs, split):
            assert (result.alignment.query_len,
                    result.alignment.ref_len) == (len(q), len(r))


# ----------------------------------------------------------------------
# Batched wavefront kernel conformance


class TestWavefrontKernelConformance:
    @settings(deadline=None, max_examples=40)
    @given(pairs=pair_batches(max_pairs=6))
    def test_sweep_matches_scalar_aligner(self, pairs):
        """Batched sweep == scalar WavefrontAligner: distance, CIGAR,
        and DP stats, pair by pair."""
        scalar = WavefrontAligner()
        for bucket in bucketize(pairs, 8):
            if bucket.n_max == 0 or bucket.m_max == 0:
                continue
            sweep = sweep_wavefront(bucket, EDIT.model, keep=True)
            for b, position in enumerate(bucket.index):
                q, r = pairs[int(position)]
                single = scalar.align(q, r, EDIT.model)
                assert int(sweep.distance[b]) == -single.score
                cigar = wavefront_cigar(sweep, b, len(q), len(r))
                assert cigar == single.alignment.cigar
                assert int(sweep.cells[b]) == single.stats.cells_computed
                assert int(sweep.stored[b]) == single.stats.cells_stored

    @settings(deadline=None, max_examples=30)
    @given(pairs=pair_batches(max_pairs=5, max_len=32))
    def test_wavefront_engine_locks_to_oracle_scores(self, pairs):
        """-distance == oracle edit distance, and each CIGAR rescores
        to the optimal score against the original sequences."""
        batch = BatchConfig(engine="wavefront", traceback=True)
        results = BatchEngine(EDIT, batch).run(pairs)
        for (q, r), result in zip(pairs, results):
            exact = cached_oracle("global", EDIT, bytes(bytearray(q)),
                                  bytes(bytearray(r)))[0]
            assert result.score == exact
            result.alignment.validate(q, r, EDIT.model)

    def test_capped_sweep_falls_back_to_full(self, rng):
        pairs = [(EDIT.alphabet.random(64, rng),
                  EDIT.alphabet.random(64, rng)) for _ in range(6)]
        obs = Observability.enabled_context()
        batch = BatchConfig(engine="wavefront", traceback=True,
                            wavefront_max_score=2)
        results = BatchEngine(EDIT, batch, obs=obs).run(pairs)
        assert obs.metrics.counter("exec.wavefront.fallbacks").value > 0
        # The fallback's buckets stay under this batch's engine label.
        assert obs.metrics.snapshot()[
            "exec.pair_latency_us{engine=wavefront}"]["count"] == len(pairs)
        vector = BatchEngine(EDIT, BatchConfig(traceback=True)).run(pairs)
        for got, want in zip(results, vector):
            assert got.score == want.score

    def test_wavefront_engine_rejects_non_edit_model(self, rng):
        pairs = [make_pair(GAP, 20, 0.1, rng)]
        batch = BatchConfig(engine="wavefront")
        with pytest.raises(ConfigurationError):
            BatchEngine(GAP, batch).run(pairs)

    def test_engine_validation(self):
        with pytest.raises(ConfigurationError):
            BatchConfig(engine="wavefront", mode="local")
        with pytest.raises(ConfigurationError):
            BatchConfig(engine="auto", algorithm="banded")
        with pytest.raises(ConfigurationError):
            BatchConfig(wavefront_max_score=0)


# ----------------------------------------------------------------------
# engine="auto" conformance


class TestAutoEngineConformance:
    @settings(deadline=None, max_examples=30)
    @given(pairs=pair_batches(max_pairs=6),
           config_name=st.sampled_from(sorted(CONFIGS)))
    def test_auto_is_bit_identical_to_vector(self, pairs, config_name):
        """Routing never changes results: score, CIGAR and meta match
        the fixed full-vector engine exactly."""
        config = CONFIGS[config_name]
        auto = BatchEngine(config, BatchConfig(engine="auto",
                                               traceback=True)).run(pairs)
        full = BatchEngine(config, BatchConfig(engine="vector",
                                               traceback=True)).run(pairs)
        for got, want in zip(auto, full):
            assert got.score == want.score
            assert got.alignment.cigar == want.alignment.cigar
            assert got.alignment.meta == want.alignment.meta

    @settings(deadline=None, max_examples=25)
    @given(pairs=pair_batches(max_pairs=6),
           config_name=st.sampled_from(sorted(CONFIGS)))
    def test_auto_score_mode_matches_vector(self, pairs, config_name):
        config = CONFIGS[config_name]
        auto = BatchEngine(config, BatchConfig(engine="auto",
                                               traceback=False)).run(pairs)
        full = BatchEngine(config, BatchConfig(engine="vector",
                                               traceback=False)).run(pairs)
        assert [r.score for r in auto] == [r.score for r in full]

    @settings(deadline=None, max_examples=20)
    @given(pairs=pair_batches(max_pairs=8), seed=st.integers(0, 2**32 - 1))
    def test_auto_is_order_invariant(self, pairs, seed):
        """Each pair's whole result, stats included, is the one it gets
        alone: neither its bucket-mates nor their order move it."""
        engine = BatchEngine(EDIT, BatchConfig(engine="auto",
                                               traceback=True))
        baseline = engine.run(pairs)
        assert baseline == [engine.run([pair])[0] for pair in pairs]
        order = np.random.default_rng(seed).permutation(len(pairs))
        shuffled = engine.run([pairs[i] for i in order])
        assert shuffled == [baseline[i] for i in order]

    @pytest.mark.parametrize("traceback", [True, False])
    def test_bucket_mate_never_lifts_a_probe_cap(self, traceback):
        """Two swapped 30-base homopolymer runs cost 60 edits but share
        almost every k-mer, so the pair blows its own probe cap and
        demotes when run alone; a divergent bucket-mate with a larger
        estimate must not lift that cap and keep it on the wavefront
        route."""
        rng = np.random.default_rng(29)
        left, right = EDIT.alphabet.random(70, rng), \
            EDIT.alphabet.random(70, rng)
        a, c = np.zeros(30, dtype=np.uint8), np.ones(30, dtype=np.uint8)
        pairs = [(np.concatenate([left, a, c, right]),
                  np.concatenate([left, c, a, right])),
                 make_pair(EDIT, 200, 0.15, rng)]
        policy = PlannerPolicy()
        labels, estimates = plan_routes(pairs, EDIT.model, policy)
        assert labels == [ROUTE_WAVEFRONT, ROUTE_WAVEFRONT]
        assert policy.probe_slack * max(8, estimates[0]) < 60 \
            <= policy.probe_slack * estimates[1]
        engine = BatchEngine(EDIT, BatchConfig(engine="auto",
                                               traceback=traceback))
        assert engine.run(pairs) == [engine.run([pair])[0] for pair in pairs]

    def test_auto_locks_to_oracle_on_mixed_corpus(self, rng):
        """Seeded corpus spanning all three routes: every score and
        CIGAR equals the brute-force oracle's."""
        pairs = _mixed_corpus(rng)
        results = BatchEngine(EDIT, BatchConfig(engine="auto",
                                                traceback=True)).run(pairs)
        for (q, r), result in zip(pairs, results):
            exact_score, exact_cigar = cached_oracle(
                "global", EDIT, bytes(bytearray(q)), bytes(bytearray(r)))
            assert result.score == exact_score
            assert result.alignment.cigar_string == exact_cigar

    def test_auto_emits_plan_telemetry(self, rng):
        pairs = _mixed_corpus(rng)
        obs = Observability.enabled_context(events=EventStream(),
                                            profile=True)
        BatchEngine(EDIT, BatchConfig(engine="auto", traceback=True),
                    obs=obs).run(pairs)
        routed = sum(
            obs.metrics.counter(f"exec.plan.{route}").value
            for route in (ROUTE_WAVEFRONT, ROUTE_BANDED, ROUTE_FULL))
        assert routed == len(pairs)
        plan = obs.events.last("plan")
        assert plan is not None
        assert plan["pairs"] == len(pairs)
        phases = {name for stack in obs.profiler.stacks
                  for name in stack}
        assert "exec.plan" in phases
        assert "linear.wavefront" in phases

    @pytest.mark.parametrize("traceback", [True, False])
    @pytest.mark.parametrize("config", [EDIT, GAP],
                             ids=lambda config: config.name)
    def test_auto_bucket_telemetry_counts_each_pair_once(self, config,
                                                         traceback):
        """Every bucket of every route -- probes, widened bands, demoted
        pairs -- is observed under the batch's own engine label, and
        each pair is counted when (and only when) it is settled."""
        pairs = routing_corpus(config)
        obs = Observability.enabled_context(events=EventStream())
        tight = PlannerPolicy(probe_slack=1, band_slack=0,
                              banded_divergence=1.0)
        BatchEngine(config, BatchConfig(engine="auto", traceback=traceback,
                                        planner=tight), obs=obs).run(pairs)
        snapshot = obs.metrics.snapshot()
        for name in ("exec.pair_latency_us", "exec.bucket_latency_us"):
            assert [key for key in snapshot if key.startswith(name)] \
                == [name + "{engine=auto}"]
        assert snapshot["exec.pair_latency_us{engine=auto}"]["count"] \
            == snapshot["exec.pairs{engine=auto}"] == len(pairs)
        assert snapshot["exec.bucket_fill"]["count"] \
            == snapshot["exec.bucket_latency_us{engine=auto}"]["count"]
        assert snapshot["exec.plan.demoted"] > 0
        progress = obs.events.of_kind("progress")
        assert {event["engine"] for event in progress} == {"auto"}
        assert [event["done"] for event in progress] \
            == sorted(event["done"] for event in progress)
        assert progress[-1]["done"] == progress[-1]["total"] == len(pairs)

    def test_auto_respects_custom_policy(self, rng):
        """A policy that disables the fast routes degrades auto to the
        plain full engine -- same results, all pairs routed full."""
        pairs = _mixed_corpus(rng, count=6)
        policy = PlannerPolicy(banded_divergence=0.0)
        obs = Observability.enabled_context()
        auto = BatchEngine(EDIT, BatchConfig(engine="auto", traceback=True,
                                             planner=policy),
                           obs=obs).run(pairs)
        full = BatchEngine(EDIT, BatchConfig(traceback=True)).run(pairs)
        assert obs.metrics.counter("exec.plan.full").value >= 6
        for got, want in zip(auto, full):
            assert got.score == want.score
            assert got.alignment.cigar == want.alignment.cigar


# ----------------------------------------------------------------------
# API + CLI surface


class TestApiMethod:
    def test_align_and_score_wavefront(self):
        alignment = align("GATTACA", "GATTTACA", method="wavefront")
        assert alignment.score == -1
        assert score("GATTACA", "GATTTACA", method="wavefront") == -1

    def test_empty_inputs_match_default_contract(self):
        for q, r in (("", ""), ("ACGT", ""), ("", "ACGT")):
            wave = align(q, r, method="wavefront")
            full = align(q, r)
            assert (wave.score, wave.cigar, wave.meta) \
                == (full.score, full.cigar, full.meta)
            assert score(q, r, method="wavefront") == score(q, r)

    def test_wavefront_method_needs_edit_model(self):
        with pytest.raises(ConfigurationError):
            align("AC", "AC", preset="dna-gap", method="wavefront")
        with pytest.raises(ConfigurationError):
            score("AC", "AC", preset="protein", method="wavefront")

    def test_wavefront_method_is_global_only(self):
        with pytest.raises(ConfigurationError):
            align("AC", "AC", mode="local", method="wavefront")
        with pytest.raises(ConfigurationError):
            align("AC", "AC", method="nope")

    def test_batch_front_end_accepts_new_engines(self):
        pairs = [("GATTACA", "GATTTACA"), ("ACGT", "ACGT"), ("", "AC")]
        want = align_batch(pairs)
        for engine in ("wavefront", "auto"):
            got = align_batch(pairs, engine=engine)
            assert [a.score for a in got] == [a.score for a in want]
        assert score_batch(pairs, engine="auto") \
            == score_batch(pairs, engine="vector")


# ----------------------------------------------------------------------
# Deadline-aware load shedding


def _slow_model(seconds_per_cell=0.005):
    """A pessimistic cost model: predicts hours of work for pairs that
    actually align in microseconds, forcing deterministic shedding
    under a deadline that never really expires."""
    return CostModel(seconds_per_cell=seconds_per_cell)


class TestLoadShedding:
    def test_config_validation(self):
        assert ResilienceConfig(shed=False).shed is False

    def test_sheds_predicted_cost_tail_exactly_once(self, rng):
        pairs = [make_pair(EDIT, 24 + 8 * i, 0.05, rng)
                 for i in range(12)]
        obs = Observability.enabled_context(events=EventStream())
        policy = ResilienceConfig(deadline_s=60.0,
                                  cost_model=_slow_model(),
                                  **THREAD)
        outcome = SupervisedEngine(
            EDIT, BatchConfig(traceback=False), policy, obs).run(pairs)
        assert outcome.failures, "pessimistic model must shed"
        assert all(f.fault == "deadline" and f.error_type == "LoadShed"
                   for f in outcome.failures)
        indices = [f.index for f in outcome.failures]
        assert len(indices) == len(set(indices))
        # Exactly-once: every pair is either a result or one failure,
        # never both, never neither -- no started shard expired.
        for i, result in enumerate(outcome.results):
            assert (result is None) == (i in set(indices))
        # Counters reconcile across all three reporting surfaces.
        shed = len(indices)
        assert outcome.counters["shed.pairs"] == shed
        assert obs.metrics.counter("exec.shed.pairs").value == shed
        events = obs.events.of_kind("shed")
        assert sum(e["pairs"] for e in events) == shed
        assert all(e["kept"] >= 0 and e["budget_s"] > 0 for e in events)

    def test_kept_prefix_is_cheapest(self, rng):
        """Shedding drops the *predicted-cost tail*: every kept pair is
        no more expensive than every shed pair."""
        lengths = [200, 20, 150, 30, 90, 250]
        pairs = [make_pair(EDIT, n, 0.02, rng) for n in lengths]
        model = _slow_model()
        policy = ResilienceConfig(deadline_s=30.0, cost_model=model,
                                  **THREAD)
        outcome = SupervisedEngine(
            EDIT, BatchConfig(traceback=False), policy).run(pairs)
        shed = {f.index for f in outcome.failures}
        assert shed and shed != set(range(len(pairs)))
        kept_costs = [model.estimate(pairs[i]).seconds
                      for i in range(len(pairs)) if i not in shed]
        shed_costs = [model.estimate(pairs[i]).seconds for i in shed]
        assert max(kept_costs) <= min(shed_costs)

    def test_no_shedding_without_deadline_or_when_disabled(self, rng):
        pairs = [make_pair(EDIT, 40, 0.05, rng) for _ in range(6)]
        unbounded = ResilienceConfig(cost_model=_slow_model(), **THREAD)
        outcome = SupervisedEngine(
            EDIT, BatchConfig(traceback=False), unbounded).run(pairs)
        assert not outcome.failures
        disabled = ResilienceConfig(deadline_s=30.0, shed=False,
                                    cost_model=_slow_model(), **THREAD)
        outcome = SupervisedEngine(
            EDIT, BatchConfig(traceback=False), disabled).run(pairs)
        assert not outcome.failures
        assert all(r is not None for r in outcome.results)

    def test_shed_survives_chaos_retries(self, rng):
        """Chaos faults requeue units through recovery; shedding there
        must still report every pair exactly once."""
        pairs = [make_pair(EDIT, 30 + 6 * i, 0.05, rng)
                 for i in range(10)]
        plan = parse_rates("rangeerror=0.4", seed=11)
        obs = Observability.enabled_context()
        policy = ResilienceConfig(deadline_s=60.0,
                                  cost_model=_slow_model(0.0004),
                                  max_retries=3,
                                  **THREAD)
        outcome = SupervisedEngine(
            EDIT, BatchConfig(traceback=False), policy, obs,
            plan=plan).run(pairs)
        seen: dict[int, int] = {}
        for failure in outcome.failures:
            seen[failure.index] = seen.get(failure.index, 0) + 1
        assert all(count == 1 for count in seen.values())
        for i, result in enumerate(outcome.results):
            assert (result is None) == (i in seen)
        shed = sum(1 for f in outcome.failures
                   if f.error_type == "LoadShed")
        assert outcome.counters.get("shed.pairs", 0) == shed
        assert obs.metrics.counter("exec.shed.pairs").value == shed

    def test_align_batch_shed_partials(self, rng):
        """The public front-end surfaces shed pairs as PairFailure
        records in submission order."""
        pairs = [("GATTACA" * 10, "GATTACA" * 10),
                 ("A" * 300, "A" * 299)]
        policy = ResilienceConfig(deadline_s=30.0,
                                  cost_model=_slow_model(),
                                  **THREAD)
        out = align_batch(pairs, resilience=policy)
        from repro.resilience import PairFailure
        failures = [x for x in out if isinstance(x, PairFailure)]
        assert failures
        assert all(f.fault == "deadline" for f in failures)

    def test_pre_expired_deadline_still_reports_deadline_exceeded(
            self, rng):
        """A deadline that is already gone keeps its original failure
        shape: DeadlineExceeded, not LoadShed."""
        pairs = [make_pair(EDIT, 30, 0.05, rng) for _ in range(4)]
        policy = ResilienceConfig(deadline_s=1e-6, **THREAD)
        outcome = SupervisedEngine(
            EDIT, BatchConfig(traceback=False), policy).run(pairs)
        assert len(outcome.failures) == len(pairs)
        assert all(f.fault == "deadline" for f in outcome.failures)
