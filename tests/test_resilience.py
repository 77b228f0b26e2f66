"""Fault-tolerant execution layer: deadlines, supervision, sharding.

The chaos-driven end-to-end suite lives in ``test_chaos.py`` (marked
``chaos``); this file covers the deterministic building blocks --
:class:`Deadline`, configuration validation, conformance of the
supervised engine to the plain engine, structured deadline partials,
result validation, the degradation ladder, and the sharding layer's
infra-vs-computation error split.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.algorithms.base import AlignerResult
from repro.config import standard_configs
from repro.errors import (
    AlignmentError,
    ConfigurationError,
    DeadlineExceeded,
    PoisonPairError,
    RangeError,
    ResilienceError,
    SmxError,
)
from repro.exec.engine import BatchConfig, BatchEngine
from repro.exec.sharding import run_sharded, shard_spans
from repro.obs import get_obs
from repro.resilience import (
    BatchOutcome,
    ChaosPlan,
    Deadline,
    PairFailure,
    ResilienceConfig,
    SupervisedEngine,
)
from repro.resilience import policy
from tests.conftest import make_pair


def _pairs(config, rng, count=24, n=40, error=0.1):
    return [make_pair(config, n + int(rng.integers(0, 24)), error, rng)
            for _ in range(count)]


THREAD = dict(backend="thread", backoff_base_s=0.0)


class TestDeadline:
    def test_unbounded_never_expires(self):
        deadline = Deadline.unbounded()
        assert not deadline.bounded
        assert not deadline.expired
        assert deadline.remaining() == float("inf")
        deadline.check()  # no raise

    def test_bounded_expires_and_raises(self):
        deadline = Deadline(expires_at=0.0)  # epoch of monotonic: past
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded):
            deadline.check("unit test")

    def test_after_validates_budget(self):
        with pytest.raises(ConfigurationError):
            Deadline.after(0.0)
        with pytest.raises(ConfigurationError):
            Deadline.after(-1.0)
        assert Deadline.after(None).expires_at is None

    def test_clamp_takes_the_tighter_bound(self):
        assert Deadline.unbounded().clamp(5.0) == 5.0
        assert Deadline.unbounded().clamp(None) is None
        bounded = Deadline.after(100.0)
        assert bounded.clamp(5.0) == 5.0
        assert bounded.clamp(None) <= 100.0

    def test_exception_hierarchy(self):
        assert issubclass(DeadlineExceeded, ResilienceError)
        assert issubclass(PoisonPairError, ResilienceError)
        assert issubclass(ResilienceError, SmxError)


class TestConfigValidation:
    def test_rejects_bad_retries_and_timeouts(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(shard_timeout_s=0.0)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(deadline_s=-2.0)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(backoff_base_s=-0.1)
        with pytest.raises(ConfigurationError):
            ResilienceConfig(backend="fibers")

    def test_batchconfig_deadline_validation(self):
        with pytest.raises(ConfigurationError):
            BatchConfig(deadline_s=0.0)
        assert BatchConfig(deadline_s=1.5).deadline_s == 1.5

    def test_wide_dtype_flag_round_trips(self):
        assert BatchConfig(wide_dtype=True).wide_dtype
        assert not BatchConfig().wide_dtype


class TestSupervisedConformance:
    """Without faults, supervision must be an invisible wrapper."""

    @pytest.mark.parametrize("engine", ["vector", "scalar"])
    def test_bit_identical_to_plain_engine(self, configs, rng, engine):
        config = configs["dna-gap"]
        pairs = _pairs(config, rng)
        batch = BatchConfig(engine=engine, traceback=True)
        plain = BatchEngine(config, batch).run(pairs)
        outcome = SupervisedEngine(
            config, batch, ResilienceConfig(**THREAD)).run(pairs)
        assert outcome.ok
        assert outcome.completed() == len(pairs)
        for want, got in zip(plain, outcome.results):
            assert want.score == got.score
            assert want.alignment.cigar == got.alignment.cigar

    def test_score_only_and_empty_batch(self, configs, rng):
        config = configs["dna-edit"]
        pairs = _pairs(config, rng, count=8)
        batch = BatchConfig(traceback=False)
        plain = [r.score for r in BatchEngine(config, batch).run(pairs)]
        sup = SupervisedEngine(config, batch,
                               ResilienceConfig(**THREAD))
        outcome = sup.run(pairs)
        assert [r.score for r in outcome.results] == plain
        empty = SupervisedEngine(config, batch,
                                 ResilienceConfig(**THREAD)).run([])
        assert empty.ok and empty.results == []

    def test_wide_dtype_engine_matches_narrow(self, configs, rng):
        config = configs["dna-gap"]
        pairs = _pairs(config, rng, count=12)
        narrow = BatchEngine(config, BatchConfig(traceback=False))
        wide = BatchEngine(config, BatchConfig(traceback=False,
                                               wide_dtype=True))
        assert [r.score for r in narrow.run(pairs)] == \
               [r.score for r in wide.run(pairs)]

    def test_wide_dtype_traceback_matches(self, configs, rng):
        config = configs["protein"]
        pairs = _pairs(config, rng, count=6)
        narrow = BatchEngine(config, BatchConfig(traceback=True))
        wide = BatchEngine(config, BatchConfig(traceback=True,
                                               wide_dtype=True))
        for a, b in zip(narrow.run(pairs), wide.run(pairs)):
            assert a.score == b.score
            assert a.alignment.cigar == b.alignment.cigar


class TestEngineDeadline:
    def test_plain_engine_raises_on_expiry(self, configs, rng):
        config = configs["dna-edit"]
        pairs = _pairs(config, rng, count=64, n=120)
        batch = BatchConfig(deadline_s=1e-6)
        with pytest.raises(DeadlineExceeded):
            BatchEngine(config, batch).run(pairs)

    def test_supervised_returns_structured_partials(self, configs, rng):
        config = configs["dna-edit"]
        pairs = _pairs(config, rng, count=48, n=100)
        outcome = SupervisedEngine(
            config, BatchConfig(),
            ResilienceConfig(deadline_s=1e-6, **THREAD)).run(pairs)
        assert not outcome.ok
        assert outcome.completed() + len(outcome.failures) == len(pairs)
        for failure in outcome.failures:
            assert failure.fault == "deadline"
            assert failure.error_type == "DeadlineExceeded"
        merged = outcome.merged()
        assert len(merged) == len(pairs)
        assert all(isinstance(entry, (AlignerResult, PairFailure))
                   for entry in merged)

    def test_raise_on_failure_promotes_deadline(self, configs, rng):
        config = configs["dna-edit"]
        pairs = _pairs(config, rng, count=48, n=100)
        policy = ResilienceConfig(deadline_s=1e-6,
                                  raise_on_failure=True, **THREAD)
        with pytest.raises(DeadlineExceeded):
            SupervisedEngine(config, BatchConfig(), policy).run(pairs)


class TestValidation:
    def test_validation_catches_planted_corruption(self, configs, rng):
        """A corrupted stored score must be repaired by re-execution,
        not returned."""
        config = configs["dna-gap"]
        pairs = _pairs(config, rng, count=6)

        class CorruptingEngine(SupervisedEngine):
            flips = 0

            def _validate_unit(self, unit, results):
                if CorruptingEngine.flips == 0 and results:
                    CorruptingEngine.flips = 1
                    results[0].score ^= 64
                    results[0].alignment.score ^= 64
                return super()._validate_unit(unit, results)

        plain = BatchEngine(config, BatchConfig()).run(pairs)
        outcome = CorruptingEngine(
            config, BatchConfig(),
            ResilienceConfig(validate=True, **THREAD)).run(pairs)
        assert outcome.ok
        assert outcome.counters.get("faults.bitflip", 0) >= 1
        for want, got in zip(plain, outcome.results):
            assert want.score == got.score

    @pytest.mark.parametrize("fault, runs", [
        ("bitflip", ["vector"] * 3 + ["scalar"]),
        ("rangeerror", ["vector"] * 4 + ["scalar"]),
        ("oserror", ["vector"] * 3),
    ])
    def test_quarantine_counts_each_execution_once(self, configs, rng,
                                                   monkeypatch, fault,
                                                   runs):
        """A pair failing on every attempt is quarantined with one
        attempt per execution, whether validation or an exception
        caught the failure: retries, then one attempt per rung."""
        config = configs["dna-gap"]
        pair = make_pair(config, 30, 0.1, rng)
        ran = []
        inline = BatchEngine._run_inline

        def counted(self, pairs, deadline):
            ran.append(self.batch.engine)
            return inline(self, pairs, deadline)

        monkeypatch.setattr(BatchEngine, "_run_inline", counted)
        plan = ChaosPlan(seed=1, persistent_fraction=1.0, **{fault: 1.0})
        outcome = SupervisedEngine(
            config, BatchConfig(), ResilienceConfig(validate=True, **THREAD),
            plan=plan).run([pair])
        assert ran == runs
        (failure,) = outcome.failures
        assert failure.fault == fault
        assert failure.attempts == len(runs)

    def test_alignment_error_carries_pair_index(self, configs, rng):
        err = AlignmentError("boom")
        assert err.pair_index is None
        err.pair_index = 7
        assert err.pair_index == 7


class TestLadder:
    def test_rangeerror_plans_wide_then_scalar(self):
        batch = BatchConfig(engine="vector")
        rungs = policy.plan_rungs(batch, "rangeerror")
        names = [name for name, _ in rungs]
        assert names == ["wide-dtype", "scalar"]
        for _, cfg in rungs:
            assert cfg.workers == 1 and cfg.deadline_s is None
        assert rungs[0][1].wide_dtype
        assert rungs[1][1].engine == "scalar"

    def test_heuristic_alignment_fault_promotes_to_exact(self):
        batch = BatchConfig(algorithm="banded", band_width=4)
        rungs = policy.plan_rungs(batch, "alignment")
        assert [name for name, _ in rungs] == ["exact"]
        assert rungs[0][1].algorithm == "full"
        assert rungs[0][1].engine == "scalar"

    def test_infra_faults_get_no_rungs(self):
        batch = BatchConfig(engine="vector")
        for fault in ("crash", "hang", "oserror", "deadline"):
            assert policy.plan_rungs(batch, fault) == []

    def test_banded_failure_promoted_to_exact_result(self, configs, rng):
        """A pair the band excludes gets an exact answer under
        supervision (heuristic -> exact aligner rung)."""
        config = configs["dna-gap"]
        rng2 = np.random.default_rng(1)
        # A long insertion drives the path far off-diagonal, out of a
        # narrow band.
        q = config.alphabet.random(60, rng2)
        r = np.concatenate([q[:20], config.alphabet.random(40, rng2),
                            q[20:]])
        easy = make_pair(config, 50, 0.05, rng)
        batch = BatchConfig(algorithm="banded", band_width=4)
        plain = BatchEngine(config, batch).run([easy, (q, r)])
        assert plain[1].failed  # sanity: the band really excludes it
        outcome = SupervisedEngine(
            config, batch, ResilienceConfig(**THREAD)).run(
                [easy, (q, r)])
        assert outcome.ok
        assert outcome.results[1].alignment is not None
        assert outcome.degraded[1] == ("exact",)
        assert outcome.counters.get("degraded.exact") == 1
        # The easy pair keeps its (identical) banded result.
        assert outcome.results[0].score == plain[0].score


class TestRetryBudget:
    """``max_retries`` bounds every single pair's retries, however the
    pair became single, and ``PairFailure.attempts`` counts the
    executions that included the pair."""

    POLICY = dict(backend="thread", max_unit_pairs=2)

    @staticmethod
    def _script(monkeypatch, pairs, poison, failures):
        """``pairs[poison]`` raises ``OSError`` in its first ``failures``
        executions; returns the list its executions are logged to."""
        inline = BatchEngine._run_inline
        key = pairs[poison][0].tobytes(), pairs[poison][1].tobytes()
        runs: list[int] = []

        def scripted(self, unit_pairs, deadline):
            if any((q.tobytes(), r.tobytes()) == key
                   for q, r in unit_pairs):
                runs.append(len(unit_pairs))
                if len(runs) <= failures:
                    raise OSError("scripted fault")
            return inline(self, unit_pairs, deadline)

        monkeypatch.setattr(BatchEngine, "_run_inline", scripted)
        monkeypatch.setattr("time.sleep", lambda seconds: None)
        return runs

    def test_bisected_pair_is_retried(self, configs, rng, monkeypatch):
        """A pair bisected out of its unit still gets plain retries: a
        fault that clears after 3 executions is recovered."""
        config = configs["dna-gap"]
        pairs = _pairs(config, rng, count=8)
        plain = BatchEngine(config, BatchConfig()).run(pairs)
        runs = self._script(monkeypatch, pairs, 5, failures=3)
        outcome = SupervisedEngine(config, BatchConfig(),
                                   ResilienceConfig(**self.POLICY)).run(pairs)
        assert outcome.ok
        assert [r.score for r in outcome.results] == \
               [r.score for r in plain]
        # One whole-unit retry, one bisection, one retry of the pair.
        assert outcome.counters["retries"] == 2
        assert outcome.counters["bisections"] == 1
        assert runs == [2, 2, 1, 1]

    def test_quarantine_counts_every_execution(self, configs, rng,
                                               monkeypatch):
        config = configs["dna-gap"]
        pairs = _pairs(config, rng, count=8)
        runs = self._script(monkeypatch, pairs, 5, failures=5)
        outcome = SupervisedEngine(config, BatchConfig(),
                                   ResilienceConfig(**self.POLICY)).run(pairs)
        (failure,) = outcome.failures
        assert failure.index == 5 and failure.fault == "oserror"
        assert failure.attempts == len(runs) == 5
        assert outcome.counters["retries"] == 3

    def test_deadline_cut_counts_the_running_execution(self, configs, rng,
                                                       monkeypatch):
        """A unit the deadline cuts off while it runs has executed once;
        units that never started have not."""
        config = configs["dna-gap"]
        pairs = _pairs(config, rng, count=6)
        release = threading.Event()
        started: list[int] = []
        inline = BatchEngine._run_inline

        def stuck(self, unit_pairs, deadline):
            started.append(len(unit_pairs))
            release.wait(10.0)
            return inline(self, unit_pairs, deadline)

        monkeypatch.setattr(BatchEngine, "_run_inline", stuck)
        try:
            outcome = SupervisedEngine(
                config, BatchConfig(),
                ResilienceConfig(deadline_s=0.2, shed=False,
                                 **self.POLICY)).run(pairs)
        finally:
            release.set()
        assert started == [2]
        assert sorted(failure.index for failure in outcome.failures) == \
            list(range(6))
        assert {failure.fault for failure in outcome.failures} == \
            {"deadline"}
        assert sorted(failure.attempts for failure in outcome.failures) \
            == [0, 0, 0, 0, 1, 1]


class TestBatchOutcome:
    def test_merged_and_accessors(self):
        result = AlignerResult(alignment=None, score=5, stats=None)
        failure = PairFailure(index=1, fault="crash",
                              error_type="Boom", message="x")
        outcome = BatchOutcome(results=[result, None],
                               failures=[failure])
        assert not outcome.ok
        assert outcome.completed() == 1
        merged = outcome.merged()
        assert merged[0] is result and merged[1] is failure
        assert outcome.scores() == [5, failure]
        outcome.bump("retries")
        outcome.bump("retries", 2)
        assert outcome.counters["retries"] == 3


class TestShardingFailureSplit:
    """Pool-infra failures are recovered; computation errors raise."""

    def test_computation_error_reraises(self, configs, rng, monkeypatch):
        config = configs["dna-edit"]
        pairs = _pairs(config, rng, count=8)
        batch = BatchConfig(workers=2)

        def boom(self, pairs, deadline):
            raise RangeError("delta out of range")

        # Patched on the class, so forked pool workers (or the thread
        # fallback) raise inside every shard.
        monkeypatch.setattr(BatchEngine, "_run_inline", boom)
        # A worker-side computation error is never swallowed: it
        # raises, naming the pair, the fault and the original type.
        with pytest.raises(PoisonPairError) as raised:
            run_sharded(config, batch, pairs, get_obs())
        assert raised.value.pair_index == 0
        assert raised.value.fault == "rangeerror"
        assert "RangeError" in str(raised.value)

    def test_strict_run_fails_fast(self, configs, rng, monkeypatch):
        """A strict run raises at the first pair it quarantines, and
        backs off only before each shard's one whole-shard retry --
        never before a bisection half."""
        config = configs["dna-edit"]
        pairs = _pairs(config, rng, count=16)

        def boom(self, pairs, deadline):
            raise RangeError("delta out of range")

        monkeypatch.setattr(BatchEngine, "_run_inline", boom)
        naps: list[float] = []
        monkeypatch.setattr("time.sleep", naps.append)
        with pytest.raises(PoisonPairError) as raised:
            run_sharded(config, BatchConfig(workers=2), pairs, get_obs())
        assert raised.value.pair_index == 0
        assert len(naps) <= 2

    def test_configuration_error_raises_unwrapped(self, configs, rng):
        """A route that cannot run the scoring model is refused before
        any shard starts, as the inline engine refuses it."""
        config = configs["dna-gap"]
        pairs = _pairs(config, rng, count=8)
        batch = BatchConfig(engine="bitparallel", traceback=False,
                            workers=2)
        with pytest.raises(ConfigurationError, match="unit-cost"):
            BatchEngine(config, batch).run(pairs)

    def test_pool_creation_failure_runs_inline(self, configs, rng,
                                               monkeypatch):
        config = configs["dna-edit"]
        pairs = _pairs(config, rng, count=8)
        batch = BatchConfig(workers=2)
        plain = BatchEngine(config, BatchConfig()).run(pairs)

        import repro.resilience.supervisor as supervisor

        def no_pool(*args, **kwargs):
            raise OSError("no /dev/shm")

        monkeypatch.setattr(supervisor, "ProcessPoolExecutor", no_pool)
        results = run_sharded(config, batch, pairs, get_obs())
        assert [r.score for r in results] == [r.score for r in plain]

    def test_broken_pool_reruns_only_unfinished_shards(
            self, configs, rng, monkeypatch):
        """After a worker dies, completed shards keep their results and
        only the unfinished ones run again, in a fresh pool."""
        from concurrent.futures.process import BrokenProcessPool

        import repro.resilience.supervisor as supervisor

        config = configs["dna-edit"]
        pairs = _pairs(config, rng, count=9)
        batch = BatchConfig(workers=3)
        plain = BatchEngine(config, BatchConfig()).run(pairs)
        spans = shard_spans(len(pairs), 3)
        pools: list = []
        ran: list[tuple[int, int]] = []  # (pool, shard) of each run

        def shard_of(unit_pairs):
            return next(
                i for i, (start, stop) in enumerate(spans)
                if len(unit_pairs) == stop - start
                and np.array_equal(unit_pairs[0][0], pairs[start][0]))

        class FakeFuture:
            def __init__(self, work, broken):
                self._work = work
                self._broken = broken

            def result(self, timeout=None):
                if self._broken:
                    raise BrokenProcessPool("worker died")
                return self._work()

        class FakePool:
            def __init__(self, max_workers):
                self.number = len(pools)
                pools.append(self)

            def submit(self, fn, *args):
                # A unit crosses the boundary as (codes, lengths).
                shard = shard_of(supervisor.unpack_pairs(*args[2:4]))

                def work():
                    ran.append((self.number, shard))
                    return fn(*args)
                # The first pool dies under every shard but the first.
                return FakeFuture(work, self.number == 0 and shard > 0)

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(supervisor, "ProcessPoolExecutor", FakePool)
        results = run_sharded(config, batch, pairs, get_obs())
        assert [r.score for r in results] == [r.score for r in plain]
        # Shard 0 completed in the first pool and kept its result; only
        # shards 1 and 2 ran again, in a fresh pool.
        assert ran == [(0, 0), (1, 1), (1, 2)]


class TestProcessBackendFallback:
    def test_supervisor_falls_back_to_threads(self, configs, rng,
                                              monkeypatch):
        config = configs["dna-edit"]
        pairs = _pairs(config, rng, count=8)
        batch = BatchConfig(workers=2)

        import repro.resilience.supervisor as supervisor

        def no_pool(*args, **kwargs):
            raise OSError("no process pools here")

        monkeypatch.setattr(supervisor, "ProcessPoolExecutor", no_pool)
        plain = BatchEngine(config, BatchConfig()).run(pairs)
        outcome = SupervisedEngine(config, batch,
                                   ResilienceConfig()).run(pairs)
        assert outcome.ok
        assert [r.score for r in outcome.results] == \
               [r.score for r in plain]


class TestApiResilience:
    def test_align_batch_deadline_partials(self):
        from repro.api import align_batch
        pairs = [("GATTACA" * 30, "GATTTACA" * 26)] * 24
        out = align_batch(pairs, deadline_s=1e-6)
        assert len(out) == len(pairs)
        assert all(isinstance(entry, PairFailure) for entry in out)
        assert all(entry.fault == "deadline" for entry in out)

    def test_align_batch_resilient_matches_plain(self):
        from repro.api import align_batch
        pairs = [("GATTACA", "GATTTACA"), ("ACGT", "ACGA")]
        plain = align_batch(pairs)
        supervised = align_batch(
            pairs, resilience=ResilienceConfig(**THREAD))
        assert [a.cigar for a in plain] == [a.cigar for a in supervised]

    def test_score_batch_resilient(self):
        from repro.api import score_batch
        pairs = [("GATTACA", "GATTTACA"), ("ACGT", "ACGA")]
        assert score_batch(pairs) == score_batch(
            pairs, resilience=ResilienceConfig(**THREAD))


class TestAppsResilience:
    def test_readmapper_supervised_matches_plain(self, rng):
        from repro.apps.readmapper import ReadMapper
        from repro.workloads.genome import random_genome, sample_reads
        from repro.workloads.synthetic import ErrorProfile
        genome = random_genome(4000, seed=9)
        read_set = sample_reads(genome, 10, 200,
                                ErrorProfile(0.01, 0.005, 0.005),
                                seed=5)
        plain = ReadMapper(genome).map_all(read_set)
        supervised = ReadMapper(
            genome,
            resilience=ResilienceConfig(**THREAD)).map_all(read_set)
        assert [m.position for m in plain.mappings] == \
               [m.position for m in supervised.mappings]
        assert [m.score for m in plain.mappings] == \
               [m.score for m in supervised.mappings]

    def test_dbsearch_supervised_matches_plain(self, rng):
        from repro.apps.dbsearch import ProteinSearch, build_database
        from repro.config import protein_config
        config = protein_config()
        query = config.alphabet.random(120, np.random.default_rng(3))
        database, homolog = build_database(12, homolog_of=query,
                                           divergence=0.2)
        plain = ProteinSearch(database).search(query)
        supervised = ProteinSearch(
            database,
            resilience=ResilienceConfig(**THREAD)).search(query)
        assert [h.target_id for h in plain.hits] == \
               [h.target_id for h in supervised.hits]
        assert [h.score for h in plain.hits] == \
               [h.score for h in supervised.hits]
        assert supervised.rank_of(homolog) == plain.rank_of(homolog)
