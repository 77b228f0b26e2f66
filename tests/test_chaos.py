"""Chaos suite: seeded fault injection against the supervised engine.

Every test follows the same contract, per fault class at a >= 10%
injection rate on a 256-pair batch (the acceptance bar of the
resilience layer):

* pairs the injector never touched return **bit-identical** results to
  a fault-free run of the plain engine;
* transient-poisoned pairs are retried to success (also bit-identical);
* persistent-poisoned pairs come back as typed
  :class:`~repro.resilience.PairFailure` records -- exactly the pairs
  the injector's ground-truth table says, no more and no fewer;
* the supervisor's fault counters reconcile with the injector's fired
  log, and the whole outcome is deterministic under a fixed seed.

The thread backend keeps the injection log in-process (shared plan), so
counter equality is exact there; the process-pool test asserts the
weaker (ground-truth-set) form since a worker killed by ``os._exit``
cannot ship its log home.

Run with ``pytest -m chaos``; the default suite keeps these out of the
hot path (they sleep on purpose in the hang tests).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import standard_configs
from repro.dp.dense import nw_score
from repro.errors import ConfigurationError
from repro.exec.engine import BatchConfig, BatchEngine
from repro.resilience import (
    ChaosPlan,
    ResilienceConfig,
    SupervisedEngine,
    chaos,
    parse_rates,
)
from tests.conftest import make_pair

pytestmark = pytest.mark.chaos

BATCH_SIZE = 256
RATE = 0.10


@pytest.fixture(scope="module")
def config():
    return standard_configs()["dna-gap"]


@pytest.fixture(scope="module")
def pairs(config):
    rng = np.random.default_rng(0x5EED)
    return [make_pair(config, 24 + int(rng.integers(0, 24)), 0.12, rng)
            for _ in range(BATCH_SIZE)]


@pytest.fixture(scope="module")
def baseline(config, pairs):
    """Fault-free reference results from the plain engine."""
    return BatchEngine(config, BatchConfig(traceback=True)).run(pairs)


def _policy(**overrides):
    base = dict(backend="thread", backoff_base_s=0.0, max_retries=2,
                validate=True)
    base.update(overrides)
    return ResilienceConfig(**base)


def _persistent(plan, pairs, cls):
    table = plan.ground_truth(pairs)
    return {i for i, entry in enumerate(table)
            if entry.get(cls) == "persistent"}


def _poisoned(plan, pairs, cls):
    table = plan.ground_truth(pairs)
    return {i for i, entry in enumerate(table) if cls in entry}


def _check_contract(outcome, baseline, plan, pairs, cls):
    """The shared acceptance contract for one single-class chaos run."""
    persistent = _persistent(plan, pairs, cls)
    poisoned = _poisoned(plan, pairs, cls)
    assert len(poisoned) >= int(RATE * len(pairs) * 0.5), \
        "seed produced too few poisoned pairs to be meaningful"
    # Every pair is accounted for, in submission order.
    assert outcome.completed() + len(outcome.failures) == len(pairs)
    # Exactly the persistent-poisoned pairs fail, all typed.
    assert {f.index for f in outcome.failures} == persistent
    for failure in outcome.failures:
        assert failure.fault == cls
        assert failure.attempts >= 1
    # Unaffected AND transient-recovered pairs are bit-identical.
    for i, (want, got) in enumerate(zip(baseline, outcome.results)):
        if i in persistent:
            assert got is None
            continue
        assert got is not None
        assert got.score == want.score, f"pair {i} score drifted"
        if want.alignment is not None:
            assert got.alignment.cigar == want.alignment.cigar
    # Supervisor accounting reconciles with the injector's fired log
    # (exact on the thread backend: the plan object is shared).
    fired = [event for event in outcome.injections if event.cls == cls]
    assert outcome.counters.get(f"faults.{cls}", 0) == len(fired)
    assert outcome.counters.get(f"quarantined.{cls}", 0) == \
        len(persistent)


class TestSingleClassChaos:
    def test_oserror(self, config, pairs, baseline):
        plan = ChaosPlan(seed=101, oserror=RATE)
        outcome = SupervisedEngine(config, BatchConfig(workers=8),
                                   _policy(), plan=plan).run(pairs)
        _check_contract(outcome, baseline, plan, pairs, "oserror")

    def test_crash(self, config, pairs, baseline):
        plan = ChaosPlan(seed=202, crash=RATE)
        outcome = SupervisedEngine(config, BatchConfig(workers=8),
                                   _policy(), plan=plan).run(pairs)
        _check_contract(outcome, baseline, plan, pairs, "crash")

    def test_rangeerror(self, config, pairs, baseline):
        plan = ChaosPlan(seed=303, rangeerror=RATE)
        outcome = SupervisedEngine(config, BatchConfig(workers=8),
                                   _policy(), plan=plan).run(pairs)
        _check_contract(outcome, baseline, plan, pairs, "rangeerror")
        # Persistent range errors walked the ladder before quarantine.
        for failure in outcome.failures:
            assert failure.rungs == ("wide-dtype", "scalar")
        assert outcome.counters.get("degraded.wide-dtype", 0) == \
            len(outcome.failures)

    def test_bitflip_traceback(self, config, pairs, baseline):
        plan = ChaosPlan(seed=404, bitflip=RATE)
        outcome = SupervisedEngine(config, BatchConfig(workers=8),
                                   _policy(), plan=plan).run(pairs)
        _check_contract(outcome, baseline, plan, pairs, "bitflip")
        for failure in outcome.failures:
            assert failure.error_type == "Validation"

    def test_hang(self, config, pairs, baseline):
        workers, timeout_s = 8, 0.2
        plan = ChaosPlan(seed=505, hang=RATE, hang_s=2.0)
        # The timeout leaves a healthy shard room on a loaded machine,
        # and the hang exceeds the sum of every staggered timeout wait
        # of the wave (not just one), or a late wave shard's sleeping
        # execution could finish before its turn to be waited on and
        # sneak its results in.
        assert workers * timeout_s < plan.hang_s
        outcome = SupervisedEngine(
            config, BatchConfig(workers=workers),
            _policy(shard_timeout_s=timeout_s, max_retries=1),
            plan=plan).run(pairs)
        _check_contract(outcome, baseline, plan, pairs, "hang")
        for failure in outcome.failures:
            assert failure.error_type == "Timeout"


class TestBitflipScoreMode:
    def test_redundant_recompute_catches_flips(self, config, pairs):
        """Score-only batches have no CIGAR to rescore; validation
        falls back to a clean redundant recompute."""
        subset = pairs[:64]
        plan = ChaosPlan(seed=404, bitflip=2 * RATE)
        clean = [r.score for r in BatchEngine(
            config, BatchConfig(traceback=False)).run(subset)]
        outcome = SupervisedEngine(
            config, BatchConfig(traceback=False, workers=4),
            _policy(), plan=plan).run(subset)
        persistent = _persistent(plan, subset, "bitflip")
        assert {f.index for f in outcome.failures} == persistent
        for i, got in enumerate(outcome.results):
            if i not in persistent:
                assert got.score == clean[i]


class TestMixedChaos:
    def test_mixed_faults_all_pairs_accounted(self, config, pairs,
                                              baseline):
        plan = ChaosPlan(seed=77, crash=0.04, oserror=0.04,
                         bitflip=0.04, rangeerror=0.04)
        outcome = SupervisedEngine(config, BatchConfig(workers=8),
                                   _policy(), plan=plan).run(pairs)
        assert outcome.completed() + len(outcome.failures) == len(pairs)
        failed = {f.index for f in outcome.failures}
        # Everything that failed was genuinely poisoned with some
        # persistent class; everything untouched is bit-identical.
        table = plan.ground_truth(pairs)
        for failure in outcome.failures:
            assert "persistent" in table[failure.index].values()
        for i, (want, got) in enumerate(zip(baseline, outcome.results)):
            if i in failed:
                continue
            assert got.score == want.score
            assert got.alignment.cigar == want.alignment.cigar

    def test_determinism_under_fixed_seed(self, config, pairs):
        def run():
            plan = ChaosPlan(seed=77, crash=0.04, oserror=0.04,
                             bitflip=0.04, rangeerror=0.04)
            outcome = SupervisedEngine(
                config, BatchConfig(workers=8), _policy(),
                plan=plan).run(pairs)
            scores = [None if r is None else r.score
                      for r in outcome.results]
            failures = [(f.index, f.fault, f.rungs)
                        for f in outcome.failures]
            events = sorted((e.cls, e.digest, e.attempt, e.persistent)
                            for e in outcome.injections)
            return scores, failures, outcome.counters, events

        assert run() == run()


class TestProcessPoolChaos:
    def test_crash_kills_real_workers(self, config, pairs, baseline):
        """os._exit in a pool worker surfaces as BrokenProcessPool and
        still converges to exactly the persistent-poisoned pairs."""
        subset = pairs[:48]
        plan = ChaosPlan(seed=202, crash=RATE)
        outcome = SupervisedEngine(
            config, BatchConfig(workers=4),
            ResilienceConfig(backend="process", backoff_base_s=0.0,
                             max_retries=1),
            plan=plan).run(subset)
        persistent = _persistent(plan, subset, "crash")
        assert {f.index for f in outcome.failures} == persistent
        for failure in outcome.failures:
            assert failure.fault == "crash"
        for i, got in enumerate(outcome.results):
            if i not in persistent:
                assert got is not None
                assert got.score == baseline[i].score


class TestSmxModelBitflip:
    def test_border_store_corruption_hook(self, configs):
        """The SMX functional-model hook flips exactly one stored
        border bit for a poisoned pair, and the recomputed traceback
        can never *beat* the true optimum with it."""
        from repro.core.traceback import (
            compute_tile_borders,
            traceback_with_recompute,
        )
        config = configs["dna-edit"]
        rng = np.random.default_rng(8)
        q, r = make_pair(config, 96, 0.1, rng)
        truth = nw_score(q, r, config.model)
        clean = compute_tile_borders(q, r, config.model, config.vl)
        plan = ChaosPlan(seed=1, bitflip=1.0, persistent_fraction=1.0)
        with chaos.scoped(plan):
            store = compute_tile_borders(q, r, config.model, config.vl)
        assert len(plan.fired) == 1 and plan.fired[0].cls == "bitflip"
        deltas = [int(np.abs(a - b).sum())
                  for strips in zip(clean.dvp_cols, store.dvp_cols)
                  for a, b in zip(*strips)]
        assert sum(x > 0 for x in deltas) == 1  # exactly one border hit
        try:
            alignment, _ = traceback_with_recompute(store, q, r,
                                                    config.model)
        except Exception:
            return  # detected by construction: traceback rejected it
        assert alignment.score <= truth

    def test_hook_is_a_noop_without_a_plan(self, configs):
        from repro.core.traceback import compute_tile_borders
        config = configs["dna-edit"]
        rng = np.random.default_rng(8)
        q, r = make_pair(config, 64, 0.1, rng)
        a = compute_tile_borders(q, r, config.model, config.vl)
        b = compute_tile_borders(q, r, config.model, config.vl)
        for row_a, row_b in zip(a.dhp_rows, b.dhp_rows):
            assert np.array_equal(row_a, row_b)


class TestChaosPlanUnit:
    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            ChaosPlan(crash=1.5)
        with pytest.raises(ConfigurationError):
            ChaosPlan(persistent_fraction=-0.1)
        with pytest.raises(ConfigurationError):
            ChaosPlan(hang_s=0.0)

    def test_parse_rates(self):
        plan = parse_rates("crash=0.05, bitflip=0.1", seed=9)
        assert plan.seed == 9
        assert plan.crash == 0.05 and plan.bitflip == 0.1
        with pytest.raises(ConfigurationError):
            parse_rates("meteor=0.5")
        with pytest.raises(ConfigurationError):
            parse_rates("crash=lots")

    def test_transient_fires_only_on_attempt_zero(self):
        plan = ChaosPlan(seed=0, oserror=1.0, persistent_fraction=0.0)
        digest = ChaosPlan.pair_digest(np.zeros(4, np.uint8),
                                       np.ones(4, np.uint8))
        assert plan.fires("oserror", digest, attempt=0)
        assert not plan.fires("oserror", digest, attempt=1)
        persistent = ChaosPlan(seed=0, oserror=1.0,
                               persistent_fraction=1.0)
        assert persistent.fires("oserror", digest, attempt=3)

    def test_digest_is_content_based(self):
        q = np.array([1, 2, 3], np.uint8)
        r = np.array([3, 2, 1], np.uint8)
        assert ChaosPlan.pair_digest(q, r) == \
            ChaosPlan.pair_digest(q.copy(), r.copy())
        assert ChaosPlan.pair_digest(q, r) != ChaosPlan.pair_digest(r, q)

    def test_plan_pickles_without_lock_or_log(self):
        import pickle
        plan = ChaosPlan(seed=4, crash=0.2)
        plan._record("crash", 123, 0)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.crash == 0.2 and clone.seed == 4
        assert clone.fired == []  # workers start an empty log
        clone._record("crash", 5, 1)  # fresh lock works
        assert plan.spec() == clone.spec()

    def test_scoped_activation_is_isolated(self):
        """The engine hook injects inside ``scoped(plan)`` only: nothing
        before or after it, nothing inside a nested ``scoped(None)``,
        and the plan is back once that nested scope exits."""
        from repro.algorithms.base import AlignerResult, DPStats
        plan = ChaosPlan(seed=1, bitflip=1.0, persistent_fraction=1.0)
        pairs = [(np.array([0, 1, 2], dtype=np.uint8),
                  np.array([0, 1, 3], dtype=np.uint8))]

        def injected() -> bool:
            results = [AlignerResult(alignment=None, score=0,
                                     stats=DPStats(0, 0, 0))]
            chaos.apply_to_results(pairs, results)
            return results[0].score != 0

        assert not injected()
        with chaos.scoped(plan):
            assert injected()
            with chaos.scoped(None):
                assert not injected()
            assert injected()
        assert not injected()
        assert [event.cls for event in plan.fired] == ["bitflip"] * 2


class TestChaosCli:
    def test_cli_chaos_partial_results(self, tmp_path, capsys):
        from repro.__main__ import main
        batch = tmp_path / "pairs.txt"
        batch.write_text("GATTACA GATTTACA\nACGTACGT ACGTACGA\n"
                         "TTTTAAAA TTTTAAAC\n")
        code = main(["align", "--batch", str(batch),
                     "--chaos", "oserror=1.0", "--chaos-seed", "1",
                     "--max-retries", "1"])
        out = capsys.readouterr()
        lines = [line for line in out.out.splitlines() if line]
        assert len(lines) == 3
        assert any(line.startswith("FAIL\toserror:") for line in lines)
        assert code == 3
        assert "failed" in out.err

    def test_cli_chaos_report_counters(self, tmp_path, capsys):
        import json

        from repro.__main__ import main
        batch = tmp_path / "pairs.txt"
        batch.write_text("GATTACA GATTTACA\nACGT ACGA\n")
        report_path = tmp_path / "report.json"
        code = main(["align", "--batch", str(batch), "--resilient",
                     "--metrics-json", str(report_path)])
        assert code == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert report["params"]["resilient"] is True
        assert report["resilience"]["failures"] == []
