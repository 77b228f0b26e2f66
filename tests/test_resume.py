"""Crash-safe checkpoint/resume: kill/resume determinism proof.

The acceptance bar for the service layer's crash-safety story: a run
SIGKILL'd mid-batch (simulated by :class:`~repro.resilience.chaos`'s
``kill_at_unit`` fault, which raises the unswallowable
:class:`InjectedKill` immediately *after* a checkpoint settles) and
then resumed from its on-disk ``smx-outcome/1`` checkpoint must
produce a final document **bit-identical** to an uninterrupted run of
the same plan -- results, quarantine lists, counters, and degradation
maps, at every kill point tested. Chaos decisions are keyed on
(pair content, attempt), so replaying the checkpoint's remainder
re-derives the identical fault sequence; these tests prove it at
multiple distinct kill units, under faults, and through the CLI.

Thread backend throughout (in-process injection log, deterministic);
no deadlines or shedding (timing-dependent by design).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import standard_configs
from repro.errors import ConfigurationError
from repro.exec.engine import BatchConfig
from repro.resilience import (
    ChaosPlan,
    InjectedKill,
    ResilienceConfig,
    SupervisedEngine,
    outcome_io,
)
from tests.conftest import make_pair

PAIRS = 24
UNIT = 4  # pairs per checkpoint unit -> 6 attempt-0 units


@pytest.fixture(scope="module")
def config():
    return standard_configs()["dna-edit"]


@pytest.fixture(scope="module")
def pairs(config):
    rng = np.random.default_rng(0xD1CE)
    return [make_pair(config, 16 + int(rng.integers(0, 8)), 0.12, rng)
            for _ in range(PAIRS)]


def _engine(config, plan=None, workers=2):
    return SupervisedEngine(
        config, BatchConfig(workers=workers),
        ResilienceConfig(max_unit_pairs=UNIT, backend="thread",
                         backoff_base_s=0.0,
                         validate=plan is not None),
        plan=plan)


def _document(outcome, n):
    return outcome_io.to_document(outcome, pairs=n)


class TestCheckpointWriting:
    def test_complete_run_writes_final_checkpoint(self, config, pairs,
                                                  tmp_path):
        path = str(tmp_path / "ck.json")
        outcome = _engine(config).run(pairs, checkpoint_path=path)
        checkpoint = outcome_io.load(path)
        assert checkpoint.complete
        assert checkpoint.unsettled() == []
        assert _document(checkpoint.outcome, PAIRS) == \
            _document(outcome, PAIRS)

    def test_checkpoint_carries_pairs_digest(self, config, pairs,
                                             tmp_path):
        path = str(tmp_path / "ck.json")
        _engine(config).run(pairs, checkpoint_path=path)
        checkpoint = outcome_io.load(path)
        assert checkpoint.digest == outcome_io.pairs_digest(pairs)

    def test_empty_batch_checkpoint(self, config, tmp_path):
        path = str(tmp_path / "ck.json")
        outcome = _engine(config).run([], checkpoint_path=path)
        assert outcome.results == []
        assert outcome_io.load(path).complete


class TestKillResumeDeterminism:
    """The headline invariant, at >= 2 distinct kill units."""

    RATES = {"crash": 0.15, "bitflip": 0.1}

    def _reference(self, config, pairs):
        plan = ChaosPlan(seed=0xFA11, **self.RATES)
        return _document(_engine(config, plan).run(pairs), PAIRS)

    @pytest.mark.parametrize("kill_at", [1, 3, 5])
    def test_resumed_union_bit_identical(self, config, pairs, tmp_path,
                                         kill_at):
        reference = self._reference(config, pairs)
        path = str(tmp_path / f"ck{kill_at}.json")
        killer = ChaosPlan(seed=0xFA11, kill_at_unit=kill_at,
                           **self.RATES)
        with pytest.raises(InjectedKill):
            _engine(config, killer).run(pairs, checkpoint_path=path)
        interrupted = outcome_io.load(path)
        assert not interrupted.complete
        assert interrupted.unsettled(), "kill left nothing to resume"
        assert interrupted.outcome.completed() < PAIRS

        survivor = ChaosPlan(seed=0xFA11, **self.RATES)
        resumed = _engine(config, survivor).run(
            pairs, checkpoint_path=path, resume=path)
        assert _document(resumed, PAIRS) == reference
        final = outcome_io.load(path)
        assert final.complete
        assert _document(final.outcome, PAIRS) == reference

    def test_double_kill_then_resume(self, config, pairs, tmp_path):
        """Kill, resume-and-kill-again, then finish: still identical."""
        reference = self._reference(config, pairs)
        path = str(tmp_path / "ck.json")
        with pytest.raises(InjectedKill):
            _engine(config, ChaosPlan(seed=0xFA11, kill_at_unit=2,
                                      **self.RATES)).run(
                pairs, checkpoint_path=path)
        with pytest.raises(InjectedKill):
            _engine(config, ChaosPlan(seed=0xFA11, kill_at_unit=1,
                                      **self.RATES)).run(
                pairs, checkpoint_path=path, resume=path)
        resumed = _engine(config, ChaosPlan(seed=0xFA11,
                                            **self.RATES)).run(
            pairs, checkpoint_path=path, resume=path)
        assert _document(resumed, PAIRS) == reference

    def test_kill_without_faults(self, config, pairs, tmp_path):
        """Clean-run kill/resume matches a plain supervised run."""
        reference = _document(_engine(config).run(pairs), PAIRS)
        path = str(tmp_path / "ck.json")
        with pytest.raises(InjectedKill):
            _engine(config, ChaosPlan(kill_at_unit=2)).run(
                pairs, checkpoint_path=path)
        resumed = _engine(config).run(pairs, checkpoint_path=path,
                                      resume=path)
        assert _document(resumed, PAIRS) == reference

    def test_kill_event_recorded(self, config, pairs, tmp_path):
        plan = ChaosPlan(seed=0xFA11, kill_at_unit=2, **self.RATES)
        with pytest.raises(InjectedKill):
            _engine(config, plan).run(
                pairs, checkpoint_path=str(tmp_path / "ck.json"))
        kills = [e for e in plan.fired if e.cls == "kill"]
        assert len(kills) == 1


class TestOldCheckpoint:
    def test_resumes_queue_units_without_retries(self, config, pairs,
                                                 tmp_path, monkeypatch):
        """A checkpoint written before units carried ``retries`` (queue
        units name their ``rung`` instead) resumes: the rung is the
        last of ``rungs`` and ``retries`` starts at 0."""
        import json

        from repro.exec.engine import BatchEngine
        from repro.resilience.policy import Unit

        old_unit = {"indices": [0], "attempt": 3, "rung": "scalar",
                    "rungs": ["scalar"], "fault": "error"}
        assert SupervisedEngine._unit_from_doc(old_unit) == Unit(
            [0], attempt=3, retries=0, rungs=("scalar",), fault="error")
        document = {
            "schema": "smx-outcome/1", "pairs": PAIRS, "complete": False,
            "completed": 0, "results": {}, "failures": [], "counters": {},
            "degraded": {},
            "queue": [old_unit, {"indices": [1, 2], "attempt": 2,
                                 "rung": None, "rungs": [],
                                 "fault": "oserror"}],
            "remaining": [list(range(3, PAIRS))],
            "pairs_digest": outcome_io.pairs_digest(pairs)}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(document))
        plain = [r.score for r in _engine(config).run(pairs).results]
        engines = []
        inline = BatchEngine._run_inline

        def logged(self, unit_pairs, deadline):
            if any(q is pairs[0][0] for q, _ in unit_pairs):
                engines.append(self.batch.engine)
            return inline(self, unit_pairs, deadline)

        monkeypatch.setattr(BatchEngine, "_run_inline", logged)
        resumed = _engine(config).run(pairs, resume=str(path))
        assert engines == ["scalar"]
        assert [r.score for r in resumed.results] == plain
        assert resumed.degraded == {0: ("scalar",)}


class TestResumeValidation:
    def test_pair_count_mismatch_rejected(self, config, pairs,
                                          tmp_path):
        path = str(tmp_path / "ck.json")
        with pytest.raises(InjectedKill):
            _engine(config, ChaosPlan(kill_at_unit=1)).run(
                pairs, checkpoint_path=path)
        with pytest.raises(ConfigurationError, match="24 pair"):
            _engine(config).run(pairs[:10], checkpoint_path=path,
                                resume=path)

    def test_digest_mismatch_rejected(self, config, pairs, tmp_path):
        path = str(tmp_path / "ck.json")
        with pytest.raises(InjectedKill):
            _engine(config, ChaosPlan(kill_at_unit=1)).run(
                pairs, checkpoint_path=path)
        shuffled = list(pairs[::-1])
        with pytest.raises(ConfigurationError, match="digest"):
            _engine(config).run(shuffled, checkpoint_path=path,
                                resume=path)

    def test_kill_at_unit_validated(self):
        with pytest.raises(ConfigurationError):
            ChaosPlan(kill_at_unit=0)

    def test_parse_rates_accepts_kill(self):
        from repro.resilience import parse_rates
        plan = parse_rates("crash=0.1,kill=3")
        assert plan.kill_at_unit == 3 and plan.crash == 0.1


class TestResumeCli:
    """`repro align --checkpoint/--resume` end to end."""

    @pytest.fixture()
    def batch_file(self, tmp_path):
        rng = np.random.default_rng(21)
        alphabet = np.array(list("ACGT"))
        lines = []
        for _ in range(12):
            query = "".join(rng.choice(alphabet, 14))
            reference = "".join(rng.choice(alphabet, 14))
            lines.append(f"{query} {reference}")
        path = tmp_path / "batch.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_cli_kill_then_resume(self, batch_file, tmp_path, capsys):
        from repro.__main__ import main
        ck = str(tmp_path / "ck.json")
        with pytest.raises(InjectedKill):
            main(["align", "--batch", batch_file, "--chaos",
                  "crash=0.2,kill=1", "--checkpoint", ck])
        capsys.readouterr()
        assert not outcome_io.load(ck).complete
        code = main(["align", "--batch", batch_file, "--chaos",
                     "crash=0.2", "--resume", ck])
        capsys.readouterr()
        final = outcome_io.load(ck)
        assert final.complete
        assert code in (0, 3)  # 3 iff chaos left quarantined pairs
        assert (code == 3) == bool(final.outcome.failures)

    def test_cli_resume_digest_mismatch_exits_2(self, batch_file,
                                                tmp_path, capsys):
        from repro.__main__ import main
        ck = str(tmp_path / "ck.json")
        with pytest.raises(InjectedKill):
            main(["align", "--batch", batch_file, "--chaos",
                  "kill=1", "--checkpoint", ck])
        capsys.readouterr()
        other = tmp_path / "other.txt"
        other.write_text("ACGT ACGT\n", encoding="utf-8")
        code = main(["align", "--batch", str(other), "--resume", ck])
        captured = capsys.readouterr()
        assert code == 2
        assert "error:" in captured.err

    def test_cli_resume_requires_batch(self, capsys):
        from repro.__main__ import main
        code = main(["align", "ACGT", "ACGT", "--resume", "x.json"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--batch" in captured.err

    def test_cli_stats_on_checkpoint(self, batch_file, tmp_path,
                                     capsys):
        from repro.__main__ import main
        ck = str(tmp_path / "ck.json")
        with pytest.raises(InjectedKill):
            main(["align", "--batch", batch_file, "--chaos", "kill=1",
                  "--checkpoint", ck])
        capsys.readouterr()
        assert main(["stats", ck]) == 0
        out = capsys.readouterr().out
        assert "smx-outcome/1" in out
        assert "in progress" in out

    def test_cli_stats_malformed_exits_2(self, tmp_path, capsys):
        from repro.__main__ import main
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code = main(["stats", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
