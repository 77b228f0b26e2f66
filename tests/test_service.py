"""Service layer: protocol, spool, admission, fair pick, daemon.

The contracts under test, by layer:

* **protocol** -- ``smx-job/1`` rejects every malformed shape with one
  actionable ``ValueError``; well-formed jobs round-trip exactly.
* **spool** -- all transitions are atomic renames: a lease race has
  exactly one winner; a killed daemon's job is visible as an orphan.
* **admission** -- jobs whose predicted cost cannot meet their
  declared deadline are rejected *before any shard starts*, with a
  structured record carrying the prediction; queue-depth and backlog
  caps likewise reject at the boundary, never mid-run.
* **fair pick** -- the stride scheduler serves tenants in proportion
  to priority and never starves a lane.
* **daemon** -- an enqueued job's settled outcome is bit-identical to
  running the supervised engine directly; a daemon SIGKILL'd mid-job
  (chaos ``kill_at_unit``) auto-resumes on restart to the same
  document; ``job_rejected`` events are exactly-once and reconcile
  with the rejected records and the ``service.jobs`` counter.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import obs
from repro.config import standard_configs
from repro.exec.engine import BatchConfig
from repro.obs.prof import CostModel
from repro.resilience import (
    ChaosPlan,
    InjectedKill,
    ResilienceConfig,
    SupervisedEngine,
    outcome_io,
)
from repro.service import (
    AdmissionController,
    AdmissionPolicy,
    AlignmentDaemon,
    FairPicker,
    JobRejected,
    JobSpec,
    JobSpool,
    protocol,
)

#: Pessimistic pricing: ~1 s per DP cell makes any deadline hopeless.
SLOW = CostModel(seconds_per_cell=1.0)
#: Optimistic pricing: everything looks free.
FAST = CostModel(seconds_per_cell=1e-12)


def _job(job_id="job-1", n_pairs=3, length=8, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    alphabet = np.array(list("ACGT"))
    pairs = [("".join(rng.choice(alphabet, length)),
              "".join(rng.choice(alphabet, length)))
             for _ in range(n_pairs)]
    return JobSpec(job_id=job_id, pairs=pairs, **kwargs)


@pytest.fixture()
def spool(tmp_path):
    return JobSpool(str(tmp_path / "spool"))


@pytest.fixture()
def ctx():
    return obs.Observability.enabled_context(events=obs.EventStream())


class TestProtocol:
    def test_roundtrip(self):
        job = _job(tenant="alice", priority=3, deadline_s=9.5,
                   workers=2, engine="scalar")
        again = protocol.job_from_dict(protocol.job_to_dict(job))
        assert again == job

    def test_dump_load_file(self, tmp_path):
        job = _job()
        path = str(tmp_path / "job.json")
        protocol.dump_job(path, job)
        assert protocol.load_job(path) == job

    @pytest.mark.parametrize("mutation,needle", [
        ({"schema": "smx-job/2"}, "schema"),
        ({"job_id": ""}, "job_id"),
        ({"pairs": []}, "pairs"),
        ({"pairs": [["ACGT"]]}, "pairs[0]"),
        ({"pairs": [["ACGT", ""]]}, "pairs[0]"),
        ({"engine": "quantum"}, "engine"),
        ({"priority": 0}, "priority"),
        ({"deadline_s": -1}, "deadline_s"),
        ({"workers": 0}, "workers"),
    ])
    def test_malformed_rejected(self, mutation, needle):
        document = protocol.job_to_dict(_job())
        document.update(mutation)
        with pytest.raises(ValueError, match=needle.replace("[", "\\[")):
            protocol.job_from_dict(document)

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text("{oops", encoding="utf-8")
        with pytest.raises(ValueError, match="not valid JSON"):
            protocol.load_job(str(path))

    def test_new_job_ids_unique(self):
        ids = {protocol.new_job_id() for _ in range(64)}
        assert len(ids) == 64


class TestSpool:
    def test_submit_then_lease(self, spool):
        spool.submit(_job("job-a"))
        pending = spool.pending_jobs()
        assert [os.path.basename(p) for p in pending] == ["job-a.json"]
        running = spool.lease(pending[0])
        assert running and "/running/" in running
        assert spool.pending_jobs() == []
        assert spool.orphaned() == [running]

    def test_lease_race_single_winner(self, spool):
        spool.submit(_job("job-a"))
        [pending] = spool.pending_jobs()
        first = spool.lease(pending)
        second = spool.lease(pending)
        assert first is not None and second is None

    def test_complete_moves_checkpoint_and_job(self, spool):
        spool.submit(_job("job-a"))
        running = spool.lease(spool.pending_jobs()[0])
        outcome_io.write(spool.checkpoint_path("job-a"),
                         {"schema": outcome_io.SCHEMA, "pairs": 0})
        spool.complete(running, "job-a")
        assert spool.orphaned() == []
        assert os.path.exists(spool.outcome_path("job-a"))

    def test_orphans_exclude_checkpoints(self, spool):
        spool.submit(_job("job-a"))
        running = spool.lease(spool.pending_jobs()[0])
        outcome_io.write(spool.checkpoint_path("job-a"),
                         {"schema": outcome_io.SCHEMA, "pairs": 0})
        assert spool.orphaned() == [running]

    def test_depth_counts_pending_only(self, spool):
        for i in range(3):
            spool.submit(_job(f"job-{i}"))
        assert spool.depth() == 3
        spool.lease(spool.pending_jobs()[0])
        assert spool.depth() == 2


class TestAdmission:
    def test_accepts_within_budget(self):
        controller = AdmissionController(cost_model=FAST)
        job = _job(deadline_s=10.0)
        assert controller.decide(job, queue_depth=0,
                                 backlog_s=0.0) is None

    def test_rejects_hopeless_deadline(self):
        controller = AdmissionController(cost_model=SLOW)
        verdict = controller.decide(_job(deadline_s=1.0),
                                    queue_depth=0, backlog_s=0.0)
        assert isinstance(verdict, JobRejected)
        assert verdict.reason == "deadline"
        assert verdict.predicted_s > 1.0

    def test_backlog_counts_against_deadline(self):
        controller = AdmissionController(cost_model=FAST)
        verdict = controller.decide(_job(deadline_s=5.0),
                                    queue_depth=1, backlog_s=100.0)
        assert verdict is not None and verdict.reason == "deadline"

    def test_safety_factor_is_pessimistic(self):
        lax = AdmissionController(AdmissionPolicy(safety=1.0),
                                  cost_model=FAST)
        strict = AdmissionController(AdmissionPolicy(safety=1000.0),
                                     cost_model=FAST)
        job = _job(deadline_s=1.0)
        assert lax.decide(job, queue_depth=0, backlog_s=0.9) is None
        verdict = strict.decide(job, queue_depth=0, backlog_s=0.9)
        assert verdict is not None and verdict.reason == "deadline"

    def test_rejects_on_queue_depth(self):
        controller = AdmissionController(
            AdmissionPolicy(max_queue_depth=2), cost_model=FAST)
        verdict = controller.decide(_job(), queue_depth=2,
                                    backlog_s=0.0)
        assert verdict is not None and verdict.reason == "queue-full"

    def test_rejects_on_backlog_cap(self):
        controller = AdmissionController(
            AdmissionPolicy(max_backlog_s=0.5), cost_model=SLOW)
        verdict = controller.decide(_job(), queue_depth=0,
                                    backlog_s=0.4)
        assert verdict is not None and verdict.reason == "backlog"

    def test_no_deadline_always_fits_time(self):
        controller = AdmissionController(cost_model=SLOW)
        assert controller.decide(_job(), queue_depth=0,
                                 backlog_s=1e9) is None


class TestFairPicker:
    def test_fifo_within_one_tenant(self):
        picker = FairPicker()
        for item in "abc":
            picker.add("t", 1, item)
        assert [picker.pop()[1] for _ in range(3)] == ["a", "b", "c"]

    def test_priority_proportional_service(self):
        picker = FairPicker()
        for i in range(30):
            picker.add("heavy", 3, f"h{i}")
            picker.add("light", 1, f"l{i}")
        served = [picker.pop()[0] for _ in range(20)]
        assert served.count("heavy") == 15
        assert served.count("light") == 5

    def test_burst_cannot_starve_quiet_tenant(self):
        picker = FairPicker()
        for i in range(100):
            picker.add("burst", 1, f"b{i}")
        for _ in range(10):
            picker.pop()
        picker.add("quiet", 1, "q0")  # joins at current virtual time
        served = [picker.pop()[0] for _ in range(3)]
        assert "quiet" in served

    def test_empty_pop_returns_none(self):
        assert FairPicker().pop() is None
        picker = FairPicker()
        picker.add("t", 1, "a")
        picker.pop()
        assert picker.pop() is None


def _daemon(spool, ctx, **kwargs):
    kwargs.setdefault("max_unit_pairs", 2)
    kwargs.setdefault("cost_model", FAST)
    return AlignmentDaemon(spool, obs=ctx, **kwargs)


def _reference_document(job):
    config = standard_configs()[job.config]
    encoded = [(config.encode(q), config.encode(r))
               for q, r in job.pairs]
    outcome = SupervisedEngine(
        config, BatchConfig(engine=job.engine, workers=job.workers),
        ResilienceConfig(max_unit_pairs=2)).run(encoded)
    return outcome_io.to_document(outcome, pairs=len(encoded))


class TestDaemon:
    def test_outcome_matches_direct_engine(self, spool, ctx):
        job = _job("job-a", n_pairs=5)
        spool.submit(job)
        settled = _daemon(spool, ctx).serve(max_jobs=1,
                                            idle_exit_s=0.05,
                                            poll_s=0.01)
        assert settled == 1
        final = outcome_io.load_document(spool.outcome_path("job-a"))
        reference = _reference_document(job)
        for key in ("results", "failures", "counters", "degraded",
                    "completed"):
            assert final[key] == reference[key], key
        assert [e["kind"] for e in ctx.events.events
                if e["kind"].startswith("job_")] == \
            ["job_pending", "job_start", "job_done"]

    def test_rejection_exactly_once_reconciles(self, spool, ctx):
        spool.submit(_job("job-ok", deadline_s=None))
        spool.submit(_job("job-late", deadline_s=0.001))
        daemon = _daemon(spool, ctx, cost_model=SLOW)
        daemon.serve(max_jobs=1, idle_exit_s=0.05, poll_s=0.01)
        rejected_events = ctx.events.of_kind("job_rejected")
        assert len(rejected_events) == 1
        [event] = rejected_events
        assert event["job_id"] == "job-late"
        assert event["reason"] == "deadline"
        assert event["predicted_s"] > 0.001
        done = os.listdir(os.path.join(spool.root, "done"))
        assert "job-late.rejected.json" in done
        assert "job-late.outcome.json" not in done
        # The rejected job never started a shard: the only job_start
        # (and hence every shard_start) belongs to the accepted job.
        starts = ctx.events.of_kind("job_start")
        assert [e["job_id"] for e in starts] == ["job-ok"]
        shard_starts = ctx.events.of_kind("shard_start")
        assert shard_starts, "accepted job should have run shards"
        snapshot = ctx.metrics.snapshot()
        rejected_counter = sum(
            value for key, value in snapshot.items()
            if key.startswith("service.jobs")
            and "rejected" in key)
        assert rejected_counter == 1

    def test_bad_config_rejected_at_admission(self, spool, ctx):
        job = _job("job-bad")
        document = protocol.job_to_dict(job)
        document["config"] = "no-such-config"
        spool.submit(job)  # placeholder write, then corrupt it
        from repro.core.atomicio import atomic_write_json
        atomic_write_json(spool.pending_jobs()[0], document,
                          sort_keys=True)
        daemon = _daemon(spool, ctx)
        daemon.serve(max_jobs=1, idle_exit_s=0.05, poll_s=0.01)
        [event] = ctx.events.of_kind("job_rejected")
        assert event["reason"] == "bad-config"
        assert ctx.events.of_kind("job_start") == []

    def test_malformed_job_file_settles_daemon_continues(self, spool,
                                                         ctx):
        pending_dir = os.path.join(spool.root, "pending")
        with open(os.path.join(pending_dir, "job-junk.json"), "w",
                  encoding="utf-8") as handle:
            handle.write("{truncated")
        spool.submit(_job("job-good"))
        daemon = _daemon(spool, ctx)
        daemon.serve(max_jobs=1, idle_exit_s=0.05, poll_s=0.01)
        done = os.listdir(os.path.join(spool.root, "done"))
        assert "job-junk.rejected.json" in done
        assert "job-good.outcome.json" in done

    def test_weighted_fair_service_order(self, spool, ctx):
        for i in range(2):
            spool.submit(_job(f"job-h{i}", tenant="heavy", priority=2,
                              seed=i))
            spool.submit(_job(f"job-l{i}", tenant="light", priority=1,
                              seed=10 + i))
        daemon = _daemon(spool, ctx)
        daemon.serve(max_jobs=4, idle_exit_s=0.2, poll_s=0.01)
        starts = [e["tenant"] for e in ctx.events.of_kind("job_start")]
        # Stride order: heavy, light, heavy (pass 1.0), light.
        assert starts == ["heavy", "light", "heavy", "light"]

    def test_kill_mid_job_then_restart_resumes_bit_identical(
            self, spool, ctx):
        job = _job("job-a", n_pairs=8, length=10)
        spool.submit(job)
        killer = _daemon(spool, ctx,
                         plan=ChaosPlan(kill_at_unit=2))
        with pytest.raises(InjectedKill):
            killer.serve(max_jobs=1, idle_exit_s=0.05, poll_s=0.01)
        # The job is stranded in running/ with a partial checkpoint.
        assert spool.orphaned() != []
        partial = outcome_io.load(spool.checkpoint_path("job-a"))
        assert not partial.complete
        assert 0 < partial.outcome.completed() < len(job.pairs)

        ctx2 = obs.Observability.enabled_context(
            events=obs.EventStream())
        survivor = _daemon(spool, ctx2)
        settled = survivor.serve(max_jobs=1, idle_exit_s=0.05,
                                 poll_s=0.01)
        assert settled == 1
        [start] = ctx2.events.of_kind("job_start")
        assert start["resumed"] is True
        final = outcome_io.load_document(spool.outcome_path("job-a"))
        reference = _reference_document(job)
        for key in ("results", "failures", "counters", "degraded"):
            assert final[key] == reference[key], key

    def test_recover_reprices_backlog(self, spool, ctx):
        spool.submit(_job("job-a"))
        spool.lease(spool.pending_jobs()[0])
        daemon = _daemon(spool, ctx)
        assert daemon.recover() == ["job-a"]
        assert len(daemon.picker) == 1
        [event] = ctx.events.of_kind("job_pending")
        assert event["recovered"] is True


def _running(spool):
    return sorted(os.listdir(os.path.join(spool.root, "running")))


class TestServePathTax:
    """ISSUE 23: ingest parses a file once; settling empties running/."""

    def test_ingest_parses_each_pending_file_once(self, spool, ctx,
                                                  monkeypatch):
        for i in range(40):
            spool.submit(_job(f"job-{i:02d}", n_pairs=1, seed=i))
        parsed = []
        load_job = protocol.load_job
        monkeypatch.setattr(protocol, "load_job", lambda path: (
            parsed.append(path), load_job(path))[1])
        daemon = _daemon(spool, ctx,
                         policy=AdmissionPolicy(max_queue_depth=64))
        assert daemon.serve(max_jobs=40, idle_exit_s=0.05,
                            poll_s=0.01) == 40
        assert len(parsed) == 40  # was ~800: every file, every loop

    def test_new_submission_under_a_settled_id_is_admitted(self, spool,
                                                           ctx):
        daemon = _daemon(spool, ctx)
        spool.submit(_job("job-a", seed=1))
        assert daemon.serve(max_jobs=1, idle_exit_s=0.05,
                            poll_s=0.01) == 1
        again = _job("job-a", n_pairs=4, seed=2)
        spool.submit(again)
        assert daemon.serve(max_jobs=2, idle_exit_s=0.05,
                            poll_s=0.01) == 2
        final = outcome_io.load_document(spool.outcome_path("job-a"))
        assert final["pairs"] == len(again.pairs)

    def test_settling_leaves_nothing_in_running(self, spool, ctx):
        # Completed.
        spool.submit(_job("job-done", n_pairs=6))
        _daemon(spool, ctx).serve(max_jobs=1, idle_exit_s=0.05,
                                  poll_s=0.01)
        assert _running(spool) == []
        # Killed: job file, base and a journal -- never an orphan.
        job = _job("job-a", n_pairs=8, length=10)
        spool.submit(job)
        with pytest.raises(InjectedKill):
            _daemon(spool, ctx, plan=ChaosPlan(kill_at_unit=2)).serve(
                max_jobs=1, idle_exit_s=0.05, poll_s=0.01)
        assert _running(spool) == ["job-a.json", "job-a.outcome.json",
                                   "job-a.outcome.json.journal"]
        assert [os.path.basename(p) for p in spool.orphaned()] == \
            ["job-a.json"]
        stranded = {name: open(os.path.join(spool.root, "running", name),
                               "rb").read() for name in _running(spool)}
        # ... then resumed.
        assert _daemon(spool, ctx).serve(max_jobs=1, idle_exit_s=0.05,
                                         poll_s=0.01) == 1
        assert _running(spool) == []
        # Failed: the same stranded files under a job they do not fit.
        for name, data in stranded.items():
            with open(os.path.join(spool.root, "running", name),
                      "wb") as handle:
                handle.write(data)
        from repro.core.atomicio import atomic_write_json
        atomic_write_json(
            os.path.join(spool.root, "running", "job-a.json"),
            protocol.job_to_dict(_job("job-a", n_pairs=8, length=10,
                                      seed=9)), sort_keys=True)
        ctx2 = obs.Observability.enabled_context(
            events=obs.EventStream())
        _daemon(spool, ctx2).serve(max_jobs=1, idle_exit_s=0.05,
                                   poll_s=0.01)
        [failed] = ctx2.events.of_kind("job_failed")
        assert failed["reason"] == "ConfigurationError"
        assert _running(spool) == []

    def test_unreadable_checkpoint_is_dropped_with_its_journal(
            self, spool, ctx):
        job = _job("job-a", n_pairs=8, length=10)
        spool.submit(job)
        with pytest.raises(InjectedKill):
            _daemon(spool, ctx, plan=ChaosPlan(kill_at_unit=2)).serve(
                max_jobs=1, idle_exit_s=0.05, poll_s=0.01)
        with open(spool.checkpoint_path("job-a"), "w",
                  encoding="utf-8") as handle:
            handle.write("{torn")
        ctx2 = obs.Observability.enabled_context(
            events=obs.EventStream())
        assert _daemon(spool, ctx2).serve(max_jobs=1, idle_exit_s=0.05,
                                          poll_s=0.01) == 1
        [start] = ctx2.events.of_kind("job_start")
        assert start["resumed"] is False
        assert _running(spool) == []
        final = outcome_io.load_document(spool.outcome_path("job-a"))
        assert final["results"] == _reference_document(job)["results"]
