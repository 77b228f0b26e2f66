"""Fleet telemetry end-to-end: tenant-labeled metrics through the
supervised engine and daemon, worker-digest bit-identity, queue-depth
gauges, alert emission, and the fleet snapshot."""

from __future__ import annotations

import copy
import json
import os

import numpy as np
import pytest

from repro import obs
from repro.config import standard_configs
from repro.exec.engine import BatchConfig
from repro.obs.anomaly import AnomalyDetector
from repro.obs.digest import LatencyDigest
from repro.obs import slo as obs_slo
from repro.obs.timeseries import TimeSeriesStore
from repro.resilience import ResilienceConfig, SupervisedEngine
from repro.service import AlignmentDaemon, JobSpec, JobSpool
from tests.conftest import make_pair


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


@pytest.fixture
def config():
    return standard_configs()["dna-gap"]


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def _pairs(config, rng, count=6, n=24):
    return [make_pair(config, n, 0.1, rng) for _ in range(count)]


class TestTenantLabeling:
    def test_engine_labels_parent_side_metrics(self, config, rng):
        ctx = obs.Observability.enabled_context()
        engine = SupervisedEngine(
            config, BatchConfig(workers=1),
            ResilienceConfig(backend="thread"), obs=ctx,
            tenant="acme")
        outcome = engine.run(_pairs(config, rng))
        assert not outcome.failures
        snapshot = ctx.metrics.snapshot()
        assert "resilience.batches{tenant=acme}" in snapshot
        # Thread-mode engine metrics flow through the labeled view too.
        assert any(key.startswith("exec.pairs{")
                   and "tenant=acme" in key for key in snapshot)

    def test_two_tenants_split_series(self, config, rng):
        ctx = obs.Observability.enabled_context()
        for tenant in ("acme", "zeno"):
            SupervisedEngine(
                config, BatchConfig(workers=1),
                ResilienceConfig(backend="thread"), obs=ctx,
                tenant=tenant).run(_pairs(config, rng))
        snapshot = ctx.metrics.snapshot()
        assert snapshot["resilience.batches{tenant=acme}"] == 1
        assert snapshot["resilience.batches{tenant=zeno}"] == 1

    def test_untenanted_engine_unchanged(self, config, rng):
        ctx = obs.Observability.enabled_context()
        SupervisedEngine(config, BatchConfig(workers=1),
                         ResilienceConfig(backend="thread"),
                         obs=ctx).run(_pairs(config, rng))
        assert "resilience.batches" in ctx.metrics.snapshot()


class TestWorkerDigestBitIdentity:
    def test_window_digest_matches_offline_union_of_worker_states(
            self, config, rng):
        """Acceptance: the per-tenant window digest the store seals is
        bit-identical to the offline union of that window's worker
        process digest states."""
        clock = FakeClock(50.0)
        store = TimeSeriesStore(interval_s=1.0, clock=clock)
        ctx = obs.Observability.enabled_context()
        store.tick(ctx.metrics)  # anchor the grid

        engine = SupervisedEngine(
            config, BatchConfig(workers=3),
            ResilienceConfig(backend="process", max_unit_pairs=4),
            obs=ctx, tenant="acme")
        captured: list[dict] = []
        inner_merge = engine.obs.merge_state

        def spy(state, extra_labels=None):
            if state:
                captured.append(copy.deepcopy(state))
            inner_merge(state, extra_labels=extra_labels)

        engine.obs.merge_state = spy
        outcome = engine.run(_pairs(config, rng, count=12))
        assert not outcome.failures
        assert len(captured) == 3  # one state per worker unit

        clock.t += 1.0
        [window] = store.tick(ctx.metrics)
        key = next(k for k in window.digests
                   if k.startswith("exec.pair_latency_us{")
                   and "tenant=acme" in k)

        offline = LatencyDigest()
        worker_key = key.replace(",tenant=acme", "").replace(
            "{tenant=acme", "{").replace("{}", "")
        for state in captured:
            dists = state["metrics"]["distributions"]
            offline.merge_state(dists[worker_key]["digest"])
        assert window.digests[key] == offline.export_state()
        assert offline.count == 12  # every pair accounted for


def _submit(spool, tenant, job_id, config_name="dna-gap", pairs=3):
    spool.submit(JobSpec(job_id=job_id,
                         pairs=[("ACGTACGT", "ACGTTCGT")] * pairs,
                         config=config_name, tenant=tenant,
                         priority=1))


class TestDaemonTelemetry:
    def test_two_tenant_run_produces_per_tenant_windows(self, tmp_path):
        clock = FakeClock(10.0)
        store = TimeSeriesStore(interval_s=1.0, clock=clock)
        spool = JobSpool(str(tmp_path / "spool"))
        stream = obs.events.open_jsonl(str(tmp_path / "events.jsonl"))
        ctx = obs.Observability.enabled_context(events=stream)
        daemon = AlignmentDaemon(
            spool, obs=ctx, telemetry=store,
            telemetry_path=str(tmp_path / "telemetry.json"),
            metrics_path=str(tmp_path / "metrics.prom"))
        for tenant in ("acme", "zeno"):
            for i in range(2):
                _submit(spool, tenant, f"{tenant}-{i}")
        daemon.recover()
        daemon.ingest()
        while daemon.run_next():
            clock.t += 1.0
            daemon.sample_telemetry()
        daemon.sample_telemetry(flush=True)
        stream.close()

        assert daemon.settled == 4
        windows = store.all_windows()
        assert windows
        for tenant in ("acme", "zeno"):
            key = f"service.job_latency_s{{tenant={tenant}}}"
            points = store.series(key, "p99", windows)
            assert points, f"no p99 series for {tenant}"
            stats = next(w.percentiles(key) for w in windows
                         if key in w.digests)
            assert stats["count"] >= 1
            assert stats["p50"] is not None
        # Persisted artifacts exist and the exposition lints clean.
        from repro.obs.export import lint_exposition
        text = open(tmp_path / "metrics.prom").read()
        assert lint_exposition(text) == []
        assert f'tenant="acme"' in text
        doc = json.load(open(tmp_path / "telemetry.json"))
        assert doc["schema"] == "smx-timeseries/1"

    def test_queue_depth_gauges_and_event(self, tmp_path):
        spool = JobSpool(str(tmp_path / "spool"))
        stream = obs.events.open_jsonl(str(tmp_path / "events.jsonl"))
        ctx = obs.Observability.enabled_context(events=stream)
        daemon = AlignmentDaemon(spool, obs=ctx)
        _submit(spool, "acme", "a-0")
        _submit(spool, "acme", "a-1")
        _submit(spool, "zeno", "z-0")
        daemon.ingest()
        snapshot = ctx.metrics.snapshot()
        assert snapshot["service.queue_depth"] == 3
        assert snapshot["service.queue_depth{tenant=acme}"] == 2
        assert snapshot["service.queue_depth{tenant=zeno}"] == 1
        queue_events = ctx.events.of_kind("queue")
        assert queue_events
        assert queue_events[-1]["tenants"] == {"acme": 2, "zeno": 1}
        while daemon.run_next():
            pass
        snapshot = ctx.metrics.snapshot()
        assert snapshot["service.queue_depth"] == 0
        assert snapshot["service.queue_depth{tenant=acme}"] == 0
        stream.close()

    def test_reingest_does_not_duplicate_admitted_jobs(self, tmp_path):
        spool = JobSpool(str(tmp_path / "spool"))
        ctx = obs.Observability.enabled_context()
        daemon = AlignmentDaemon(spool, obs=ctx)
        _submit(spool, "acme", "a-0")
        assert daemon.ingest() == 1
        assert daemon.ingest() == 0  # pending file still there: no dup
        assert len(daemon.picker) == 1

    def test_latency_step_raises_exactly_one_alert_event(self, tmp_path):
        """Acceptance: an injected latency step raises exactly one
        structured alert event, at a deterministic window index."""
        clock = FakeClock(0.0)
        store = TimeSeriesStore(interval_s=1.0, clock=clock)
        detector = AnomalyDetector(
            watch=(("service.job_latency_s", "p99"),), warmup=3)
        spool = JobSpool(str(tmp_path / "spool"))
        stream = obs.events.open_jsonl(str(tmp_path / "events.jsonl"))
        ctx = obs.Observability.enabled_context(events=stream)
        daemon = AlignmentDaemon(spool, obs=ctx, telemetry=store,
                                 detector=detector)
        daemon.sample_telemetry()  # anchors the grid at t=0
        latencies = [0.010] * 10 + [0.800] * 4
        for value in latencies:
            ctx.metrics.distribution("service.job_latency_s",
                                     tenant="acme").observe(value)
            clock.t += 1.0
            daemon.sample_telemetry()
        stream.close()
        alerts = ctx.events.of_kind("alert")
        assert len(alerts) == 1
        [alert] = alerts
        assert alert["window_index"] == 10
        assert alert["tenant"] == "acme"
        assert alert["field"] == "p99"
        assert alert["direction"] == "up"
        assert daemon.alerts == 1


class TestFleetSnapshot:
    def events(self):
        return [
            {"seq": 1, "t": 0.1, "kind": "job_done", "job_id": "a-0",
             "tenant": "acme", "elapsed_s": 0.2},
            {"seq": 2, "t": 0.2, "kind": "job_done", "job_id": "a-1",
             "tenant": "acme", "elapsed_s": 0.4},
            {"seq": 3, "t": 0.3, "kind": "job_failed", "job_id": "z-0",
             "tenant": "zeno", "reason": "ValueError"},
            {"seq": 4, "t": 0.4, "kind": "queue", "depth": 3,
             "tenants": {"acme": 1, "zeno": 2}},
            {"seq": 5, "t": 0.5, "kind": "alert",
             "series": "service.job_latency_s{tenant=acme}",
             "metric_kind": "digest", "field": "p99",
             "window_index": 4, "value": 0.9, "baseline": 0.2,
             "deviation": 9.0, "direction": "up", "tenant": "acme"},
        ]

    def test_snapshot_shape(self):
        snapshot = obs_slo.fleet_snapshot(self.events())
        assert set(snapshot["tenants"]) == {"acme", "zeno"}
        acme = snapshot["tenants"]["acme"]
        assert acme["jobs"] == {"done": 2, "failed": 0, "rejected": 0}
        assert acme["latency"]["count"] == 2
        assert acme["queue_depth"] == 1
        assert acme["alerts"] == 1
        zeno = snapshot["tenants"]["zeno"]
        assert zeno["jobs"]["failed"] == 1
        assert zeno["latency"] is None
        assert snapshot["queue_depth"] == 3
        assert snapshot["alerts"] == 1
        assert len(snapshot["recent_alerts"]) == 1
        # Per-tenant SLO reports evaluate each tenant's own slice.
        [report] = acme["slos"]
        assert report["status"] == "ok"
        [report] = zeno["slos"]
        assert report["status"] == "no-data"

    def test_snapshot_is_json_safe(self):
        json.dumps(obs_slo.fleet_snapshot(self.events()))

    def test_format_fleet_renders_tenants_and_alerts(self):
        text = obs_slo.format_fleet(
            obs_slo.fleet_snapshot(self.events()))
        assert "tenant acme" in text
        assert "tenant zeno" in text
        assert "alert  w4" in text
        assert "queue=3" in text

    def test_empty_stream(self):
        snapshot = obs_slo.fleet_snapshot([])
        assert snapshot["tenants"] == {}
        assert "no tenant activity" in obs_slo.format_fleet(snapshot)

    def test_monitor_renders_queue_and_alerts(self):
        snapshot = obs_slo.monitor_snapshot(self.events())
        assert snapshot["queue_depth"] == 3
        assert snapshot["alerts"] == 1
        text = obs_slo.format_monitor(snapshot)
        assert "queue    depth=3" in text
        assert "acme=1" in text


class TestFleetFollowMode:
    """``repro fleet`` follows a growing file through the same loop as
    ``repro monitor``: one ``EventReader``, every byte parsed once."""

    @staticmethod
    def _line(seq, kind, **fields):
        return json.dumps({"seq": seq, "t": seq / 10, "kind": kind,
                           **fields}) + "\n"

    def _follow(self, monkeypatch, path, chunks, *extra):
        """Run follow mode on ``path``; each tick's sleep appends the
        next of ``chunks`` (the writer racing the reader) and the tick
        after the last one is Ctrl-C. Returns ``(exit code, texts fed
        to the reader)``."""
        from repro.__main__ import main
        from repro.obs.events import EventReader
        fed: list[str] = []
        real_feed = EventReader.feed

        def feed(reader, text, final=False):
            fed.append(text)
            return real_feed(reader, text, final=final)

        pending = list(chunks)

        def sleep(_seconds):
            if not pending:
                raise KeyboardInterrupt
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(pending.pop(0))

        monkeypatch.setattr(EventReader, "feed", feed)
        monkeypatch.setattr("time.sleep", sleep)
        code = main(["fleet", str(path), "--interval", "0", "--json",
                     *extra])
        return code, fed

    def test_growing_file_is_fed_exactly_once(self, tmp_path,
                                              monkeypatch, capsys):
        path = tmp_path / "events.jsonl"
        done = self._line(2, "job_done", tenant="acme", elapsed_s=0.2)
        path.write_text(self._line(1, "job_pending", tenant="acme")
                        + done[:25])  # the writer is mid-line
        chunks = [done[25:] + self._line(3, "job_done", tenant="zeno",
                                         elapsed_s=0.1),
                  "",  # an idle tick: nothing new, nothing printed
                  self._line(4, "job_failed", tenant="zeno")]
        code, fed = self._follow(monkeypatch, path, chunks)
        assert code == 0
        assert "".join(fed) == path.read_text()
        assert len(fed) == 4 and fed[2] == ""
        snapshots = [json.loads(line) for line
                     in capsys.readouterr().out.splitlines()]
        assert [s["events"] for s in snapshots] == [1, 3, 4]
        assert all(s["skipped_lines"] == 0 for s in snapshots)
        assert snapshots[-1]["tenants"]["zeno"]["jobs"] == {
            "done": 1, "failed": 1, "rejected": 0}
        # The last follow snapshot is what --once reads from the file.
        from repro.__main__ import main
        assert main(["fleet", str(path), "--once", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == snapshots[-1]

    def test_interior_garbage_fails_like_monitor(self, tmp_path,
                                                 monkeypatch, capsys):
        from repro.__main__ import main
        path = tmp_path / "events.jsonl"
        path.write_text(self._line(1, "job_pending", tenant="acme")
                        + '{"kind": "job_do\n')
        code, _ = self._follow(
            monkeypatch, path,
            [self._line(3, "job_done", tenant="acme", elapsed_s=0.2)])
        assert code == 2
        captured = capsys.readouterr()
        message = f"error: {path}:2: not a JSON event line"
        assert captured.err.startswith(message)
        # The bad line was the stream's tail on the first tick:
        # tolerated and counted then, corruption once a line follows.
        [first] = [json.loads(line)
                   for line in captured.out.splitlines()]
        assert first["events"] == 1 and first["skipped_lines"] == 1
        for command in ("monitor", "fleet"):
            assert main([command, str(path), "--once"]) == 2
            assert capsys.readouterr().err.startswith(message)

    def test_truncated_tail_is_tolerated_and_counted(self, tmp_path,
                                                     monkeypatch, capsys):
        from repro.__main__ import main
        path = tmp_path / "events.jsonl"
        path.write_text(self._line(1, "job_pending", tenant="acme"))
        tail = self._line(2, "job_done", tenant="acme",
                          elapsed_s=0.2) + '{"kind": "job_do'
        code, fed = self._follow(monkeypatch, path, [tail])
        assert code == 0
        assert "".join(fed) == path.read_text()
        last = json.loads(capsys.readouterr().out.splitlines()[-1])
        # Unterminated, so still held back: its newline may yet come.
        assert last["events"] == 2 and last["skipped_lines"] == 0
        # A final read takes the tail for what it is.
        assert main(["fleet", str(path), "--once", "--json"]) == 0
        once = json.loads(capsys.readouterr().out)
        assert once["events"] == 2 and once["skipped_lines"] == 1
        assert main(["fleet", str(path), "--once", "--strict"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:3:")
