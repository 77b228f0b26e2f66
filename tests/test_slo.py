"""Tests for the SLO layer (repro.obs.slo) and the ``repro monitor``
command: spec parsing, burn-rate arithmetic, windowing, the snapshot
digest, and the CLI on a recorded chaos-run stream."""

import json
import math

import numpy as np
import pytest

from repro.__main__ import main
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLOEvaluator,
    format_monitor,
    monitor_snapshot,
    parse_slo,
)


def _latency_events(kind, values, t0=0.0, dt=1.0):
    return [{"seq": i, "t": t0 + i * dt, "kind": kind, "elapsed_s": v}
            for i, v in enumerate(values)]


class TestParseSlo:
    def test_minimal_spec(self):
        slo = parse_slo("shard_done.elapsed_s:p99<0.25")
        assert slo.kind == "shard_done"
        assert slo.field == "elapsed_s"
        assert slo.percentile == 99.0
        assert slo.target == 0.25
        assert slo.window_s is None
        assert slo.name == "shard_done.elapsed_s"

    def test_named_spec_with_window(self):
        slo = parse_slo("tail=unit_done.elapsed_s:p95<0.5@60")
        assert slo.name == "tail"
        assert slo.percentile == 95.0
        assert slo.window_s == 60.0
        assert "tail" in slo.describe()
        assert "@60s" in slo.describe()

    def test_budget_from_percentile(self):
        assert parse_slo("a.b:p99<1").budget == pytest.approx(0.01)
        assert parse_slo("a.b:p50<1").budget == pytest.approx(0.5)

    @pytest.mark.parametrize("spec", [
        "",                              # empty
        "nonsense",                      # no structure
        "shard_done:p99<0.25",           # missing .FIELD
        "shard_done.elapsed_s:99<0.25",  # missing the p
        "shard_done.elapsed_s:p99>0.25", # only < is a promise
        "shard_done.elapsed_s:p99<",     # no target
        "a.b:p99<0.25@",                 # dangling window
    ])
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(ValueError, match="spec|grammar|expected"):
            parse_slo(spec)

    @pytest.mark.parametrize("spec", [
        "a.b:p0<1",       # percentile must be in (0, 100)
        "a.b:p100<1",
        "a.b:p99<0",      # target must be positive
        "a.b:p99<1@0",    # window must be positive
    ])
    def test_out_of_range_numbers_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_slo(spec)

    def test_defaults_are_valid(self):
        assert len(DEFAULT_SLOS) == 2
        assert {slo.kind for slo in DEFAULT_SLOS} == \
            {"shard_done", "unit_done"}


class TestEvaluator:
    def test_no_data_status(self):
        reports = SLOEvaluator((parse_slo("a.b:p99<1"),)).evaluate([])
        assert reports[0]["status"] == "no-data"
        assert reports[0]["achieved"] is None
        assert reports[0]["burn_rate"] is None

    def test_ok_when_percentile_under_target(self):
        events = _latency_events("shard_done", [0.1] * 10)
        slo = parse_slo("shard_done.elapsed_s:p90<1.0")
        report = SLOEvaluator((slo,)).evaluate(events)[0]
        assert report["status"] == "ok"
        assert report["achieved"] == pytest.approx(0.1)
        assert report["breaches"] == 0
        assert report["burn_rate"] == 0.0

    def test_burn_rate_is_breach_fraction_over_budget(self):
        # p90 tolerates 10% of samples over target; 3 of 10 over
        # target burns budget at 3x the sustainable rate.
        events = _latency_events("shard_done", [0.1] * 7 + [5.0] * 3)
        slo = parse_slo("shard_done.elapsed_s:p90<1.0")
        report = SLOEvaluator((slo,)).evaluate(events)[0]
        assert report["status"] == "breach"
        assert report["breaches"] == 3
        assert report["breach_fraction"] == pytest.approx(0.3)
        assert report["burn_rate"] == pytest.approx(3.0)

    def test_break_even_burn_rate(self):
        # Exactly the budgeted breach fraction: burn rate 1.0 but the
        # achieved percentile (type-1, lower) still meets the target.
        events = _latency_events("shard_done", [0.1] * 9 + [5.0])
        slo = parse_slo("shard_done.elapsed_s:p90<1.0")
        report = SLOEvaluator((slo,)).evaluate(events)[0]
        assert report["burn_rate"] == pytest.approx(1.0)
        assert report["status"] == "ok"

    def test_window_excludes_old_samples(self):
        # 0..9s spaced 1s apart; only the last ~3 fall in a 2.5s
        # window ending at the stream's latest timestamp.
        values = [9.0] * 7 + [0.1] * 3
        events = _latency_events("shard_done", values)
        slo = parse_slo("shard_done.elapsed_s:p99<1.0@2.5")
        report = SLOEvaluator((slo,)).evaluate(events)[0]
        assert report["samples"] == 3
        assert report["status"] == "ok"
        unwindowed = parse_slo("shard_done.elapsed_s:p99<1.0")
        report = SLOEvaluator((unwindowed,)).evaluate(events)[0]
        assert report["samples"] == 10
        assert report["status"] == "breach"

    def test_non_numeric_fields_ignored(self):
        events = [{"t": 0.0, "kind": "shard_done", "elapsed_s": "slow"},
                  {"t": 1.0, "kind": "shard_done", "elapsed_s": True},
                  {"t": 2.0, "kind": "shard_done", "elapsed_s": 0.2}]
        slo = parse_slo("shard_done.elapsed_s:p99<1.0")
        report = SLOEvaluator((slo,)).evaluate(events)[0]
        assert report["samples"] == 1


class TestMonitorSnapshot:
    def _stream(self):
        return [
            {"seq": 0, "t": 0.0, "kind": "run_start", "pairs": 8,
             "run_id": "cafe0123", "backend": "thread"},
            {"seq": 1, "t": 0.1, "kind": "plan", "pairs": 8,
             "vector": 6, "wavefront": 2},
            {"seq": 2, "t": 0.5, "kind": "shard_done", "elapsed_s": 0.4},
            {"seq": 3, "t": 0.6, "kind": "fault", "fault": "crash"},
            {"seq": 4, "t": 0.7, "kind": "retry", "index": 1},
            {"seq": 5, "t": 0.8, "kind": "bisect", "pairs": 4},
            {"seq": 6, "t": 0.9, "kind": "unit_done", "elapsed_s": 0.1,
             "pairs": 4},
            {"seq": 7, "t": 1.0, "kind": "quarantine", "index": 3},
            {"seq": 8, "t": 1.1, "kind": "shed", "pairs": 2},
            {"seq": 9, "t": 1.2, "kind": "heartbeat", "done": 5,
             "total": 8, "failures": 1, "queued": 0},
        ]

    def test_snapshot_fields(self):
        snapshot = monitor_snapshot(self._stream(), window_s=None)
        assert snapshot["run_id"] == "cafe0123"
        assert snapshot["backend"] == "thread"
        assert snapshot["done"] == 5 and snapshot["total"] == 8
        assert snapshot["failures"] == 1
        assert snapshot["routes"] == {"vector": 6, "wavefront": 2}
        assert snapshot["latencies"]["shard_done"]["p50"] == \
            pytest.approx(0.4)
        assert snapshot["latencies"]["unit_done"]["count"] == 1
        assert snapshot["faults"] == {"crash": 1}
        assert snapshot["retries"] == 1
        assert snapshot["bisections"] == 1
        assert snapshot["shed_pairs"] == 2
        assert snapshot["quarantined"] == 1
        assert snapshot["ended"] is False

    def test_run_end_marks_ended(self):
        events = self._stream() + [{"seq": 10, "t": 1.3,
                                    "kind": "run_end", "failures": 1}]
        assert monitor_snapshot(events)["ended"] is True

    def test_empty_stream(self):
        snapshot = monitor_snapshot([])
        assert snapshot["events"] == 0
        assert snapshot["ended"] is False
        assert snapshot["latencies"] == {}
        # Still renders without crashing.
        assert "running" in format_monitor(snapshot)

    def test_format_monitor_panel(self):
        slos = (parse_slo("shard_done.elapsed_s:p50<1.0"),
                parse_slo("hot=shard_done.elapsed_s:p50<0.01"),
                parse_slo("cold=batch_end.elapsed_s:p50<1.0"))
        snapshot = monitor_snapshot(self._stream(), objectives=slos,
                                    window_s=None)
        panel = format_monitor(snapshot)
        assert "run cafe0123 [thread] running" in panel
        assert "progress 5/8" in panel
        assert "vector=6" in panel and "wavefront=2" in panel
        assert "shard_done" in panel and "p99=" in panel
        assert "health" in panel and "crash=1" in panel
        assert "shed_pairs=2" in panel
        assert "slo OK " in panel   # under target
        assert "slo !! hot" in panel  # breached
        assert "slo -- cold" in panel  # no batch_end data
        assert "burn=" in panel

    def test_truncated_lines_reported(self):
        panel = format_monitor(monitor_snapshot(self._stream(),
                                                skipped=2))
        assert "2 truncated line(s) skipped" in panel


def _pairs(count, length=24, seed=11):
    rng = np.random.default_rng(seed)
    return [(rng.integers(0, 4, length, dtype=np.uint8),
             rng.integers(0, 4, length, dtype=np.uint8))
            for _ in range(count)]


@pytest.fixture(scope="module")
def chaos_events_file(tmp_path_factory):
    """A recorded supervised chaos run's events.jsonl."""
    from repro.config import dna_edit_config
    from repro.exec.engine import BatchConfig
    from repro.obs import Observability
    from repro.obs.events import open_jsonl
    from repro.resilience import (
        ChaosPlan,
        ResilienceConfig,
        SupervisedEngine,
    )

    path = tmp_path_factory.mktemp("slo") / "events.jsonl"
    stream = open_jsonl(str(path))
    ctx = Observability.enabled_context(events=stream)
    policy = ResilienceConfig(backend="thread", backoff_base_s=0.0,
                              validate=True)
    plan = ChaosPlan(crash=0.2, seed=3)
    SupervisedEngine(dna_edit_config(), BatchConfig(workers=2), policy,
                     obs=ctx, plan=plan).run(_pairs(12))
    stream.close()
    return str(path)


class TestMonitorCli:
    def test_once_renders_snapshot(self, chaos_events_file, capsys):
        assert main(["monitor", chaos_events_file, "--once"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("run ")
        assert "[thread] ended" in out
        assert "slo " in out

    def test_follow_exits_at_run_end(self, chaos_events_file, capsys):
        # The recorded stream already holds run_end, so follow mode
        # renders one panel and returns.
        assert main(["monitor", chaos_events_file,
                     "--interval", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "ended" in out
        assert out.rstrip().endswith("---")

    def test_custom_slo_breach_is_flagged(self, chaos_events_file,
                                          capsys):
        # Nothing real finishes in under a nanosecond. (unit_done, not
        # shard_done: with chaos on, recovery units do the finishing.)
        assert main(["monitor", chaos_events_file, "--once",
                     "--no-default-slos",
                     "--slo", "hot=unit_done.elapsed_s:p50<1e-9"]) == 0
        out = capsys.readouterr().out
        assert "slo !! hot" in out
        assert "burn=" in out

    def test_bad_slo_spec_exits_2(self, chaos_events_file, capsys):
        assert main(["monitor", chaos_events_file, "--once",
                     "--slo", "not-a-spec"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_file_exits_2(self, capsys):
        assert main(["monitor", "/nonexistent/events.jsonl",
                     "--once"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_truncated_tail_tolerated_once(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "run_start", "t": 0.0, "pairs": 2}\n'
                        '{"kind": "run_e')
        assert main(["monitor", str(path), "--once"]) == 0
        assert "1 truncated line(s) skipped" in capsys.readouterr().out
        assert main(["monitor", str(path), "--once", "--strict"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_follow_skips_garbage_line(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "run_start", "t": 0.0, "pairs": 1}\n'
                        '{"kind": "run_end", "t": 0.5, "failures": 0}\n'
                        "{garbage\n")
        assert main(["monitor", str(path), "--interval", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "1 truncated line(s) skipped" in out

    def test_follow_and_once_agree_on_interior_garbage(self, tmp_path,
                                                       capsys):
        """A cut line *followed by* a good one is corruption in both modes."""
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "run_start", "t": 0.0, "pairs": 1}\n'
                        '{"kind": "progress", "t": 0.2, "done\n'
                        '{"kind": "run_end", "t": 0.5, "failures": 0}\n')
        for mode in (["--once"], ["--interval", "0.01"]):
            assert main(["monitor", str(path), *mode]) == 2
            assert capsys.readouterr().err.startswith(
                f"error: {path}:2: not a JSON event line")

    def test_follow_strict_rejects_garbage_line(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        path.write_text("{garbage\n"
                        '{"kind": "run_end", "t": 0.5}\n')
        assert main(["monitor", str(path), "--interval", "0.01",
                     "--strict"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_slo_burn_rates_on_recorded_stream(self, chaos_events_file):
        """The recorded chaos stream yields finite, self-consistent
        burn-rate arithmetic end to end."""
        from repro.obs.events import read_jsonl
        events = read_jsonl(chaos_events_file)
        kinds = {e["kind"] for e in events}
        assert "fault" in kinds  # the chaos plan actually fired
        reports = SLOEvaluator(DEFAULT_SLOS).evaluate(events)
        by_name = {r["name"]: r for r in reports}
        for report in by_name.values():
            if report["status"] == "no-data":
                continue
            assert report["burn_rate"] == pytest.approx(
                report["breach_fraction"] / report["budget"])
            assert math.isfinite(report["achieved"])
