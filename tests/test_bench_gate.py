"""Tests for the benchmark-history regression gate (repro.obs.bench
and the ``repro bench`` CLI)."""

import json

import pytest

from repro.__main__ import main
from repro.obs import bench


def _record(metrics, quick=True):
    return {"created": "2026-01-01T00:00:00+00:00", "git_sha": None,
            "quick": quick, "params": {}, "metrics": dict(metrics)}


BASE = {"kernel.linear.dna.cups": 1e8,
        "kernel.affine.dna.cups": 4e7,
        "kernel.linear.narrow.speedup": 2.0}


def _history(values=(1.0, 1.05, 0.95, 1.02)):
    return {"schema": bench.HISTORY_SCHEMA,
            "records": [_record({k: v * scale for k, v in BASE.items()})
                        for scale in values]}


class TestCheck:
    def test_fresh_metric_is_new(self):
        rows = bench.check(_record(BASE), {"records": []})
        assert {row["status"] for row in rows} == {"new"}

    def test_baseline_value_passes(self):
        rows = bench.check(_record(BASE), _history())
        assert {row["status"] for row in rows} == {"ok"}

    def test_twenty_percent_slowdown_fails_default_tolerance(self):
        slow = _record({k: 0.74 * v for k, v in BASE.items()})
        rows = bench.check(slow, _history())
        assert {row["status"] for row in rows} == {"regression"}

    def test_slowdown_within_tolerance_passes(self):
        slow = _record({k: 0.80 * v for k, v in BASE.items()})
        rows = bench.check(slow, _history())
        assert {row["status"] for row in rows} == {"ok"}
        rows = bench.check(slow, _history(), tolerance=0.1)
        assert {row["status"] for row in rows} == {"regression"}

    def test_baseline_is_trailing_median(self):
        history = _history(values=(1.0, 1.0, 10.0, 1.0, 1.0, 1.0))
        rows = bench.check(_record(BASE), history, window=5)
        row = next(r for r in rows
                   if r["metric"] == "kernel.linear.dna.cups")
        # Median of the last five scales (1, 10, 1, 1, 1) is 1.0.
        assert row["baseline"] == pytest.approx(1e8)
        assert row["status"] == "ok"

    def test_relative_only_gates_speedups(self):
        slow = _record({"kernel.linear.dna.cups": 1.0,  # way down
                        "kernel.linear.narrow.speedup": 2.0})
        rows = bench.check(slow, _history(), relative_only=True)
        assert [row["metric"] for row in rows] == \
            ["kernel.linear.narrow.speedup"]
        assert rows[0]["status"] == "ok"

    def test_cost_metrics_regress_upwards(self):
        """``*.us_per_pair`` is a cost: halving it is a gain the gate
        must not flag, a rise past ``baseline / (1 - tolerance)`` is
        the regression, and shared CI never gates it."""
        metric = "engine.cigar.short.us_per_pair"
        history = {"records": [_record({metric: 100.0 * scale})
                               for scale in (1.0, 1.05, 0.95)]}
        [faster] = bench.check(_record({metric: 50.0}), history)
        assert (faster["status"], faster["ratio"]) == ("ok", 2.0)
        [slower] = bench.check(_record({metric: 134.0}), history)
        assert slower["status"] == "regression"
        assert slower["threshold"] == pytest.approx(100.0 / 0.75)
        [within] = bench.check(_record({metric: 130.0}), history)
        assert within["status"] == "ok"
        assert bench.check(_record({metric: 1e9}), history,
                           relative_only=True) == []

    def test_format_check_renders_table(self):
        text = bench.format_check(bench.check(_record(BASE), _history()))
        assert "kernel.linear.dna.cups" in text
        assert "ok" in text
        assert bench.format_check([]) == "(no metrics to check)"

    def test_rows_carry_the_gate_threshold(self):
        rows = bench.check(_record(BASE), _history(), tolerance=0.25)
        for row in rows:
            assert row["threshold"] == \
                pytest.approx(0.75 * row["baseline"])
        fresh = bench.check(_record(BASE), {"records": []})
        assert all(row["threshold"] is None for row in fresh)

    def test_format_regressions_names_each_culprit(self):
        slow = _record({k: 0.5 * v for k, v in BASE.items()})
        text = bench.format_regressions(bench.check(slow, _history()))
        lines = text.splitlines()
        assert len(lines) == len(BASE)
        for line in lines:
            assert line.startswith("regressed: ")
            assert "baseline median" in line
            assert "threshold" in line
            assert "% below baseline" in line
        # The arithmetic in the message matches the gate's.
        cups = next(l for l in lines if "kernel.linear.dna.cups" in l)
        assert "5e+07" in cups           # value: 0.5 * 1e8
        assert "50.5% below baseline" in cups  # vs median scale 1.01

    def test_format_regressions_empty_without_regressions(self):
        assert bench.format_regressions(
            bench.check(_record(BASE), _history())) == ""


class TestHistoryFile:
    def test_load_initialises_missing_file(self, tmp_path):
        history = bench.load_history(str(tmp_path / "none.json"))
        assert history == {"schema": bench.HISTORY_SCHEMA, "records": []}

    def test_append_round_trip(self, tmp_path):
        path = str(tmp_path / "hist.json")
        bench.append_record(path, _record(BASE))
        bench.append_record(path, _record(BASE))
        history = bench.load_history(path)
        assert len(history["records"]) == 2
        assert history["schema"] == bench.HISTORY_SCHEMA

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"schema": "something-else/1"}')
        with pytest.raises(ValueError, match="not a benchmark history"):
            bench.load_history(str(path))

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            bench.load_history(str(path))


class TestIngest:
    def test_record_from_run_reports(self, tmp_path):
        report = {
            "schema": "smx-run-report/1",
            "timings": [
                {"name": "dna-edit-score-scalar", "config": "dna-edit",
                 "mode": "score", "engine": "scalar",
                 "pairs_per_sec": 100.0},
                {"name": "dna-edit-score-vector", "config": "dna-edit",
                 "mode": "score", "engine": "vector",
                 "pairs_per_sec": 600.0},
            ],
            "tables": {"entries": [
                {"name": "SMX DNA edit", "peak_gcups_per_pu": 1024},
                {"name": "AnySeq/GPU", "peak_gcups_per_pu": 76.9},
            ]},
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        record = bench.record_from_run_reports([str(path)])
        metrics = record["metrics"]
        assert metrics["engine.dna-edit-score-vector.pairs_per_sec"] \
            == 600.0
        assert metrics["engine.dna-edit-score.speedup"] == \
            pytest.approx(6.0)
        assert metrics["table3.dna-edit.gcups"] == 1024.0
        assert "table3.anyseq/gpu.gcups" not in str(metrics)

    def test_seeded_results_ingest(self):
        """The repo's own seed reports produce a usable record."""
        record = bench.record_from_run_reports(
            ["results/bench_batch_engine.json",
             "results/table3_gcups.json"])
        metrics = record["metrics"]
        assert metrics["table3.dna-edit.gcups"] == 1024.0
        assert metrics["engine.dna-edit-score.speedup"] > 1.0


class TestBenchCli:
    def _seed(self, tmp_path, scale=1.0):
        path = str(tmp_path / "hist.json")
        history = _history()
        bench.save_history(path, history)
        return path

    def test_check_passes_on_baseline(self, tmp_path, monkeypatch,
                                      capsys):
        path = self._seed(tmp_path)
        monkeypatch.setattr(bench, "collect",
                            lambda quick=True: _record(BASE))
        assert main(["bench", "--check", "--history", path]) == 0
        captured = capsys.readouterr()
        assert "ok" in captured.out
        assert "appended" in captured.err
        # The passing record was appended to the history.
        assert len(bench.load_history(path)["records"]) == 5

    def test_check_fails_on_injected_slowdown(self, tmp_path,
                                              monkeypatch, capsys):
        path = self._seed(tmp_path)
        slow = _record({k: 0.7 * v for k, v in BASE.items()})
        monkeypatch.setattr(bench, "collect", lambda quick=True: slow)
        assert main(["bench", "--check", "--history", path]) == 1
        captured = capsys.readouterr()
        assert "regression" in captured.out
        assert "not appended" in captured.err
        # The failure names every regressed metric with the numbers
        # behind the verdict.
        for metric in BASE:
            assert f"regressed: {metric}" in captured.err
        assert "baseline median" in captured.err
        assert "threshold" in captured.err
        # Regressed records must not poison the trailing median.
        assert len(bench.load_history(path)["records"]) == 4

    def test_no_append_leaves_history_untouched(self, tmp_path,
                                                monkeypatch, capsys):
        path = self._seed(tmp_path)
        monkeypatch.setattr(bench, "collect",
                            lambda quick=True: _record(BASE))
        assert main(["bench", "--no-append", "--history", path]) == 0
        assert len(bench.load_history(path)["records"]) == 4

    def test_bad_history_exits_2(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "hist.json"
        path.write_text("{broken")
        monkeypatch.setattr(bench, "collect",
                            lambda quick=True: _record(BASE))
        assert main(["bench", "--history", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_ingest_without_metrics_exits_2(self, tmp_path, capsys):
        report = tmp_path / "empty.json"
        report.write_text('{"schema": "smx-run-report/1"}')
        assert main(["bench", "--ingest", str(report),
                     "--history", str(tmp_path / "h.json")]) == 2
        assert "no benchmark metrics" in capsys.readouterr().err

    def test_collected_quick_record_checks_against_itself(
            self, tmp_path, capsys):
        """End to end: a real (collected) record appends, then a
        second identical collection passes the gate."""
        path = str(tmp_path / "hist.json")
        record = bench.collect(quick=True, repeats=1)
        assert record["metrics"]["kernel.linear.dna.cups"] > 0
        # The traceback series: a cost, and the ratio CI can gate.
        assert record["metrics"]["engine.cigar.short.us_per_pair"] > 0
        assert record["metrics"]["engine.cigar.short.speedup"] > 1.0
        bench.append_record(path, record)
        rows = bench.check(record, bench.load_history(path))
        assert all(row["status"] == "ok" for row in rows)
