"""Tests for the observability layer (repro.obs).

Covers: registry snapshot/diff semantics, disabled-mode no-op
behaviour, Chrome trace-event export from a real coprocessor run (the
golden-file contract Perfetto relies on), and the run-report JSON
round trip.
"""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro import obs
from repro.analysis.reporting import write_json_report, write_report
from repro.core.coprocessor import CoprocParams, CoprocessorSim
from repro.core.worker import BlockJob
from repro.obs import reports
from repro.obs.metrics import (
    LabeledRegistry,
    MetricsRegistry,
    NULL_REGISTRY,
    ScopedRegistry,
)
from repro.obs.tracing import NULL_TRACER, REQUIRED_EVENT_KEYS, Tracer


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("x").inc()
        reg.counter("x").inc(4)
        assert reg.snapshot() == {"x": 5.0}

    def test_labels_split_series(self):
        reg = MetricsRegistry()
        reg.counter("hits", level="L1D").inc()
        reg.counter("hits", level="L2").inc(2)
        snap = reg.snapshot()
        assert snap["hits{level=L1D}"] == 1.0
        assert snap["hits{level=L2}"] == 2.0

    def test_same_instrument_is_cached(self):
        reg = MetricsRegistry()
        assert reg.counter("a", k=1) is reg.counter("a", k=1)
        assert reg.counter("a", k=1) is not reg.counter("a", k=2)

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3)
        reg.gauge("depth").set(7)
        assert reg.snapshot() == {"depth": 7.0}

    def test_distribution_summary(self):
        reg = MetricsRegistry()
        dist = reg.distribution("lat")
        for v in (1, 2, 9):
            dist.observe(v)
        summary = reg.snapshot()["lat"]
        assert summary["count"] == 3
        assert summary["min"] == 1 and summary["max"] == 9
        assert summary["mean"] == pytest.approx(4.0)

    def test_diff_subtracts_and_omits_unchanged(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(5)
        reg.counter("b").inc(1)
        before = reg.snapshot()
        reg.counter("a").inc(2)
        diff = reg.diff(before)
        assert diff == {"a": 2.0}  # b unchanged -> omitted

    def test_diff_of_distribution(self):
        reg = MetricsRegistry()
        reg.distribution("d").observe(10)
        before = reg.snapshot()
        reg.distribution("d").observe(30)
        diff = reg.diff(before)["d"]
        assert diff["count"] == 1
        assert diff["total"] == pytest.approx(30.0)
        assert diff["mean"] == pytest.approx(30.0)

    def test_diff_of_new_metric(self):
        reg = MetricsRegistry()
        before = reg.snapshot()
        reg.counter("fresh").inc(3)
        assert reg.diff(before) == {"fresh": 3.0}

    def test_scope_prefixes_names(self):
        reg = MetricsRegistry()
        scoped = reg.scope("coproc").scope("engine")
        scoped.counter("grants").inc()
        assert reg.snapshot() == {"coproc.engine.grants": 1.0}

    def test_views_nest_prefixes_and_labels(self):
        """``scope()`` under a labeled view and under another scope:
        prefixes chain, view labels carry through, and call-site
        labels override the view's."""
        reg = MetricsRegistry()
        acme = LabeledRegistry(reg, tenant="acme", tier="gold")
        plan = acme.scope("exec").scope("plan")
        plan.counter("routed", route="banded").inc(2)
        plan.counter("routed", tenant="zeno").inc()
        LabeledRegistry(plan, tier="free").gauge("depth").set(3)
        assert reg.snapshot() == {
            "exec.plan.routed{route=banded,tenant=acme,tier=gold}": 2.0,
            "exec.plan.routed{tenant=zeno,tier=gold}": 1.0,
            "exec.plan.depth{tenant=acme,tier=free}": 3.0}
        # Every view reads, walks and merges through the shared root;
        # the prefix applies to lookups only.
        assert plan.snapshot() == reg.snapshot()
        assert list(plan.items()) == list(reg.items())
        plan.merge_state({"counters": {"exec.pairs": 4.0}},
                         extra_labels={"shard": 1})
        assert reg.counter("exec.pairs", shard=1, tenant="acme",
                           tier="gold").value == 4.0

    def test_scoped_and_labeled_are_one_view_class(self):
        assert ScopedRegistry is LabeledRegistry
        reg = MetricsRegistry()
        assert type(reg.scope("a")) is ScopedRegistry
        # ``prefix`` is positional-only, so it stays usable as a label.
        LabeledRegistry(reg, prefix="p").counter("x").inc()
        assert reg.snapshot() == {"x{prefix=p}": 1.0}

    def test_items_walks_counters_gauges_distributions_in_order(self):
        reg = MetricsRegistry()
        reg.distribution("d").observe(1.0)
        reg.gauge("g", unit="s").set(2)
        reg.counter("c").inc()
        reg.counter("a", z=1, b=2).inc()
        assert [(kind, name, labels)
                for kind, name, labels, _ in reg.items()] == [
            ("counter", "c", ()),
            ("counter", "a", (("b", "2"), ("z", "1"))),
            ("gauge", "g", (("unit", "s"),)),
            ("distribution", "d", ())]
        assert [name for _, name, _, _ in reg.items("gauge", "counter")] \
            == ["g", "c", "a"]
        [(_, _, _, instrument)] = reg.items("distribution")
        assert instrument is reg.distribution("d")

    def test_distribution_percentiles_in_snapshot(self):
        reg = MetricsRegistry()
        dist = reg.distribution("lat")
        for v in range(1, 101):
            dist.observe(float(v))
        summary = reg.snapshot()["lat"]
        assert summary["min"] <= summary["p50"] <= summary["p90"] \
            <= summary["p99"] <= summary["max"]
        assert summary["p50"] == pytest.approx(50.0, rel=0.02)

    def test_distribution_min_max_exact_across_three_workers(self):
        # Regression guard for the worker round trip: extremes and
        # percentiles survive export_state/merge_state from THREE
        # worker registries bit-for-bit, regardless of merge order.
        samples = [[0.002, 3.7, 55.1], [120.0, 41.0], [7.5, 0.9, 88.0]]
        workers = []
        for values in samples:
            reg = MetricsRegistry()
            for v in values:
                reg.distribution("lat", engine="vector").observe(v)
            workers.append(reg.export_state())
        parent = MetricsRegistry()
        for state in reversed(workers):  # order must not matter
            parent.merge_state(state)
        union = MetricsRegistry()
        for v in (v for values in samples for v in values):
            union.distribution("lat", engine="vector").observe(v)
        key = "lat{engine=vector}"
        merged = parent.snapshot()[key]
        assert merged["min"] == 0.002
        assert merged["max"] == 120.0
        assert merged["count"] == 8
        expected = union.snapshot()[key]
        for field in ("count", "min", "max", "p50", "p90", "p99"):
            assert merged[field] == expected[field]


class TestDisabledMode:
    def test_null_registry_records_nothing(self):
        NULL_REGISTRY.counter("x").inc(100)
        NULL_REGISTRY.gauge("g").set(5)
        NULL_REGISTRY.distribution("d").observe(1)
        assert NULL_REGISTRY.snapshot() == {}
        assert NULL_REGISTRY.diff({}) == {}
        assert not NULL_REGISTRY.enabled

    def test_null_instruments_are_shared(self):
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")

    def test_disabled_path_contract(self):
        """One lookup, one shared no-op instrument per kind, whatever
        the name and labels -- directly or through a view -- and
        nothing to walk, export or merge afterwards."""
        view = LabeledRegistry(NULL_REGISTRY, tenant="acme").scope("exec")
        assert not view.enabled
        for kind in ("counter", "gauge", "distribution"):
            lookup = getattr(NULL_REGISTRY, kind)
            shared = lookup("a")
            assert lookup("b", tenant="acme", shard=3) is shared
            assert getattr(view, kind)("c", engine="vector") is shared
        worker = MetricsRegistry()
        worker.counter("exec.pairs").inc(3)
        worker.distribution("lat").observe(1.5)
        NULL_REGISTRY.merge_state(worker.export_state())
        view.merge_state(worker.export_state(), extra_labels={"s": 1})
        NULL_REGISTRY.distribution("lat").observe(2.0)
        assert list(NULL_REGISTRY.items()) == []
        assert NULL_REGISTRY.drain_windows() == {}
        assert NULL_REGISTRY.distribution("lat").count == 0
        live = MetricsRegistry()
        live.counter("exec.pairs").inc(2)
        before = live.export_state()
        live.merge_state(NULL_REGISTRY.export_state())
        assert live.export_state() == before

    def test_null_tracer_records_nothing(self):
        track = NULL_TRACER.track("p", "t")
        NULL_TRACER.complete("span", track, 0, 10)
        with NULL_TRACER.host_span("host-work"):
            pass
        assert NULL_TRACER.to_chrome()["traceEvents"] == []

    def test_global_default_is_disabled(self):
        assert not obs.get_obs().enabled

    def test_set_obs_restores(self):
        ctx = obs.Observability.enabled_context()
        previous = obs.set_obs(ctx)
        try:
            assert obs.get_obs() is ctx
        finally:
            obs.set_obs(previous)
        assert obs.get_obs() is previous

    def test_disabled_simulation_matches_enabled(self):
        jobs = [BlockJob(n=200, m=200, ew=2, job_id=i) for i in range(3)]
        plain = CoprocessorSim(CoprocParams(n_workers=2)).run(jobs)
        ctx = obs.Observability.enabled_context()
        observed = CoprocessorSim(CoprocParams(n_workers=2),
                                  obs=ctx).run(jobs)
        assert observed == plain  # observability never changes timing


class TestTracer:
    def test_track_identity(self):
        tracer = Tracer()
        a = tracer.track("proc", "t0")
        assert tracer.track("proc", "t0") == a
        b = tracer.track("proc", "t1")
        assert b.pid == a.pid and b.tid != a.tid

    def test_complete_event_shape(self):
        tracer = Tracer()
        track = tracer.track("p", "t")
        tracer.complete("work", track, ts=5, dur=3, units=2)
        doc = tracer.to_chrome()
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 1
        event = spans[0]
        for key in REQUIRED_EVENT_KEYS:
            assert key in event
        assert event["ts"] == 5 and event["dur"] == 3
        assert event["args"]["units"] == 2

    def test_metadata_names_tracks(self):
        tracer = Tracer()
        tracer.track("smx-engine", "worker 0")
        names = [e["args"]["name"] for e in
                 tracer.to_chrome()["traceEvents"] if e["ph"] == "M"]
        assert "smx-engine" in names and "worker 0" in names

    def test_events_sorted_by_start(self):
        tracer = Tracer()
        track = tracer.track("p", "t")
        tracer.complete("late", track, ts=100, dur=1)
        tracer.complete("early", track, ts=2, dur=50)
        spans = [e for e in tracer.to_chrome()["traceEvents"]
                 if e["ph"] == "X"]
        assert [e["name"] for e in spans] == ["early", "late"]

    def test_max_events_drops_gracefully(self):
        tracer = Tracer(max_events=2)
        track = tracer.track("p", "t")
        for i in range(5):
            tracer.complete(f"s{i}", track, ts=i, dur=1)
        assert len(tracer.events) == 2
        assert tracer.dropped_events == 3
        assert tracer.to_chrome()["otherData"]["dropped_events"] == 3

    def test_host_span_measures_wall_clock(self):
        tracer = Tracer()
        with tracer.host_span("setup", items=3):
            pass
        event = tracer.events[0]
        assert event.name == "setup"
        assert event.dur >= 0
        assert event.args["items"] == 3

    def test_write_is_loadable_json(self, tmp_path):
        tracer = Tracer()
        tracer.complete("x", tracer.track("p", "t"), 0, 1)
        path = tracer.write(str(tmp_path / "trace.json"))
        with open(path) as handle:
            doc = json.load(handle)
        assert "traceEvents" in doc


class TestCoprocessorTraceGolden:
    """A small real simulation must export a valid Chrome trace."""

    @pytest.fixture()
    def run(self):
        ctx = obs.Observability.enabled_context()
        sim = CoprocessorSim(CoprocParams(n_workers=2), obs=ctx)
        report = sim.run([BlockJob(n=300, m=300, ew=2, job_id=i)
                          for i in range(4)])
        return ctx, report

    def test_required_keys_and_monotone_timestamps(self, run):
        ctx, _ = run
        doc = ctx.tracer.to_chrome()
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans, "simulation produced no spans"
        for event in spans:
            for key in REQUIRED_EVENT_KEYS:
                assert key in event, f"span missing {key}"
            assert event["dur"] >= 0
        timestamps = [e["ts"] for e in spans]
        assert timestamps == sorted(timestamps)

    def test_engine_spans_sum_to_busy_cycles(self, run):
        ctx, report = run
        engine = [e for e in ctx.tracer.to_chrome()["traceEvents"]
                  if e.get("cat") == "engine"]
        assert sum(e["dur"] for e in engine) == pytest.approx(
            report.engine_busy_cycles)

    def test_counters_match_report(self, run):
        ctx, report = run
        snap = ctx.metrics.snapshot()
        assert snap["coproc.tiles_computed"] == report.tiles_computed
        assert snap["coproc.lines_loaded"] == report.lines_loaded
        assert snap["coproc.lines_stored"] == report.lines_stored
        assert snap["coproc.jobs_completed"] == report.jobs_completed
        assert snap["coproc.total_cycles"] == report.total_cycles
        assert snap["coproc.engine_busy_cycles"] == \
            report.engine_busy_cycles
        assert snap["coproc.job_cycles"]["count"] == report.jobs_completed

    def test_phase_spans_cover_every_supertile(self, run):
        ctx, report = run
        spans = [e for e in ctx.tracer.to_chrome()["traceEvents"]
                 if e["ph"] == "X"]
        names = {e["name"] for e in spans}
        assert {"load", "compute", "store"} <= names
        jobs = [e for e in spans if e.get("cat") == "job"]
        assert len(jobs) == report.jobs_completed


class TestRunReports:
    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SMX_RESULTS_DIR", str(tmp_path))
        reg = MetricsRegistry()
        reg.counter("coproc.tiles_computed").inc(42)
        path = write_json_report(
            "exp_x", params={"blocks": 8},
            metrics=reg.snapshot(),
            timings=[{"name": "smx-score", "cycles": 123.0}],
            tables={"rows": [{"a": 1}]})
        assert path == str(tmp_path / "exp_x.json")
        loaded = reports.load_report(path)
        assert loaded["schema"] == reports.SCHEMA
        assert loaded["name"] == "exp_x"
        assert loaded["params"] == {"blocks": 8}
        assert loaded["metrics"]["coproc.tiles_computed"] == 42
        assert loaded["timings"][0]["cycles"] == 123.0
        assert loaded["tables"]["rows"] == [{"a": 1}]
        assert "created" in loaded

    def test_no_temp_files_left_behind(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SMX_RESULTS_DIR", str(tmp_path))
        write_report("exp_md", ["section"])
        write_json_report("exp_md", params={})
        leftovers = [f for f in os.listdir(tmp_path)
                     if f.endswith(".tmp")]
        assert leftovers == []
        assert sorted(os.listdir(tmp_path)) == ["exp_md.json",
                                                "exp_md.md"]

    def test_markdown_report_content(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SMX_RESULTS_DIR", str(tmp_path))
        path = write_report("exp_md", ["alpha", "beta"])
        with open(path) as handle:
            assert handle.read() == "alpha\n\nbeta\n"

    def test_load_rejects_non_reports(self, tmp_path):
        path = tmp_path / "not_a_report.json"
        path.write_text('{"foo": 1}')
        with pytest.raises(ValueError, match="schema"):
            reports.load_report(str(path))

    def test_timing_row_from_run_timing(self):
        from repro.sim.stats import RunTiming

        row = reports.timing_row(RunTiming(name="x", cycles=100.0,
                                           cells=50, alignments=1))
        assert row["name"] == "x"
        assert row["cycles"] == 100.0
        assert row["gcups"] > 0

    def test_format_metrics_renders_all_kinds(self):
        text = reports.format_metrics(
            {"a.count": 3.0, "b.ratio": 0.5,
             "c.dist": {"count": 2, "mean": 1.5, "min": 1, "max": 2}})
        assert "a.count" in text and "0.50" in text and "count=2" in text

    def test_format_metrics_empty(self):
        assert "no metrics" in reports.format_metrics({})

    def test_format_metrics_renders_percentiles(self):
        text = reports.format_metrics(
            {"lat": {"count": 3, "mean": 4.0, "min": 1, "max": 9,
                     "p50": 2.0, "p90": 8.5, "p99": 9.0}})
        assert "p50=2.0" in text
        assert "p90=8.5" in text and "p99=9.0" in text
        # Summaries without digest data stay on the old rendering.
        plain = reports.format_metrics(
            {"lat": {"count": 3, "mean": 4.0, "min": 1, "max": 9}})
        assert "p50" not in plain


class TestLogging:
    def test_get_logger_namespaced(self):
        assert obs.get_logger("coprocessor").name == "repro.coprocessor"

    def test_configure_from_env(self, monkeypatch):
        monkeypatch.setenv("SMX_LOG", "debug")
        logger = obs.configure_logging()
        try:
            assert logger.level == logging.DEBUG
            assert any(not isinstance(h, logging.NullHandler)
                       for h in logger.handlers)
        finally:
            monkeypatch.delenv("SMX_LOG")
            obs.configure_logging()

    def test_unset_env_is_silent(self, monkeypatch):
        monkeypatch.delenv("SMX_LOG", raising=False)
        logger = obs.configure_logging()
        assert all(isinstance(h, logging.NullHandler)
                   for h in logger.handlers)

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError, match="SMX_LOG"):
            obs.configure_logging(level="verbose-ish")
        obs.configure_logging()  # restore a clean handler set

    def test_debug_line_emitted_during_simulation(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro"):
            CoprocessorSim(CoprocParams(n_workers=1)).run(
                [BlockJob(n=64, m=64, ew=2)])
        assert any("coproc run" in r.message for r in caplog.records)
