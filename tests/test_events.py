"""Tests for the live telemetry event stream (repro.obs.events) and
its wiring into the batch and supervised engines."""

import io
import json
import pathlib
import re

import numpy as np
import pytest

import repro
from repro.config import dna_edit_config
from repro.exec.engine import BatchConfig, BatchEngine
from repro.obs import Observability
from repro.obs.events import (
    EventIndex,
    EventStream,
    KINDS,
    NULL_EVENTS,
    SCHEMA,
    open_jsonl,
    read_jsonl,
    summarize,
)


def _pairs(count, length=40, seed=5):
    rng = np.random.default_rng(seed)
    return [(rng.integers(0, 4, length, dtype=np.uint8),
             rng.integers(0, 4, length, dtype=np.uint8))
            for _ in range(count)]


class TestEventStream:
    def test_header_and_envelope(self):
        stream = EventStream()
        assert stream.events[0]["kind"] == "stream_start"
        assert stream.events[0]["schema"] == SCHEMA
        event = stream.emit("progress", done=3, total=9)
        assert event["kind"] == "progress"
        assert event["done"] == 3
        # seq is monotone, t non-decreasing.
        seqs = [e["seq"] for e in stream.events]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        times = [e["t"] for e in stream.events]
        assert times == sorted(times)

    def test_sink_receives_json_lines(self):
        sink = io.StringIO()
        stream = EventStream(sink=sink)
        stream.emit("heartbeat", done=1, total=2)
        lines = sink.getvalue().strip().splitlines()
        assert len(lines) == 2  # header + heartbeat
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["kind"] == "stream_start"
        assert parsed[1]["kind"] == "heartbeat"

    def test_subscribers_see_future_events(self):
        stream = EventStream()
        seen = []
        stream.subscribe(seen.append)
        stream.emit("progress", done=1, total=1)
        assert [e["kind"] for e in seen] == ["progress"]

    def test_ring_buffer_bounded(self):
        stream = EventStream(max_events=4)
        for i in range(10):
            stream.emit("progress", done=i, total=10)
        assert len(stream.events) == 4
        assert stream.last("progress")["done"] == 9

    def test_of_kind_and_last(self):
        stream = EventStream()
        stream.emit("fault", index=1)
        stream.emit("fault", index=2)
        assert [e["index"] for e in stream.of_kind("fault")] == [1, 2]
        assert stream.last("fault")["index"] == 2
        assert stream.last("quarantine") is None

    def test_null_stream_drops_everything(self):
        assert NULL_EVENTS.emit("progress", done=1) == {}
        assert list(NULL_EVENTS.events) == []
        assert not NULL_EVENTS.enabled

    def test_known_kinds_cover_engine_emissions(self):
        """``KINDS`` is, by construction, exactly the kinds ``src/``
        emits: every ``emit("<kind>"`` / ``_emit("<kind>"`` literal."""
        src = pathlib.Path(repro.__file__).parent
        emitted = set()
        for path in src.rglob("*.py"):
            emitted.update(re.findall(r'\b_?emit\(\s*"(\w+)"',
                                      path.read_text(encoding="utf-8")))
        assert emitted == set(KINDS)
        assert len(KINDS) == len(set(KINDS))


class TestJsonlRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        stream = open_jsonl(str(path))
        stream.emit("progress", done=2, total=4)
        stream.emit("run_end", pairs=4)
        stream.close()
        events = read_jsonl(str(path))
        assert [e["kind"] for e in events] == \
            ["stream_start", "progress", "run_end"]
        assert events[0]["schema"] == SCHEMA

    def test_read_rejects_malformed_interior_line(self, tmp_path):
        # A bad line *followed by* a good one is corruption, not a
        # truncated tail: it raises even in tolerant (default) mode.
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "progress"}\nnot json\n'
                        '{"kind": "run_end"}\n')
        with pytest.raises(ValueError, match=":2:"):
            read_jsonl(str(path))

    def test_read_skips_truncated_final_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "progress"}\n{"kind": "run_e')
        from repro.obs.events import load_events
        events, skipped = load_events(str(path))
        assert [e["kind"] for e in events] == ["progress"]
        assert skipped == 1

    def test_read_strict_rejects_truncated_final_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "progress"}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            read_jsonl(str(path), strict=True)

    def test_read_rejects_multiple_trailing_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "progress"}\nnot json\nalso bad\n')
        with pytest.raises(ValueError, match=":2:"):
            read_jsonl(str(path))

    def test_read_rejects_non_object_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ValueError, match="not a JSON object"):
            read_jsonl(str(path), strict=True)

    def test_reader_holds_back_an_unterminated_tail(self):
        from repro.obs.events import EventReader
        reader = EventReader("live.jsonl")
        assert reader.feed('{"kind": "progress"}\n{"kind": "run_e') == \
            [{"kind": "progress"}]
        assert reader.feed('nd"}\n') == [{"kind": "run_end"}]
        assert reader.skipped == 0

    def test_read_skips_blank_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "progress", "t": 1.0}\n\n')
        assert len(read_jsonl(str(path))) == 1


class TestSummarize:
    def test_summary_fields(self):
        stream = EventStream()
        stream.emit("batch_start", pairs=8)
        stream.emit("progress", done=4, total=8)
        stream.emit("quarantine", index=3)
        stream.emit("batch_end", pairs=8)
        digest = summarize(list(stream.events))
        assert digest["schema"] == SCHEMA
        assert digest["events"] == 5
        assert digest["by_kind"]["progress"] == 1
        assert digest["progress"]["done"] == 4
        assert len(digest["quarantines"]) == 1
        assert digest["run_start"]["kind"] == "batch_start"
        assert digest["run_end"]["kind"] == "batch_end"

    def test_summary_of_empty_and_partial_streams(self):
        assert summarize([])["events"] == 0
        partial = summarize([{"kind": "progress", "t": 1.5, "done": 1}])
        assert partial["duration_s"] == 1.5
        assert partial["run_end"] is None


class TestEventIndex:
    EVENTS = [
        {"t": 0.0, "kind": "batch_start", "pairs": 4},
        {"t": 1.0, "kind": "unit_done", "elapsed_s": 0.5},
        {"t": 2.0, "kind": "unit_done", "elapsed_s": True},
        {"t": 3.0, "kind": "unit_done", "elapsed_s": 0.25},
        {"t": 9.0, "kind": "unit_done"},
        {"t": 4.0, "kind": "batch_end"},
        {"t": 4.5},
    ]

    def test_groups_by_kind_in_stream_order(self):
        index = EventIndex(self.EVENTS)
        assert len(index) == 7
        assert [e["t"] for e in index.of("unit_done")] == [1.0, 2.0, 3.0,
                                                           9.0]
        assert index.of("never") == []
        assert index.tally() == {"?": 1, "batch_end": 1,
                                 "batch_start": 1, "unit_done": 4}

    def test_last_takes_the_first_kind_that_occurs(self):
        index = EventIndex(self.EVENTS)
        assert index.last("unit_done")["t"] == 9.0
        assert index.last("run_start", "batch_start")["pairs"] == 4
        assert index.last("batch_end", "batch_start")["t"] == 4.0
        assert index.last("run_end") is None
        assert index.last() is None

    def test_duration_is_the_final_event_now_is_the_latest(self):
        index = EventIndex(self.EVENTS)
        assert index.duration_s == 4.5
        assert index.now_t == 9.0
        empty = EventIndex([])
        assert (empty.duration_s, empty.now_t) == (0.0, 0.0)

    def test_samples_are_numeric_and_windowed(self):
        index = EventIndex(self.EVENTS)
        # Booleans and missing fields are not samples.
        assert index.samples("unit_done", "elapsed_s") == [0.5, 0.25]
        # The window ends at the stream's latest timestamp (9.0) ...
        assert index.samples("unit_done", "elapsed_s", 6.5) == [0.25]
        # ... unless the caller pins ``now_t`` (a tenant lane judged
        # on the whole stream's clock).
        assert index.samples("unit_done", "elapsed_s", 2.5,
                             now_t=3.0) == [0.5, 0.25]
        assert index.samples("batch_end", "elapsed_s", 1.0) == []

    def test_over_reuses_an_index(self):
        index = EventIndex(self.EVENTS)
        assert EventIndex.over(index) is index
        assert EventIndex.over(self.EVENTS).events is self.EVENTS
        assert summarize(index) == summarize(self.EVENTS)


class TestEngineEvents:
    def test_batch_engine_emits_lifecycle_events(self):
        config = dna_edit_config()
        stream = EventStream()
        ctx = Observability.enabled_context(events=stream)
        BatchEngine(config, BatchConfig(), obs=ctx).run(_pairs(6))
        kinds = [e["kind"] for e in stream.events]
        assert kinds[0] == "stream_start"
        assert "batch_start" in kinds and "batch_end" in kinds
        assert kinds.index("batch_start") < kinds.index("batch_end")
        start = stream.last("batch_start")
        assert start["pairs"] == 6
        assert start["engine"] == "vector"
        assert stream.of_kind("progress")

    def test_supervised_engine_emits_run_and_heartbeat(self):
        from repro.resilience import ResilienceConfig, SupervisedEngine

        config = dna_edit_config()
        stream = EventStream()
        ctx = Observability.enabled_context(events=stream)
        policy = ResilienceConfig(backend="thread", backoff_base_s=0.0)
        outcome = SupervisedEngine(config, BatchConfig(workers=2),
                                   policy, obs=ctx).run(_pairs(8))
        assert not outcome.failures
        kinds = [e["kind"] for e in stream.events]
        assert "run_start" in kinds and "run_end" in kinds
        assert "shard_start" in kinds and "shard_done" in kinds
        assert "heartbeat" in kinds
        beat = stream.last("heartbeat")
        assert beat["done"] == 8 and beat["total"] == 8
        assert stream.last("run_end")["failures"] == 0

    def test_supervised_faults_emit_quarantine_trail(self):
        from repro.resilience import (
            ChaosPlan,
            ResilienceConfig,
            SupervisedEngine,
        )

        config = dna_edit_config()
        stream = EventStream()
        ctx = Observability.enabled_context(events=stream)
        policy = ResilienceConfig(backend="thread", max_retries=1,
                                  backoff_base_s=0.0)
        plan = ChaosPlan(crash=1.0, persistent_fraction=1.0, seed=9)
        outcome = SupervisedEngine(config, BatchConfig(), policy,
                                   obs=ctx, plan=plan).run(_pairs(3))
        assert outcome.failures  # crash=1.0 sinks everything
        kinds = {e["kind"] for e in stream.events}
        assert "fault" in kinds
        assert "quarantine" in kinds
        quarantined = {e["index"] for e in stream.of_kind("quarantine")}
        assert quarantined == {f.index for f in outcome.failures}

    def test_disabled_events_identical_results_and_zero_events(self):
        config = dna_edit_config()
        pairs = _pairs(6)
        plain = BatchEngine(config, BatchConfig()).run(pairs)
        stream = EventStream()
        ctx = Observability.enabled_context(events=stream)
        observed = BatchEngine(config, BatchConfig(), obs=ctx).run(pairs)
        assert [r.score for r in plain] == [r.score for r in observed]
        assert [r.alignment.cigar_string for r in plain] == \
            [r.alignment.cigar_string for r in observed]
        # The default (disabled) context emitted nothing anywhere.
        assert list(NULL_EVENTS.events) == []
