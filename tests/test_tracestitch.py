"""Cross-process trace stitching and exact percentile merging.

Two acceptance properties from the observability tentpole live here:

- a sharded run's worker spans stitch into ONE well-formed Chrome
  trace on the parent timeline (worker tracks named after their shard
  or unit, every span stamped with the run id), and
- the parent's merged latency digests answer percentiles
  **bit-identically** to a single worker observing the union of all
  samples -- verified on a >=256-pair sharded run against both a
  single-worker run and an offline union digest.
"""

import numpy as np
import pytest

from repro.config import dna_edit_config
from repro.exec.engine import BatchConfig, BatchEngine
from repro.obs import Observability, child_context, new_run_id
from repro.obs.digest import LatencyDigest


def _pairs(count, lengths=(16, 24, 32, 48), seed=7):
    """Pairs of *varying* sizes so cell-count percentiles are
    non-trivial (not one spike)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = lengths[i % len(lengths)]
        m = lengths[(i + 1) % len(lengths)]
        out.append((rng.integers(0, 4, n, dtype=np.uint8),
                    rng.integers(0, 4, m, dtype=np.uint8)))
    return out


def _chrome_processes(doc):
    return {e["args"]["name"] for e in doc["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"}


def _fell_back(ctx):
    """True when the process pool was unavailable and shards ran
    inline (sandboxes without /dev/shm): results and metrics are
    identical, but there are no worker processes to stitch."""
    snapshot = ctx.metrics.snapshot()
    return snapshot.get("exec.shard_fallbacks", 0) > 0


class TestCollectorStitching:
    def test_worker_spans_land_on_parent_timeline(self):
        parent = Observability.enabled_context()
        run_id = new_run_id()
        trace = child_context(parent.tracer, run_id, "shard0",
                              parent_span="exec.shard")
        assert trace is not None
        assert trace.run_id == run_id
        worker = Observability.collector(trace=trace)
        with worker.tracer.host_span("work.phase", pairs=3):
            pass
        parent.merge_state(worker.export_state())
        doc = parent.tracer.to_chrome()
        # The worker's own "host" track was renamed to its label...
        assert "shard0" in _chrome_processes(doc)
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert [s["name"] for s in spans] == ["work.phase"]
        # ...its args survived, and the run id was stamped on merge.
        assert spans[0]["args"]["pairs"] == 3
        assert spans[0]["args"]["run_id"] == run_id
        # The shifted timestamp is on the parent clock: non-negative
        # and no further out than "now".
        assert 0.0 <= spans[0]["ts"] <= parent.tracer.now_us()

    def test_disabled_parent_tracer_yields_no_context(self):
        assert child_context(None, "r", "w") is None
        disabled = Observability.disabled()
        assert child_context(disabled.tracer, "r", "w") is None

    def test_collector_without_trace_exports_no_trace(self):
        worker = Observability.collector()
        worker.metrics.counter("x").inc()
        state = worker.export_state()
        assert "trace" not in state

    def test_metrics_ride_along_with_trace(self):
        parent = Observability.enabled_context()
        trace = child_context(parent.tracer, new_run_id(), "u0-3.a1")
        worker = Observability.collector(trace=trace)
        worker.metrics.distribution("lat_us").observe(25.0)
        parent.merge_state(worker.export_state())
        merged = parent.metrics.snapshot()["lat_us"]
        assert merged["count"] == 1
        assert merged["p50"] == 25.0


class TestShardedRunStitching:
    @pytest.fixture(scope="class")
    def sharded(self):
        config = dna_edit_config()
        pairs = _pairs(64)
        ctx = Observability.enabled_context()
        results = BatchEngine(config, BatchConfig(workers=4),
                              obs=ctx).run(pairs)
        return config, pairs, ctx, results

    def test_one_stitched_trace_per_run(self, sharded):
        _, _, ctx, _ = sharded
        if _fell_back(ctx):
            pytest.skip("process pool unavailable; shards ran inline")
        doc = ctx.tracer.to_chrome()
        processes = _chrome_processes(doc)
        assert {"shard0", "shard1", "shard2", "shard3"} <= processes
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        # Every span of the run carries the same run id: the parent's
        # exec.shard spans carry it natively, worker spans by stamping.
        run_ids = {s["args"]["run_id"] for s in spans
                   if "run_id" in s.get("args", {})}
        assert len(run_ids) == 1
        shard_spans = [s for s in spans if s["name"] == "exec.shard"]
        assert len(shard_spans) == 4

    def test_merged_digest_matches_single_worker_bit_for_bit(
            self, sharded):
        """ACCEPTANCE: >=256-pair sharded run's parent-merged digest
        percentiles are bit-identical to the offline union."""
        config = dna_edit_config()
        pairs = _pairs(256)

        sharded_ctx = Observability.enabled_context()
        BatchEngine(config, BatchConfig(workers=4),
                    obs=sharded_ctx).run(pairs)
        single_ctx = Observability.enabled_context()
        BatchEngine(config, BatchConfig(workers=1),
                    obs=single_ctx).run(pairs)

        key = "exec.pair_cells{engine=vector}"
        merged = sharded_ctx.metrics.snapshot()[key]
        union = single_ctx.metrics.snapshot()[key]
        # Exact across the process boundary: count, extremes, every
        # percentile -- and the total too, because cell counts are
        # integers (exact float sums below 2**53).
        assert merged == union
        assert merged["count"] == 256

        # And against a digest built offline from first principles.
        offline = LatencyDigest()
        offline.observe_many(float(len(q) * len(r)) for q, r in pairs)
        for q in (0.0, 0.25, 0.5, 0.9, 0.99, 1.0):
            assert offline.quantile(q) is not None
        assert merged["p50"] == offline.quantile(0.5)
        assert merged["p90"] == offline.quantile(0.9)
        assert merged["p99"] == offline.quantile(0.99)
        assert merged["min"] == offline.min
        assert merged["max"] == offline.max
        # Varying pair sizes: the percentiles are a real spread.
        assert merged["min"] < merged["p50"] < merged["max"]

    def test_sharded_results_unchanged_by_observability(self, sharded):
        config, pairs, _, observed = sharded
        plain = BatchEngine(config, BatchConfig(workers=1)).run(pairs)
        assert [r.score for r in observed] == [r.score for r in plain]


class TestSupervisedRunStitching:
    def _run(self, backend="process"):
        from repro.resilience import (
            ChaosPlan,
            ResilienceConfig,
            SupervisedEngine,
        )
        config = dna_edit_config()
        ctx = Observability.enabled_context()
        policy = ResilienceConfig(backend=backend, backoff_base_s=0.0,
                                  validate=True)
        plan = ChaosPlan(crash=0.15, seed=5)
        outcome = SupervisedEngine(config, BatchConfig(workers=2),
                                   policy, obs=ctx,
                                   plan=plan).run(_pairs(16, seed=9))
        return ctx, outcome

    def test_retried_units_stitch_with_attempt_labels(self):
        ctx, _ = self._run()
        doc = ctx.tracer.to_chrome()
        processes = _chrome_processes(ctx.tracer.to_chrome())
        workers = {p for p in processes if p.startswith("u")}
        if not workers:
            pytest.skip("process pool unavailable; units ran inline")
        # Worker tracks are unit labels: uSTART-STOP.aATTEMPT.
        import re
        assert all(re.fullmatch(r"u\d+-\d+\.a\d+", w) for w in workers)
        spans = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        run_ids = {s["args"]["run_id"] for s in spans
                   if "run_id" in s.get("args", {})}
        assert len(run_ids) == 1

    def test_labels_of_bucket_ordered_units(self):
        """Capped units are not index ranges: the label spans lowest
        to highest pair and still names one unit per attempt."""
        from repro.resilience import ResilienceConfig, SupervisedEngine
        ctx = Observability.enabled_context()
        SupervisedEngine(
            dna_edit_config(), BatchConfig(workers=2),
            ResilienceConfig(backend="process", max_unit_pairs=4),
            obs=ctx).run(_pairs(16, seed=9))
        import re
        labels = [p for p in _chrome_processes(ctx.tracer.to_chrome())
                  if p.startswith("u")]
        if not labels:
            pytest.skip("process pool unavailable; units ran inline")
        spans = [re.fullmatch(r"u(\d+)-(\d+)\.a0", label).groups()
                 for label in labels]
        assert len(set(spans)) == 4  # 16 pairs / 4: one track per unit
        # _pairs cycles four length classes, so a bucket-ordered unit
        # holds every fourth pair: wider than its size, low end first.
        assert all(int(last) - int(first) > 3 for first, last in spans)

    def test_chaos_run_deterministic_under_fixed_seed(self):
        ctx_a, outcome_a = self._run()
        ctx_b, outcome_b = self._run()
        assert dict(outcome_a.counters) == dict(outcome_b.counters)
        assert [f.index for f in outcome_a.failures] == \
            [f.index for f in outcome_b.failures]

        def span_names(ctx):
            return sorted(e["name"] for e in
                          ctx.tracer.to_chrome()["traceEvents"]
                          if e.get("ph") == "X")
        assert span_names(ctx_a) == span_names(ctx_b)
