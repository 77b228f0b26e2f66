"""Characterisation of the telemetry read path: what consumers print.

Four committed ``smx-events/1`` recordings in
``tests/fixtures/telemetry/`` are replayed through every read-side
command, and a seeded registry and a scripted time-series store are
pushed through every read-side call, recording everything a refactor
of ``repro.obs`` and of the ``top`` / ``monitor`` / ``fleet`` commands
must leave alone:

- ``chaos_auto.jsonl``: a supervised ``align --batch --chaos
  crash=0.05,bitflip=0.05 --engine auto`` run (faults, retries,
  bisections, quarantines, ``plan`` events);
- ``vector.jsonl``: a plain vector batch (``batch_*`` / ``progress``
  only, no supervisor);
- ``daemon.jsonl``: a two-tenant daemon stream that also carries
  ``alert``, ``shed``, ``plan`` and ``job_rejected`` events;
- ``daemon_cut.jsonl``: the same stream cut in the middle of a line;

each x stdout, stderr and exit code of ``top``, ``monitor`` and
``fleet`` in their ``--once``, ``--json``, ``--window`` / ``--slo``,
``--strict`` and follow forms (``time.sleep`` raises
``KeyboardInterrupt`` under the harness, so a follow loop that would
wait for more input ends after one tick). Two files derived at replay
time add the error paths: ``corrupt.jsonl`` (a malformed *interior*
line) and ``empty.jsonl``.

The registry half records ``snapshot()`` / ``diff()`` /
``export_state()`` / ``drain_windows()`` and the Prometheus page of a
seeded registry written through labeled and scoped views and merged
into with ``merge_state(extra_labels=...)``; the time-series half a
scripted ``TimeSeriesStore.to_document()`` under an injected clock.

``tests/fixtures/telemetry/telemetry_characterisation.json`` holds
that record as taken at the commit *before* the registry walk, the
event index and the watch loop were each made one;
``tests/test_telemetry_characterisation.py`` asserts it byte for byte.
Regenerate (only for an intended behaviour change) with
``PYTHONPATH=src python -m tests.telemetry_characterisation``; add
``--record`` to re-record the event streams too (their timestamps are
wall-clock, so a re-recording changes every expected output).

One form is deliberately absent: follow-mode ``fleet`` on the cut
stream. At the parent commit it re-read the whole file every tick and
counted the unterminated tail as skipped; through the shared loop the
tail is held back until its newline arrives, as ``monitor`` always did.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import time
from unittest import mock

import numpy as np

from repro import obs
from repro.__main__ import main as repro_main
from repro.config import standard_configs
from repro.obs.export import render_registry
from repro.obs.metrics import LabeledRegistry, MetricsRegistry
from repro.obs.timeseries import TimeSeriesStore
from tests.conftest import make_pair

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures",
                           "telemetry")
FIXTURE = os.path.join(FIXTURE_DIR, "telemetry_characterisation.json")

SEED = 0x534D58

#: The committed recordings; the last is the third cut mid-line.
COMPLETE = ("chaos_auto.jsonl", "vector.jsonl", "daemon.jsonl")
CUT = "daemon_cut.jsonl"
RECORDINGS = COMPLETE + (CUT,)

MONITOR_SLOS = ("--slo", "tight=unit_done.elapsed_s:p90<0.01@5",
                "--slo", "shard_done.elapsed_s:p50<0.008")
FLEET_SLO = "tight=job_done.elapsed_s:p50<0.005@3"


# -- the CLI cases -----------------------------------------------------------


def _cli_cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}

    def add(*argv: str) -> None:
        cases[" ".join(argv)] = list(argv)

    for name in RECORDINGS:
        add("top", name)
        add("top", name, "--json")
        add("monitor", name, "--once")
        add("monitor", name, "--once", "--json")
        add("monitor", name, "--once", "--json", "--window", "2",
            *MONITOR_SLOS)
        add("monitor", name, "--once", "--window", "2", *MONITOR_SLOS)
        add("monitor", name, "--once", "--no-default-slos")
        add("monitor", name, "--interval", "0.01")
        add("monitor", name, "--interval", "0.01", "--json")
        add("fleet", name, "--once")
        add("fleet", name, "--once", "--json")
        add("fleet", name, "--once", "--json", "--window", "2",
            "--slo", FLEET_SLO)
        add("fleet", name, "--once", "--window", "2", "--slo", FLEET_SLO)
        add("fleet", name, "--once", "--no-default-slos")
        if name != CUT:
            add("fleet", name, "--interval", "0.01")
            add("fleet", name, "--interval", "0.01", "--json")
    for command in ("top", "monitor", "fleet"):
        once = [] if command == "top" else ["--once"]
        add(command, CUT, *once, "--strict")
        add(command, "corrupt.jsonl", *once)
        add(command, "empty.jsonl", *once)
        add(command, "missing.jsonl", *once)
    for command in ("monitor", "fleet"):
        add(command, "corrupt.jsonl", "--interval", "0.01")
        add(command, "empty.jsonl", "--interval", "0.01", "--json")
        add(command, "missing.jsonl", "--interval", "0.01")
        add(command, "daemon.jsonl", "--once", "--slo", "p99<1")
    return cases


CLI_CASES = _cli_cases()


@contextlib.contextmanager
def replay_directory():
    """A scratch directory holding the recordings plus the two derived
    error-path files, as the working directory (so the file names the
    commands echo are stable)."""
    scratch = tempfile.mkdtemp(prefix="smx-telemetry-")
    previous = os.getcwd()
    try:
        for name in RECORDINGS:
            shutil.copy(os.path.join(FIXTURE_DIR, name), scratch)
        with open(os.path.join(FIXTURE_DIR, "daemon.jsonl"),
                  encoding="utf-8") as handle:
            lines = handle.read().split("\n")
        lines.insert(len(lines) // 2, '{"kind": "progress", "done": ')
        with open(os.path.join(scratch, "corrupt.jsonl"), "w",
                  encoding="utf-8") as handle:
            handle.write("\n".join(lines))
        open(os.path.join(scratch, "empty.jsonl"), "w").close()
        os.chdir(scratch)
        yield scratch
    finally:
        os.chdir(previous)
        shutil.rmtree(scratch, ignore_errors=True)


def run_cli(argv: list[str]) -> dict:
    """``{"exit", "stdout", "stderr"}`` of one in-process CLI call;
    must run inside :func:`replay_directory`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr), \
            mock.patch("time.sleep", side_effect=KeyboardInterrupt):
        code = repro_main(argv)
    return {"exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


# -- the registry and time-series cases --------------------------------------


class _Clock:
    def __init__(self, t: float) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


def _worker_state() -> dict:
    worker = MetricsRegistry()
    worker.counter("exec.pairs", engine="vector").inc(7)
    worker.counter("exec.cells", tenant="zeno").inc(90)
    worker.gauge("exec.last_bucket").set(4)
    for value in (12.0, 850.0, 3.25):
        worker.distribution("exec.pair_latency_us",
                            engine="vector").observe(value)
    return json.loads(json.dumps(worker.export_state()))


def registry_case() -> dict:
    root = MetricsRegistry()
    root.counter("exec.pairs", engine="vector").inc(12)
    root.counter("exec.cells").inc(4096)
    root.gauge("service.queue_depth").set(3)
    root.gauge("service.queue_depth", tenant="acme").set(2)
    for value in (0.5, 2.0, 41.0, 41.0, 977.5):
        root.distribution("exec.pair_latency_us",
                          engine="vector").observe(value)
    root.distribution("exec.never_observed")
    root.counter("weird.label", path='a"b\\c\nd').inc()
    before = root.snapshot()

    acme = LabeledRegistry(root, tenant="acme")
    plan = acme.scope("exec").scope("plan")
    plan.counter("routed", route="banded").inc(5)
    plan.counter("routed", route="full", tenant="override").inc()
    plan.distribution("plan_s").observe(0.004, count=3)
    acme.gauge("service.backlog_s").set(1.5)
    root.scope("coproc").scope("engine").gauge("cycles").set(1e6)
    root.counter("exec.cells").inc(1000)
    root.gauge("service.queue_depth").set(1)
    root.distribution("exec.pair_latency_us", engine="vector").observe(7.0)
    drained = root.drain_windows()

    state = _worker_state()
    acme.merge_state(state, extra_labels={"shard": 1})
    root.merge_state(state)
    root.merge_state(None)
    return {
        "snapshot": root.snapshot(),
        "view_snapshot_is_root_snapshot":
            acme.snapshot() == root.snapshot(),
        "diff": root.diff(before),
        "export_state": root.export_state(),
        "drained_before_merge": drained,
        "drained_after_merge": root.drain_windows(),
        "drained_again": root.drain_windows(),
        "prometheus": render_registry(root),
    }


def timeseries_case() -> dict:
    clock = _Clock(100.0)
    store = TimeSeriesStore(interval_s=1.0, retention=2, coarse_factor=2,
                            coarse_retention=3, clock=clock)
    registry = MetricsRegistry()
    registry.counter("service.jobs", tenant="acme", verdict="done")
    sealed = [len(store.tick(registry))]
    script = [
        (0.4, 1, 3, (0.010,)),          # inside the first interval
        (0.7, 2, 5, (0.020, 0.030)),    # seals window 0
        (1.0, 0, 5, ()),                # gauge only
        (3.5, 4, 2, (0.400,)),          # late tick: idle-gap compression
        (1.0, 1, 0, (0.015, 0.016)),
        (1.0, 3, 1, ()),
        (1.0, 0, 1, (0.9,)),
        (1.0, 2, 0, ()),
    ]
    for step, jobs, depth, latencies in script:
        clock.t += step
        registry.counter("service.jobs", tenant="acme",
                         verdict="done").inc(jobs)
        registry.counter("service.jobs", tenant="zeno",
                         verdict="failed").inc(jobs // 2)
        registry.gauge("service.queue_depth").set(depth)
        for value in latencies:
            registry.distribution("service.job_latency_s",
                                  tenant="acme").observe(value)
        sealed.append(len(store.tick(registry)))
    key = "service.job_latency_s{tenant=acme}"
    return {
        "sealed_per_tick": sealed,
        "document": store.to_document(),
        "tenants": store.tenants(),
        "rate": store.series(
            "service.jobs{tenant=acme,verdict=done}", "rate"),
        "p99": store.series(key, "p99"),
        "count": store.series(key, "count"),
        "gauge": store.series("service.queue_depth", "gauge"),
    }


def characterise() -> dict:
    """The whole record: every CLI case, the registry and the store."""
    with replay_directory():
        cli = {name: run_cli(argv) for name, argv in CLI_CASES.items()}
    return {"cli": cli, "registry": registry_case(),
            "timeseries": timeseries_case()}


def render(document: dict) -> str:
    """The fixture file's text for ``document``."""
    return json.dumps(document, indent=1) + "\n"


# -- recording (run once, at the parent commit) ------------------------------


def _pair_lines(config, count: int) -> list[tuple[str, str]]:
    rng = np.random.default_rng([SEED, 7])
    decode = config.alphabet.decode
    pairs = []
    for index in range(count):
        query, reference = make_pair(
            config, int(rng.integers(24, 160)),
            0.32 if index % 4 == 3 else 0.02, rng)
        pairs.append((decode(query), decode(reference)))
    return pairs


def _record_batches(scratch: str) -> None:
    pairs = _pair_lines(standard_configs()["dna-edit"], 48)
    batch = os.path.join(scratch, "pairs.txt")
    with open(batch, "w", encoding="utf-8") as handle:
        handle.writelines(f"{q} {r}\n" for q, r in pairs)
    with contextlib.redirect_stdout(io.StringIO()):
        repro_main(["align", "--batch", batch, "--engine", "auto",
                    "--chaos", "crash=0.05,bitflip=0.05",
                    "--chaos-seed", "2", "--events-out",
                    os.path.join(FIXTURE_DIR, "chaos_auto.jsonl")])
        repro_main(["align", "--batch", batch, "--config", "dna-gap",
                    "--events-out",
                    os.path.join(FIXTURE_DIR, "vector.jsonl")])


def _record_daemon(scratch: str) -> None:
    from repro.exec.engine import BatchConfig
    from repro.obs.anomaly import AnomalyDetector
    from repro.obs.prof import CostModel
    from repro.resilience import ResilienceConfig, SupervisedEngine
    from repro.service import AlignmentDaemon, JobSpec, JobSpool

    config = standard_configs()["dna-edit"]
    pairs = _pair_lines(config, 24)
    clock = _Clock(0.0)
    store = TimeSeriesStore(interval_s=1.0, clock=clock)
    detector = AnomalyDetector(
        watch=(("service.job_latency_s", "p99"),), warmup=3)
    spool = JobSpool(os.path.join(scratch, "spool"))
    stream = obs.events.open_jsonl(
        os.path.join(FIXTURE_DIR, "daemon.jsonl"))
    ctx = obs.Observability.enabled_context(events=stream)
    daemon = AlignmentDaemon(spool, obs=ctx, telemetry=store,
                             detector=detector, max_unit_pairs=4)
    daemon.sample_telemetry()
    for round_ in range(3):
        for tenant, engine in (("acme", "auto"), ("zeno", "vector")):
            spool.submit(JobSpec(
                job_id=f"{tenant}-{round_}", tenant=tenant,
                engine=engine, pairs=pairs[8 * round_:8 * round_ + 8]))
        if round_ == 1:
            spool.submit(JobSpec(job_id="zeno-bad", tenant="zeno",
                                 config="no-such-preset",
                                 pairs=pairs[:1]))
            spool.submit(JobSpec(job_id="acme-late", tenant="acme",
                                 deadline_s=1e-9, pairs=pairs[:8]))
        daemon.ingest()
        while daemon.run_next():
            time.sleep(0.4)
            clock.t += 1.0
            daemon.sample_telemetry()
    # A deadline the cost model cannot meet: the supervisor sheds.
    SupervisedEngine(
        config, BatchConfig(traceback=False),
        ResilienceConfig(deadline_s=60.0, shed_safety=1.0,
                         backend="thread",
                         cost_model=CostModel(seconds_per_cell=0.005)),
        obs=ctx, tenant="zeno").run(
            [(config.encode(q), config.encode(r)) for q, r in pairs[:12]])
    # A latency step on one tenant's series: the detector alerts.
    for value in [0.010] * 6 + [0.800] * 3:
        ctx.metrics.distribution("service.job_latency_s",
                                 tenant="acme").observe(value)
        time.sleep(0.1)
        clock.t += 1.0
        daemon.sample_telemetry()
    daemon.sample_telemetry(flush=True)
    stream.close()


def record() -> None:
    """Re-record the four event streams (real runs, wall-clock
    timestamps) into :data:`FIXTURE_DIR`."""
    os.makedirs(FIXTURE_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="smx-telemetry-record-")
    try:
        _record_batches(scratch)
        _record_daemon(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(os.path.join(FIXTURE_DIR, "daemon.jsonl"), "rb") as handle:
        data = handle.read()
    # Cut inside a line a little past the middle of the stream.
    cut = data.index(b"\n", int(len(data) * 0.6)) + 40
    with open(os.path.join(FIXTURE_DIR, CUT), "wb") as handle:
        handle.write(data[:cut])


def main() -> None:
    if "--record" in sys.argv[1:]:
        record()
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        handle.write(render(characterise()))
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
