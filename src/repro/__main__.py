"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``align``    -- align two sequences on the SMX system and print the
  result (score, CIGAR, pretty view, simulated cycles); with
  ``--batch FILE`` it aligns many pairs through the batched engine
  (``--engine {scalar,vector,wavefront,bitparallel,auto}``,
  ``--workers N``; ``wavefront`` and the score-only ``bitparallel``
  need a unit-cost edit config, ``auto`` routes each
  pair adaptively). ``--resilient``,
  ``--deadline S`` and ``--chaos CLS=RATE`` route the batch through
  the supervised fault-tolerant engine (failed pairs print as ``FAIL``
  lines, exit code 3 signals a partial result); ``--checkpoint FILE``
  writes a crash-safe incremental ``smx-outcome/1`` checkpoint and
  ``--resume FILE`` restarts an interrupted batch from one;
- ``enqueue``  -- submit a batch as an ``smx-job/1`` file into a
  service spool directory (tenant, priority, deadline);
- ``serve``    -- run the alignment service daemon over a spool:
  admission control prices each job against its deadline before
  accepting, accepted jobs drain weighted-fair per tenant through the
  supervised engine with incremental checkpoints, and a killed daemon
  auto-resumes interrupted jobs on restart;
- ``simulate`` -- run the cycle-level SMX-2D simulation for a block
  workload and report utilization/traffic;
- ``area``     -- print the calibrated 22 nm area/power breakdown;
- ``stats``    -- pretty-print the metrics snapshot of a JSON run
  report (written by ``--metrics-json`` or the benchmark harness), or
  the completion/quarantine digest of an ``smx-outcome/1``
  checkpoint/outcome file;
- ``top``      -- digest a telemetry events file once;
- ``monitor``  -- live dashboard over a telemetry events file: rolling
  latency percentiles, route mix, fault/shed tallies, and SLO status
  with error-budget burn rates (``--once`` for a single snapshot);
- ``critpath`` -- extract the critical path from a (stitched) Chrome
  trace written by ``--trace-out`` and attribute the end-to-end wall
  clock to the phases along it.

Observability: ``align`` and ``simulate`` accept ``--trace-out FILE``
(Perfetto/``chrome://tracing``-loadable span trace in simulated cycles)
and ``--metrics-json FILE`` (machine-readable run report); ``SMX_LOG=
debug`` turns on stderr logging for the whole ``repro`` hierarchy.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro import obs
from repro.analysis.area import smx_area_breakdown, smx_power_mw
from repro.config import standard_configs
from repro.core.coprocessor import CoprocParams, CoprocessorSim
from repro.core.system import SmxSystem
from repro.core.worker import BlockJob
from repro.errors import ConfigurationError, EncodingError
from repro.exec import routes
from repro.exec.engine import BatchConfig, BatchEngine
from repro.obs import reports as obs_reports


def _add_config_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default="dna-edit",
                        choices=sorted(standard_configs()),
                        help="alignment configuration preset")


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON timeline "
                             "(open in Perfetto / chrome://tracing)")
    parser.add_argument("--metrics-json", metavar="FILE", default=None,
                        help="write a machine-readable run report "
                             "(metrics snapshot + parameters)")
    parser.add_argument("--profile-out", metavar="FILE", default=None,
                        help="write a collapsed-stack flamegraph "
                             "(feed to flamegraph.pl or speedscope)")
    parser.add_argument("--profile-unit", default="wall_us",
                        choices=obs.prof.UNITS,
                        help="unit the flamegraph folds by "
                             "(default: wall_us)")
    parser.add_argument("--cost-out", metavar="FILE", default=None,
                        help="write the per-pair cost table predicted "
                             "by the profiled CostModel (JSON)")


def _progress_printer(event: dict) -> None:
    """Live one-line renderer for --progress (stderr, tail-style)."""
    kind = event.get("kind")
    if kind in ("progress", "heartbeat"):
        done, total = event.get("done"), event.get("total")
        extra = (f", {event['queued']} queued"
                 if event.get("queued") else "")
        print(f"[{kind} t={event.get('t', 0):.2f}s "
              f"{done}/{total}{extra}]", file=sys.stderr)
    elif kind in ("quarantine", "fault", "degrade"):
        detail = event.get("fault", event.get("rung", ""))
        print(f"[{kind} t={event.get('t', 0):.2f}s {detail}]",
              file=sys.stderr)


def _obs_context(args: argparse.Namespace) -> obs.Observability:
    """An enabled context when any telemetry output was requested."""
    profile = bool(args.profile_out or args.cost_out)
    events_out = getattr(args, "events_out", None)
    progress = getattr(args, "progress", False)
    stream = None
    if events_out:
        stream = obs.events.open_jsonl(events_out)
    elif progress:
        stream = obs.EventStream()
    if stream is not None and progress:
        stream.subscribe(_progress_printer)
    if args.trace_out or args.metrics_json or profile or stream:
        return obs.Observability.enabled_context(profile=profile,
                                                 events=stream)
    return obs.get_obs()


def _write_obs_outputs(args: argparse.Namespace, ctx: obs.Observability,
                       name: str, params: dict,
                       extra: dict | None = None,
                       cost_pairs=None) -> None:
    ctx.events.close()
    if args.trace_out:
        path = ctx.tracer.write(args.trace_out)
        print(f"[trace written to {path}]")
    if args.profile_out:
        path = ctx.profiler.write_collapsed(args.profile_out,
                                            args.profile_unit)
        print(f"[profile written to {path}]")
    if args.cost_out:
        model = obs.CostModel.from_profile(ctx.profiler)
        document = {"seconds_per_cell": model.seconds_per_cell,
                    "bytes_per_cell": model.bytes_per_cell,
                    "pairs": model.cost_table(cost_pairs or [])}
        path = obs_reports.write_json(document, args.cost_out)
        print(f"[cost table written to {path}]")
    if args.metrics_json:
        report = obs_reports.run_report(
            name, params=params, metrics=ctx.metrics.snapshot(),
            extra=extra)
        path = obs_reports.write_json(report, args.metrics_json)
        print(f"[metrics written to {path}]")


def _read_pair_file(path: str) -> list[tuple[str, str]]:
    """Parse a batch file: one whitespace-separated ``query reference``
    pair per line; blank lines and ``#`` comments are skipped."""
    pairs = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'QUERY REFERENCE', got "
                    f"{len(fields)} fields")
            pairs.append((fields[0], fields[1]))
    return pairs


def cmd_align_batch(args: argparse.Namespace) -> int:
    config = standard_configs()[args.config]
    ctx = _obs_context(args)
    try:
        pairs = _read_pair_file(args.batch)
        encoded = [(config.encode(q), config.encode(r))
                   for q, r in pairs]
    except (OSError, ValueError, EncodingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # A score-only engine prints '-' for the CIGAR column instead
        # of rejecting the batch.
        batch = BatchConfig(engine=args.engine, mode="global",
                            traceback=not routes.score_only(args.engine),
                            workers=args.workers)
        # Fail fast with one line instead of a mid-batch traceback.
        BatchEngine(config, batch).check()
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checkpoint = getattr(args, "checkpoint", None)
    resume_path = getattr(args, "resume", None)
    supervised = (args.resilient or args.deadline is not None
                  or args.chaos is not None or checkpoint is not None
                  or resume_path is not None)
    failures: list = []
    counters: dict = {}
    started = time.perf_counter()
    if supervised:
        from repro.resilience import (
            ResilienceConfig,
            SupervisedEngine,
            outcome_io,
            parse_rates,
        )
        try:
            plan = (parse_rates(args.chaos, seed=args.chaos_seed)
                    if args.chaos else None)
            policy = ResilienceConfig(
                deadline_s=args.deadline,
                shard_timeout_s=args.shard_timeout,
                max_retries=args.max_retries,
                validate=plan is not None)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        resume = None
        if resume_path:
            try:
                resume = outcome_io.load(resume_path)
            except (OSError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            if checkpoint is None:
                # Keep updating the same file we are resuming from.
                checkpoint = resume_path
        try:
            outcome = SupervisedEngine(config, batch, policy, obs=ctx,
                                       plan=plan).run(
                encoded, checkpoint_path=checkpoint, resume=resume)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results = outcome.results
        failures = outcome.failures
        counters = dict(outcome.counters)
    else:
        try:
            results = BatchEngine(config, batch, obs=ctx).run(encoded)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    elapsed = time.perf_counter() - started
    by_index = {failure.index: failure for failure in failures}
    for i, ((query, reference), result) in enumerate(zip(pairs, results)):
        if result is None:
            failure = by_index[i]
            print(f"FAIL\t{failure.fault}:{failure.error_type}\t"
                  f"{query}\t{reference}")
        else:
            cigar = (result.alignment.cigar_string
                     if result.alignment is not None else "-")
            print(f"{result.score}\t{cigar}\t{query}\t{reference}")
    rate = len(pairs) / elapsed if elapsed > 0 else float("inf")
    summary = (f"[{len(pairs)} pairs in {elapsed * 1e3:.1f} ms "
               f"({rate:,.0f} pairs/s, engine={args.engine}, "
               f"workers={args.workers})]")
    if supervised:
        summary = summary[:-1] + (
            f", {len(pairs) - len(failures)} ok, "
            f"{len(failures)} failed]")
    print(summary, file=sys.stderr)
    extra = {"elapsed_s": elapsed, "pairs_per_sec": rate}
    if supervised:
        extra["resilience"] = {
            "counters": counters,
            "failures": [{"index": f.index, "fault": f.fault,
                          "error_type": f.error_type,
                          "attempts": f.attempts,
                          "rungs": list(f.rungs)} for f in failures]}
    _write_obs_outputs(
        args, ctx, "align-batch",
        params={"config": config.name, "pairs": len(pairs),
                "engine": args.engine, "workers": args.workers,
                "resilient": supervised,
                "chaos": args.chaos or None},
        extra=extra, cost_pairs=encoded)
    return 3 if failures else 0


def cmd_align(args: argparse.Namespace) -> int:
    if args.batch:
        if args.query is not None or args.reference is not None:
            print("error: --batch replaces the QUERY/REFERENCE "
                  "arguments", file=sys.stderr)
            return 2
        return cmd_align_batch(args)
    if getattr(args, "checkpoint", None) or getattr(args, "resume", None):
        print("error: --checkpoint/--resume need --batch FILE",
              file=sys.stderr)
        return 2
    if args.query is None or args.reference is None:
        print("error: align needs QUERY and REFERENCE (or --batch FILE)",
              file=sys.stderr)
        return 2
    config = standard_configs()[args.config]
    ctx = _obs_context(args)
    system = SmxSystem(config, obs=ctx)
    q_codes = config.encode(args.query)
    r_codes = config.encode(args.reference)
    result = system.align(q_codes, r_codes)
    print(f"score : {result.score}")
    print(f"cigar : {result.alignment.cigar_string}")
    print(f"cells : {result.cells_computed} computed, "
          f"{result.cells_recomputed} recomputed for traceback")
    print()
    print(result.alignment.pretty(args.query, args.reference))
    if args.timing:
        n = max(64, len(q_codes))
        m = max(64, len(r_codes))
        print()
        for impl in ("simd", "smx1d", "smx2d", "smx"):
            timing = system.implementation_timing(n, m, "align", impl)
            print(f"{impl:>6}: {timing.cycles:14,.0f} cycles "
                  f"({timing.gcups:9.2f} GCUPS)")
    _write_obs_outputs(
        args, ctx, "align",
        params={"config": config.name, "n": len(q_codes),
                "m": len(r_codes), "timing": bool(args.timing)},
        extra={"result": {"score": result.score,
                          "cells_computed": result.cells_computed,
                          "cells_recomputed": result.cells_recomputed}})
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = standard_configs()[args.config]
    params = CoprocParams(n_workers=args.workers)
    ctx = _obs_context(args)
    jobs = [BlockJob(n=args.size, m=args.size, ew=config.ew,
                     store_tile_borders=args.alignment_mode, job_id=i)
            for i in range(args.blocks)]
    report = CoprocessorSim(params, obs=ctx).run(jobs)
    cells = sum(job.cells for job in jobs)
    print(f"config             : {config.name} (EW={config.ew}, "
          f"tile {config.vl}x{config.vl})")
    print(f"workload           : {args.blocks} blocks of "
          f"{args.size}x{args.size} "
          f"({'alignment' if args.alignment_mode else 'score'} mode)")
    print(f"cycles             : {report.total_cycles:,}")
    print(f"engine utilization : {report.engine_utilization:.1%}")
    print(f"throughput         : {cells / report.total_cycles:,.0f} "
          f"cells/cycle ({cells / report.total_cycles:,.0f} GCUPS @1GHz)")
    print(f"L2 port occupancy  : {report.port_occupancy:.1%}")
    print(f"memory traffic     : {report.bytes_transferred / 1024:,.0f}"
          " KiB")
    _write_obs_outputs(
        args, ctx, "simulate",
        params={"config": config.name, "ew": config.ew,
                "size": args.size, "blocks": args.blocks,
                "workers": args.workers,
                "alignment_mode": bool(args.alignment_mode)},
        extra={"coproc_report": report.to_dict()})
    return 0


def _print_outcome_stats(path: str, document: dict) -> int:
    """Render an ``smx-outcome/1`` checkpoint/outcome for ``stats``."""
    from repro.resilience import outcome_io
    summary = outcome_io.summarize(document)
    status = "complete" if summary["complete"] else "in progress"
    print(f"outcome : {document.get('schema')}  ({path})")
    print(f"status  : {status}")
    print(f"pairs   : {summary['completed']}/{summary['pairs']} "
          f"completed ({summary['fraction']:.1%})")
    if summary["unsettled"]:
        print(f"pending : {summary['unsettled']} pair(s) unsettled "
              f"(resume with 'repro align --resume {path}')")
    if summary["failures"]:
        print(f"failed  : {summary['failures']} pair(s)"
              + (f", {summary['shed']} shed" if summary["shed"] else ""))
        for fault, count in summary["quarantined_by_fault"].items():
            print(f"  {fault:<28}{count:>10,}")
    counters = summary["counters"]
    if counters:
        print()
        print("counters:")
        for key in sorted(counters):
            print(f"  {key:<28}{counters[key]:>10,}")
    return 0


def _sniff_outcome(path: str) -> dict | None:
    """The parsed document (a live checkpoint's journal folded in)
    when ``path`` is an smx-outcome file, else None (missing/malformed
    files fall through to the report loader so its one-line errors
    stay authoritative)."""
    from repro.resilience import outcome_io
    try:
        return outcome_io.load_document(path)
    except (OSError, ValueError):
        return None


def cmd_stats(args: argparse.Namespace) -> int:
    outcome_doc = _sniff_outcome(args.report)
    if outcome_doc is not None:
        return _print_outcome_stats(args.report, outcome_doc)
    try:
        report = obs_reports.load_report(args.report)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"report  : {report['name']}  ({args.report})")
    print(f"created : {report.get('created')}")
    if report.get("git_sha"):
        print(f"git sha : {report['git_sha']}")
    params = report.get("params") or {}
    if params:
        print("params  : " + ", ".join(f"{k}={v}"
                                       for k, v in sorted(params.items())))
    print()
    print("metrics:")
    print(obs_reports.format_metrics(report.get("metrics") or {},
                                     indent="  "))
    timings = report.get("timings") or []
    if timings:
        print()
        print("timings:")
        for row in timings:
            cycles = row.get("cycles", row.get("total_cycles", 0.0))
            gcups = row.get("gcups")
            line = f"  {row.get('name', '?'):<24}{cycles:16,.0f} cycles"
            if gcups is not None:
                line += f"  {gcups:10,.2f} GCUPS"
            print(line)
    resilience = report.get("resilience") or {}
    counters = resilience.get("counters") or {}
    if counters:
        print()
        print("resilience:")
        for key in sorted(counters):
            print(f"  {key:<28}{counters[key]:>10,}")
        failures = resilience.get("failures") or []
        if failures:
            print(f"  {'failed pairs':<28}{len(failures):>10,}")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    from repro.obs import events as obs_events, slo as obs_slo
    outcome_doc = _sniff_outcome(args.events)
    if outcome_doc is not None:
        return _print_outcome_stats(args.events, outcome_doc)
    try:
        event_list, skipped = obs_events.load_events(
            args.events, strict=getattr(args, "strict", False))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    index = obs_events.EventIndex(event_list)
    digest = obs_events.summarize(index)
    latencies = obs_slo.latency_table(index)
    if getattr(args, "json", False):
        import json as json_mod
        document = dict(digest)
        document["skipped_lines"] = skipped
        document["latencies"] = latencies
        print(json_mod.dumps(document, sort_keys=True))
        return 0
    print(f"events  : {digest['events']}  ({args.events})")
    if skipped:
        print(f"          ({skipped} truncated line(s) skipped; "
              f"--strict to fail instead)")
    print(f"schema  : {digest['schema'] or '(none)'}")
    print(f"duration: {digest['duration_s']:.2f}s")
    start, end = digest["run_start"], digest["run_end"]
    if start:
        line = f"run     : {start.get('pairs', '?')} pairs"
        if "shards" in start:
            line += f" across {start['shards']} shard(s)"
        if "backend" in start:
            line += f" [{start['backend']}]"
        print(line)
    beat = digest["progress"] or digest["heartbeat"]
    if beat:
        done, total = beat.get("done"), beat.get("total")
        percent = (f" ({100 * done / total:.0f}%)"
                   if isinstance(done, (int, float))
                   and isinstance(total, (int, float)) and total else "")
        print(f"progress: {done}/{total}{percent} at "
              f"t={beat.get('t', 0):.2f}s")
    if end:
        status = "complete"
        if end.get("failures"):
            status = f"complete, {end['failures']} failure(s)"
        print(f"status  : {status}")
    elif event_list:
        print("status  : still running (no run_end/batch_end event)")
    print()
    print("by kind :")
    for kind, count in digest["by_kind"].items():
        print(f"  {kind:<16}{count:>8,}")
    if latencies:
        print()
        print("latency :")
        for kind, stats in latencies.items():
            print(f"  {kind:<12} n={stats['count']:<6,} "
                  f"p50={stats['p50']:.4f}s p90={stats['p90']:.4f}s "
                  f"p99={stats['p99']:.4f}s max={stats['max']:.4f}s")
    quarantines = digest["quarantines"]
    if quarantines:
        print()
        print("quarantined pairs:")
        for event in quarantines:
            print(f"  pair {event.get('index', '?')}: "
                  f"{event.get('fault', '?')} "
                  f"({event.get('error_type', '?')}, "
                  f"{event.get('attempts', '?')} attempts)")
    return 0


def _watch(args: argparse.Namespace, default_slos, snapshot, render) -> int:
    """The read loop of ``repro monitor`` and ``repro fleet``: feed the
    file through one :class:`~repro.obs.events.EventReader` as it
    grows, and print ``render(snapshot(events, ...))`` whenever the
    event count changed, until the view reports ``ended`` (or Ctrl-C).
    ``--once`` is the same loop run for one final read.

    The reader holds back a partially written tail (the writer flushes
    whole lines, but reads can race mid-write), so every byte is
    parsed exactly once however long the stream is followed.
    """
    import json as json_mod

    from repro.obs import events as obs_events, slo as obs_slo
    try:
        objectives = [] if args.no_default_slos else list(default_slos)
        for spec in args.slo or []:
            objectives.append(obs_slo.parse_slo(spec))
        handle = open(args.events, encoding="utf-8")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reader = obs_events.EventReader(args.events, strict=args.strict)
    event_list: list[dict] = []
    rendered = -1
    with handle:
        try:
            while True:
                try:
                    event_list.extend(
                        reader.feed(handle.read(), final=args.once))
                except ValueError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                if args.once and not event_list:
                    print(f"error: {args.events}: no events",
                          file=sys.stderr)
                    return 2
                if len(event_list) != rendered:
                    rendered = len(event_list)
                    view = snapshot(event_list, objectives,
                                    window_s=args.window,
                                    skipped=reader.skipped)
                    if args.json:
                        print(json_mod.dumps(view, sort_keys=True),
                              flush=True)
                    else:
                        print(render(view))
                        if not args.once:
                            print("---", flush=True)
                    if args.once or view.get("ended"):
                        return 0
                time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_monitor(args: argparse.Namespace) -> int:
    from repro.obs import slo as obs_slo
    return _watch(args, obs_slo.DEFAULT_SLOS, obs_slo.monitor_snapshot,
                  obs_slo.format_monitor)


def cmd_fleet(args: argparse.Namespace) -> int:
    """Per-tenant fleet dashboard over a daemon's event stream."""
    from repro.obs import slo as obs_slo
    return _watch(args, obs_slo.DEFAULT_FLEET_SLOS, obs_slo.fleet_snapshot,
                  obs_slo.format_fleet)


def cmd_critpath(args: argparse.Namespace) -> int:
    import json as json_mod

    from repro.obs import critpath as obs_critpath
    try:
        with open(args.trace, encoding="utf-8") as handle:
            doc = json_mod.load(handle)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = obs_critpath.critical_path(doc, root_name=args.root)
    if path is None:
        target = f"named {args.root!r}" if args.root else "at all"
        print(f"error: {args.trace}: no spans {target}", file=sys.stderr)
        return 2
    print(obs_critpath.format_critical_path(path, limit=args.limit))
    totals = sorted(path.phase_totals().items(),
                    key=lambda kv: -kv[1])
    print()
    print("self time by phase:")
    total = path.total_us or 1.0
    for name, self_us in totals:
        print(f"  {name:<36} {self_us / 1e3:>10.3f}ms "
              f"{self_us / total * 100.0:>5.1f}%")
    return 0


def cmd_area(args: argparse.Namespace) -> int:
    breakdown = smx_area_breakdown(n_workers=args.workers)
    print(f"{'component':<40}{'mm^2':>10}{'% of core':>11}")
    for name, area, percent in breakdown.rows():
        print(f"{name:<40}{area:>10.4f}{percent:>10.2f}%")
    print(f"\npower @20% activity: {smx_power_mw():.3f} mW")
    return 0


def cmd_enqueue(args: argparse.Namespace) -> int:
    from repro.service import JobSpec, JobSpool, new_job_id
    try:
        pairs = _read_pair_file(args.batch)
        if not pairs:
            raise ValueError(f"{args.batch}: no pairs")
        if args.priority < 1:
            raise ValueError("--priority must be >= 1")
        if args.deadline is not None and not args.deadline > 0:
            raise ValueError("--deadline must be positive")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    job = JobSpec(job_id=args.job_id or new_job_id(), pairs=pairs,
                  config=args.config, engine=args.engine,
                  traceback=not routes.score_only(args.engine),
                  tenant=args.tenant, priority=args.priority,
                  deadline_s=args.deadline, workers=args.workers)
    spool = JobSpool(args.spool)
    path = spool.submit(job)
    print(f"{job.job_id}\t{path}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.prof import CostModel
    from repro.obs.timeseries import TimeSeriesStore
    from repro.service import AdmissionPolicy, AlignmentDaemon, JobSpool
    try:
        spool = JobSpool(args.spool)
        policy = AdmissionPolicy(max_queue_depth=args.max_queue_depth,
                                 safety=args.admission_safety,
                                 max_backlog_s=args.max_backlog)
        cost_model = None
        if args.seconds_per_cell is not None:
            if not args.seconds_per_cell > 0:
                raise ValueError("--seconds-per-cell must be positive")
            cost_model = CostModel(
                seconds_per_cell=args.seconds_per_cell)
        telemetry = TimeSeriesStore(
            interval_s=args.telemetry_interval,
            retention=args.telemetry_retention)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    events_path = args.events_out or os.path.join(args.spool,
                                                  "events.jsonl")
    stream = obs.events.open_jsonl(events_path)
    ctx = obs.Observability.enabled_context(events=stream)
    daemon = AlignmentDaemon(
        spool, obs=ctx, policy=policy, cost_model=cost_model,
        max_unit_pairs=args.max_unit_pairs, telemetry=telemetry,
        telemetry_path=os.path.join(args.spool, "telemetry.json"),
        metrics_path=args.metrics_out
        or os.path.join(args.spool, "metrics.prom"))
    server = None
    if args.metrics_port is not None:
        from repro.obs import export as obs_export
        server = obs_export.MetricsServer(
            lambda: obs_export.render_registry(ctx.metrics),
            port=args.metrics_port)
        print(f"[metrics: {server.url}]", file=sys.stderr)
    print(f"[serving {args.spool}; events -> {events_path}; "
          f"watch with 'repro monitor {events_path}' or "
          f"'repro fleet {events_path}']",
          file=sys.stderr)
    try:
        settled = daemon.serve(max_jobs=args.max_jobs,
                               idle_exit_s=args.idle_exit,
                               poll_s=args.poll)
    except KeyboardInterrupt:
        settled = daemon.settled
    finally:
        if server is not None:
            server.close()
        stream.close()
    print(f"[{settled} job(s) settled]", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SMX heterogeneous sequence-alignment reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    align = sub.add_parser("align",
                           help="align two sequences (or a batch file)")
    _add_config_argument(align)
    align.add_argument("query", nargs="?", default=None)
    align.add_argument("reference", nargs="?", default=None)
    align.add_argument("--timing", action="store_true",
                       help="also print simulated per-implementation "
                            "cycles")
    align.add_argument("--batch", metavar="FILE", default=None,
                       help="align many pairs: one 'QUERY REFERENCE' "
                            "per line ('#' comments allowed)")
    score_only = ", ".join(repr(name) for name in routes.engines()
                           if routes.score_only(name))
    align.add_argument("--engine", choices=routes.engines(),
                       default="vector",
                       help="batch execution engine (default: vector; "
                            "'wavefront' needs a unit-cost edit config, "
                            f"{score_only} is score-only edit distance "
                            "-- CIGARs print as '-', "
                            "'auto' plans a route per pair)")
    align.add_argument("--workers", type=int, default=1,
                       help="worker processes for --batch (default: 1)")
    align.add_argument("--resilient", action="store_true",
                       help="run --batch through the supervised "
                            "fault-tolerant engine (partial results "
                            "instead of a crash; exit code 3 if any "
                            "pair failed)")
    align.add_argument("--deadline", type=float, metavar="SECONDS",
                       default=None,
                       help="wall-clock budget for the whole --batch "
                            "call (implies --resilient)")
    align.add_argument("--shard-timeout", type=float, metavar="SECONDS",
                       default=None,
                       help="per-shard hang-detection timeout for "
                            "--resilient batches")
    align.add_argument("--max-retries", type=int, default=2,
                       help="retries per failing shard/pair for "
                            "--resilient batches (default: 2)")
    align.add_argument("--chaos", metavar="CLS=RATE[,..]", default=None,
                       help="inject seeded faults into --batch, e.g. "
                            "'crash=0.05,bitflip=0.1' (classes: crash, "
                            "hang, oserror, bitflip, rangeerror; "
                            "implies --resilient)")
    align.add_argument("--chaos-seed", type=int, default=0,
                       help="fault-injection seed (default: 0)")
    align.add_argument("--checkpoint", metavar="FILE", default=None,
                       help="write an incremental smx-outcome/1 "
                            "checkpoint after every settled unit "
                            "(implies --resilient; becomes the final "
                            "outcome file on completion)")
    align.add_argument("--resume", metavar="FILE", default=None,
                       help="resume an interrupted --batch run from a "
                            "checkpoint written by --checkpoint "
                            "(the batch file must contain the same "
                            "pairs; implies --resilient)")
    align.add_argument("--progress", action="store_true",
                       help="print live progress/heartbeat events to "
                            "stderr while a --batch runs")
    align.add_argument("--events-out", metavar="FILE", default=None,
                       help="stream structured JSONL telemetry events "
                            "(watch live with 'repro top FILE')")
    _add_obs_arguments(align)
    align.set_defaults(func=cmd_align)

    enqueue = sub.add_parser(
        "enqueue",
        help="submit an alignment job to a service spool")
    enqueue.add_argument("batch", metavar="FILE",
                         help="pair file: one 'QUERY REFERENCE' per "
                              "line ('#' comments allowed)")
    enqueue.add_argument("--spool", default="spool",
                         help="spool directory (default: ./spool)")
    _add_config_argument(enqueue)
    enqueue.add_argument("--engine", choices=routes.engines(),
                         default="vector",
                         help="batch engine for the job "
                              f"(default: vector; {score_only} jobs "
                              "are score-only)")
    enqueue.add_argument("--tenant", default="default",
                         help="tenant lane for fair scheduling "
                              "(default: default)")
    enqueue.add_argument("--priority", type=int, default=1,
                         help="scheduling weight >= 1 (default: 1)")
    enqueue.add_argument("--deadline", type=float, metavar="SECONDS",
                         default=None,
                         help="latency budget; the daemon rejects the "
                              "job at admission if its cost model "
                              "predicts the deadline cannot be met")
    enqueue.add_argument("--workers", type=int, default=1,
                         help="worker threads for the job (default: 1)")
    enqueue.add_argument("--job-id", default=None,
                         help="explicit job id (default: generated)")
    enqueue.set_defaults(func=cmd_enqueue)

    serve = sub.add_parser(
        "serve",
        help="run the alignment service daemon over a job spool")
    serve.add_argument("--spool", default="spool",
                       help="spool directory (default: ./spool)")
    serve.add_argument("--poll", type=float, default=0.2,
                       metavar="SECONDS",
                       help="idle polling interval (default: 0.2)")
    serve.add_argument("--max-jobs", type=int, default=None,
                       help="exit after settling this many jobs "
                            "(default: serve forever)")
    serve.add_argument("--idle-exit", type=float, default=None,
                       metavar="SECONDS",
                       help="exit after this long with no work "
                            "(default: serve forever)")
    serve.add_argument("--max-queue-depth", type=int, default=64,
                       help="admission: reject once this many jobs "
                            "are queued (default: 64)")
    serve.add_argument("--admission-safety", type=float, default=1.5,
                       help="admission: pessimism multiplier on "
                            "predicted wait+run time vs deadline "
                            "(default: 1.5)")
    serve.add_argument("--max-backlog", type=float, default=None,
                       metavar="SECONDS",
                       help="admission: reject jobs that would push "
                            "the predicted backlog past this")
    serve.add_argument("--seconds-per-cell", type=float, default=None,
                       help="cost-model rate for admission pricing "
                            "(default: conservative built-in)")
    serve.add_argument("--max-unit-pairs", type=int, default=32,
                       help="checkpoint granularity: pairs per "
                            "supervised unit (default: 32)")
    serve.add_argument("--events-out", metavar="FILE", default=None,
                       help="telemetry events file (default: "
                            "<spool>/events.jsonl)")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="serve Prometheus /metrics on this "
                            "localhost port (0 = pick a free port)")
    serve.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="Prometheus textfile path (default: "
                            "<spool>/metrics.prom)")
    serve.add_argument("--telemetry-interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="time-series window width (default: 1.0)")
    serve.add_argument("--telemetry-retention", type=int, default=240,
                       metavar="WINDOWS",
                       help="fine-grained windows retained before "
                            "downsampling (default: 240)")
    serve.set_defaults(func=cmd_serve)

    simulate = sub.add_parser("simulate",
                              help="cycle-level SMX-2D simulation")
    _add_config_argument(simulate)
    simulate.add_argument("--size", type=int, default=1000,
                          help="DP-block edge length")
    simulate.add_argument("--blocks", type=int, default=8)
    simulate.add_argument("--workers", type=int, default=4)
    simulate.add_argument("--alignment-mode", action="store_true",
                          help="store tile borders for traceback")
    _add_obs_arguments(simulate)
    simulate.set_defaults(func=cmd_simulate)

    area = sub.add_parser("area", help="area/power breakdown")
    area.add_argument("--workers", type=int, default=4)
    area.set_defaults(func=cmd_area)

    stats = sub.add_parser("stats",
                           help="pretty-print a JSON run report")
    stats.add_argument("report", help="path to a results/<exp>.json "
                                      "or --metrics-json file")
    stats.set_defaults(func=cmd_stats)

    top = sub.add_parser("top",
                         help="digest a telemetry events file "
                              "(written by align --events-out)")
    top.add_argument("events", help="path to an events JSONL file")
    top.add_argument("--strict", action="store_true",
                     help="fail on a truncated final line instead of "
                          "skipping it")
    top.add_argument("--json", action="store_true",
                     help="print the digest as one JSON document")
    top.set_defaults(func=cmd_top)

    monitor = sub.add_parser(
        "monitor",
        help="live dashboard over a telemetry events file: rolling "
             "percentiles, route mix, and SLO burn rates")
    monitor.add_argument("events", help="path to an events JSONL file")
    monitor.add_argument("--once", action="store_true",
                         help="render a single snapshot and exit "
                              "(default: follow until run_end)")
    monitor.add_argument("--interval", type=float, default=0.5,
                         metavar="SECONDS",
                         help="poll interval in follow mode "
                              "(default: 0.5)")
    monitor.add_argument("--window", type=float, default=60.0,
                         metavar="SECONDS",
                         help="trailing window for rolling percentiles "
                              "(default: 60)")
    monitor.add_argument("--slo", action="append", metavar="SPEC",
                         default=None,
                         help="add an objective: [NAME=]KIND.FIELD:pPP"
                              "<TARGET[@WINDOW], e.g. "
                              "shard_done.elapsed_s:p99<0.25@60 "
                              "(repeatable)")
    monitor.add_argument("--no-default-slos", action="store_true",
                         help="evaluate only the --slo objectives")
    monitor.add_argument("--strict", action="store_true",
                         help="fail on any malformed event line")
    monitor.add_argument("--json", action="store_true",
                         help="print snapshots as JSON documents "
                              "instead of the panel")
    monitor.set_defaults(func=cmd_monitor)

    fleet = sub.add_parser(
        "fleet",
        help="per-tenant fleet dashboard over a daemon's event "
             "stream: job verdicts, latency, queue depth, SLO burn, "
             "anomaly alerts")
    fleet.add_argument("events", help="path to the daemon's events "
                                      "JSONL file")
    fleet.add_argument("--once", action="store_true",
                       help="render a single snapshot and exit "
                            "(default: refresh until interrupted)")
    fleet.add_argument("--interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="refresh interval (default: 1.0)")
    fleet.add_argument("--window", type=float, default=None,
                       metavar="SECONDS",
                       help="trailing window for latency/SLO "
                            "accounting (default: whole stream)")
    fleet.add_argument("--slo", action="append", metavar="SPEC",
                       default=None,
                       help="add a per-tenant objective: "
                            "[NAME=]KIND.FIELD:pPP<TARGET[@WINDOW] "
                            "(repeatable)")
    fleet.add_argument("--no-default-slos", action="store_true",
                       help="evaluate only the --slo objectives")
    fleet.add_argument("--strict", action="store_true",
                       help="fail on any malformed event line")
    fleet.add_argument("--json", action="store_true",
                       help="print snapshots as JSON documents")
    fleet.set_defaults(func=cmd_fleet)

    critpath = sub.add_parser(
        "critpath",
        help="critical-path analysis of a Chrome trace written by "
             "--trace-out")
    critpath.add_argument("trace", help="path to a trace JSON file")
    critpath.add_argument("--root", default=None,
                          help="span name to root the path at "
                               "(default: the longest span)")
    critpath.add_argument("--limit", type=int, default=0,
                          help="print at most this many path steps "
                               "(default: all)")
    critpath.set_defaults(func=cmd_critpath)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        obs.configure_logging()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
