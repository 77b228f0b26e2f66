"""Declarative latency SLOs over ``smx-events/1`` telemetry streams.

An :class:`SLObjective` states a promise about one latency field of one
event kind -- "p99 of ``shard_done.elapsed_s`` stays under 250 ms,
judged over the trailing 60 s" -- in a compact spec string::

    [NAME=]KIND.FIELD:pPP<TARGET[@WINDOW]

    shard_done.elapsed_s:p99<0.25@60
    tail=unit_done.elapsed_s:p95<0.5

:class:`SLOEvaluator` replays a recorded (or live) event list against a
set of objectives and reports, per objective, the achieved percentile,
the breach fraction, and the **error-budget burn rate**: an objective
at p99 tolerates 1% of samples over target, so a 3% observed breach
fraction burns budget at 3x the sustainable rate. Burn rate 1.0 is the
break-even line; anything above it exhausts the budget before the
window rolls over.

:func:`monitor_snapshot` + :func:`format_monitor` build the ``repro
monitor`` live view on top: run identity and progress, rolling latency
percentiles per event kind, the adaptive planner's route mix, fault /
shed / quarantine tallies, and each objective's status.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from repro.obs.events import EventIndex

#: Event kinds carrying a latency field the monitor tracks by default.
LATENCY_KINDS = (("shard_done", "elapsed_s"), ("unit_done", "elapsed_s"),
                 ("batch_end", "elapsed_s"))

#: Fields of the envelope / non-route ``plan`` payload to ignore when
#: aggregating the planner's route mix.
_PLAN_ENVELOPE = frozenset({"seq", "t", "kind", "pairs"})

_SPEC_RE = re.compile(
    r"^(?:(?P<name>[\w.-]+)=)?"
    r"(?P<kind>[A-Za-z_][\w]*)\.(?P<field>[A-Za-z_][\w]*)"
    r":p(?P<pct>\d+(?:\.\d+)?)"
    r"<(?P<target>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"(?:@(?P<window>\d+(?:\.\d+)?))?$")


@dataclass(frozen=True)
class SLObjective:
    """One latency promise: a percentile of ``kind.field`` under
    ``target``, judged over the trailing ``window_s`` seconds
    (``None`` = the whole stream)."""

    name: str
    kind: str
    field: str
    percentile: float
    target: float
    window_s: float | None = None

    def __post_init__(self) -> None:
        if not 0 < self.percentile < 100:
            raise ValueError(
                f"percentile must be in (0, 100), got {self.percentile}")
        if self.target <= 0:
            raise ValueError(f"target must be > 0, got {self.target}")
        if self.window_s is not None and self.window_s <= 0:
            raise ValueError(
                f"window must be > 0 seconds, got {self.window_s}")

    @property
    def budget(self) -> float:
        """Allowed breach fraction: p99 tolerates 0.01 of samples."""
        return 1.0 - self.percentile / 100.0

    def describe(self) -> str:
        pct = f"{self.percentile:g}"
        window = f"@{self.window_s:g}s" if self.window_s else ""
        return (f"{self.name}: {self.kind}.{self.field} "
                f"p{pct} < {self.target:g}s{window}")


def parse_slo(spec: str) -> SLObjective:
    """Parse one ``[NAME=]KIND.FIELD:pPP<TARGET[@WINDOW]`` spec.

    Raises:
        ValueError: the spec does not match the grammar or carries
            out-of-range numbers.
    """
    match = _SPEC_RE.match(spec.strip())
    if match is None:
        raise ValueError(
            f"bad SLO spec {spec!r}; expected "
            f"[NAME=]KIND.FIELD:pPP<TARGET[@WINDOW], e.g. "
            f"shard_done.elapsed_s:p99<0.25@60")
    kind = match.group("kind")
    field_name = match.group("field")
    window = match.group("window")
    name = match.group("name") or f"{kind}.{field_name}"
    return SLObjective(
        name=name, kind=kind, field=field_name,
        percentile=float(match.group("pct")),
        target=float(match.group("target")),
        window_s=float(window) if window is not None else None)


#: Generous defaults: catch pathological runs, not healthy jitter.
DEFAULT_SLOS = (
    parse_slo("shard_p99=shard_done.elapsed_s:p99<30"),
    parse_slo("unit_p99=unit_done.elapsed_s:p99<30"),
)


def _sample_quantile(samples: list[float], q: float) -> float:
    """Type-1 (lower) quantile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = min(max(math.ceil(q * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


def _percentiles(samples: list[float]) -> dict | None:
    """``{count, p50, p90, p99}`` of a sample list (None when empty):
    the latency row of both dashboards."""
    if not samples:
        return None
    return {"count": len(samples),
            "p50": _sample_quantile(samples, 0.50),
            "p90": _sample_quantile(samples, 0.90),
            "p99": _sample_quantile(samples, 0.99)}


def latency_table(events: "list[dict] | EventIndex",
                  window_s: float | None = None) -> dict[str, dict]:
    """Rolling ``{count, p50, p90, p99, max}`` per tracked latency
    kind (:data:`LATENCY_KINDS`; kinds without samples are omitted)."""
    index = EventIndex.over(events)
    table = {}
    for kind, field_name in LATENCY_KINDS:
        samples = index.samples(kind, field_name, window_s)
        if samples:
            table[kind] = {**_percentiles(samples), "max": max(samples)}
    return table


class SLOEvaluator:
    """Evaluates a set of objectives against an event list."""

    def __init__(self, objectives=DEFAULT_SLOS) -> None:
        self.objectives = tuple(objectives)

    def evaluate(self, events: "list[dict] | EventIndex",
                 now_t: float | None = None) -> list[dict]:
        """Per-objective report dicts (one per objective, in order).

        Keys: ``name``, ``spec``, ``samples``, ``achieved`` (the
        observed percentile, None without samples), ``target``,
        ``breaches``, ``breach_fraction``, ``budget``, ``burn_rate``
        (None without samples; ``inf`` when a zero-budget objective
        breaches) and ``status`` (``"ok"`` / ``"breach"`` /
        ``"no-data"``).
        """
        index = EventIndex.over(events)
        reports = []
        for objective in self.objectives:
            samples = index.samples(objective.kind, objective.field,
                                    objective.window_s, now_t)
            budget = objective.budget
            report = {
                "name": objective.name,
                "spec": objective.describe(),
                "samples": len(samples), "achieved": None,
                "target": objective.target, "breaches": 0,
                "breach_fraction": 0.0, "budget": budget,
                "burn_rate": None, "status": "no-data"}
            reports.append(report)
            if not samples:
                continue
            achieved = _sample_quantile(samples,
                                        objective.percentile / 100.0)
            breaches = sum(1 for s in samples if s > objective.target)
            fraction = breaches / len(samples)
            if budget > 0:
                burn = fraction / budget
            else:
                burn = math.inf if breaches else 0.0
            report.update(
                achieved=achieved, breaches=breaches,
                breach_fraction=fraction, burn_rate=burn,
                status="breach" if achieved > objective.target else "ok")
        return reports


def monitor_snapshot(events: "list[dict] | EventIndex",
                     objectives=DEFAULT_SLOS,
                     window_s: float | None = 60.0,
                     skipped: int = 0) -> dict:
    """Digest an event list into the ``repro monitor`` dashboard.

    Tolerates partial streams (a live run's tail): every section
    renders from whatever events exist so far.
    """
    index = EventIndex.over(events)
    run_start = index.last("run_start", "batch_start")
    heartbeat = index.last("heartbeat")
    progress = index.last("progress")
    queue_event = index.last("queue")

    done = total = failures = queued = None
    if heartbeat is not None:
        done = heartbeat.get("done")
        total = heartbeat.get("total")
        failures = heartbeat.get("failures")
        queued = heartbeat.get("queued")
    elif progress is not None:
        done = progress.get("done")
        total = progress.get("total")
    if total is None and run_start is not None:
        total = run_start.get("pairs")

    routes: dict[str, int] = {}
    for event in index.of("plan"):
        for key, value in event.items():
            if key in _PLAN_ENVELOPE:
                continue
            if isinstance(value, (int, float)) and \
                    not isinstance(value, bool):
                routes[key] = routes.get(key, 0) + int(value)

    faults: dict[str, int] = {}
    for event in index.of("fault"):
        fault = str(event.get("fault", "?"))
        faults[fault] = faults.get(fault, 0) + 1

    return {
        "events": len(index),
        "skipped_lines": skipped,
        "run_id": (run_start or {}).get("run_id"),
        "backend": (run_start or {}).get("backend"),
        "duration_s": index.duration_s,
        "done": done, "total": total,
        "failures": failures, "queued": queued,
        "routes": dict(sorted(routes.items())),
        "latencies": latency_table(index, window_s),
        "faults": dict(sorted(faults.items())),
        "shed_pairs": sum(int(e.get("pairs", 0))
                          for e in index.of("shed")),
        "quarantined": len(index.of("quarantine")),
        "retries": len(index.of("retry")),
        "bisections": len(index.of("bisect")),
        "queue_depth": (int(queue_event.get("depth", 0))
                        if queue_event is not None else None),
        "queue_tenants": dict((queue_event or {}).get("tenants") or {}),
        "alerts": len(index.of("alert")),
        "slos": SLOEvaluator(objectives).evaluate(index),
        "ended": index.last("run_end", "batch_end") is not None,
    }


# -- per-tenant fleet accounting -------------------------------------------

#: Default per-tenant promise judged from the daemon's job stream.
DEFAULT_FLEET_SLOS = (
    parse_slo("job_p90=job_done.elapsed_s:p90<30"),
)


def split_by_tenant(events: list[dict]) -> dict[str, list[dict]]:
    """Group events by their ``tenant`` field (events without one --
    engine-level shard/unit telemetry -- are omitted; job-level events
    all carry it)."""
    lanes: dict[str, list[dict]] = {}
    for event in events:
        tenant = event.get("tenant")
        if tenant is None:
            continue
        lanes.setdefault(str(tenant), []).append(event)
    return lanes


def fleet_snapshot(events: "list[dict] | EventIndex",
                   objectives=DEFAULT_FLEET_SLOS,
                   window_s: float | None = None,
                   skipped: int = 0, max_alerts: int = 10) -> dict:
    """Digest a daemon's event stream into the ``repro fleet`` view:
    per-tenant job verdicts, latency percentiles, queue depth,
    SLO/error-budget status, and recent anomaly alerts.

    Per-tenant SLOs are the *same* objectives evaluated against each
    tenant's own event slice, so one tenant's burn rate cannot hide
    inside another's headroom. ``window_s`` (None = whole stream)
    restricts latency/SLO accounting to the trailing window.
    """
    index = EventIndex.over(events)
    now_t = index.now_t
    lanes = {tenant: EventIndex(lane) for tenant, lane
             in split_by_tenant(index.events).items()}
    queue_event = index.last("queue") or {}
    queue_tenants = dict(queue_event.get("tenants") or {})
    alerts = index.of("alert")

    tenants: dict[str, dict] = {}
    evaluator = SLOEvaluator(objectives)
    idle = EventIndex([])  # a tenant only the queue event names
    # An alert that names a tenant sits in that tenant's lane, so the
    # lanes and the queue event between them name every tenant.
    for tenant in sorted(set(lanes) | set(queue_tenants)):
        lane = lanes.get(tenant, idle)
        tenants[tenant] = {
            "jobs": {verdict: len(lane.of(f"job_{verdict}"))
                     for verdict in ("done", "failed", "rejected")},
            "latency": _percentiles(
                lane.samples("job_done", "elapsed_s", window_s, now_t)),
            "queue_depth": int(queue_tenants.get(tenant, 0)),
            "alerts": len(lane.of("alert")),
            "slos": evaluator.evaluate(lane, now_t),
        }

    recent = [{key: value for key, value in alert.items()
               if key not in ("seq",)}
              for alert in alerts[-max_alerts:]]
    return {
        "events": len(index),
        "skipped_lines": skipped,
        "duration_s": now_t,
        "tenants": tenants,
        "queue_depth": int(queue_event.get("depth", 0)),
        "alerts": len(alerts),
        "recent_alerts": recent,
    }


def format_fleet(snapshot: dict) -> str:
    """Human-readable fleet panel: one block per tenant plus the
    recent-alert tail."""
    lines = [f"fleet  events={snapshot.get('events', 0)}  "
             f"t={snapshot.get('duration_s', 0.0):.2f}s  "
             f"queue={snapshot.get('queue_depth', 0)}  "
             f"alerts={snapshot.get('alerts', 0)}"]
    if snapshot.get("skipped_lines"):
        lines.append(f"  ({snapshot['skipped_lines']} truncated "
                     f"line(s) skipped)")
    tenants = snapshot.get("tenants") or {}
    if not tenants:
        lines.append("(no tenant activity)")
    for tenant, info in tenants.items():
        jobs = info.get("jobs") or {}
        header = (f"tenant {tenant:<12} queue={info.get('queue_depth', 0)}"
                  f"  done={jobs.get('done', 0)}"
                  f" failed={jobs.get('failed', 0)}"
                  f" rejected={jobs.get('rejected', 0)}")
        if info.get("alerts"):
            header += f"  alerts={info['alerts']}"
        lines.append(header)
        latency = info.get("latency")
        if latency:
            lines.append(
                f"  latency n={latency['count']:<5} "
                f"p50={_fmt_s(latency['p50'])} "
                f"p90={_fmt_s(latency['p90'])} "
                f"p99={_fmt_s(latency['p99'])}")
        for report in info.get("slos") or []:
            lines.append("  " + _slo_line(report, 20))
    for alert in snapshot.get("recent_alerts") or []:
        lines.append(
            f"alert  w{alert.get('window_index')} "
            f"{alert.get('series')} {alert.get('field')} "
            f"{alert.get('direction')} value={alert.get('value'):.6g} "
            f"baseline={alert.get('baseline'):.6g} "
            f"dev={alert.get('deviation'):.1f}x")
    return "\n".join(lines)


def _fmt_s(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.3f}s"
    return f"{value * 1e3:.2f}ms"


def _slo_line(report: dict, width: int) -> str:
    """One objective's status line, its name padded to ``width``."""
    marker = {"ok": "OK ", "breach": "!! ",
              "no-data": "-- "}.get(report["status"], "?? ")
    burn = report["burn_rate"]
    detail = (f"achieved={_fmt_s(report['achieved'])} "
              f"target={_fmt_s(report['target'])} n={report['samples']}")
    if burn is not None:
        detail += f" burn={burn:.2f}x" if burn != math.inf else " burn=inf"
    return f"slo {marker}{report['name']:<{width}} {detail}"


def format_monitor(snapshot: dict) -> str:
    """Human-readable monitor panel for one snapshot."""
    lines = []
    run_id = snapshot.get("run_id") or "-"
    backend = snapshot.get("backend") or "-"
    state = "ended" if snapshot.get("ended") else "running"
    lines.append(f"run {run_id} [{backend}] {state}  "
                 f"events={snapshot.get('events', 0)}  "
                 f"t={snapshot.get('duration_s', 0.0):.2f}s")
    if snapshot.get("skipped_lines"):
        lines.append(f"  ({snapshot['skipped_lines']} truncated "
                     f"line(s) skipped)")
    done, total = snapshot.get("done"), snapshot.get("total")
    if done is not None or total is not None:
        progress = (f"progress {done if done is not None else '?'}"
                    f"/{total if total is not None else '?'}")
        if snapshot.get("failures") is not None:
            progress += f"  failures={snapshot['failures']}"
        if snapshot.get("queued") is not None:
            progress += f"  queued={snapshot['queued']}"
        lines.append(progress)
    if snapshot.get("queue_depth") is not None:
        depth = f"queue    depth={snapshot['queue_depth']}"
        tenants = snapshot.get("queue_tenants") or {}
        if tenants:
            depth += "  " + "  ".join(
                f"{tenant}={count}"
                for tenant, count in sorted(tenants.items()))
        if snapshot.get("alerts"):
            depth += f"  alerts={snapshot['alerts']}"
        lines.append(depth)
    routes = snapshot.get("routes") or {}
    if routes:
        mix = "  ".join(f"{route}={count}"
                        for route, count in routes.items())
        lines.append(f"routes   {mix}")
    latencies = snapshot.get("latencies") or {}
    for kind, stats in latencies.items():
        lines.append(
            f"{kind:<9} n={stats['count']:<5} "
            f"p50={_fmt_s(stats['p50'])} p90={_fmt_s(stats['p90'])} "
            f"p99={_fmt_s(stats['p99'])} max={_fmt_s(stats['max'])}")
    counts = []
    for label, key in (("faults", "faults"),):
        mapping = snapshot.get(key) or {}
        if mapping:
            counts.append(label + " " + " ".join(
                f"{fault}={count}" for fault, count in mapping.items()))
    for label in ("retries", "bisections", "shed_pairs", "quarantined"):
        value = snapshot.get(label, 0)
        if value:
            counts.append(f"{label}={value}")
    if counts:
        lines.append("health   " + "  ".join(counts))
    for report in snapshot.get("slos") or []:
        lines.append(_slo_line(report, 24))
    return "\n".join(lines)
