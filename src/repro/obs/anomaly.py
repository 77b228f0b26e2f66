"""Robust change detection over retained telemetry series.

Fleet telemetry is only useful if someone notices when it moves. This
module watches series extracted from a
:class:`~repro.obs.timeseries.TimeSeriesStore` (per-tenant p99
latency, error rates, queue depth, ...) with a robust EWMA/MAD
detector and emits structured ``alert`` records when a value breaks
from its own history.

The detector is deliberately boring and fully deterministic:

- the **baseline** is an exponentially weighted moving average of the
  series (updated only *after* each value is judged, so the value
  under test never defends itself);
- the **scale** is the median absolute deviation of a trailing
  history window (times the 1.4826 normal-consistency constant), with
  relative and absolute floors so a flat series does not alert on
  noise at the resolution limit;
- a value alerts when ``|value - baseline| / scale`` exceeds the
  threshold, and the series state then **resets to the new value** --
  a level shift (the common deploy-regression shape) raises exactly
  one alert at the window where the step lands, not one per window
  forever after.

There is no wall-clock anywhere: position comes from the window index
the caller supplies, so a replayed series alerts at the same index
every time. The daemon feeds sealed windows in as they close
(:meth:`AnomalyDetector.ingest_window`) and appends each alert to the
smx-events/1 stream; ``repro monitor`` and ``repro fleet`` render
them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from statistics import median
from typing import Iterable

from repro.obs.metrics import parse_metric_key
from repro.obs.timeseries import Window

#: MAD -> standard-deviation consistency constant for normal data.
MAD_SCALE = 1.4826

#: Default series fields the daemon watches per metric kind.
DEFAULT_DIGEST_FIELD = "p99"


@dataclass(frozen=True)
class Alert:
    """One structured anomaly: ``series`` broke from its baseline at
    ``window_index``."""

    series: str           # flat metric key, e.g. "exec.latency{tenant=a}"
    kind: str             # "digest" | "counter" | "gauge"
    metric_field: str     # "p99", "rate", "gauge", ...
    window_index: int
    value: float
    baseline: float
    deviation: float      # |value - baseline| / scale, > threshold
    direction: str        # "up" | "down"
    tenant: str | None = None

    def to_dict(self) -> dict:
        # "metric_kind", not "kind": these dicts feed events.emit(),
        # whose envelope already owns the "kind" key.
        doc = {
            "series": self.series,
            "metric_kind": self.kind,
            "field": self.metric_field,
            "window_index": self.window_index,
            "value": self.value,
            "baseline": self.baseline,
            "deviation": round(self.deviation, 4),
            "direction": self.direction,
        }
        if self.tenant is not None:
            doc["tenant"] = self.tenant
        return doc


class SeriesDetector:
    """EWMA baseline + MAD scale for one series. Pure arithmetic over
    the values it is fed; no clocks, no I/O."""

    __slots__ = ("alpha", "threshold", "warmup", "history",
                 "rel_floor", "abs_floor", "baseline", "seen")

    def __init__(self, *, alpha: float = 0.3, threshold: float = 4.0,
                 warmup: int = 5, history: int = 32,
                 rel_floor: float = 0.05,
                 abs_floor: float = 1e-9) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if threshold <= 0:
            raise ValueError(f"threshold must be > 0, got {threshold}")
        if warmup < 2:
            raise ValueError(f"warmup must be >= 2, got {warmup}")
        self.alpha = alpha
        self.threshold = threshold
        self.warmup = warmup
        self.history: deque[float] = deque(maxlen=history)
        self.rel_floor = rel_floor
        self.abs_floor = abs_floor
        self.baseline: float | None = None
        self.seen = 0

    def _scale(self) -> float:
        base = abs(self.baseline or 0.0)
        floors = max(base * self.rel_floor, self.abs_floor)
        if len(self.history) < 2:
            return floors
        mid = median(self.history)
        mad = median(abs(v - mid) for v in self.history)
        return max(mad * MAD_SCALE, floors)

    def observe(self, value: float) -> tuple[bool, float, float]:
        """Judge one value; returns ``(alerted, baseline, deviation)``.

        The baseline returned is the one the value was judged
        *against* (pre-update). On alert the detector re-anchors to
        the new value so a sustained level shift alerts once.
        """
        value = float(value)
        if self.baseline is None:
            self.baseline = value
            self.history.append(value)
            self.seen = 1
            return False, value, 0.0
        judged_against = self.baseline
        deviation = abs(value - judged_against) / self._scale()
        self.seen += 1
        if self.seen > self.warmup and deviation > self.threshold:
            # Re-anchor: the step is the new normal.
            self.history.clear()
            self.history.append(value)
            self.baseline = value
            self.seen = 1
            return True, judged_against, deviation
        self.history.append(value)
        self.baseline = (self.alpha * value
                         + (1.0 - self.alpha) * self.baseline)
        return False, judged_against, deviation


class AnomalyDetector:
    """Fleet-level detector: one :class:`SeriesDetector` per watched
    series, fed from sealed :class:`~repro.obs.timeseries.Window`\\ s.

    ``watch`` is a list of ``(prefix, field)`` pairs; a series is
    watched when its flat key starts with a prefix. Defaults watch
    every latency digest's p99, ``rate`` of every counter ending in
    ``.faults``/``.errors``, and the queue-depth gauge.
    """

    DEFAULT_WATCH = (
        ("", "p99"),                       # every distribution
        ("resilience.faults", "rate"),
        ("service.errors", "rate"),
        ("service.queue_depth", "gauge"),
    )

    def __init__(self, watch: Iterable[tuple[str, str]] | None = None,
                 **detector_kwargs) -> None:
        self.watch = tuple(watch) if watch is not None else self.DEFAULT_WATCH
        self.detector_kwargs = dict(detector_kwargs)
        self._detectors: dict[tuple[str, str], SeriesDetector] = {}
        self.alerts: list[Alert] = []

    def _detector(self, series: str, field_name: str) -> SeriesDetector:
        key = (series, field_name)
        found = self._detectors.get(key)
        if found is None:
            found = SeriesDetector(**self.detector_kwargs)
            self._detectors[key] = found
        return found

    def _watched(self, series: str, field_name: str) -> bool:
        return any(series.startswith(prefix) and field_name == wanted
                   for prefix, wanted in self.watch)

    def _judge(self, series: str, kind: str, field_name: str,
               index: int, value: float) -> Alert | None:
        detector = self._detector(series, field_name)
        alerted, baseline, deviation = detector.observe(value)
        if not alerted:
            return None
        alert = Alert(
            series=series, kind=kind, metric_field=field_name,
            window_index=index, value=float(value), baseline=baseline,
            deviation=deviation,
            direction="up" if value > baseline else "down",
            tenant=dict(parse_metric_key(series)[1]).get("tenant"))
        self.alerts.append(alert)
        return alert

    def ingest_window(self, window: Window) -> list[Alert]:
        """Feed one sealed window; returns the alerts it raised (also
        appended to :attr:`alerts`). Deterministic iteration order:
        digests, then counters, then gauges, each key-sorted."""
        raised: list[Alert] = []
        duration = window.duration_s or 1.0
        for series in sorted(window.digests):
            for field_name in ("p50", "p90", "p99"):
                if not self._watched(series, field_name):
                    continue
                value = window.quantile(
                    series, float(field_name[1:]) / 100.0)
                if value is None:
                    continue
                alert = self._judge(series, "digest", field_name,
                                    window.index, value)
                if alert:
                    raised.append(alert)
        for series in sorted(window.counters):
            for field_name in ("rate", "delta"):
                if not self._watched(series, field_name):
                    continue
                delta = window.counters[series]
                value = (delta / duration if field_name == "rate"
                         else float(delta))
                alert = self._judge(series, "counter", field_name,
                                    window.index, value)
                if alert:
                    raised.append(alert)
        for series in sorted(window.gauges):
            if not self._watched(series, "gauge"):
                continue
            alert = self._judge(series, "gauge", "gauge",
                                window.index,
                                float(window.gauges[series]))
            if alert:
                raised.append(alert)
        return raised

    def ingest(self, windows: Iterable[Window]) -> list[Alert]:
        """Feed a run of sealed windows in order."""
        raised: list[Alert] = []
        for window in windows:
            raised.extend(self.ingest_window(window))
        return raised
