"""Fleet telemetry: a fixed-interval ring of windowed metric windows.

Every observability surface before this module was point-in-time: a
metrics snapshot, a latency digest, an SLO report -- one number per
run. A *fleet* needs retained history: per-tenant throughput and tail
latency **over time**, so the capacity planner has a signal to size
from and the anomaly detector has a baseline to compare against.

:class:`TimeSeriesStore` samples a
:class:`~repro.obs.metrics.MetricsRegistry` on a fixed interval grid
(the daemon calls :meth:`~TimeSeriesStore.tick` every loop; the store
decides when a window boundary was crossed) and seals one
:class:`Window` per elapsed interval:

- **counters** become *deltas* over the window (and therefore rates:
  ``delta / interval``);
- **gauges** keep their last-observed value;
- **distributions** carry the window's own
  :class:`~repro.obs.digest.LatencyDigest` -- drained from the
  registry's per-distribution window accumulator, so a window's
  p50/p90/p99 cover exactly the samples observed (or merged in from
  workers) inside that window, and merging windows during
  downsampling stays **exact and order-invariant** (digest bucket
  counts are integers that simply add).

Retention is two-tier: the newest ``retention`` windows stay at full
resolution; older windows are downsampled ``coarse_factor``-to-one
into a second ring of ``coarse_retention`` merged windows (counters
add, digests merge exactly, gauges keep the latest value), so an
hour of 1 s windows costs the memory of minutes.

Determinism: the store never reads a wall clock itself -- all series
math runs off the injected ``clock`` callable (default
``time.monotonic``), so tests drive window sealing with a simulated
clock and every window index is reproducible. Persistence is
write-then-rename via :mod:`repro.core.atomicio`
(``smx-timeseries/1``), so a SIGKILL'd daemon leaves the previous
complete history, never a torn file.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Iterable

from repro.core.atomicio import atomic_write_json
from repro.obs.digest import LatencyDigest
from repro.obs.metrics import (
    MetricsRegistry,
    metric_key,
    parse_metric_key,
)

#: Schema tag of a persisted store document.
SCHEMA = "smx-timeseries/1"

#: Quantiles a window reports for each digest series.
QUANTILES = (0.5, 0.9, 0.99)


class Window:
    """One sealed sampling interval: deltas, gauges, window digests.

    Attributes:
        index: Interval number on the store's fixed grid (gaps mean
            nothing happened -- idle intervals are not materialized).
        start / end: Interval bounds in clock seconds (``end - start``
            spans ``merged`` base intervals after downsampling).
        merged: How many base windows this window absorbed (1 = fine).
        counters: Counter key -> delta observed inside the window.
        gauges: Gauge key -> last value sampled in the window.
        digests: Distribution key -> digest ``export_state`` of the
            samples observed inside the window.
    """

    __slots__ = ("index", "start", "end", "merged", "counters",
                 "gauges", "digests")

    def __init__(self, index: int, start: float, end: float, *,
                 merged: int = 1,
                 counters: dict[str, float] | None = None,
                 gauges: dict[str, float] | None = None,
                 digests: dict[str, dict] | None = None) -> None:
        self.index = int(index)
        self.start = float(start)
        self.end = float(end)
        self.merged = int(merged)
        self.counters = counters or {}
        self.gauges = gauges or {}
        self.digests = digests or {}

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    def rate(self, key: str) -> float:
        """Counter delta per second over the window (0 when absent)."""
        duration = self.duration_s
        if duration <= 0:
            return 0.0
        return self.counters.get(key, 0.0) / duration

    def digest(self, key: str) -> LatencyDigest | None:
        state = self.digests.get(key)
        return LatencyDigest.from_state(state) if state else None

    def quantile(self, key: str, q: float) -> float | None:
        digest = self.digest(key)
        return digest.quantile(q) if digest is not None else None

    def percentiles(self, key: str) -> dict | None:
        """``{count, p50, p90, p99, min, max}`` for one digest series."""
        digest = self.digest(key)
        return digest.summary() if digest is not None else None

    def merge(self, other: "Window") -> None:
        """Absorb a later window (downsampling): counters add, gauges
        keep the later value, digests merge exactly (bucket counts are
        integers, so the merged percentiles are bit-identical to a
        single window observing both sample streams)."""
        if other.start < self.start:
            raise ValueError("windows must merge in time order")
        self.end = max(self.end, other.end)
        self.merged += other.merged
        for key, delta in other.counters.items():
            self.counters[key] = self.counters.get(key, 0.0) + delta
        self.gauges.update(other.gauges)
        for key, state in other.digests.items():
            mine = self.digests.get(key)
            if mine is None:
                self.digests[key] = dict(state)
                continue
            digest = LatencyDigest.from_state(mine)
            digest.merge_state(state)
            self.digests[key] = digest.export_state()

    def to_dict(self) -> dict:
        return {"index": self.index, "start": self.start,
                "end": self.end, "merged": self.merged,
                "counters": dict(sorted(self.counters.items())),
                "gauges": dict(sorted(self.gauges.items())),
                "digests": {k: self.digests[k]
                            for k in sorted(self.digests)}}

    @classmethod
    def from_dict(cls, document: dict) -> "Window":
        return cls(index=int(document["index"]),
                   start=float(document["start"]),
                   end=float(document["end"]),
                   merged=int(document.get("merged", 1)),
                   counters={str(k): float(v) for k, v in
                             (document.get("counters") or {}).items()},
                   gauges={str(k): float(v) for k, v in
                           (document.get("gauges") or {}).items()},
                   digests={str(k): dict(v) for k, v in
                            (document.get("digests") or {}).items()})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Window(index={self.index}, merged={self.merged}, "
                f"counters={len(self.counters)}, "
                f"digests={len(self.digests)})")


class TimeSeriesStore:
    """Fixed-interval windowed history of one metrics registry.

    Args:
        interval_s: Base window length in (injected-clock) seconds.
        retention: Fine windows kept at full resolution.
        coarse_factor: Fine windows merged into one coarse window when
            they age out of the fine ring (0 disables downsampling --
            aged-out windows are simply dropped).
        coarse_retention: Coarse windows kept after downsampling.
        clock: Monotonic-seconds callable; **the only time source the
            series math ever reads** (default ``time.monotonic``).
            Tests inject a simulated clock for determinism.
    """

    def __init__(self, interval_s: float = 1.0, *, retention: int = 240,
                 coarse_factor: int = 8, coarse_retention: int = 120,
                 clock: Callable[[], float] | None = None) -> None:
        if interval_s <= 0:
            raise ValueError(
                f"interval_s must be > 0, got {interval_s}")
        if retention < 1:
            raise ValueError(f"retention must be >= 1, got {retention}")
        if coarse_factor < 0:
            raise ValueError(
                f"coarse_factor must be >= 0, got {coarse_factor}")
        self.interval_s = float(interval_s)
        self.retention = int(retention)
        self.coarse_factor = int(coarse_factor)
        self.coarse_retention = int(coarse_retention)
        self._clock = clock if clock is not None else time.monotonic
        self.windows: deque[Window] = deque()
        self.coarse: deque[Window] = deque(maxlen=coarse_retention)
        self._pending_coarse: Window | None = None
        self._epoch: float | None = None
        self._open_index = 0
        self._last_counters: dict[str, float] = {}
        self.sealed_total = 0

    # -- sampling -----------------------------------------------------------

    def _boundary(self, index: int) -> float:
        assert self._epoch is not None
        return self._epoch + index * self.interval_s

    def tick(self, registry: MetricsRegistry,
             now: float | None = None) -> list[Window]:
        """Sample the registry; seal the open window when its boundary
        passed. Returns the (possibly empty) list of windows sealed by
        this call, oldest first.

        Activity is attributed to the window that was open when the
        boundary was crossed: a tick arriving several intervals late
        (the daemon was busy running a long job) seals one window
        carrying everything since the previous seal, then jumps the
        open index to the interval containing ``now`` -- idle
        intervals are never materialized.
        """
        if now is None:
            now = self._clock()
        now = float(now)
        if self._epoch is None:
            self._epoch = now
            self._last_counters = self._counter_values(registry)
            return []
        if now < self._boundary(self._open_index + 1):
            return []
        window = self._seal(registry, self._open_index)
        # Jump to the interval containing `now` (idle gap compression).
        self._open_index = max(
            self._open_index + 1,
            int((now - self._epoch) // self.interval_s))
        return [window]

    def _counter_values(self, registry: MetricsRegistry) -> dict[str, float]:
        return {metric_key(name, labels): counter.value
                for _, name, labels, counter in registry.items("counter")}

    def _seal(self, registry: MetricsRegistry, index: int) -> Window:
        counters = self._counter_values(registry)
        deltas = {}
        for key, value in counters.items():
            delta = value - self._last_counters.get(key, 0.0)
            if delta:
                deltas[key] = delta
        self._last_counters = counters
        window = Window(
            index=index,
            start=self._boundary(index),
            end=self._boundary(index + 1),
            counters=deltas,
            gauges={metric_key(name, labels): gauge.value
                    for _, name, labels, gauge in registry.items("gauge")},
            digests=registry.drain_windows())
        self._append(window)
        return window

    def _append(self, window: Window) -> None:
        self.windows.append(window)
        self.sealed_total += 1
        while len(self.windows) > self.retention:
            self._downsample(self.windows.popleft())

    def _downsample(self, aged: Window) -> None:
        if self.coarse_factor <= 0:
            return
        pending = self._pending_coarse
        if pending is None:
            self._pending_coarse = aged
        else:
            pending.merge(aged)
        pending = self._pending_coarse
        if pending is not None and pending.merged >= self.coarse_factor:
            self.coarse.append(pending)
            self._pending_coarse = None

    # -- queries ------------------------------------------------------------

    def latest(self) -> Window | None:
        """The newest sealed window, or None before the first seal."""
        return self.windows[-1] if self.windows else None

    def all_windows(self) -> list[Window]:
        """Every retained window, oldest first (coarse, then pending
        coarse accumulator, then fine)."""
        out = list(self.coarse)
        if self._pending_coarse is not None:
            out.append(self._pending_coarse)
        out.extend(self.windows)
        return out

    def series(self, key: str, field: str = "rate",
               windows: Iterable[Window] | None = None,
               ) -> list[tuple[int, float]]:
        """``(window index, value)`` points for one metric across the
        retained history.

        ``field`` selects the reading: ``"rate"`` / ``"delta"`` for
        counters, ``"gauge"`` for gauges, ``"p50"``/``"p90"``/
        ``"p99"``/``"count"`` for distribution windows. Windows
        without the key are skipped.
        """
        if field not in ("rate", "delta", "gauge",
                         "p50", "p90", "p99", "count"):
            raise ValueError(f"unknown series field {field!r}")
        points: list[tuple[int, float]] = []
        for window in (self.all_windows() if windows is None
                       else windows):
            value: float | None = None
            if field == "rate":
                if key in window.counters:
                    value = window.rate(key)
            elif field == "delta":
                value = window.counters.get(key)
            elif field == "gauge":
                value = window.gauges.get(key)
            elif field in ("p50", "p90", "p99", "count"):
                digest = window.digest(key)
                if digest is not None:
                    if field == "count":
                        value = float(digest.count)
                    else:
                        value = digest.quantile(
                            float(field[1:]) / 100.0)
            if value is not None:
                points.append((window.index, float(value)))
        return points

    def tenants(self) -> list[str]:
        """Every tenant label value seen across retained windows."""
        seen: set[str] = set()
        for window in self.all_windows():
            for mapping in (window.counters, window.gauges,
                            window.digests):
                for key in mapping:
                    _, labels = parse_metric_key(key)
                    for name, value in labels:
                        if name == "tenant":
                            seen.add(value)
        return sorted(seen)

    # -- persistence --------------------------------------------------------

    def to_document(self) -> dict:
        return {
            "schema": SCHEMA,
            "interval_s": self.interval_s,
            "retention": self.retention,
            "coarse_factor": self.coarse_factor,
            "coarse_retention": self.coarse_retention,
            "epoch": self._epoch,
            "open_index": self._open_index,
            "sealed_total": self.sealed_total,
            "last_counters": dict(sorted(self._last_counters.items())),
            "windows": [w.to_dict() for w in self.windows],
            "coarse": [w.to_dict() for w in self.coarse],
            "pending_coarse": (self._pending_coarse.to_dict()
                               if self._pending_coarse is not None
                               else None),
        }

    def save(self, path: str) -> str:
        """Atomically persist the whole retained history."""
        return atomic_write_json(path, self.to_document(), indent=None)

    @classmethod
    def from_document(cls, document: dict,
                      clock: Callable[[], float] | None = None,
                      ) -> "TimeSeriesStore":
        if not isinstance(document, dict) or \
                document.get("schema") != SCHEMA:
            raise ValueError(
                f"not an {SCHEMA} document "
                f"(schema={document.get('schema') if isinstance(document, dict) else None!r})")
        store = cls(
            interval_s=float(document.get("interval_s", 1.0)),
            retention=int(document.get("retention", 240)),
            coarse_factor=int(document.get("coarse_factor", 8)),
            coarse_retention=int(document.get("coarse_retention", 120)),
            clock=clock)
        epoch = document.get("epoch")
        store._epoch = float(epoch) if epoch is not None else None
        store._open_index = int(document.get("open_index", 0))
        store.sealed_total = int(document.get("sealed_total", 0))
        store._last_counters = {
            str(k): float(v) for k, v in
            (document.get("last_counters") or {}).items()}
        store.windows = deque(Window.from_dict(w)
                              for w in document.get("windows") or [])
        store.coarse = deque(
            (Window.from_dict(w) for w in document.get("coarse") or []),
            maxlen=store.coarse_retention)
        pending = document.get("pending_coarse")
        store._pending_coarse = (Window.from_dict(pending)
                                 if pending else None)
        return store

    @classmethod
    def load(cls, path: str,
             clock: Callable[[], float] | None = None,
             ) -> "TimeSeriesStore":
        """Restore a persisted store (``ValueError`` when malformed)."""
        import json
        with open(path, encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}: not valid JSON ({exc.msg})") from None
        return cls.from_document(document, clock=clock)
