"""Hierarchical metrics registry (counters, gauges, distributions).

The simulator layers publish *what happened* -- tiles computed, lines
moved, stall cycles paid, reads mapped -- into a
:class:`MetricsRegistry`; consumers (the CLI, benchmark harness, tests)
take :meth:`~MetricsRegistry.snapshot`\\ s and diff them around the
region of interest. Metric names are dotted paths
(``coproc.tiles_computed``) and every instrument can carry labels
(``mem.stream_lines{level=L2}``), so one registry serves the whole
stack without the layers knowing about each other.

Disabled mode: :class:`NullRegistry` hands out shared no-op
instruments, so instrumented hot paths cost one attribute lookup and
one empty call when observability is off. The module-level
:data:`NULL_REGISTRY` singleton is what the library defaults to.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.digest import LatencyDigest

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def metric_key(name: str, labels: LabelKey = ()) -> str:
    """Canonical flat key: ``name`` or ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


def parse_metric_key(key: str) -> tuple[str, LabelKey]:
    """Invert :func:`metric_key` (labels come back as strings)."""
    if not key.endswith("}") or "{" not in key:
        return key, ()
    name, _, inner = key[:-1].partition("{")
    labels = []
    for part in inner.split(","):
        if part:
            k, _, v = part.partition("=")
            labels.append((k, v))
    return name, tuple(labels)


def _apply_labels(labels: LabelKey,
                  extra: dict[str, object] | None) -> dict[str, object]:
    """Fold ``extra`` labels under a parsed label key (existing label
    names win, so a worker that already stamped ``tenant`` keeps it)."""
    return {**(extra or {}), **dict(labels)}


@dataclass
class Counter:
    """A monotonically increasing count (events, cycles, bytes)."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value (last run's total cycles, queue depth)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Distribution:
    """Streaming summary of observed samples (no per-sample storage).

    Beyond count/mean/min/max, every distribution feeds a mergeable
    :class:`~repro.obs.digest.LatencyDigest`, so percentile queries
    survive the worker-to-parent ``export_state``/``merge_state`` trip
    *exactly*: the parent's p50/p90/p99 are bit-identical to a single
    process observing the union of all workers' samples.

    A second *window* digest accumulates in parallel and is drained by
    :meth:`take_window` (the time-series sampler's hook): it holds
    exactly the samples observed -- directly or merged in from workers
    -- since the last drain, so a sealed window's percentiles are
    bit-identical to the offline merge of that window's worker digests.
    """

    count: int = 0
    total: float = 0.0
    min: float = field(default=float("inf"))
    max: float = field(default=float("-inf"))
    digest: LatencyDigest = field(default_factory=LatencyDigest,
                                  repr=False, compare=False)
    window: LatencyDigest = field(default_factory=LatencyDigest,
                                  repr=False, compare=False)

    def observe(self, value: float, count: int = 1) -> None:
        value = float(value)
        self.count += count
        self.total += value * count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.digest.observe(value, count)
        self.window.observe(value, count)

    def take_window(self) -> LatencyDigest | None:
        """Drain and return the digest of samples since the last drain
        (None when nothing was observed). The cumulative digest is
        untouched."""
        if not self.window.count:
            return None
        taken = self.window
        self.window = LatencyDigest(growth=taken.growth)
        return taken

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        return self.digest.quantile(q)

    def merge(self, summary: dict) -> None:
        """Fold another distribution's summary/exported state into
        this one (min/max survive round trips exactly; digest states,
        when present, add bucket-by-bucket)."""
        count = int(summary.get("count", 0))
        if not count:
            return
        self.count += count
        self.total += float(summary.get("total", 0.0))
        low, high = summary.get("min"), summary.get("max")
        if low is not None and low < self.min:
            self.min = float(low)
        if high is not None and high > self.max:
            self.max = float(high)
        digest_state = summary.get("digest")
        if digest_state:
            self.digest.merge_state(digest_state)
            self.window.merge_state(digest_state)

    def summary(self) -> dict:
        if not self.count:
            return {"count": 0, "total": 0.0, "mean": 0.0,
                    "min": None, "max": None,
                    "p50": None, "p90": None, "p99": None}
        p50, p90, p99 = self.digest.quantiles((0.5, 0.9, 0.99))
        return {"count": self.count, "total": self.total,
                "mean": self.mean, "min": self.min, "max": self.max,
                "p50": p50, "p90": p90, "p99": p99}

    def export_state(self) -> dict:
        """:meth:`summary` plus the digest state, for merging across
        process boundaries without losing percentile resolution."""
        state = self.summary()
        state["digest"] = self.digest.export_state()
        return state


#: One row per instrument kind, in walk order: the class a kind's table
#: holds and how :meth:`MetricsRegistry.merge_state` combines a worker's
#: value into it -- counters *add*, gauges *overwrite*, distributions
#: *fold*. A kind's name is also the name of its lookup method, and
#: :meth:`MetricsRegistry.export_state` files kind ``k`` under ``k + "s"``.
_KINDS = {"counter": (Counter, Counter.inc),
          "gauge": (Gauge, Gauge.set),
          "distribution": (Distribution, Distribution.merge)}


class MetricsRegistry:
    """Process-wide (or run-scoped) home of every instrument.

    Instruments are created on first use and cached by
    ``(name, labels)``; repeated lookups return the same object, so hot
    loops can hoist the instrument out and call ``inc`` directly.
    """

    enabled = True

    def __init__(self) -> None:
        self._tables: dict[str, dict[tuple[str, LabelKey], object]] = {
            kind: {} for kind in _KINDS}

    # -- instrument lookup --------------------------------------------------

    def _instrument(self, kind: str, name: str, labels: dict[str, object]):
        """The ``kind`` instrument at ``name`` + ``labels``, created on
        first use: the one place a table is written (lookups and
        merges both land here)."""
        table, key = self._tables[kind], (name, _label_key(labels))
        instrument = table.get(key)
        if instrument is None:
            instrument = table[key] = _KINDS[kind][0]()
        return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        return self._instrument("counter", name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._instrument("gauge", name, labels)

    def distribution(self, name: str, **labels: object) -> Distribution:
        return self._instrument("distribution", name, labels)

    def scope(self, prefix: str) -> "RegistryView":
        """A view that prefixes every metric name with ``prefix.``."""
        return RegistryView(self, prefix)

    # -- the walk -----------------------------------------------------------

    def items(self, *kinds: str):
        """Every instrument as ``(kind, name, labels, instrument)``:
        counters, then gauges, then distributions (or only ``kinds``),
        each in creation order.

        This is the one walk over the instrument tables: snapshots,
        state export, window drains, the time-series sampler and the
        Prometheus renderer all read the registry through it, with the
        labels still the ``(key, value)`` tuples the registry holds.
        """
        for kind in kinds or _KINDS:
            for (name, labels), instrument in self._tables[kind].items():
                yield kind, name, labels, instrument

    # -- snapshots ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Flat, JSON-serializable state of every instrument.

        Counters and gauges map their key to a number; distributions
        map to a ``{count, total, mean, min, max}`` summary.
        """
        return {metric_key(name, labels):
                instrument.summary() if kind == "distribution"
                else instrument.value
                for kind, name, labels, instrument in self.items()}

    def export_state(self) -> dict:
        """Typed, pickle/JSON-safe state for cross-process transfer.

        Unlike :meth:`snapshot` (which flattens everything into one
        namespace), this keeps counters / gauges / distributions apart
        so :meth:`merge_state` can apply the right combination rule to
        each: counters *add*, gauges *overwrite*, distributions *fold*.
        """
        state: dict[str, dict] = {f"{kind}s": {} for kind in _KINDS}
        for kind, name, labels, instrument in self.items():
            state[f"{kind}s"][metric_key(name, labels)] = (
                instrument.export_state() if kind == "distribution"
                else instrument.value)
        return state

    def merge_state(self, state: dict,
                    extra_labels: dict[str, object] | None = None) -> None:
        """Fold a worker's :meth:`export_state` into this registry.

        This is how counters incremented inside process-pool workers
        survive the trip home instead of vanishing with the worker's
        own (separate) registry. ``extra_labels`` are stamped onto
        every merged key that does not already carry them -- the hook
        the supervisor uses to relabel a worker's ``exec.*`` state
        with the job's tenant. A disabled registry merges nothing.
        """
        if not state or not self.enabled:
            return
        for kind, (_, fold) in _KINDS.items():
            for key, value in (state.get(f"{kind}s") or {}).items():
                name, labels = parse_metric_key(key)
                fold(self._instrument(
                    kind, name, _apply_labels(labels, extra_labels)), value)

    def drain_windows(self) -> dict[str, dict]:
        """Drain every distribution's window digest (see
        :meth:`Distribution.take_window`), keyed by flat metric key.
        Only distributions that saw samples since the last drain
        appear; each value is a digest ``export_state`` dict."""
        out: dict[str, dict] = {}
        for _, name, labels, dist in self.items("distribution"):
            taken = dist.take_window()
            if taken is not None:
                out[metric_key(name, labels)] = taken.export_state()
        return out

    def diff(self, before: dict) -> dict:
        """What changed since ``before`` (an earlier ``snapshot()``).

        Counter/gauge entries are subtracted; distribution summaries
        subtract ``count``/``total`` (min/max are reported from the
        current state, as extremes cannot be un-observed). Entries that
        did not change are omitted.
        """
        out: dict = {}
        for key, value in self.snapshot().items():
            prior = before.get(key)
            if isinstance(value, dict):
                prior = prior or {"count": 0, "total": 0.0}
                count = value["count"] - prior.get("count", 0)
                if count == 0 and key in before:
                    continue
                total = value["total"] - prior.get("total", 0.0)
                out[key] = {"count": count, "total": total,
                            "mean": total / count if count else 0.0,
                            "min": value["min"], "max": value["max"],
                            "p50": value.get("p50"),
                            "p90": value.get("p90"),
                            "p99": value.get("p99")}
            else:
                if prior is not None and value == prior:
                    continue
                out[key] = value - (prior or 0.0)
        return out


class RegistryView(MetricsRegistry):
    """A registry seen through a name prefix and/or fixed labels.

    ``RegistryView(root, "coproc").counter("x")`` touches ``coproc.x``
    (a named subtree: what :meth:`MetricsRegistry.scope` returns);
    ``RegistryView(root, tenant="acme").counter("service.jobs")``
    touches ``service.jobs{tenant=acme}``; call-site labels win over
    the view's on collision. The two compose (``scope`` of a view is a
    view of that view), which is how one tenant's supervised run
    splits ``exec.*`` / ``resilience.*`` series without every call
    site knowing about tenancy.

    A view holds no instruments: its lookups and its walk are its
    root's, so every read it inherits (snapshots, state export, window
    drains) reports the shared root. :data:`ScopedRegistry` and
    :data:`LabeledRegistry` are this class under its two older names.
    """

    def __init__(self, root, prefix: str = "", /, **labels: object) -> None:
        self._root = root
        self._prefix = prefix
        self._labels = {k: str(v) for k, v in labels.items()}

    @property
    def enabled(self) -> bool:
        return self._root.enabled

    def _instrument(self, kind: str, name: str, labels: dict[str, object]):
        if self._prefix:
            name = f"{self._prefix}.{name}"
        return getattr(self._root, kind)(name, **{**self._labels, **labels})

    def items(self, *kinds: str):
        return self._root.items(*kinds)

    def merge_state(self, state: dict,
                    extra_labels: dict[str, object] | None = None) -> None:
        # The prefix applies to lookups only: merged keys are full names.
        self._root.merge_state(
            state, extra_labels={**self._labels, **(extra_labels or {})})


ScopedRegistry = LabeledRegistry = RegistryView


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullDistribution(Distribution):
    def observe(self, value: float, count: int = 1) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """Disabled registry: every lookup returns a shared no-op
    instrument, so its tables stay empty and every inherited read
    (snapshots, walks, drains) comes back empty."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter()
        self._null_gauge = _NullGauge()
        self._null_distribution = _NullDistribution()

    def counter(self, name: str, **labels: object) -> Counter:
        return self._null_counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        return self._null_gauge

    def distribution(self, name: str, **labels: object) -> Distribution:
        return self._null_distribution


#: Shared disabled registry -- the library-wide default.
NULL_REGISTRY = NullRegistry()
