"""Prometheus text-exposition rendering of the metrics registry.

The registry's dotted keys (``service.jobs{tenant=acme,verdict=done}``)
render into the Prometheus text format v0.0.4 that every scrape-based
collector understands::

    # TYPE smx_service_jobs_total counter
    smx_service_jobs_total{tenant="acme",verdict="done"} 12

Mapping rules:

- dotted names flatten to underscores under one ``smx_`` namespace;
  invalid characters become ``_``;
- **counters** render cumulatively (monotone across scrapes, as the
  pull model requires) with the conventional ``_total`` suffix;
- **gauges** render as-is;
- **distributions** render as Prometheus *summaries*: one
  ``{quantile="0.5|0.9|0.99"}`` sample per tracked percentile plus
  ``_sum`` and ``_count`` (exact across worker merges, courtesy of
  the mergeable digest);
- label values are escaped per the spec (``\\`` ``"`` and newlines).

Consumers: :func:`write_textfile` drops an atomic textfile next to the
spool for the node-exporter textfile collector, and
:class:`MetricsServer` serves ``GET /metrics`` on localhost for a real
scraper (``repro serve --metrics-port``). :func:`parse_exposition` and
:func:`lint_exposition` close the loop -- tests round-trip the output
through the parser, and CI lints a live daemon's scrape for TYPE
lines, label escaping, and counter monotonicity between scrapes.
"""

from __future__ import annotations

import math
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.core.atomicio import atomic_write_text
from repro.obs.metrics import LabelKey, MetricsRegistry

#: Namespace every rendered metric is prefixed with.
NAMESPACE = "smx"

#: Quantiles rendered per distribution (summary) family.
SUMMARY_QUANTILES = (0.5, 0.9, 0.99)

#: Content type a Prometheus scraper expects.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_INVALID = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<ts>-?\d+))?$")


def metric_name(dotted: str, suffix: str = "") -> str:
    """``service.queue_depth`` -> ``smx_service_queue_depth``."""
    flat = _INVALID.sub("_", dotted.replace(".", "_"))
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return f"{NAMESPACE}_{flat}{suffix}"


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition spec."""
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def unescape_label_value(value: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "n":
                out.append("\n")
            elif nxt in ('"', "\\"):
                out.append(nxt)
            else:
                out.append(ch)
                out.append(nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_str(labels: LabelKey) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{_INVALID.sub("_", k)}="{escape_label_value(v)}"'
                     for k, v in labels)
    return "{" + inner + "}"


def render_registry(registry: MetricsRegistry) -> str:
    """Render the registry's current state as one exposition page.

    Families are emitted in sorted name order, each preceded by its
    ``# TYPE`` line; counters are cumulative (scrape-to-scrape
    monotone), distributions render as summaries.
    """
    families: dict[str, dict] = {}

    def samples(name: str, kind: str) -> list:
        return families.setdefault(
            name, {"type": kind, "samples": []})["samples"]

    # The scrape thread renders while the daemon's loop may be creating
    # instruments: take the walk in one go before formatting anything.
    # Label keys arrive sorted, as the registry holds them.
    for kind, dotted, labels, instrument in list(registry.items()):
        if kind != "distribution":
            name = metric_name(dotted, "_total" if kind == "counter" else "")
            samples(name, kind).append(
                (name, labels, float(instrument.value)))
            continue
        base = metric_name(dotted)
        family = samples(base, "summary")
        summary = instrument.summary()
        for q, field in zip(SUMMARY_QUANTILES, ("p50", "p90", "p99")):
            if summary[field] is not None:
                family.append(
                    (base, tuple(sorted(labels + (("quantile", f"{q:g}"),))),
                     float(summary[field])))
        family.append((base + "_sum", labels, float(summary["total"])))
        family.append((base + "_count", labels, float(summary["count"])))

    lines: list[str] = []
    for name in sorted(families):
        lines.append(f"# TYPE {name} {families[name]['type']}")
        for sample_name, labels, value in sorted(
                families[name]["samples"], key=lambda sample: sample[:2]):
            lines.append(f"{sample_name}{_label_str(labels)} "
                         f"{_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_textfile(path: str, registry: MetricsRegistry) -> str:
    """Atomically write the current exposition page to ``path`` (the
    node-exporter textfile-collector handshake: a scraper never sees a
    torn page)."""
    return atomic_write_text(path, render_registry(registry))


# -- parsing / linting (tests and CI close the loop) ------------------------


def _parse_labels(raw: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    n = len(raw)
    while i < n:
        while i < n and raw[i] in ", ":
            i += 1
        if i >= n:
            break
        eq = raw.index("=", i)
        name = raw[i:eq].strip()
        if not name:
            raise ValueError(f"empty label name in {raw!r}")
        i = eq + 1
        if i >= n or raw[i] != '"':
            raise ValueError(f"unquoted label value in {raw!r}")
        i += 1
        value_chars: list[str] = []
        while i < n:
            ch = raw[i]
            if ch == "\\" and i + 1 < n:
                value_chars.append(raw[i:i + 2])
                i += 2
                continue
            if ch == '"':
                break
            value_chars.append(ch)
            i += 1
        if i >= n or raw[i] != '"':
            raise ValueError(f"unterminated label value in {raw!r}")
        i += 1
        labels[name] = unescape_label_value("".join(value_chars))
    return labels


def _parse_number(raw: str) -> float:
    if raw == "+Inf":
        return math.inf
    if raw == "-Inf":
        return -math.inf
    if raw == "NaN":
        return math.nan
    return float(raw)


def parse_exposition(text: str) -> dict:
    """Parse an exposition page into ``{"types": {family: kind},
    "samples": [(name, labels, value)]}``.

    Raises:
        ValueError: any line that is not a comment, a ``TYPE``/
            ``HELP`` line, blank, or a well-formed sample.
    """
    types: dict[str, str] = {}
    samples: list[tuple[str, dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            parts = stripped.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE.match(stripped)
        if match is None:
            raise ValueError(
                f"line {lineno}: not a valid sample: {stripped!r}")
        labels = _parse_labels(match.group("labels") or "")
        try:
            value = _parse_number(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad sample value "
                f"{match.group('value')!r}") from None
        samples.append((match.group("name"), labels, value))
    return {"types": types, "samples": samples}


def _family_of(sample_name: str, types: dict[str, str]) -> str | None:
    """The TYPE family a sample belongs to (summaries register the
    base name but emit ``_sum``/``_count`` children)."""
    if sample_name in types:
        return sample_name
    for suffix in ("_sum", "_count", "_bucket"):
        if sample_name.endswith(suffix):
            base = sample_name[:-len(suffix)]
            if base in types:
                return base
    return None


def lint_exposition(text: str,
                    previous: str | None = None) -> list[str]:
    """Validate one exposition page; returns a list of problems
    (empty = clean). With ``previous`` (an earlier scrape of the same
    process), counter samples are additionally checked for
    scrape-to-scrape **monotonicity**.

    Checks: page parses, every sample's family has a ``# TYPE`` line,
    metric/label names are legal, no duplicate (name, labels) sample,
    counters are finite and non-negative, quantile labels only appear
    on summaries.
    """
    problems: list[str] = []
    try:
        page = parse_exposition(text)
    except ValueError as exc:
        return [str(exc)]
    types, samples = page["types"], page["samples"]
    seen: set[tuple[str, tuple]] = set()
    for name, labels, value in samples:
        if not _NAME_OK.match(name):
            problems.append(f"invalid metric name {name!r}")
        family = _family_of(name, types)
        if family is None:
            problems.append(f"sample {name!r} has no # TYPE line")
            continue
        kind = types[family]
        for label in labels:
            if not _LABEL_OK.match(label):
                problems.append(
                    f"{name}: invalid label name {label!r}")
        if "quantile" in labels and kind != "summary":
            problems.append(
                f"{name}: quantile label on non-summary ({kind})")
        key = (name, tuple(sorted(labels.items())))
        if key in seen:
            problems.append(f"duplicate sample {name}{labels}")
        seen.add(key)
        if kind == "counter":
            if not math.isfinite(value):
                problems.append(f"{name}{labels}: non-finite counter")
            elif value < 0:
                problems.append(f"{name}{labels}: negative counter")
            if not name.endswith("_total"):
                problems.append(
                    f"{name}: counter without _total suffix")
    if previous is not None:
        try:
            before = parse_exposition(previous)
        except ValueError as exc:
            return problems + [f"previous page unparseable: {exc}"]
        prior = {(n, tuple(sorted(l.items()))): v
                 for n, l, v in before["samples"]}
        for name, labels, value in samples:
            family = _family_of(name, types)
            if family is None or types.get(family) != "counter":
                continue
            key = (name, tuple(sorted(labels.items())))
            if key in prior and value < prior[key]:
                problems.append(
                    f"{name}{labels}: counter went backwards "
                    f"({prior[key]} -> {value})")
    return problems


# -- localhost scrape endpoint ----------------------------------------------


class MetricsServer:
    """A localhost ``GET /metrics`` endpoint over a render callback.

    Binds 127.0.0.1 only (telemetry is not an open service); runs its
    accept loop on a daemon thread so the daemon's executive loop is
    never blocked by a scraper. ``port=0`` picks a free port (tests).
    """

    def __init__(self, render: Callable[[], str], port: int = 0) -> None:
        self._render = render

        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404)
                    return
                try:
                    body = server._render().encode("utf-8")
                except Exception as exc:  # noqa: BLE001 - scrape must not die
                    self.send_error(500, str(exc))
                    return
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:  # silence stderr
                pass

        self._httpd = ThreadingHTTPServer(("127.0.0.1", port), Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-metrics",
            daemon=True)
        self._thread.start()

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}/metrics"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)
