"""Live batch telemetry: a structured JSONL event stream.

Long supervised runs were previously silent until they returned; this
module gives them a heartbeat. Instrumented layers emit typed events --
``batch_start`` / ``progress`` / ``batch_end`` from the batch engine,
``run_start`` / ``shard_start`` / ``shard_done`` / ``fault`` /
``retry`` / ``bisect`` / ``degrade`` / ``quarantine`` / ``heartbeat`` /
``run_end`` from the supervised engine -- into an
:class:`EventStream`, which fans them out to

- an optional **JSONL sink** (one JSON object per line, flushed per
  event, so ``tail -f`` and ``repro top`` can watch a live run),
- in-process **subscribers** (the CLI's ``--progress`` renderer),
- a bounded in-memory ring (for tests and post-hoc inspection).

Every event carries ``schema``-free flat fields plus the envelope::

    {"seq": 12, "t": 0.532, "kind": "progress", "done": 96, ...}

``seq`` is a monotone per-stream sequence number and ``t`` the
monotonic seconds since the stream was created, so event files are
self-ordering even across interleaved writers. The stream header (the
first line a sink receives) is a ``stream_start`` event carrying the
schema tag :data:`SCHEMA`.

Disabled mode: :data:`NULL_EVENTS` drops everything; emitting costs one
attribute lookup and an early return, so hot loops can call ``emit``
unconditionally (they still gate on ``events.enabled`` where even
building the field dict would be measurable).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import deque

#: Schema tag written by the ``stream_start`` header event.
SCHEMA = "smx-events/1"

#: Event kinds the library emits (consumers must tolerate unknown ones).
KINDS = ("stream_start", "batch_start", "progress", "batch_end",
         "run_start", "shard_start", "shard_done", "unit_done", "fault",
         "retry", "bisect", "degrade", "quarantine", "heartbeat",
         "run_end", "plan", "shed", "checkpoint", "job_pending",
         "job_start", "job_rejected", "job_done", "job_failed",
         "queue", "alert")


class EventStream:
    """Collects and fans out structured telemetry events.

    Args:
        sink: Optional writable text file object; each event is written
            as one JSON line and flushed immediately.
        max_events: Size of the in-memory ring buffer (older events are
            dropped from memory, never from the sink).
    """

    enabled = True

    def __init__(self, sink=None, max_events: int = 10_000) -> None:
        self._sink = sink
        self._subscribers: list = []
        self.events: deque[dict] = deque(maxlen=max_events)
        self._seq = 0
        self._epoch = time.monotonic()
        self.emit("stream_start", schema=SCHEMA,
                  wall_time=round(time.time(), 3))

    def subscribe(self, callback) -> None:
        """Register ``callback(event_dict)`` for every future event."""
        self._subscribers.append(callback)

    def emit(self, kind: str, **fields) -> dict:
        """Record one event; returns the complete event dict."""
        self._seq += 1
        event = {"seq": self._seq,
                 "t": round(time.monotonic() - self._epoch, 6),
                 "kind": kind}
        event.update(fields)
        self.events.append(event)
        if self._sink is not None:
            self._sink.write(json.dumps(event, default=str) + "\n")
            self._sink.flush()
        for callback in self._subscribers:
            callback(event)
        return event

    def close(self) -> None:
        """Flush and close the sink (if the stream owns one)."""
        if self._sink is not None:
            with contextlib.suppress(ValueError, OSError):
                self._sink.flush()
            self._sink = None

    def of_kind(self, kind: str) -> list[dict]:
        """In-memory events of one kind, in emission order."""
        return [event for event in self.events if event["kind"] == kind]

    def last(self, kind: str) -> dict | None:
        """Most recent in-memory event of one kind, or None."""
        for event in reversed(self.events):
            if event["kind"] == kind:
                return event
        return None


class NullEventStream(EventStream):
    """Disabled stream: drops every event."""

    enabled = False

    def __init__(self) -> None:
        self.events = deque(maxlen=0)
        self._sink = None
        self._subscribers = []
        self._seq = 0
        self._epoch = 0.0

    def emit(self, kind: str, **fields) -> dict:
        return {}

    def subscribe(self, callback) -> None:
        pass


#: Shared disabled stream -- the library-wide default.
NULL_EVENTS = NullEventStream()


class JsonlEventStream(EventStream):
    """An :class:`EventStream` that owns a JSONL file it opened."""

    def __init__(self, path: str, max_events: int = 10_000) -> None:
        self._handle = open(path, "w", encoding="utf-8")
        super().__init__(sink=self._handle, max_events=max_events)

    def close(self) -> None:
        super().close()
        with contextlib.suppress(OSError):
            self._handle.close()


def open_jsonl(path: str, max_events: int = 10_000) -> JsonlEventStream:
    """An event stream appending JSON lines to ``path`` (truncates)."""
    return JsonlEventStream(path, max_events=max_events)


class EventReader:
    """Incremental reader of a JSONL events stream.

    :meth:`feed` takes text as it arrives and returns the events of the
    lines it completes, holding an unterminated tail back until its
    newline (or ``final=True``) arrives; blank lines are skipped.

    A live run's file usually ends in a partially written line (the
    writer is mid-``write`` or the reader raced the flush), so a line
    that fails to parse is tolerated, and counted in :attr:`skipped`,
    while it is the *last* line seen. Any line after it, good or bad,
    means real corruption and raises ``ValueError`` citing
    ``name:lineno``; ``strict=True`` raises at the malformed line itself.
    """

    def __init__(self, name: str, strict: bool = False) -> None:
        self.name = name
        self.strict = strict
        self.skipped = 0
        self._tail = ""
        self._lineno = 0
        self._bad: str | None = None

    def feed(self, text: str, final: bool = False) -> list[dict]:
        """Events of the lines ``text`` completes, in order."""
        lines = (self._tail + text).split("\n")
        self._tail = "" if final else lines.pop()
        events: list[dict] = []
        for line in lines:
            self._lineno += 1
            line = line.strip()
            if not line:
                continue
            if self._bad:
                raise ValueError(self._bad)
            try:
                event = json.loads(line)
                if not isinstance(event, dict):
                    raise ValueError("event is not a JSON object")
            except ValueError as exc:
                message = getattr(exc, "msg", None) or str(exc)
                self._bad = (f"{self.name}:{self._lineno}: not a JSON "
                             f"event line ({message})")
                if self.strict:
                    raise ValueError(self._bad) from None
                self.skipped = 1
                continue
            events.append(event)
        return events


def load_events(path: str, strict: bool = False,
                ) -> tuple[list[dict], int]:
    """``(events, skipped)`` of an events file read through an
    :class:`EventReader`; ``skipped`` is the truncated final line it
    tolerated (0 or 1). Raises ``OSError`` when the file cannot be read
    and ``ValueError`` on a malformed line."""
    reader = EventReader(path, strict=strict)
    with open(path, encoding="utf-8") as handle:
        events = reader.feed(handle.read(), final=True)
    return events, reader.skipped


def read_jsonl(path: str, strict: bool = False) -> list[dict]:
    """:func:`load_events` without the skipped-line count."""
    return load_events(path, strict=strict)[0]


class EventIndex:
    """An event list grouped by kind in one pass: the one digest every
    read-side view (``repro top`` / ``monitor`` / ``fleet``, the SLO
    evaluator) is a projection of.

    Tolerates unknown kinds, partial files (a live run's tail) and
    streams from older/newer schema revisions; an event without a
    ``kind`` files under ``"?"``.
    """

    def __init__(self, events: list[dict]) -> None:
        self.events = events
        self._by_kind: dict[str, list[dict]] = {}
        for event in events:
            self._by_kind.setdefault(
                str(event.get("kind", "?")), []).append(event)

    @classmethod
    def over(cls, events: "list[dict] | EventIndex") -> "EventIndex":
        """``events`` itself when it already is an index, else a new
        index of the list (so a projection accepts either, and stacked
        projections share one pass)."""
        return events if isinstance(events, cls) else cls(events)

    def __len__(self) -> int:
        return len(self.events)

    def of(self, kind: str) -> list[dict]:
        """Events of one kind, in stream order."""
        return self._by_kind.get(kind, [])

    def last(self, *kinds: str) -> dict | None:
        """Most recent event of the first of ``kinds`` that occurs at
        all (``last("run_end", "batch_end")``), or None."""
        for kind in kinds:
            if kind in self._by_kind:
                return self._by_kind[kind][-1]
        return None

    def tally(self) -> dict[str, int]:
        """Event count per kind, sorted by kind."""
        return {kind: len(group)
                for kind, group in sorted(self._by_kind.items())}

    @property
    def duration_s(self) -> float:
        """The final event's timestamp (0.0 for an empty stream)."""
        return float(self.events[-1].get("t", 0.0)) if self.events else 0.0

    @functools.cached_property
    def now_t(self) -> float:
        """The stream's latest timestamp (interleaved writers may leave
        it on an event other than the final one)."""
        return max((float(e.get("t", 0.0)) for e in self.events),
                   default=0.0)

    def samples(self, kind: str, field: str,
                window_s: float | None = None,
                now_t: float | None = None) -> list[float]:
        """Numeric ``field`` samples of ``kind`` inside the window
        ending at ``now_t`` (the stream's latest timestamp by
        default; ``window_s=None`` takes the whole stream)."""
        horizon = None
        if window_s is not None:
            horizon = (self.now_t if now_t is None else now_t) - window_s
        samples: list[float] = []
        for event in self.of(kind):
            if horizon is not None and float(event.get("t", 0.0)) < horizon:
                continue
            value = event.get(field)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                samples.append(float(value))
        return samples


def summarize(events: "list[dict] | EventIndex") -> dict:
    """Digest an event list into the ``repro top`` dashboard fields.

    Tolerates unknown kinds, partial files (a live run's tail) and
    streams from older/newer schema revisions.
    """
    index = EventIndex.over(events)
    return {
        "events": len(index),
        "by_kind": index.tally(),
        "duration_s": index.duration_s,
        "schema": next((e.get("schema") for e in index.of("stream_start")),
                       None),
        "progress": index.last("progress"),
        "heartbeat": index.last("heartbeat"),
        "quarantines": index.of("quarantine"),
        "run_start": index.last("run_start", "batch_start"),
        "run_end": index.last("run_end", "batch_end"),
    }
