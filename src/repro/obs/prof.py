"""Deterministic work-unit profiler: where time, cells and bytes go.

The metrics registry answers *how much* happened; this module answers
*where*. A :class:`Profiler` maintains a per-thread **phase stack**
(``exec.vector -> bucket[512x512] -> linear.global[int16]``) and
attributes four units to the innermost open phase:

- ``wall_s``   -- host wall-clock self time of the phase,
- ``cycles``   -- simulated cycles (from the discrete-event models),
- ``cells``    -- DP cell updates (the paper's universal work unit),
- ``bytes_moved`` -- modeled memory traffic of those updates.

Cells and bytes are *deterministic*: the instrumented layers compute
them from sequence lengths and dtype widths, never from sampling, so
two runs of the same batch produce identical totals and the profiler's
cell counts reconcile exactly with the ``exec.cells`` metric counters.

Exports: :meth:`Profiler.collapsed` emits folded-stack flamegraph text
(``a;b;c 123`` -- feed to ``flamegraph.pl`` or speedscope),
:meth:`Profiler.table` a per-phase cost table, and
:meth:`Profiler.export_state` / :meth:`Profiler.merge_state` carry a
worker process's profile back to the parent.

:class:`CostModel` turns an enabled run's profile into per-pair cost
estimates (``estimate(pair)`` -> cells / seconds / bytes), the hook the
ROADMAP's load-shedding item needs.

Disabled mode: :data:`NULL_PROFILER` records nothing; its ``phase``
context manager and ``work`` calls are no-ops so instrumented paths
cost one attribute lookup when profiling is off.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass

#: Units a collapsed-stack export can be folded by.
UNITS = ("wall_us", "cells", "bytes_moved", "cycles")


@dataclass
class PhaseStat:
    """Accumulated self-cost of one phase path."""

    calls: int = 0
    wall_s: float = 0.0
    cycles: float = 0.0
    cells: int = 0
    bytes_moved: int = 0

    def add(self, *, calls: int = 0, wall_s: float = 0.0,
            cycles: float = 0.0, cells: int = 0,
            bytes_moved: int = 0) -> None:
        self.calls += calls
        self.wall_s += wall_s
        self.cycles += cycles
        self.cells += cells
        self.bytes_moved += bytes_moved

    def to_dict(self) -> dict:
        return {"calls": self.calls, "wall_s": self.wall_s,
                "cycles": self.cycles, "cells": self.cells,
                "bytes_moved": self.bytes_moved}

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseStat":
        return cls(calls=int(data.get("calls", 0)),
                   wall_s=float(data.get("wall_s", 0.0)),
                   cycles=float(data.get("cycles", 0.0)),
                   cells=int(data.get("cells", 0)),
                   bytes_moved=int(data.get("bytes_moved", 0)))


def _as_path(path) -> tuple[str, ...]:
    if isinstance(path, str):
        return tuple(path.split(";"))
    return tuple(path)


class Profiler:
    """Phase-stack profiler with deterministic work-unit attribution.

    Args:
        tracer: Optional :class:`~repro.obs.tracing.Tracer`; when set,
            every phase is mirrored as a host span so the phase stack
            shows up (correctly nested) in the Perfetto timeline.
    """

    enabled = True

    def __init__(self, tracer=None) -> None:
        self._clock = time.perf_counter
        self._lock = threading.Lock()
        self._stats: dict[tuple[str, ...], PhaseStat] = {}
        self._local = threading.local()
        self._tracer = tracer if tracer is not None and tracer.enabled \
            else None

    # -- recording ----------------------------------------------------------

    def _frames(self) -> list:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    @contextlib.contextmanager
    def phase(self, name: str):
        """Open a phase: nested ``phase``/``work`` calls attribute to
        it; its *self* wall time (total minus children) is recorded on
        exit. Each frame carries ``[name, child_wall]`` so self time is
        ``total - child_wall`` without a second clock read per child."""
        frames = self._frames()
        frames.append([name, 0.0])
        span = (self._tracer.host_span(name, thread="profile")
                if self._tracer is not None else None)
        if span is not None:
            span.__enter__()
        start = self._clock()
        try:
            yield self
        finally:
            total = self._clock() - start
            if span is not None:
                span.__exit__(None, None, None)
            _, child_wall = frames.pop()
            path = tuple(frame[0] for frame in frames) + (name,)
            self._record(path, calls=1,
                         wall_s=max(total - child_wall, 0.0))
            if frames:
                frames[-1][1] += total

    def _record(self, path: tuple[str, ...], **units) -> None:
        with self._lock:
            stat = self._stats.get(path)
            if stat is None:
                stat = self._stats[path] = PhaseStat()
            stat.add(**units)

    def work(self, *, cells: int = 0, bytes_moved: int = 0,
             cycles: float = 0.0) -> None:
        """Attribute work units to the innermost open phase (or the
        ``(unattributed)`` root when none is open)."""
        frames = self._frames()
        path = (tuple(frame[0] for frame in frames)
                or ("(unattributed)",))
        self._record(path, cells=cells, bytes_moved=bytes_moved,
                     cycles=cycles)

    def add(self, path, *, calls: int = 0, wall_s: float = 0.0,
            cycles: float = 0.0, cells: int = 0,
            bytes_moved: int = 0) -> None:
        """Attribute units to an absolute path (``"a;b"`` or tuple),
        independent of the current stack -- used by the discrete-event
        simulators whose phases interleave."""
        self._record(_as_path(path), calls=calls, wall_s=wall_s,
                     cycles=cycles, cells=cells, bytes_moved=bytes_moved)

    # -- queries ------------------------------------------------------------

    @property
    def stacks(self) -> dict[tuple[str, ...], PhaseStat]:
        with self._lock:
            return dict(self._stats)

    def total(self, unit: str = "cells") -> float:
        """Sum of one unit across every recorded path."""
        attr = "wall_s" if unit == "wall_us" else unit
        with self._lock:
            value = sum(getattr(stat, attr) for stat in
                        self._stats.values())
        return value * 1e6 if unit == "wall_us" else value

    # -- exports ------------------------------------------------------------

    def collapsed(self, unit: str = "wall_us") -> str:
        """Folded-stack flamegraph text: one ``a;b;c VALUE`` line per
        path with a nonzero value of ``unit``."""
        if unit not in UNITS:
            raise ValueError(f"unknown unit {unit!r}; choose from {UNITS}")
        lines = []
        for path, stat in sorted(self.stacks.items()):
            if unit == "wall_us":
                value = int(round(stat.wall_s * 1e6))
            else:
                value = getattr(stat, unit)
                value = int(value) if float(value).is_integer() else value
            if value:
                lines.append(f"{';'.join(path)} {value}")
        return "\n".join(lines)

    def write_collapsed(self, path: str, unit: str = "wall_us") -> str:
        """Atomically write :meth:`collapsed` output to ``path``."""
        from repro.core.atomicio import atomic_write_text
        body = self.collapsed(unit)
        return atomic_write_text(path, body + ("\n" if body else ""))

    def table(self) -> list[dict]:
        """Per-phase cost rows (depth-first path order)."""
        rows = []
        for path, stat in sorted(self.stacks.items()):
            row = {"phase": ";".join(path), "depth": len(path)}
            row.update(stat.to_dict())
            rows.append(row)
        return rows

    def format_table(self, indent: str = "") -> str:
        """Human-readable per-phase table for terminal output."""
        rows = self.table()
        if not rows:
            return f"{indent}(no phases recorded)"
        width = max(len(row["phase"]) for row in rows)
        lines = [f"{indent}{'phase':<{width}}  {'calls':>6} "
                 f"{'wall ms':>10} {'cells':>14} {'bytes':>14} "
                 f"{'cycles':>12}"]
        for row in rows:
            lines.append(
                f"{indent}{row['phase']:<{width}}  {row['calls']:>6,} "
                f"{row['wall_s'] * 1e3:>10.2f} {row['cells']:>14,} "
                f"{row['bytes_moved']:>14,} {row['cycles']:>12,.0f}")
        return "\n".join(lines)

    # -- cross-process state ------------------------------------------------

    def export_state(self) -> dict:
        """JSON/pickle-safe snapshot for carrying a worker's profile
        back to the parent process."""
        return {";".join(path): stat.to_dict()
                for path, stat in self.stacks.items()}

    def merge_state(self, state: dict) -> None:
        """Fold an :meth:`export_state` snapshot into this profiler."""
        for key, data in (state or {}).items():
            self._record(_as_path(key), **PhaseStat.from_dict(data)
                         .to_dict())


class NullProfiler(Profiler):
    """Disabled profiler: records nothing, exports empty state."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    @contextlib.contextmanager
    def phase(self, name: str):
        yield self

    def work(self, *, cells: int = 0, bytes_moved: int = 0,
             cycles: float = 0.0) -> None:
        pass

    def add(self, path, **units) -> None:
        pass

    def merge_state(self, state: dict) -> None:
        pass


#: Shared disabled profiler -- the library-wide default.
NULL_PROFILER = NullProfiler()


# ----------------------------------------------------------------------
# Per-pair cost estimation
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PairCost:
    """Predicted cost of aligning one (query, reference) pair."""

    cells: int
    seconds: float
    bytes_moved: int


@dataclass(frozen=True)
class CostModel:
    """Per-pair cost estimates calibrated from a profiled run.

    ``seconds_per_cell`` / ``bytes_per_cell`` come straight from an
    enabled :class:`Profiler`'s ``exec`` subtree (observed wall time
    and modeled traffic divided by deterministic cell counts), so the
    model predicts *this machine's, this configuration's* throughput.
    The supervised engine's load-shedding policy (ROADMAP) can rank
    pairs by :meth:`estimate` before a deadline is at risk.

    Attributes:
        seconds_per_cell: Observed wall seconds per DP cell update.
        bytes_per_cell: Modeled bytes moved per DP cell update.
        matrices_per_cell: DP matrices per logical cell (3 for affine).
    """

    seconds_per_cell: float
    bytes_per_cell: float = 8.0
    matrices_per_cell: int = 1

    #: Conservative fallback when a profile recorded no exec work
    #: (roughly a NumPy-sweep cell rate on one laptop core).
    DEFAULT_SECONDS_PER_CELL = 1e-8

    @classmethod
    def from_profile(cls, profiler: Profiler, prefix: str = "exec",
                     matrices_per_cell: int = 1) -> "CostModel":
        """Calibrate from every profiled path rooted at ``prefix``."""
        wall = 0.0
        cells = 0
        nbytes = 0
        for path, stat in profiler.stacks.items():
            if not path or not path[0].startswith(prefix):
                continue
            wall += stat.wall_s
            cells += stat.cells
            nbytes += stat.bytes_moved
        if cells <= 0:
            return cls(seconds_per_cell=cls.DEFAULT_SECONDS_PER_CELL,
                       matrices_per_cell=matrices_per_cell)
        return cls(seconds_per_cell=wall / cells,
                   bytes_per_cell=nbytes / cells,
                   matrices_per_cell=matrices_per_cell)

    def estimate(self, pair) -> PairCost:
        """Predicted cost of one pair: ``(query, reference)`` sequences
        (anything with ``len``) or an ``(n, m)`` length tuple."""
        first, second = pair
        n = first if isinstance(first, int) else len(first)
        m = second if isinstance(second, int) else len(second)
        cells = self.matrices_per_cell * n * m
        return PairCost(cells=cells,
                        seconds=cells * self.seconds_per_cell,
                        bytes_moved=int(cells * self.bytes_per_cell))

    def estimate_batch(self, pairs) -> list[PairCost]:
        return [self.estimate(pair) for pair in pairs]

    def cost_table(self, pairs) -> list[dict]:
        """JSON-ready per-pair cost rows, in submission order."""
        rows = []
        for index, pair in enumerate(pairs):
            cost = self.estimate(pair)
            rows.append({"index": index, "cells": cost.cells,
                         "seconds": cost.seconds,
                         "bytes_moved": cost.bytes_moved})
        return rows
