"""Deterministic, seeded fault injection for the execution layer.

A :class:`ChaosPlan` decides -- purely from a seed and the *content* of
each (query, reference) pair -- whether that pair is poisoned with a
given fault class. Content-based decisions make the injection invariant
under sharding, bucketing, and bisection: however the supervisor
regroups the batch, the same pairs misbehave, which is exactly what a
poison-pair quarantine test needs. Every decision is a keyed BLAKE2
hash, so two runs with the same seed inject the identical fault set.

Fault classes (``CLASSES``):

``crash``
    The worker dies. Inside a real pool worker process this is
    ``os._exit`` (the parent sees ``BrokenProcessPool``, the honest
    signature of a crashed worker); inline / in a thread it raises
    :class:`InjectedCrash`.
``hang``
    The worker sleeps ``hang_s`` seconds (default far beyond any
    reasonable shard timeout) before returning, modelling a stuck
    kernel; supervision must detect it via timeouts.
``oserror``
    A transient I/O failure (:class:`InjectedOSError`), the class of
    error a retry is expected to clear.
``bitflip``
    A single bit is XOR-ed into the pair's computed score (and its
    alignment's stored score), modelling silent datapath corruption.
    Only result *validation* can catch this one.
``rangeerror``
    A synthetic :class:`repro.errors.RangeError` -- the SMX ISA's
    hardware-invariant violation (a delta left its proven [0, theta]
    range), the paper's principled "the accelerator lied" signal.

Each poisoned (pair, class) is further classified **transient**
(fires only on attempt 0 -- one retry clears it) or **persistent**
(fires on every attempt -- only quarantine ends it) by another seeded
hash; :meth:`ChaosPlan.ground_truth` exposes the full decision table so
tests can check the supervisor's accounting against the injector's.

A plan is activated per execution with :func:`scoped` -- by the
supervisor's worker threads and pool worker processes alike -- and
every *fired* injection is appended to the plan's thread-safe
``fired`` log.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import os
import struct
import threading
import time
from dataclasses import dataclass, field, fields

import numpy as np

from repro.errors import ConfigurationError, RangeError

#: Injectable fault classes, in priority order (one aborting fault per
#: execution: the first poisoned pair's highest-priority class wins).
CLASSES = ("crash", "hang", "oserror", "bitflip", "rangeerror")

#: Aborting classes (the execution raises / dies); ``bitflip`` instead
#: corrupts results silently and ``hang`` delays before returning.
RAISING = ("crash", "oserror", "rangeerror")


class InjectedCrash(RuntimeError):
    """Inline stand-in for a worker process dying mid-shard."""


class InjectedKill(BaseException):
    """The whole *supervisor* dying (SIGKILL stand-in), not a worker.

    Raised by the supervised engine when a plan's ``kill_at_unit``
    fires: derives from ``BaseException`` so no recovery path can
    swallow it -- exactly like the real signal, everything in memory is
    lost and only the last write-then-rename checkpoint survives.
    """


class InjectedOSError(OSError):
    """An injected transient I/O failure."""


class InjectedRangeError(RangeError):
    """An injected SMX hardware-invariant violation."""


@dataclass
class InjectionEvent:
    """One fired injection, as recorded in the ground-truth log."""

    cls: str
    digest: int
    attempt: int
    persistent: bool


@dataclass
class ChaosPlan:
    """Seeded fault-injection policy (rates are per pair, per class)."""

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    oserror: float = 0.0
    bitflip: float = 0.0
    rangeerror: float = 0.0
    #: Fraction of poisoned (pair, class) combos that fire on *every*
    #: attempt instead of only the first.
    persistent_fraction: float = 0.5
    #: Injected hang duration; keep it far above the shard timeout so a
    #: "hang" can never be outrun by a slow supervisor.
    hang_s: float = 30.0
    #: Which score bit a ``bitflip`` toggles.
    flip_bit: int = 6
    #: Kill the *supervisor process* (SIGKILL model) right after it has
    #: settled -- absorbed or disposed of, checkpoint included -- this
    #: many units. ``None`` never kills. Unlike the content-keyed
    #: classes above this is positional: "die after shard N", the fault
    #: the checkpoint/resume layer exists to survive.
    kill_at_unit: int | None = None
    fired: list = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        for name in CLASSES + ("persistent_fraction",):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"chaos rate {name}={rate} outside [0, 1]")
        if self.hang_s <= 0:
            raise ConfigurationError(f"hang_s must be > 0, got "
                                     f"{self.hang_s}")
        if self.kill_at_unit is not None and self.kill_at_unit < 1:
            raise ConfigurationError(
                f"kill_at_unit must be >= 1 (units settled before the "
                f"kill), got {self.kill_at_unit}")
        self._lock = threading.Lock()

    def should_kill(self, units_settled: int) -> bool:
        """Does the supervisor die after settling this many units?"""
        return (self.kill_at_unit is not None
                and units_settled == self.kill_at_unit)

    def record_kill(self, units_settled: int) -> None:
        """Log the kill in the fired ledger (digest = unit ordinal)."""
        event = InjectionEvent(cls="kill", digest=units_settled,
                               attempt=0, persistent=False)
        with self._lock:
            self.fired.append(event)

    # Locks do not pickle; pool workers get a fresh one. The fired log
    # stays behind too: each worker starts an empty log and ships only
    # its own events back (see the supervisor's result merging).
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_lock", None)
        state["fired"] = []
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- seeded decisions --------------------------------------------------

    def _unit(self, salt: str, digest: int) -> float:
        """Deterministic uniform in [0, 1) keyed on (seed, salt, pair)."""
        raw = hashlib.blake2b(
            struct.pack("<qq", self.seed, digest) + salt.encode(),
            digest_size=8).digest()
        return struct.unpack("<Q", raw)[0] / 2.0 ** 64

    @staticmethod
    def pair_digest(q_codes: np.ndarray, r_codes: np.ndarray) -> int:
        """Content hash identifying a pair across shards and retries."""
        raw = hashlib.blake2b(
            np.asarray(q_codes, dtype=np.uint8).tobytes()
            + b"|" + np.asarray(r_codes, dtype=np.uint8).tobytes(),
            digest_size=8).digest()
        return struct.unpack("<q", raw)[0]

    def poisoned(self, cls: str, digest: int) -> bool:
        return self._unit(f"rate:{cls}", digest) < getattr(self, cls)

    def persistent(self, cls: str, digest: int) -> bool:
        return (self._unit(f"persist:{cls}", digest)
                < self.persistent_fraction)

    def fires(self, cls: str, digest: int, attempt: int) -> bool:
        """Does class ``cls`` fire for this pair on this attempt?"""
        if not self.poisoned(cls, digest):
            return False
        return attempt == 0 or self.persistent(cls, digest)

    def ground_truth(self, pairs) -> list[dict[str, str]]:
        """Per-pair poison table: ``{cls: "transient"|"persistent"}``."""
        table = []
        for q_codes, r_codes in pairs:
            digest = self.pair_digest(q_codes, r_codes)
            entry = {}
            for cls in CLASSES:
                if self.poisoned(cls, digest):
                    entry[cls] = ("persistent"
                                  if self.persistent(cls, digest)
                                  else "transient")
            table.append(entry)
        return table

    # -- firing ------------------------------------------------------------

    def _record(self, cls: str, digest: int, attempt: int) -> None:
        event = InjectionEvent(cls=cls, digest=digest, attempt=attempt,
                               persistent=self.persistent(cls, digest))
        with self._lock:
            self.fired.append(event)

    def apply(self, pairs, results, attempt: int,
              in_worker: bool) -> None:
        """Inject this plan's faults into one finished execution.

        Called by :meth:`BatchEngine.run <repro.exec.BatchEngine.run>`
        after computing ``results`` (injecting after the compute keeps
        the hook at one site while being observationally identical for
        the supervisor). Bit-flips corrupt results in place; the first
        pair poisoned with an aborting class raises (or kills the
        worker), and a hang sleeps once before returning.
        """
        abort: tuple[str, int] | None = None
        for (q_codes, r_codes), result in zip(pairs, results):
            digest = self.pair_digest(q_codes, r_codes)
            if self.fires("bitflip", digest, attempt) and result is not None:
                self._record("bitflip", digest, attempt)
                flip = 1 << self.flip_bit
                if result.score is not None:
                    result.score ^= flip
                if result.alignment is not None:
                    result.alignment.score ^= flip
            if abort is None:
                for cls in ("crash", "hang", "oserror", "rangeerror"):
                    if self.fires(cls, digest, attempt):
                        abort = (cls, digest)
                        break
        if abort is None:
            return
        cls, digest = abort
        self._record(cls, digest, attempt)
        if cls == "hang":
            time.sleep(self.hang_s)
        elif cls == "crash":
            if in_worker:
                os._exit(17)
            raise InjectedCrash("injected worker crash")
        elif cls == "oserror":
            raise InjectedOSError("injected transient I/O failure")
        else:
            raise InjectedRangeError(
                "injected: delta left the proven [0, theta] range")

    def corrupt_borders(self, store, q_codes: np.ndarray,
                        r_codes: np.ndarray, attempt: int = 0) -> bool:
        """Kernel bit-flip hook for the SMX functional model.

        Flips one bit of one stored tile-border element in a
        :class:`~repro.core.traceback.TileBorderStore` when this pair is
        bitflip-poisoned. Returns whether a flip happened.
        """
        digest = self.pair_digest(q_codes, r_codes)
        if not self.fires("bitflip", digest, attempt):
            return False
        self._record("bitflip", digest, attempt)
        strip = int(self._unit("flip:strip", digest)
                    * len(store.dvp_cols))
        tiles = store.dvp_cols[strip]
        col = int(self._unit("flip:col", digest) * len(tiles))
        border = tiles[col]
        element = int(self._unit("flip:elem", digest) * len(border))
        border[element] ^= 1
        return True

    def spec(self) -> dict:
        """The plan's declarative part (for run-report params)."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "fired"}


def parse_rates(text: str, seed: int = 0, **kwargs) -> ChaosPlan:
    """Build a plan from a CLI-style ``cls=rate[,cls=rate...]`` string.

    Besides the rate classes, ``kill=N`` sets ``kill_at_unit=N`` (kill
    the supervisor after N settled units -- pair with ``--checkpoint``
    to demo crash-safe resume from the command line).
    """
    rates: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        name = name.strip()
        if name == "kill":
            try:
                kwargs["kill_at_unit"] = int(value)
            except ValueError:
                raise ConfigurationError(
                    f"bad kill unit {value!r} (expected an integer)"
                ) from None
            continue
        if name not in CLASSES:
            raise ConfigurationError(
                f"unknown chaos class {name!r}; choose from "
                f"{CLASSES + ('kill',)}")
        try:
            rates[name] = float(value)
        except ValueError:
            raise ConfigurationError(
                f"bad chaos rate {value!r} for class {name!r}") from None
    return ChaosPlan(seed=seed, **rates, **kwargs)


# ----------------------------------------------------------------------
# Activation: one context-local slot.
#
# The supervisor's thread backend runs several shard executions
# concurrently in one process, each with its own attempt counter, so
# the per-execution activation lives in a ContextVar (thread-isolated);
# a pool worker process sets the same slot around its one execution.
# ----------------------------------------------------------------------

_Activation = tuple[ChaosPlan, int, bool]  # (plan, attempt, in_worker)
_LOCAL: contextvars.ContextVar[_Activation | None] = \
    contextvars.ContextVar("repro_chaos_local", default=None)


@contextlib.contextmanager
def scoped(plan: ChaosPlan | None, attempt: int = 0,
           in_worker: bool = False):
    """Context-local activation for one execution; ``None`` switches
    injection off (clean reference recomputes).

    ``attempt`` is the number of earlier executions that included
    these pairs (transient faults only fire at attempt 0);
    ``in_worker`` marks a pool worker process, where an injected crash
    genuinely kills the process.
    """
    token = _LOCAL.set(None if plan is None else (plan, attempt, in_worker))
    try:
        yield plan
    finally:
        _LOCAL.reset(token)


def apply_to_results(pairs, results) -> None:
    """Engine-side hook: inject the active plan's faults, if any."""
    current = _LOCAL.get()
    if current is not None:
        plan, attempt, in_worker = current
        plan.apply(pairs, results, attempt, in_worker)


def corrupt_tile_borders(store, q_codes, r_codes) -> None:
    """SMX-functional-model hook (see ChaosPlan.corrupt_borders)."""
    current = _LOCAL.get()
    if current is not None:
        plan, attempt, _ = current
        plan.corrupt_borders(store, q_codes, r_codes, attempt)
