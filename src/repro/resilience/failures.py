"""Structured partial results: per-pair failures and batch outcomes.

The supervised engine never lets one bad pair abort a batch: every
submitted pair ends either as a normal
:class:`~repro.algorithms.base.AlignerResult` or as a typed
:class:`PairFailure`, and the two are zipped back into submission order
inside a :class:`BatchOutcome`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algorithms.base import AlignerResult

#: Fault vocabulary used across failures, metrics labels, and the
#: chaos injector: the five injectable classes plus the supervisor's
#: own classifications.
FAULTS = ("crash", "hang", "oserror", "bitflip", "rangeerror",
          "alignment", "deadline", "error")


@dataclass(frozen=True)
class PairFailure:
    """One pair's terminal failure, after all recovery was exhausted.

    Attributes:
        index: Position of the pair in the submitted batch.
        fault: Classified fault kind (one of :data:`FAULTS`).
        error_type: Name of the underlying exception class (or
            ``"Timeout"`` for hangs, ``"Validation"`` for corruption
            caught by result validation).
        message: Human-readable detail from the last attempt.
        attempts: Executions that included this pair.
        rungs: Degradation-ladder rungs that were tried on the way down.
    """

    index: int
    fault: str
    error_type: str
    message: str
    attempts: int = 1
    rungs: tuple[str, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - display helper
        detail = f" after {self.attempts} attempts" if self.attempts else ""
        return (f"pair {self.index}: {self.fault} "
                f"({self.error_type}: {self.message}){detail}")


@dataclass
class BatchOutcome:
    """Everything the supervised engine knows about one batch run.

    ``results`` holds one entry per submitted pair, in submission
    order: an :class:`AlignerResult` for pairs that completed (possibly
    via a degraded path) and ``None`` for pairs listed in ``failures``.
    """

    results: list[AlignerResult | None]
    failures: list[PairFailure] = field(default_factory=list)
    #: Flat supervisor accounting, e.g. ``{"faults.crash": 2,
    #: "retries": 3, "degraded.wide-dtype": 1, "quarantined.crash": 1}``.
    counters: dict[str, int] = field(default_factory=dict)
    #: Degradation-ladder rungs actually engaged, per pair index.
    degraded: dict[int, tuple[str, ...]] = field(default_factory=dict)
    #: Injection events observed in-process (chaos runs only).
    injections: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failure_index(self) -> dict[int, PairFailure]:
        return {failure.index: failure for failure in self.failures}

    def completed(self) -> int:
        return sum(result is not None for result in self.results)

    def merged(self) -> list:
        """``results`` with each ``None`` replaced by its PairFailure
        record -- the "AlignerResult-order partial results" view."""
        by_index = self.failure_index
        return [by_index[i] if result is None else result
                for i, result in enumerate(self.results)]

    def alignments(self) -> list:
        """Per-pair :class:`~repro.dp.alignment.Alignment` objects,
        with :class:`PairFailure` records at failed positions."""
        return [entry if isinstance(entry, PairFailure)
                else entry.alignment for entry in self.merged()]

    def scores(self) -> list:
        """Per-pair scores, with :class:`PairFailure` records at
        failed positions (``None`` stays for pruned heuristics)."""
        return [entry if isinstance(entry, PairFailure)
                else entry.score for entry in self.merged()]

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount
