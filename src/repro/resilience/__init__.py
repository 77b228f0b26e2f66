"""Fault-tolerant execution layer for the batch engine.

``repro.resilience`` wraps :class:`repro.exec.BatchEngine` in a
supervisor that shards work, enforces per-shard timeouts and per-call
deadlines, retries and bisects failing shards down to the poison pairs,
walks a degradation ladder of slower-but-safer configurations, and
returns structured partial results instead of raising. A deterministic
seeded fault injector (:mod:`repro.resilience.chaos`) exercises all of
it.

Import note: :mod:`repro.exec.engine` imports the (dependency-light)
``chaos`` and ``deadline`` modules from this package, while the
supervisor and policy import the engine back. The heavyweight names are
therefore exposed lazily (PEP 562) so the package can be imported from
either direction without a cycle.
"""

from __future__ import annotations

from repro.resilience.chaos import (
    ChaosPlan,
    InjectedKill,
    InjectionEvent,
    parse_rates,
)
from repro.resilience.deadline import Deadline
from repro.resilience.failures import FAULTS, BatchOutcome, PairFailure

_LAZY = {
    "ResilienceConfig": "repro.resilience.policy",
    "SupervisedEngine": "repro.resilience.supervisor",
    "run_batch": "repro.resilience.supervisor",
    "HEURISTIC_ALGORITHMS": "repro.resilience.policy",
    "plan_rungs": "repro.resilience.policy",
    "exact_config": "repro.resilience.policy",
    "Checkpoint": "repro.resilience.outcome_io",
}

__all__ = [
    "BatchOutcome",
    "ChaosPlan",
    "Checkpoint",
    "Deadline",
    "FAULTS",
    "InjectedKill",
    "InjectionEvent",
    "PairFailure",
    "ResilienceConfig",
    "SupervisedEngine",
    "outcome_io",
    "parse_rates",
    "plan_rungs",
    "run_batch",
]


def __getattr__(name: str):
    import importlib
    if name == "outcome_io":
        value = importlib.import_module("repro.resilience.outcome_io")
        globals()[name] = value
        return value
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
