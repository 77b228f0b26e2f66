"""Multi-process sharding for the batch engine.

``BatchEngine(workers=N)`` runs :func:`run_sharded`: one strict call
into the supervisor's process pool, one contiguous shard per worker,
results in submission order and identical to an inline run (shards
travel as the supervisor's columns: codes out, result arrays back). The
strict policy keeps the plain engine's contract: a pool that cannot
start runs on threads and a dead worker re-runs only unfinished shards;
heuristic "no result" outcomes stay failed (no exact-aligner promotion)
and no pair is shed up front; a computation error raises
:class:`~repro.errors.PoisonPairError` as soon as bisection isolates
the first failing pair (submission index, fault, original error type)
and a missed ``deadline_s`` raises
:class:`~repro.errors.DeadlineExceeded`.
"""

from __future__ import annotations

from repro.algorithms.base import AlignerResult
from repro.config import AlignmentConfig
from repro.obs import Observability
from repro.resilience.policy import ResilienceConfig
from repro.resilience.supervisor import SupervisedEngine

#: The plain engine's failure contract in supervisor terms.
_STRICT = ResilienceConfig(max_retries=0, degrade=False, shed=False,
                           raise_on_failure=True)


def shard_spans(total: int, workers: int) -> list[tuple[int, int]]:
    """Split ``total`` items into at most ``workers`` contiguous
    near-equal ``(start, stop)`` spans (never an empty span)."""
    workers = max(1, min(workers, total))
    base, extra = divmod(total, workers)
    spans = []
    start = 0
    for w in range(workers):
        stop = start + base + (1 if w < extra else 0)
        spans.append((start, stop))
        start = stop
    return spans


def run_sharded(config: AlignmentConfig, batch, pairs,
                obs: Observability) -> list[AlignerResult]:
    """Fan a pair list across worker processes; order is preserved.

    Raises on the first pair that fails (see the module docstring).
    """
    return SupervisedEngine(config, batch, _STRICT, obs=obs).run(
        pairs).results
