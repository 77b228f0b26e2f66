"""The degradation ladder: slower-but-safer execution paths.

When a pair (or shard) keeps failing, the supervisor does not just give
up -- it walks a ladder of progressively more conservative
configurations until one succeeds or the ladder runs dry:

=============  ========================================================
rung            meaning
=============  ========================================================
``wide-dtype``  Re-run with the vectorized kernels forced to int64
                rows (``BatchConfig.wide_dtype``): the answer to an
                overflow-guard trip / :class:`~repro.errors.RangeError`
                where the int-narrowed fast path left its proven range.
``scalar``      Re-run through the per-pair scalar aligners (the
                reference path): the answer to any fault inside the
                vectorized engine.
``exact``       Re-run a *failed heuristic* (banded band too narrow,
                X-drop pruned the true path) with the exact
                full-matrix aligner: trades the heuristic's speed for a
                guaranteed answer.
=============  ========================================================

Every rung actually engaged is recorded in ``repro.obs`` metrics
(``resilience.degraded`` with a ``rung`` label), in the
:class:`~repro.resilience.failures.BatchOutcome` counters, and -- for
pairs that still fail -- in the ``rungs`` field of their
:class:`~repro.resilience.failures.PairFailure`.
"""

from __future__ import annotations

from dataclasses import replace

from repro.exec import routes
from repro.exec.engine import BatchConfig

#: Heuristic algorithms the ``exact`` rung can promote.
HEURISTIC_ALGORITHMS = ("banded", "xdrop")


def exact_config(batch: BatchConfig) -> BatchConfig:
    """The exact scalar configuration equivalent to a heuristic batch."""
    return BatchConfig(engine="scalar", mode=batch.mode,
                       algorithm="full", traceback=batch.traceback,
                       workers=1)


def plan_rungs(batch: BatchConfig,
               fault: str) -> list[tuple[str, BatchConfig]]:
    """Ordered ``(rung name, degraded config)`` candidates for a fault.

    The returned configs are single-worker (the ladder only ever runs
    on an isolated pair or a small quarantine probe) and strip any
    engine deadline -- the supervisor owns the clock.
    """
    base = replace(batch, workers=1, deadline_s=None)
    # Where the route registry says this engine's fast path degrades
    # to (``None`` for the scalar reference path itself). A degraded
    # score-only batch stays score-only: the fallback's
    # ``compute_score`` path answers it exactly.
    fallback = routes.degrade_to(batch.engine, batch.algorithm)
    rungs: list[tuple[str, BatchConfig]] = []
    if fault == "alignment":
        if batch.algorithm in HEURISTIC_ALGORITHMS:
            rungs.append(("exact", exact_config(batch)))
        elif fallback:
            rungs.append((fallback, replace(base, engine=fallback)))
        return rungs
    if fault == "rangeerror":
        if not base.wide_dtype:
            rungs.append(("wide-dtype", replace(base, wide_dtype=True)))
        if fallback:
            rungs.append((fallback, replace(base, engine=fallback,
                                            wide_dtype=True)))
        return rungs
    # Generic computation faults: drop off the vectorized fast path.
    if fallback and fault not in ("hang", "crash", "oserror", "deadline"):
        rungs.append((fallback, replace(base, engine=fallback)))
    return rungs
