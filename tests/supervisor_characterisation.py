"""Characterisation of ``SupervisedEngine``: what it decides and reports.

A fixed set of seeded scenarios runs the supervisor on the thread
backend, with ``time.sleep`` patched out and the deadline clock frozen
(so backoff costs nothing and a load-shedding budget never drifts with
wall time), and records every observable a refactor of
``repro.resilience.supervisor`` must leave alone:

- the final ``smx-outcome/1`` document and, where the scenario keeps
  one, the checkpoint file (journal folded in);
- the raised error (type, message, ``pair_index``), if the run raises;
- the supervisor's own events (``run_start`` .. ``run_end``), minus
  the wall-clock and identity fields; the engine's ``batch_*`` /
  ``progress`` events are left out because worker threads interleave
  them;
- the ``resilience.*`` and ``exec.shed.*`` counters.

Scenarios: a chaos plan over crash / oserror / bitflip / rangeerror at
8 % each, with validation and a checkpoint, across traceback x workers
x ``max_unit_pairs``; the same plan without the ladder, without
retries, and as a strict run that raises; a too-narrow band with and
without the exact-rung promotion; load shedding under a pessimistic
cost model, alone and with chaos on small units; and ``engine="auto"``
on unit-cost pairs.

``tests/fixtures/supervisor_characterisation.json`` holds the record
as taken before the supervisor's unit path was consolidated, except
for three changes made on purpose since:

- a pair that fails validation (``bitflip``) counts one attempt per
  execution: its ``PairFailure.attempts``, the ``attempts`` of its
  ``quarantine`` event and the ``attempt`` of its ``fault`` events
  were one too high, two once its ladder rung ran (the rung skipped an
  attempt number, so that rung's ``unit_done`` was one too high);
- ``chaos-strict-raise`` raises at its first quarantine, so its events
  and counters stop there (same error type and pair; the message
  carries the corrected attempt count).
- every single failing pair, including one bisected out of a larger
  unit, now gets ``max_retries`` plain retries before its first rung
  (before, a bisected pair arrived with its split depth as its retry
  count and got none at the default ``max_retries=2``): each of the
  five poison pairs in the chaos scenarios other than
  ``chaos-no-retries`` and ``chaos-strict-raise`` runs twice more, so
  ``retries`` rises by 10, ``faults.*`` by 2 per poison pair, and
  every ``PairFailure.attempts`` by 2 (results and ``degraded`` are
  unchanged).

``tests/test_supervisor_characterisation.py`` asserts the supervisor
still reproduces it byte for byte. Regenerate (only for an intended
behaviour change) with
``PYTHONPATH=src python -m tests.supervisor_characterisation``.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
import types

import numpy as np

from repro.config import standard_configs
from repro.exec.engine import BatchConfig
from repro.obs import Observability
from repro.obs.events import EventStream
from repro.obs.prof import CostModel
from repro.resilience import (
    ChaosPlan,
    ResilienceConfig,
    SupervisedEngine,
    deadline,
    outcome_io,
)
from repro.workloads.synthetic import ErrorProfile, mutate

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "supervisor_characterisation.json")

SEED = 0x5EED5

#: The supervisor's own event kinds (the engine's are left out).
SUPERVISOR_EVENTS = frozenset((
    "run_start", "shard_start", "shard_done", "unit_done", "fault",
    "retry", "bisect", "degrade", "quarantine", "shed", "checkpoint",
    "heartbeat", "run_end"))

#: Event fields that carry wall-clock time or a per-run identity.
UNSTABLE_FIELDS = frozenset(("t", "seq", "run_id", "elapsed_s",
                             "budget_s", "predicted_s"))

COUNTER_PREFIXES = ("resilience.", "exec.shed.")

CONFIGS = standard_configs()


def _plan() -> ChaosPlan:
    return ChaosPlan(seed=7, crash=0.08, oserror=0.08, bitflip=0.08,
                     rangeerror=0.08)


def _pairs(config_name: str, count: int = 40,
           detour_every: int | None = None) -> list:
    """``count`` seeded pairs, 24-63 long, 2-30 % edits; every
    ``detour_every``-th reference also gains a 20-base insertion that
    drives the path far off the diagonal."""
    alphabet = CONFIGS[config_name].alphabet
    rng = np.random.default_rng(SEED)
    pairs = []
    for number in range(count):
        reference = alphabet.random(24 + int(rng.integers(0, 40)), rng)
        rate = float(rng.uniform(0.02, 0.30))
        profile = ErrorProfile(substitution=0.5 * rate,
                               insertion=0.25 * rate,
                               deletion=0.25 * rate)
        query, _ = mutate(reference, profile, alphabet, rng)
        if detour_every and number % detour_every == 0:
            cut = len(reference) // 2
            reference = np.concatenate([reference[:cut],
                                        alphabet.random(20, rng),
                                        reference[cut:]])
        pairs.append((query, reference))
    return pairs


def _scenario(config_name: str, batch: BatchConfig, chaos: bool = False,
              checkpoint: bool = False, detour_every: int | None = None,
              **policy) -> dict:
    return {"config": config_name, "batch": batch, "chaos": chaos,
            "checkpoint": checkpoint, "detour_every": detour_every,
            "policy": dict(backend="thread", **policy)}


def _scenarios():
    for traceback in (True, False):
        for workers in (1, 2):
            for cap in (None, 4):
                name = (f"chaos-{'cigar' if traceback else 'score'}"
                        f"-w{workers}-cap{cap or 'none'}")
                yield name, _scenario(
                    "dna-gap", BatchConfig(traceback=traceback,
                                           workers=workers),
                    chaos=True, checkpoint=True, validate=True,
                    max_unit_pairs=cap)
    chaotic = dict(chaos=True, checkpoint=True, validate=True)
    yield "chaos-no-degrade", _scenario(
        "dna-gap", BatchConfig(workers=2), degrade=False, **chaotic)
    yield "chaos-no-retries", _scenario(
        "dna-gap", BatchConfig(workers=2), max_retries=0, **chaotic)
    yield "chaos-strict-raise", _scenario(
        "dna-gap", BatchConfig(workers=2), chaos=True, validate=True,
        max_retries=0, degrade=False, shed=False, raise_on_failure=True)
    for degrade in (True, False):
        yield f"banded-{'degrade' if degrade else 'no-degrade'}", \
            _scenario("dna-gap", BatchConfig(algorithm="banded",
                                             band_width=2),
                      checkpoint=True, detour_every=4, degrade=degrade)
    shedding = dict(deadline_s=60.0,
                    cost_model=CostModel(seconds_per_cell=0.02))
    yield "shed", _scenario("dna-gap", BatchConfig(traceback=False),
                            checkpoint=True, **shedding)
    yield "shed-chaos-cap5", _scenario(
        "dna-gap", BatchConfig(traceback=False), chaos=True,
        checkpoint=True, validate=True, max_unit_pairs=5, **shedding)
    yield "auto-edit", _scenario(
        "dna-edit", BatchConfig(engine="auto"), chaos=True,
        checkpoint=True, validate=True)


SCENARIOS = dict(_scenarios())


@contextlib.contextmanager
def _still_clock():
    """No backoff sleeps, and a deadline clock that never advances."""
    sleep, clock = time.sleep, deadline.time
    time.sleep = lambda seconds: None
    deadline.time = types.SimpleNamespace(monotonic=lambda: 1000.0)
    try:
        yield
    finally:
        time.sleep, deadline.time = sleep, clock


def _event_record(event: dict) -> dict:
    return {key: value for key, value in event.items()
            if key not in UNSTABLE_FIELDS}


def characterise(name: str) -> dict:
    """Run one scenario and record it."""
    spec = SCENARIOS[name]
    config = CONFIGS[spec["config"]]
    pairs = _pairs(spec["config"], detour_every=spec["detour_every"])
    obs = Observability.enabled_context(events=EventStream())
    engine = SupervisedEngine(config, spec["batch"],
                              ResilienceConfig(**spec["policy"]), obs=obs,
                              plan=_plan() if spec["chaos"] else None)
    record: dict = {}
    with tempfile.TemporaryDirectory() as scratch, _still_clock():
        path = (os.path.join(scratch, "outcome.json")
                if spec["checkpoint"] else None)
        try:
            outcome = engine.run(pairs, checkpoint_path=path)
        except Exception as exc:  # the raise itself is what is recorded
            record["error"] = [type(exc).__name__, str(exc),
                               getattr(exc, "pair_index", None)]
        else:
            record["outcome"] = outcome_io.to_document(
                outcome, pairs=len(pairs))
        if path is not None and os.path.exists(path):
            record["checkpoint"] = outcome_io.load_document(path)
    record["events"] = [_event_record(event) for event in obs.events.events
                        if event["kind"] in SUPERVISOR_EVENTS]
    record["counters"] = {
        key: value for key, value in sorted(obs.metrics.snapshot().items())
        if key.startswith(COUNTER_PREFIXES) and not isinstance(value, dict)}
    # One JSON round trip, so a fresh record compares equal to a loaded one.
    return json.loads(json.dumps(record))


def render(name: str, record: dict) -> str:
    """One scenario's line of the fixture."""
    return json.dumps(name) + ":" + json.dumps(
        record, separators=(",", ":"), sort_keys=True)


def main() -> None:
    lines = [render(name, characterise(name)) for name in sorted(SCENARIOS)]
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:  # a case a line
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{FIXTURE}: {len(lines)} scenarios")


if __name__ == "__main__":
    main()
