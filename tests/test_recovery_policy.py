"""The recovery policy: one table of :func:`repro.resilience.policy.decide`
rules, and properties of the real supervisor loop under scripted faults.

The property tests run :class:`SupervisedEngine` on the thread backend
with ``time.sleep`` patched out and ``BatchEngine._run_inline``
replaced by a script: every pair has a fault script (clean, transient
for its first k executions, persistent, pair-targeted, range error, or
a deadline on its first execution), and the script logs each
execution. No process is started.
"""

from __future__ import annotations

import math
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import standard_configs
from repro.errors import AlignmentError, DeadlineExceeded, RangeError
from repro.exec.engine import BatchConfig, BatchEngine
from repro.resilience import ResilienceConfig, SupervisedEngine
from repro.resilience.policy import Unit, decide, plan_rungs

CONFIG = standard_configs()["dna-gap"]
BATCH = BatchConfig()
BANDED = BatchConfig(algorithm="banded", band_width=2)


def _distinct_pairs(count: int) -> list:
    rng = np.random.default_rng(0xB0D6E7)
    pairs: dict = {}
    while len(pairs) < count:
        q = CONFIG.alphabet.random(int(rng.integers(6, 11)), rng)
        r = CONFIG.alphabet.random(int(rng.integers(6, 11)), rng)
        pairs.setdefault((q.tobytes(), r.tobytes()), (q, r))
    return list(pairs.values())


PAIRS = _distinct_pairs(8)

# -- decide, one row per rule ------------------------------------------------


def _summary(actions) -> list:
    return [(action.kind,
             [(unit.indices, unit.attempt, unit.retries, unit.rungs,
               unit.fault) for unit in action.units],
             [(failure.index, failure.attempts)
              for failure in action.failures],
             action.delay)
            for action in actions]


POLICY = ResilienceConfig(max_retries=2, backoff_base_s=0.1)

RULES = {
    "first-wave unit retried whole": (
        Unit([1, 2, 3]), "oserror", {},
        [("retry", [([1, 2, 3], 1, 1, (), "oserror")], [], 0.1)]),
    "later multi-pair unit bisected": (
        Unit([1, 2, 3], attempt=1, retries=1), "oserror", {},
        [("bisect", [([1], 2, 0, (), "oserror"),
                     ([2, 3], 2, 0, (), "oserror")], [], 0.0)]),
    "pair-targeted fault isolates the pair": (
        Unit([1, 2, 3]), "alignment", {"pair_index": 1},
        [("isolate", [([2], 1, 0, (), "alignment"),
                      ([1, 3], 1, 0, (), None)], [], 0.0)]),
    "bisected single pair retried": (
        Unit([4], attempt=2), "oserror", {},
        [("retry", [([4], 3, 1, (), "oserror")], [], 0.1)]),
    "backoff doubles per retry": (
        Unit([4], attempt=3, retries=1), "oserror", {},
        [("retry", [([4], 4, 2, (), "oserror")], [], 0.2)]),
    "retries spent: first rung": (
        Unit([4], attempt=4, retries=2), "rangeerror", {},
        [("degrade", [([4], 5, 0, ("wide-dtype",), "rangeerror")], [],
          0.0)]),
    "a rung is not retried: next rung": (
        Unit([4], attempt=5, rungs=("wide-dtype",), fault="rangeerror"),
        "rangeerror", {},
        [("degrade", [([4], 6, 0, ("wide-dtype", "scalar"),
                       "rangeerror")], [], 0.0)]),
    "ladder spent: quarantine": (
        Unit([4], attempt=6, rungs=("wide-dtype", "scalar")),
        "rangeerror", {},
        [("quarantine", [], [(4, 7)], 0.0)]),
    "infra fault has no rung": (
        Unit([4], attempt=4, retries=2), "oserror", {},
        [("quarantine", [], [(4, 5)], 0.0)]),
    "deadline cuts a running unit": (
        Unit([1, 2], attempt=1), "deadline", {},
        [("fail", [], [(1, 2), (2, 2)], 0.0)]),
    "deadline before the unit started": (
        Unit([1, 2], attempt=1), "deadline", {"ran": False},
        [("fail", [], [(1, 1), (2, 1)], 0.0)]),
    "heuristic give-up on a base config is kept": (
        Unit([4]), "alignment", {"gave_up": True}, []),
}


@pytest.mark.parametrize("name", sorted(RULES))
def test_decide_rule(name):
    unit, fault, extra, want = RULES[name]
    assert _summary(decide(unit, fault, POLICY, BATCH, **extra)) == want


def test_decide_promotes_a_heuristic_give_up_once():
    (action,) = decide(Unit([4]), "alignment", POLICY, BANDED,
                       gave_up=True)
    assert action.kind == "degrade"
    assert action.units[0].rungs == ("exact",)
    assert decide(action.units[0], "alignment", POLICY, BANDED,
                  gave_up=True) == []


def test_decide_without_retries_or_ladder():
    single = Unit([4], attempt=2)
    (action,) = decide(single, "rangeerror",
                       ResilienceConfig(max_retries=0), BATCH)
    assert action.kind == "degrade"
    (action,) = decide(single, "rangeerror",
                       ResilienceConfig(degrade=False), BATCH)
    assert action.kind == "retry"
    (action,) = decide(Unit([4], retries=2), "rangeerror",
                       ResilienceConfig(degrade=False), BATCH)
    assert action.kind == "quarantine"
    # The whole-unit retry of a first-wave unit is not max_retries'.
    (action,) = decide(Unit([1, 2]), "oserror",
                       ResilienceConfig(max_retries=0), BATCH)
    assert action.kind == "retry"


@pytest.mark.parametrize("retries", [9, 5000])
def test_backoff_is_capped(retries):
    (action,) = decide(Unit([4], retries=retries), "oserror",
                       ResilienceConfig(max_retries=10_000,
                                        backoff_base_s=0.1), BATCH)
    assert action.delay == 1.0


def test_only_keeps_retries_for_the_same_pair_set():
    assert Unit([4], retries=2).only(4).retries == 2
    assert Unit([4, 5], retries=1).only(4) == Unit([4], retries=0)


# -- the supervisor loop under scripted faults -------------------------------

#: Exception and policy fault of each failing script kind.
ERRORS = {"transient": ("oserror", lambda local: OSError("scripted")),
          "persistent": ("oserror", lambda local: OSError("scripted")),
          "targeted": ("alignment", lambda local: _targeted(local)),
          "rangeerror": ("rangeerror", lambda local: RangeError("scripted")),
          "deadline": ("deadline",
                       lambda local: DeadlineExceeded("scripted"))}


def _targeted(local: int) -> AlignmentError:
    error = AlignmentError("scripted")
    error.pair_index = local
    return error


class Script:
    """Per-pair fault scripts, logging every execution."""

    def __init__(self, scripts: list):
        self.scripts = scripts
        self.index = {(q.tobytes(), r.tobytes()): i
                      for i, (q, r) in enumerate(PAIRS[:len(scripts)])}
        self.runs = [0] * len(scripts)
        #: (pair indices, base path?, pair blamed by a targeted error).
        self.log: list[tuple[tuple[int, ...], bool, int | None]] = []
        self._lock = threading.Lock()

    def fails(self, index: int) -> bool:
        """Does pair ``index`` fail in its current execution?"""
        script = self.scripts[index]
        return script is not None and (script[1] is None
                                       or self.runs[index] <= script[1])

    def run(self, engine, unit_pairs, deadline):
        indices = tuple(self.index[q.tobytes(), r.tobytes()]
                        for q, r in unit_pairs)
        base = engine.batch.engine == "vector" and \
            not engine.batch.wide_dtype
        with self._lock:
            for index in indices:
                self.runs[index] += 1
            local = next((local for local, index in enumerate(indices)
                          if self.fails(index)), None)
            blamed = None
            if local is not None:
                kind = self.scripts[indices[local]][0]
                blamed = indices[local] if kind == "targeted" else None
            self.log.append((indices, base, blamed))
        if local is not None:
            raise ERRORS[self.scripts[indices[local]][0]][1](local)
        return INLINE(engine, unit_pairs, deadline)


INLINE = BatchEngine._run_inline


def _supervise(scripts, max_retries, cap, workers):
    script = Script(scripts)
    policy = ResilienceConfig(backend="thread", max_retries=max_retries,
                              max_unit_pairs=cap)
    with mock.patch.object(BatchEngine, "_run_inline",
                           lambda engine, pairs, deadline:
                           script.run(engine, pairs, deadline)), \
            mock.patch("time.sleep"):
        outcome = SupervisedEngine(
            CONFIG, BatchConfig(workers=workers), policy).run(
                PAIRS[:len(scripts)])
    return outcome, script


SCRIPT = st.one_of(
    st.none(),
    st.tuples(st.just("transient"), st.integers(1, 4)),
    st.just(("persistent", None)),
    st.tuples(st.just("targeted"), st.one_of(st.none(), st.integers(1, 6))),
    st.just(("rangeerror", None)),
    st.just(("deadline", 1)))
TRANSIENT = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["transient", "targeted"]),
              st.integers(1, 5)))
SHAPES = dict(max_retries=st.integers(0, 3),
              cap=st.sampled_from([None, 1, 2, 3, 4]),
              workers=st.sampled_from([1, 2]))


@settings(max_examples=60, deadline=None)
@given(scripts=st.lists(SCRIPT, min_size=1, max_size=len(PAIRS)), **SHAPES)
def test_supervised_recovery_properties(scripts, max_retries, cap,
                                        workers):
    outcome, script = _supervise(scripts, max_retries, cap, workers)
    count = len(scripts)
    failures = outcome.failure_index
    # Every pair settles exactly once: a result or one failure.
    assert len(failures) == len(outcome.failures)
    assert sorted([*failures, *(index for index, result
                                in enumerate(outcome.results)
                                if result is not None)]) == \
        list(range(count))
    for failure in outcome.failures:
        # attempts counts the executions that included the pair.
        assert failure.attempts == script.runs[failure.index]
    for index, one in enumerate(scripts):
        runs = [entry for entry in script.log if index in entry[0]]
        if one is not None and one[0] in ("persistent", "rangeerror") \
                and failures[index].fault != "deadline":
            # Alone on its base path, a poison pair is retried exactly
            # max_retries times before its first rung.
            assert sum(1 for indices, base, _ in runs
                       if indices == (index,) and base) == \
                1 + max_retries
        first = len(runs[0][0])
        rungs = (len(plan_rungs(BATCH, ERRORS[one[0]][0]))
                 if one is not None else 0)
        isolations = sum(1 for indices, _, blamed in runs
                         if blamed is not None and blamed != index
                         and len(indices) > 1)
        bound = (1 + (first > 1) * (1 + math.ceil(math.log2(first)))
                 + max_retries + rungs + isolations)
        assert script.runs[index] <= bound


@settings(max_examples=40, deadline=None)
@given(scripts=st.lists(TRANSIENT, min_size=1, max_size=len(PAIRS)),
       more=st.integers(1, 3), **SHAPES)
def test_more_retries_never_quarantine_more(scripts, more, max_retries,
                                            cap, workers):
    fewer, _ = _supervise(scripts, max_retries, cap, workers)
    plenty, _ = _supervise(scripts, max_retries + more, cap, workers)
    assert set(plenty.failure_index) <= set(fewer.failure_index)
