"""Seeded chaos sweep: supervised recovery across fault classes/rates.

Runs the supervised engine over one fixed 128-pair batch while the
deterministic injector poisons it with each fault class at increasing
rates, and reports what the resilience layer did about it: how many
poisoned pairs were transient (cleared by the retry/bisection path,
returning bit-identical results), how many were persistent (quarantined
as typed failures after the ladder), and what the recovery cost in
retries, bisections, degradation rungs and wall clock.

Everything is keyed on a fixed seed and pair *content*, so the sweep is
exactly reproducible: re-running it must produce the identical table
(``results/chaos_sweep.md``). Wall clock is not reproducible, so each
cell's overhead against a fault-free supervised run goes only to the
JSON sibling and to stdout, never into the table. The sweep itself
doubles as an
end-to-end check -- each cell asserts that the quarantine set equals
the injector's persistent ground truth and that every untouched pair's
score matches the fault-free baseline.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis.reporting import format_table
from repro.config import standard_configs
from repro.exec import BatchConfig, BatchEngine
from repro.resilience import ChaosPlan, ResilienceConfig, SupervisedEngine
from repro.workloads.synthetic import ErrorProfile, mutate

BASE_PAIRS = 128
BASE_SCALE = 0.2
LENGTH = 48
RATES = (0.05, 0.15, 0.30)
SEED = 0xFA17


def _make_pairs(config, n_pairs: int, seed: int = 11):
    rng = np.random.default_rng(seed)
    profile = ErrorProfile(substitution=0.06, insertion=0.03,
                           deletion=0.03)
    pairs = []
    for _ in range(n_pairs):
        reference = config.alphabet.random(LENGTH, rng)
        query, _ = mutate(reference, profile, config.alphabet, rng)
        pairs.append((query, reference))
    return pairs


def _sweep_cell(config, pairs, baseline, cls: str, rate: float):
    plan_kwargs = {cls: rate}
    if cls == "hang":
        # A real 30 s hang per poisoned shard would dominate the sweep.
        # The hang must still exceed the *sum* of every staggered
        # timeout wait, or a late wave shard's sleeping execution could
        # finish before the supervisor gets around to waiting on it.
        plan_kwargs["hang_s"] = 2.0
    plan = ChaosPlan(seed=SEED, **plan_kwargs)
    policy = ResilienceConfig(
        backend="thread", backoff_base_s=0.0, validate=True,
        shard_timeout_s=0.05 if cls == "hang" else None)
    started = time.perf_counter()
    outcome = SupervisedEngine(config, BatchConfig(workers=8),
                               policy, plan=plan).run(pairs)
    elapsed = time.perf_counter() - started
    table = plan.ground_truth(pairs)
    poisoned = {i for i, entry in enumerate(table) if cls in entry}
    persistent = {i for i, entry in enumerate(table)
                  if entry.get(cls) == "persistent"}
    # The sweep is also a check: recovery must be exact.
    failed = {f.index for f in outcome.failures}
    assert failed == persistent, (cls, rate, failed, persistent)
    for i, result in enumerate(outcome.results):
        if i not in persistent:
            assert result.score == baseline[i].score, (cls, rate, i)
    counters = outcome.counters
    degraded = sum(v for k, v in counters.items()
                   if k.startswith("degraded."))
    return {
        "class": cls, "rate": rate, "pairs": len(pairs),
        "poisoned": len(poisoned),
        "recovered": len(poisoned) - len(persistent),
        "quarantined": len(persistent),
        "injections": len(outcome.injections),
        "retries": counters.get("retries", 0),
        "bisections": counters.get("bisections", 0),
        "degraded": degraded,
        "elapsed_s": elapsed,
    }


def experiment(scale: float):
    n_pairs = max(32, round(BASE_PAIRS * scale / BASE_SCALE))
    config = standard_configs()["dna-gap"]
    pairs = _make_pairs(config, n_pairs)
    baseline = BatchEngine(config, BatchConfig(traceback=True)).run(pairs)
    clean_started = time.perf_counter()
    clean_outcome = SupervisedEngine(
        config, BatchConfig(workers=8),
        ResilienceConfig(backend="thread", validate=True)).run(pairs)
    clean_s = time.perf_counter() - clean_started
    assert not clean_outcome.failures
    cells = []
    for cls in ("oserror", "crash", "rangeerror", "bitflip", "hang"):
        for rate in RATES:
            cells.append(_sweep_cell(config, pairs, baseline, cls, rate))
    for cell in cells:
        cell["overhead"] = cell["elapsed_s"] / clean_s
    rows = [[c["class"], f"{c['rate']:.2f}", c["poisoned"],
             c["recovered"], c["quarantined"], c["injections"],
             c["retries"], c["bisections"], c["degraded"]]
            for c in cells]
    sections = [format_table(
        ["fault", "rate", "poisoned", "recovered", "quarantined",
         "injections", "retries", "bisections", "degraded"],
        rows,
        title=f"Chaos sweep -- supervised recovery on {n_pairs} pairs "
              f"(seed {SEED:#x})")]
    total_poisoned = sum(c["poisoned"] for c in cells)
    total_recovered = sum(c["recovered"] for c in cells)
    sections.append(
        f"Headline: {total_recovered}/{total_poisoned} poisoned "
        "(pair, class) combos across the sweep were transient and "
        "recovered to bit-identical results; every persistent one was "
        "quarantined as a typed PairFailure -- zero silent corruption, "
        "zero lost pairs. Wall-clock overhead per cell is in the JSON "
        "sibling and on stdout.")
    payload = {
        "params": {"pairs": n_pairs, "length": LENGTH, "seed": SEED,
                   "rates": list(RATES), "clean_elapsed_s": clean_s},
        "tables": {"sweep": cells},
    }
    return "chaos_sweep", sections, payload


def test_chaos_sweep(run_experiment, scale, capsys):
    result = run_experiment(experiment, scale)
    cells = result[2]["tables"]["sweep"]
    with capsys.disabled():
        clean_s = result[2]["params"]["clean_elapsed_s"]
        print(f"Wall-clock overhead against a fault-free supervised run "
              f"({clean_s * 1e3:.0f} ms):")
        for cell in cells:
            print(f"  {cell['class']:<10} {cell['rate']:.2f} "
                  f"{cell['overhead']:.1f}x")
    # Every poisoned pair is either recovered or quarantined -- the
    # sweep's cell assertions already checked exactness per class.
    for cell in cells:
        assert cell["recovered"] + cell["quarantined"] == \
            cell["poisoned"]
