"""Characterisation of ``BatchEngine``: what it returns, counts and profiles.

One fixed, seeded corpus is run over ``engine x mode x algorithm x
traceback`` (zero-length pairs, the 63/64/65 word seams, a capped
wavefront that falls back, a certified band that widens and one that
demotes, a bit-parallel alphabet violation) and every observable that
a refactor of ``repro.exec.engine`` must leave alone is recorded:

- per pair: score, CIGAR, alignment meta, ``DPStats``, failure reason
  (or, for a batch that raises, the error type, message and
  ``pair_index``);
- the ``exec.cells`` / ``exec.bytes_moved`` / ``exec.plan.*`` /
  ``exec.wavefront.fallbacks`` counters;
- every profiler stack path with its ``cells`` and ``bytes_moved``.

``tests/fixtures/engine_characterisation.json`` holds that record as
taken at the commit *before* the kernel-route registry replaced the
per-engine loops, except for the bit-parallel route's bucket paths,
re-recorded when that route began sweeping each 64-row block class as
one bucket (their cells and bytes sum as before), for the eight
batched X-drop cases, deleted with that route, and for two changes
re-recorded when ``bucketize`` began merging adjacent length buckets
and the auto probe began capping each pair on its own estimate: every
bucket path and phase label, and the ``DPStats`` and work counters of
the tight-policy auto pairs that their own cap now demotes. Scores,
CIGARs, meta, failure reasons and raised errors are as recorded, and
the fixed engines' cells and bytes sum as before -- except in
``bitparallel-violating``, which now raises its error before sweeping
anything, the bucket it used to sweep first having merged into the
violating pair's. When the linear sweep moved to int16 lanes, only its
``linear.*[int32]`` phase labels (now ``[int16]``) and the
``bytes_moved`` figures priced by that dtype's width were re-recorded.
When the banded route moved onto the linear sweep's anti-diagonal body
and walk, with int16 lanes where its bound allows, only its
``banded[int32]`` phase labels (now ``[int16]``) and the ``bytes_moved``
figures priced by that dtype's width were re-recorded, after a key by
key comparison: every per-pair score, CIGAR, meta, ``DPStats`` and
error, every cell count and every other stack path read as recorded.
``tests/test_characterisation.py`` asserts the engine still
reproduces it. ``tests/fixtures/xdrop_characterisation.json`` holds
the per-pair records of those X-drop cases as the retired route
answered them; the scalar ``XdropAligner``, the one X-drop path, must
reproduce them.
Regenerate both (only for an intended behaviour change) with
``PYTHONPATH=src python -m tests.characterisation``.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.algorithms import XdropAligner
from repro.algorithms.affine import AffineGapPenalties
from repro.config import standard_configs
from repro.exec.engine import BatchConfig, BatchEngine
from repro.exec.planner import PlannerPolicy
from repro.obs import Observability
from repro.workloads.synthetic import ErrorProfile, mutate

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "engine_characterisation.json")
XDROP_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                             "xdrop_characterisation.json")

SEED = 0x534D58

#: Counter families the fixture locks (latency / fill distributions and
#: wall-clock figures are deliberately left out).
COUNTER_PREFIXES = ("exec.cells", "exec.bytes_moved", "exec.plan.",
                    "exec.wavefront.fallbacks")

CONFIGS = standard_configs()


def _mutated(alphabet, rng, length: int, rate: float):
    reference = alphabet.random(length, rng)
    profile = ErrorProfile(substitution=0.5 * rate, insertion=0.25 * rate,
                           deletion=0.25 * rate)
    query, _ = mutate(reference, profile, alphabet, rng)
    return query, reference


def _block_substituted(alphabet, rng, length: int, block: int):
    """A pair differing by ``block`` contiguous substitutions: the
    k-mer sketch under-estimates its distance, so probes and first
    band guesses come up short."""
    reference = alphabet.random(length, rng)
    query = reference.copy()
    start = (length - block) // 2
    query[start:start + block] = (query[start:start + block] + 1) \
        % alphabet.size
    return query, reference


def seam_corpus(config) -> list:
    """Zero-length and length-1 pairs, the 63/64/65 seams (related and
    unrelated), a few short related pairs, one skewed rectangle and one
    pair no narrow band can certify."""
    rng = np.random.default_rng([SEED, 1])
    alphabet = config.alphabet
    pairs = [(alphabet.random(n, rng), alphabet.random(m, rng))
             for n, m in ((0, 0), (0, 7), (9, 0), (1, 1))]
    for length in (63, 64, 65):
        pairs.append(_mutated(alphabet, rng, length, 0.05))
        pairs.append((alphabet.random(length, rng),
                      alphabet.random(length, rng)))
    pairs.append(_mutated(alphabet, rng, 17, 0.1))
    pairs.append(_mutated(alphabet, rng, 40, 0.1))
    pairs.append((alphabet.random(25, rng), alphabet.random(90, rng)))
    # Shares every symbol with its partner yet aligns nowhere: a blind
    # planner starts it in a narrow band that must widen past the pair.
    pairs.append((np.array([0] * 39 + [1], dtype=np.uint8),
                  np.array([1] * 49 + [0], dtype=np.uint8)))
    return pairs


def routing_corpus(config) -> list:
    """Pairs that spread over every planner route: near-identical,
    moderately and highly divergent long pairs, block-substituted
    pairs (a probe that blows its cap, a band that widens, a band that
    demotes), plus pairs too short or too empty to route."""
    rng = np.random.default_rng([SEED, 2])
    alphabet = config.alphabet
    pairs = []
    for length in (96, 128, 200):
        for rate in (0.02, 0.08, 0.15, 0.5):
            pairs.append(_mutated(alphabet, rng, length, rate))
    pairs.append(_block_substituted(alphabet, rng, 200, 40))
    pairs.append(_block_substituted(alphabet, rng, 64, 20))
    pairs.append(_mutated(alphabet, rng, 20, 0.1))
    pairs.append((alphabet.random(0, rng), alphabet.random(50, rng)))
    pairs.append((alphabet.random(0, rng), alphabet.random(0, rng)))
    return pairs


def violating_corpus(config) -> list:
    """The routing corpus with one out-of-alphabet code in a highly
    divergent pair (index 3), which only the bit-parallel kernel
    rejects."""
    pairs = routing_corpus(config)
    query, reference = pairs[3]
    query = query.copy()
    query[5] = config.alphabet.size + 3
    pairs[3] = (query, reference)
    return pairs


CORPORA = {"seam": seam_corpus, "routing": routing_corpus,
           "violating": violating_corpus}

_ALGORITHMS = (
    ("global", "full", {}),
    ("local", "full", {}),
    ("semiglobal", "full", {}),
    ("global", "affine",
     {"affine_penalties": AffineGapPenalties(open=-6, extend=-1)}),
    ("global", "banded", {"band_width": 6}),
    ("global", "banded", {"band_fraction": 0.1}),
)

_TIGHT_POLICY = PlannerPolicy(probe_slack=1, band_slack=0,
                              banded_divergence=1.0)

#: One-base "k-mers" are shared by almost any two sequences, so every
#: pair looks identical: bands start at the length difference and widen
#: until they certify or outgrow the pair and demote.
_BLIND_POLICY = PlannerPolicy(k=1, band_slack=0, banded_divergence=1.0)


def _cases():
    """``(name, config name, corpus name, BatchConfig)`` of every run."""
    def case(name, config, corpus, **knobs):
        return (name, config, corpus, BatchConfig(**knobs))

    for traceback in (True, False):
        tb = "cigar" if traceback else "score"
        for mode, algorithm, extra in _ALGORITHMS:
            label = "-".join([mode, algorithm, *extra]) + f"-{tb}"
            yield case(f"vector-gap-{label}", "dna-gap", "seam",
                       engine="vector", mode=mode, algorithm=algorithm,
                       traceback=traceback, **extra)
            if algorithm != "full":   # every kept shape, chunked
                yield case(f"vector-gap-{label}-chunked", "dna-gap", "seam",
                           engine="vector", mode=mode, algorithm=algorithm,
                           traceback=traceback, max_batch_cells=3_000,
                           **extra)
        yield case(f"scalar-gap-global-full-{tb}", "dna-gap", "seam",
                   engine="scalar", traceback=traceback)
        yield case(f"scalar-gap-banded-{tb}", "dna-gap", "seam",
                   engine="scalar", algorithm="banded", band_width=6,
                   traceback=traceback)
        yield case(f"scalar-gap-local-{tb}", "dna-gap", "seam",
                   engine="scalar", mode="local", traceback=traceback)
        yield case(f"vector-gap-global-full-{tb}-chunked", "dna-gap",
                   "routing", engine="vector", traceback=traceback,
                   max_batch_cells=60_000)
        yield case(f"vector-gap-global-full-{tb}-wide", "dna-gap", "seam",
                   engine="vector", traceback=traceback, wide_dtype=True)
        yield case(f"vector-gap-banded-{tb}-wide", "dna-gap", "seam",
                   engine="vector", algorithm="banded", band_width=6,
                   traceback=traceback, wide_dtype=True)
        for config in ("dna-edit", "protein"):
            short = config.split("-")[-1]
            yield case(f"vector-{short}-global-full-{tb}", config, "seam",
                       engine="vector", traceback=traceback)
        yield case(f"vector-protein-local-{tb}", "protein", "seam",
                   engine="vector", mode="local", traceback=traceback)
        for corpus in ("seam", "routing"):
            yield case(f"wavefront-{corpus}-{tb}", "dna-edit", corpus,
                       engine="wavefront", traceback=traceback)
            yield case(f"wavefront-{corpus}-{tb}-capped", "dna-edit", corpus,
                       engine="wavefront", traceback=traceback,
                       wavefront_max_score=3)
            yield case(f"auto-edit-{corpus}-{tb}", "dna-edit", corpus,
                       engine="auto", traceback=traceback)
            yield case(f"auto-gap-{corpus}-{tb}", "dna-gap", corpus,
                       engine="auto", traceback=traceback)
        yield case(f"wavefront-routing-{tb}-chunked", "dna-edit", "routing",
                   engine="wavefront", traceback=traceback,
                   max_batch_cells=50_000)
        for config in ("dna-edit", "dna-gap"):
            short = config.split("-")[-1]
            for corpus in ("seam", "routing"):
                yield case(f"auto-{short}-{corpus}-{tb}-tight", config,
                           corpus, engine="auto", traceback=traceback,
                           planner=_TIGHT_POLICY)
            yield case(f"auto-{short}-routing-{tb}-tight-chunked", config,
                       "routing", engine="auto", traceback=traceback,
                       planner=_TIGHT_POLICY, max_batch_cells=20_000)
        yield case(f"auto-gap-seam-{tb}-blind", "dna-gap", "seam",
                   engine="auto", traceback=traceback, planner=_BLIND_POLICY)
        yield case(f"auto-gap-routing-{tb}-wide", "dna-gap", "routing",
                   engine="auto", traceback=traceback, wide_dtype=True)
    for corpus in ("seam", "routing", "violating"):
        yield case(f"bitparallel-{corpus}", "dna-edit", corpus,
                   engine="bitparallel", traceback=False)
    yield case("auto-edit-violating-score", "dna-edit", "violating",
               engine="auto", traceback=False)
    # Eligibility failures raised when the batch runs.
    yield case("wavefront-needs-edit-model", "dna-gap", "seam",
               engine="wavefront")
    yield case("bitparallel-needs-edit-model", "protein", "seam",
               engine="bitparallel", traceback=False)
    yield case("local-needs-positive-scores", "dna-edit", "seam",
               engine="vector", mode="local")


CASES = {name: (config, corpus, batch)
         for name, config, corpus, batch in _cases()}

#: The scalar X-drop path on the gap seam corpus, under the two
#: thresholds the retired batched X-drop route was characterised with:
#: ``name -> (XdropAligner keywords, traceback)``.
XDROP_CASES = {f"{knob}-{'cigar' if traceback else 'score'}":
               (threshold, traceback)
               for knob, threshold in (("xdrop", {"xdrop": 12}),
                                       ("xdrop_fraction", {"fraction": 0.1}))
               for traceback in (True, False)}


def _pair_record(result) -> list:
    alignment = result.alignment
    return [result.score,
            None if alignment is None else alignment.cigar_string,
            None if alignment is None else alignment.meta,
            [result.stats.cells_computed, result.stats.cells_stored,
             result.stats.blocks],
            result.failure_reason if result.failed else None]


def characterise(name: str) -> dict:
    """Run one case under a profiling context and record it."""
    config_name, corpus, batch = CASES[name]
    config = CONFIGS[config_name]
    obs = Observability.enabled_context(profile=True)
    record: dict = {}
    try:
        results = BatchEngine(config, batch, obs=obs).run(
            CORPORA[corpus](config))
    except Exception as exc:  # the raise itself is what is recorded
        record["error"] = [type(exc).__name__, str(exc),
                           getattr(exc, "pair_index", None)]
    else:
        record["results"] = [_pair_record(result) for result in results]
    record["counters"] = {
        key: value for key, value in sorted(obs.metrics.snapshot().items())
        if key.startswith(COUNTER_PREFIXES)}
    record["profile"] = {
        "/".join(path): [stat.cells, stat.bytes_moved]
        for path, stat in sorted(obs.profiler.stacks.items())}
    # One JSON round trip, so a fresh record compares equal to a loaded one.
    return json.loads(json.dumps(record))


def characterise_xdrop(name: str) -> list:
    """The per-pair records of one scalar X-drop case."""
    threshold, traceback = XDROP_CASES[name]
    config = CONFIGS["dna-gap"]
    aligner = XdropAligner(**threshold)
    run = aligner.align if traceback else aligner.compute_score
    return json.loads(json.dumps([_pair_record(run(q, r, config.model))
                                  for q, r in seam_corpus(config)]))


def _write(path: str, document: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    lines = [json.dumps(name) + ":" + json.dumps(
        record, separators=(",", ":"), sort_keys=True)
        for name, record in sorted(document.items())]
    with open(path, "w", encoding="utf-8") as handle:   # a case a line
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{path}: {len(document)} cases")


def main() -> None:
    _write(FIXTURE, {name: characterise(name) for name in CASES})
    _write(XDROP_FIXTURE,
           {name: characterise_xdrop(name) for name in XDROP_CASES})


if __name__ == "__main__":
    main()
