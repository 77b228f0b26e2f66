"""Registry-driven conformance: every registered route, scores and CIGARs.

The test matrix is read off ``repro.exec.routes.ROUTES``, not written
out by hand: each route must name one eligible case in :data:`CASES`,
and a route registered without one fails *collection* -- so a kernel
cannot be added without being locked to the brute-force oracle, to its
own per-pair answers and to submission order. The last tests add a toy
route from this file alone and watch it appear everywhere an engine
name is accepted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

import repro.exec
from repro.__main__ import build_parser
from repro.algorithms.affine import AffineGapPenalties
from repro.algorithms.base import AlignerResult, DPStats
from repro.config import standard_configs
from repro.errors import ConfigurationError
from repro.exec import routes
from repro.exec.engine import BatchConfig, BatchEngine
from repro.resilience.ladder import plan_rungs
from repro.service import JobSpec
from repro.service.protocol import job_from_dict, job_to_dict
from tests.characterisation import seam_corpus
from tests.oracle import cached_oracle

CONFIGS = standard_configs()
PENALTIES = AffineGapPenalties(open=-6, extend=-1)


@dataclass
class Case:
    """One eligible workload of a route.

    Attributes:
        config: Preset the route can run.
        knobs: ``BatchConfig`` fields the route needs.
        oracle / extra: The brute-force oracle its scores answer to.
        exact: Scores equal the oracle's (heuristics may fail a pair or
            fall short, never exceed).
        canonical: CIGARs equal the oracle's tie-broken CIGAR (others
            must rescore to their own score).
    """

    config: str
    knobs: dict = field(default_factory=dict)
    oracle: str = "global"
    extra: tuple = ()
    exact: bool = True
    canonical: bool = False


CASES = {
    "full": Case("dna-gap", canonical=True),
    "affine": Case("dna-gap", {"algorithm": "affine",
                               "affine_penalties": PENALTIES},
                   oracle="affine",
                   extra=(PENALTIES.open, PENALTIES.extend), canonical=True),
    "banded": Case("dna-gap", {"algorithm": "banded", "band_width": 8},
                   exact=False),
    "xdrop": Case("dna-gap", {"algorithm": "xdrop", "xdrop": 30},
                  exact=False),
    "wavefront": Case("dna-edit"),
    "bitparallel": Case("dna-edit"),
}


def _matrix():
    """``registry x {score, traceback}``; a route with no case raises
    here, at collection."""
    for name, route in routes.ROUTES.items():
        case = CASES[name]
        for traceback in (False, True):
            if not (traceback and route.score_only):
                yield pytest.param(
                    route, case, traceback,
                    id=f"{name}-{'cigar' if traceback else 'score'}")


def _engine(route, case: Case, traceback: bool) -> BatchEngine:
    return BatchEngine(CONFIGS[case.config], BatchConfig(
        engine=route.engine, traceback=traceback, **case.knobs))


@pytest.mark.parametrize("route, case, traceback", _matrix())
def test_route_answers_to_the_oracle(route, case, traceback):
    config = CONFIGS[case.config]
    pairs = seam_corpus(config)
    results = _engine(route, case, traceback).run(pairs)
    assert len(results) == len(pairs)
    settled = 0
    for (q, r), result in zip(pairs, results):
        want_score, want_cigar = cached_oracle(case.oracle, config, q, r,
                                               case.extra)
        if result.failed:
            assert not case.exact
            continue
        settled += 1
        assert result.score <= want_score
        assert result.score == want_score or not case.exact
        if traceback and case.canonical:
            assert result.alignment.cigar_string == want_cigar
        elif traceback:
            assert result.alignment.rescore(q, r, config.model) \
                == result.score
    assert settled > len(pairs) // 2


@pytest.mark.parametrize("route, case, traceback", _matrix())
def test_route_batch_equals_per_pair_in_any_order(route, case, traceback):
    engine = _engine(route, case, traceback)
    pairs = seam_corpus(CONFIGS[case.config])
    batch = engine.run(pairs)
    assert batch == [engine.run([pair])[0] for pair in pairs]
    assert batch == engine.run(pairs[::-1])[::-1]


# -- adding a kernel is one registration -------------------------------------

class _Toy(routes.Route):
    """Answers every pair with score 0 without looking at it."""

    name = engine = "toy"

    def phase(self, run, piece):
        return "toy"

    def sweep(self, run, piece):
        return None, piece.size, 0

    def settle(self, run, piece, swept):
        for position in piece.index.tolist():
            run.results[position] = AlignerResult(
                alignment=None, score=0, stats=DPStats(blocks=1))
        return ()


@pytest.fixture()
def toy(monkeypatch):
    """The toy route, registered for one test only."""
    monkeypatch.setattr(routes, "ROUTES", dict(routes.ROUTES))
    return routes.register(_Toy())


def test_a_route_without_a_case_fails_collection(toy):
    with pytest.raises(KeyError, match="toy"):
        list(_matrix())


def test_toy_route_is_selectable_everywhere(toy):
    assert "toy" in routes.engines()
    assert "toy" in repro.exec.ENGINES
    config = CONFIGS["dna-edit"]
    pairs = seam_corpus(config)
    results = BatchEngine(config, BatchConfig(engine="toy")).run(pairs)
    assert [result.score for result in results] == [0] * len(pairs)
    # Only what the route declares: global mode, its default algorithm.
    with pytest.raises(ConfigurationError, match="mode='global'"):
        BatchConfig(engine="toy", mode="local")
    args = build_parser().parse_args(
        ["align", "--batch", "pairs.txt", "--engine", "toy"])
    assert args.engine == "toy"
    job = JobSpec(job_id="job-toy", pairs=[("ACGT", "ACGA")], engine="toy")
    assert job_from_dict(job_to_dict(job)).engine == "toy"
    (rung, degraded), = plan_rungs(BatchConfig(engine="toy"), "alignment")
    assert (rung, degraded.engine) == ("scalar", "scalar")


def test_toy_route_is_gone_again():
    assert "toy" not in routes.engines()
    with pytest.raises(ConfigurationError, match="unknown engine 'toy'"):
        BatchConfig(engine="toy")
    with pytest.raises(ValueError, match="engine must be one of"):
        job_from_dict({**job_to_dict(JobSpec(
            job_id="job-toy", pairs=[("ACGT", "ACGA")])), "engine": "toy"})
