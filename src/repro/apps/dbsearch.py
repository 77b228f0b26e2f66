"""A miniature protein database search (the DIAMOND/BLAST use case).

Two stages, mirroring production search tools (paper Sec. 3, example
pipelines):

1. **pre-filter** -- a cheap diagonal-sampling score discards database
   entries with no promising ungapped signal (the role X-drop and
   seeding play in BLAST/DIAMOND);
2. **full alignment** -- survivors get an exact substitution-matrix DP
   (the 99%-of-runtime kernel SMX accelerates 744x in Sec. 9.3).

Ranking quality is measurable because workload generators plant true
homologs at known divergences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import AlignmentConfig, protein_config
from repro.core.system import SmxSystem
from repro.errors import ConfigurationError
from repro.exec.engine import BatchConfig
from repro.obs import Observability, get_logger, get_obs
from repro.resilience import run_batch

_LOG = get_logger("dbsearch")


@dataclass
class SearchHit:
    """One database match."""

    target_id: int
    score: int
    filter_score: int
    length: int


@dataclass
class SearchReport:
    """Ranked hits plus filter statistics."""

    hits: list[SearchHit]
    candidates: int
    database_size: int
    meta: dict = field(default_factory=dict)

    @property
    def filtered_fraction(self) -> float:
        """Fraction of the database the pre-filter discarded."""
        if not self.database_size:
            return 0.0
        return 1.0 - self.candidates / self.database_size

    def rank_of(self, target_id: int) -> int | None:
        for rank, hit in enumerate(self.hits, start=1):
            if hit.target_id == target_id:
                return rank
        return None


class ProteinSearch:
    """Query-vs-database protein search with an ungapped pre-filter.

    Args:
        database: List of protein code arrays.
        config: Protein alignment configuration (BLOSUM scoring).
        filter_threshold: Minimum ungapped diagonal score (in units of
            the scoring matrix) a target needs to reach stage 2.
        top_k: Number of ranked hits returned.
        engine: ``"vector"`` scores all filter survivors in one
            batched sweep; ``"scalar"`` loops per-target NW. The
            scores (and therefore the ranking) are bit-identical.
        workers: Process shards for the batched stage-2 scoring.
        resilience: Optional
            :class:`~repro.resilience.ResilienceConfig`; when set (or
            when ``deadline_s`` is), stage 2 runs supervised -- targets
            whose alignment ultimately fails are dropped from the
            ranking (counted in the report's ``meta``) instead of
            aborting the search.
        deadline_s: Wall-clock budget for the stage-2 batch.
    """

    def __init__(self, database: list[np.ndarray],
                 config: AlignmentConfig | None = None,
                 filter_threshold: int = 60, top_k: int = 10,
                 engine: str = "vector", workers: int = 1,
                 resilience=None, deadline_s: float | None = None,
                 obs: Observability | None = None) -> None:
        if not database:
            raise ConfigurationError("database must not be empty")
        self.database = [np.asarray(t, dtype=np.uint8) for t in database]
        self.config = config or protein_config()
        if not self.config.uses_submat:
            raise ConfigurationError(
                "protein search needs a substitution-matrix configuration"
            )
        self.filter_threshold = filter_threshold
        self.top_k = top_k
        self.batch = BatchConfig(engine=engine, mode="global",
                                 algorithm="full", traceback=False,
                                 workers=workers)
        self.resilience = resilience
        self.deadline_s = deadline_s
        self.obs = obs or get_obs()

    # -- stage 1: ungapped diagonal filter -----------------------------------

    def filter_score(self, query: np.ndarray, target: np.ndarray) -> int:
        """Best ungapped diagonal segment score (Smith-Waterman style
        max-suffix scan along each sampled diagonal)."""
        table = self.config.model.substitution_table()
        n, m = len(query), len(target)
        best = 0
        # Sample diagonals densely enough that a true homolog (small
        # net indel drift) cannot slip between them; anchor the grid at
        # diagonal 0 so self/near-self comparisons always hit it.
        step = max(1, min(n, m) // 64)
        diagonals = list(range(0, m, step)) \
            + list(range(-step, -(n - 1) - 1, -step))
        for diag in diagonals:
            q_start = max(0, -diag)
            t_start = max(0, diag)
            length = min(n - q_start, m - t_start)
            if length < 8:
                continue
            scores = table[query[q_start:q_start + length],
                           target[t_start:t_start + length]]
            running = 0
            for value in scores:
                running = max(0, running + int(value))
                if running > best:
                    best = running
        return best

    # -- stage 2: full alignment ---------------------------------------------

    def search(self, query: np.ndarray) -> SearchReport:
        query = np.asarray(query, dtype=np.uint8)
        metrics = self.obs.metrics
        survivors: list[tuple[int, int]] = []
        with self.obs.tracer.host_span("dbsearch.filter",
                                       targets=len(self.database)):
            for target_id, target in enumerate(self.database):
                fscore = self.filter_score(query, target)
                metrics.distribution(
                    "dbsearch.filter_score").observe(fscore)
                if fscore >= self.filter_threshold:
                    survivors.append((target_id, fscore))
        metrics.counter("dbsearch.targets_scanned").inc(len(self.database))
        metrics.counter("dbsearch.filter_survivors").inc(len(survivors))
        hits = []
        dropped: list[int] = []
        with self.obs.tracer.host_span("dbsearch.align",
                                       survivors=len(survivors)):
            # Stage 2 is a batch of independent global alignments --
            # exactly the shape the vector engine accelerates.
            pairs = [(query, self.database[target_id])
                     for target_id, _ in survivors]
            results = run_batch(self.config, self.batch, pairs,
                                self.resilience, self.deadline_s,
                                obs=self.obs).results
            for (target_id, fscore), result in zip(survivors, results):
                if result is None or result.score is None:
                    # Supervised run quarantined this target: drop it
                    # from the ranking rather than abort the search.
                    dropped.append(target_id)
                    metrics.counter("dbsearch.targets_failed").inc()
                    continue
                hits.append(SearchHit(target_id=target_id,
                                      score=result.score,
                                      filter_score=fscore,
                                      length=len(self.database[target_id])))
        hits.sort(key=lambda hit: -hit.score)
        for hit in hits[:self.top_k]:
            metrics.distribution("dbsearch.hit_score").observe(hit.score)
        _LOG.debug("search: %d/%d targets passed the filter",
                   len(survivors), len(self.database))
        meta = {"dropped_targets": dropped} if dropped else {}
        return SearchReport(hits=hits[:self.top_k],
                            candidates=len(survivors),
                            database_size=len(self.database),
                            meta=meta)

    # -- acceleration estimate ------------------------------------------------

    def smx_speedup(self, query: np.ndarray,
                    report: SearchReport) -> float:
        """SMX-vs-SIMD speedup of the stage-2 kernel for this search."""
        from repro.baselines.ksw2 import ksw2_score_timing

        system = SmxSystem(self.config, max_sim_tiles=60_000)
        shapes = [(len(query), hit.length) for hit in report.hits]
        if not shapes:
            return 1.0
        baseline = sum(ksw2_score_timing(n, m, system.core,
                                         uses_submat=True).cycles
                       for n, m in shapes)
        timing = system.coproc_workload_timing(shapes, mode="score",
                                               impl="smx")
        return baseline / timing.total_cycles


def build_database(n_targets: int, homolog_of: np.ndarray | None = None,
                   divergence: float = 0.25, seed: int = 77,
                   length_range: tuple[int, int] = (150, 600),
                   ) -> tuple[list[np.ndarray], int]:
    """Random protein database, optionally with one planted homolog.

    Returns ``(database, homolog_index)`` (index is -1 if none planted).
    """
    from repro.workloads.synthetic import random_protein_pair

    rng = np.random.default_rng(seed)
    database: list[np.ndarray] = []
    for _ in range(n_targets):
        length = int(rng.integers(*length_range))
        database.append(random_protein_pair(length, 0.0, rng).r_codes)
    homolog_index = -1
    if homolog_of is not None:
        from repro.encoding.alphabet import AMINO_ACIDS, PROTEIN
        from repro.workloads.synthetic import ErrorProfile

        # Derive a homolog by mutating the query within the amino set.
        letters = np.frombuffer(AMINO_ACIDS.encode(), np.uint8) - 65
        profile = ErrorProfile(substitution=0.7 * divergence,
                               insertion=0.15 * divergence,
                               deletion=0.15 * divergence)
        out = []
        for code in homolog_of:
            roll = rng.random()
            if roll < profile.deletion:
                continue
            if roll < profile.deletion + profile.insertion:
                out.append(int(letters[rng.integers(0, len(letters))]))
            if roll < profile.total:
                out.append(int(letters[rng.integers(0, len(letters))]))
            else:
                out.append(int(code))
        homolog_index = int(rng.integers(0, len(database) + 1))
        database.insert(homolog_index,
                        np.asarray(out, dtype=np.uint8))
    return database, homolog_index
