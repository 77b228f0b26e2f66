"""A miniature seed-and-extend read mapper built on the library.

The paper motivates SMX with read-mapping pipelines (Minimap2, BWA):
*seed* exact k-mer matches into the reference, *chain* them by
diagonal, then *extend* the best candidate window with banded DP --
the extension step being the 70-76% of runtime SMX accelerates
(Sec. 9.3). This module implements that pipeline end to end on the
library's substrate so mapping accuracy and the SMX speedup can be
measured on ground-truthed synthetic read sets.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import AlignerResult
from repro.algorithms.local import SemiGlobalAligner
from repro.config import AlignmentConfig, dna_edit_config
from repro.core.system import SmxSystem
from repro.dp.alignment import Alignment
from repro.errors import ConfigurationError
from repro.exec.engine import BatchConfig
from repro.obs import Observability, get_logger, get_obs
from repro.resilience import run_batch
from repro.workloads.genome import ReadSet

_LOG = get_logger("readmapper")


@dataclass
class Mapping:
    """One read's mapping result."""

    read_id: int
    position: int
    score: int
    alignment: Alignment | None
    seed_votes: int
    mapped: bool
    meta: dict = field(default_factory=dict)


@dataclass
class MappingReport:
    """Dataset-level accuracy and work summary."""

    mappings: list[Mapping]
    tolerance: int

    @property
    def mapped_fraction(self) -> float:
        if not self.mappings:
            return 0.0
        return sum(m.mapped for m in self.mappings) / len(self.mappings)

    def accuracy(self, read_set: ReadSet) -> float:
        """Fraction of reads placed within ``tolerance`` of the truth."""
        if not self.mappings:
            return 0.0
        correct = 0
        truth = {read.read_id: read.true_position
                 for read in read_set.reads}
        for mapping in self.mappings:
            if mapping.mapped and abs(
                    mapping.position - truth[mapping.read_id]) \
                    <= self.tolerance:
                correct += 1
        return correct / len(self.mappings)


class ReadMapper:
    """Seed-chain-extend mapping against one reference.

    Args:
        config: Alignment configuration for the extension DP.
        k: Seed k-mer length.
        band_fraction: Extension band half-width as a fraction of the
            read length.
        min_votes: Minimum seed hits on the winning diagonal for a read
            to be considered mappable.
        engine: ``"vector"`` batches all candidate extensions through
            :class:`~repro.exec.BatchEngine` in :meth:`map_all`;
            ``"scalar"`` loops the per-read aligner. Results are
            bit-identical.
        workers: Process shards for the batched extension step.
        resilience: Optional
            :class:`~repro.resilience.ResilienceConfig`; when set (or
            when ``deadline_s`` is), :meth:`map_all` runs its extension
            batch through the supervised engine -- reads whose
            extension ultimately fails come back unmapped (with the
            fault recorded in ``meta``) instead of aborting the run.
        deadline_s: Wall-clock budget for the whole extension batch.
    """

    def __init__(self, reference: np.ndarray,
                 config: AlignmentConfig | None = None, k: int = 15,
                 band_fraction: float = 0.15, min_votes: int = 2,
                 engine: str = "vector", workers: int = 1,
                 resilience=None, deadline_s: float | None = None,
                 obs: Observability | None = None) -> None:
        if k < 4 or k > 31:
            raise ConfigurationError(f"seed length k={k} out of range")
        self.reference = np.asarray(reference, dtype=np.uint8)
        self.config = config or dna_edit_config()
        self.k = k
        self.band_fraction = band_fraction
        self.min_votes = min_votes
        self.batch = BatchConfig(engine=engine, mode="semiglobal",
                                 traceback=True, workers=workers)
        self.resilience = resilience
        self.deadline_s = deadline_s
        self.obs = obs or get_obs()
        with self.obs.tracer.host_span("readmapper.build_index",
                                       bases=len(self.reference)):
            self._index = self._build_index()

    # -- indexing -----------------------------------------------------------

    def _kmer_keys(self, codes: np.ndarray) -> np.ndarray:
        """Rolling 2-bit-packed k-mer keys of a code sequence."""
        if len(codes) < self.k:
            return np.empty(0, dtype=np.int64)
        bits = self.config.alphabet.bits
        weights = (1 << (bits * np.arange(self.k,
                                          dtype=np.int64)))[::-1]
        windows = np.lib.stride_tricks.sliding_window_view(
            codes.astype(np.int64), self.k)
        return windows @ weights

    def _build_index(self) -> dict[int, list[int]]:
        index: dict[int, list[int]] = defaultdict(list)
        for position, key in enumerate(self._kmer_keys(self.reference)):
            index[int(key)].append(position)
        return dict(index)

    # -- mapping ------------------------------------------------------------

    def _best_diagonal(self, read: np.ndarray) -> tuple[int, int]:
        """(diagonal offset, votes) of the strongest seed cluster.

        Seeds vote for diagonal ``ref_pos - read_pos``; nearby diagonals
        (within 5% of the read length) pool their votes so indels do not
        fragment the signal.
        """
        votes: dict[int, int] = defaultdict(int)
        for read_pos, key in enumerate(self._kmer_keys(read)):
            for ref_pos in self._index.get(int(key), ()):
                votes[ref_pos - read_pos] += 1
        if not votes:
            return 0, 0
        slack = max(2, len(read) // 20)
        diagonals = sorted(votes)
        best_diag, best_total = 0, 0
        start = 0
        for end, diag in enumerate(diagonals):
            while diagonals[start] < diag - slack:
                start += 1
            total = sum(votes[d] for d in diagonals[start:end + 1])
            if total > best_total:
                best_total = total
                best_diag = diag
        return best_diag, best_total

    def _candidate(self, read: np.ndarray, read_id: int,
                   ) -> tuple[Mapping | None, int, int, int]:
        """Seed-and-chain stage: either a final unmapped
        :class:`Mapping` or the candidate extension window
        ``(None, votes, window_start, window_end)``."""
        metrics = self.obs.metrics
        diagonal, votes = self._best_diagonal(read)
        metrics.distribution("readmapper.seed_votes").observe(votes)
        if votes < self.min_votes:
            metrics.counter("readmapper.reads_unmapped").inc()
            _LOG.debug("read %d unmapped: %d seed votes < %d",
                       read_id, votes, self.min_votes)
            unmapped = Mapping(read_id=read_id, position=-1, score=0,
                               alignment=None, seed_votes=votes,
                               mapped=False)
            return unmapped, votes, 0, 0
        margin = max(16, int(self.band_fraction * len(read)))
        window_start = max(0, diagonal - margin)
        window_end = min(len(self.reference),
                         diagonal + len(read) + margin)
        return None, votes, window_start, window_end

    def _finish(self, read_id: int, votes: int, window_start: int,
                window_end: int, result: AlignerResult) -> Mapping:
        """Turn one extension result into a :class:`Mapping`."""
        metrics = self.obs.metrics
        if result.failed:  # pragma: no cover - semiglobal cannot fail
            return Mapping(read_id=read_id, position=-1, score=0,
                           alignment=None, seed_votes=votes, mapped=False,
                           meta={"reason": result.failure_reason})
        position = window_start + result.alignment.meta["ref_start"]
        metrics.counter("readmapper.reads_mapped").inc()
        metrics.counter("readmapper.extension_cells").inc(
            result.stats.cells_computed)
        return Mapping(read_id=read_id, position=position,
                       score=result.score, alignment=result.alignment,
                       seed_votes=votes, mapped=True,
                       meta={"window": (window_start, window_end),
                             "cells": result.stats.cells_computed})

    def map_read(self, read: np.ndarray, read_id: int = 0) -> Mapping:
        """Map one read: seed votes -> candidate window -> semi-global
        extension DP (the whole read against the window with free
        reference overhangs, so the mapped position falls out of the
        alignment's ``ref_start``)."""
        mapping, votes, window_start, window_end = \
            self._candidate(read, read_id)
        if mapping is not None:
            return mapping
        window = self.reference[window_start:window_end]
        result = SemiGlobalAligner().align(read, window, self.config.model)
        return self._finish(read_id, votes, window_start, window_end,
                            result)

    def map_all(self, read_set: ReadSet,
                tolerance: int = 30) -> MappingReport:
        """Map every read, batching all candidate extensions through
        one :class:`~repro.exec.BatchEngine` run (the hot loop the
        paper's Sec. 9.3 attributes 70-76% of mapping time to)."""
        events = self.obs.events
        if events.enabled:
            events.emit("run_start", app="readmapper",
                        pairs=len(read_set.reads))
        with self.obs.tracer.host_span("readmapper.map_all",
                                       reads=len(read_set.reads)):
            mappings: list[Mapping | None] = []
            pending: list[tuple[int, int, int, int]] = []
            pairs: list[tuple[np.ndarray, np.ndarray]] = []
            with self.obs.profiler.phase("readmapper.seed"):
                for read in read_set.reads:
                    mapping, votes, window_start, window_end = \
                        self._candidate(read.codes, read.read_id)
                    mappings.append(mapping)
                    if mapping is None:
                        pending.append((len(mappings) - 1, votes,
                                        window_start, window_end))
                        pairs.append((
                            read.codes,
                            self.reference[window_start:window_end]))
            if events.enabled:
                events.emit("progress", app="readmapper", stage="seed",
                            done=len(read_set.reads),
                            total=len(read_set.reads),
                            extensions=len(pairs))
            if pairs:
                results = run_batch(self.config, self.batch, pairs,
                                    self.resilience, self.deadline_s,
                                    obs=self.obs).merged()
                for (slot, votes, window_start, window_end), result in \
                        zip(pending, results):
                    read = read_set.reads[slot]
                    if result is None or not isinstance(
                            result, AlignerResult):
                        # Supervised run quarantined this extension: the
                        # read stays unmapped rather than sinking the
                        # whole batch.
                        failure = result
                        self.obs.metrics.counter(
                            "readmapper.reads_failed").inc()
                        mappings[slot] = Mapping(
                            read_id=read.read_id, position=-1, score=0,
                            alignment=None, seed_votes=votes,
                            mapped=False,
                            meta={"fault": getattr(failure, "fault",
                                                   "unknown")})
                        continue
                    mappings[slot] = self._finish(
                        read.read_id, votes, window_start, window_end,
                        result)
        report = MappingReport(mappings=mappings, tolerance=tolerance)
        if events.enabled:
            events.emit("run_end", app="readmapper",
                        pairs=len(read_set.reads),
                        mapped=sum(1 for m in mappings
                                   if m is not None and m.mapped))
        return report

    # -- acceleration estimate ----------------------------------------------

    def smx_extension_speedup(self, read_set: ReadSet) -> float:
        """SMX-vs-SIMD speedup of this workload's extension phase.

        Each read's extension is one banded DP-block; the block stream
        is fed to the heterogeneous timing model exactly like the
        X-drop pipeline of Sec. 9.
        """
        from repro.baselines.ksw2 import ksw2_alignment_timing

        system = SmxSystem(self.config, max_sim_tiles=60_000)
        shapes = []
        baseline = 0.0
        for read in read_set.reads:
            band = max(2 * self.config.vl,
                       int(self.band_fraction * read.length))
            shapes.append((band, read.length))
            baseline += ksw2_alignment_timing(band, read.length,
                                              system.core).cycles
        timing = system.coproc_workload_timing(shapes, mode="align",
                                               impl="smx")
        return baseline / timing.total_cycles
