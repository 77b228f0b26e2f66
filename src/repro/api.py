"""High-level convenience API: strings in, alignments out.

For users who want answers rather than architecture models::

    from repro.api import align, edit_distance, similarity

    align("GATTACA", "GATTTACA").cigar_string     # '4=1I3='
    edit_distance("kitten", "sitting")            # 3
    similarity("ACGT", "ACGA")                    # 0.75

Everything routes through the same SMX dataflow as the low-level API
(border computation + tile-recompute traceback), so results are
identical to the hardware model's.
"""

from __future__ import annotations

from repro.algorithms.full import FullAligner
from repro.algorithms.local import LocalAligner, SemiGlobalAligner
from repro.algorithms.wavefront import WavefrontAligner
from repro.config import (
    AlignmentConfig,
    ascii_config,
    dna_edit_config,
    dna_gap_config,
    protein_config,
)
from repro.core.system import SmxSystem
from repro.dp.alignment import Alignment
from repro.errors import ConfigurationError
from repro.exec import routes
from repro.exec.engine import BatchConfig, BatchEngine

#: Named presets accepted by every function's ``preset=`` argument.
PRESETS = {
    "dna": dna_edit_config,
    "dna-edit": dna_edit_config,
    "dna-gap": dna_gap_config,
    "protein": protein_config,
    "ascii": ascii_config,
    "text": ascii_config,
}

_MODES = ("global", "local", "semiglobal")


def _check_method(method: str, mode: str) -> None:
    # "auto", or an engine that is one kernel route under its own name.
    methods = ("auto", *(name for name in routes.engines()
                         if name in routes.ROUTES))
    if method not in methods:
        raise ConfigurationError(
            f"unknown method {method!r}; choose from {methods}")
    if method != "auto" and mode != "global":
        raise ConfigurationError(
            f"method={method!r} supports only mode='global', got "
            f"{mode!r}")


def _resolve(preset: str | AlignmentConfig) -> AlignmentConfig:
    if isinstance(preset, AlignmentConfig):
        return preset
    try:
        return PRESETS[preset]()
    except KeyError:
        raise ConfigurationError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)} "
            "or pass an AlignmentConfig"
        ) from None


def align(query: str, reference: str,
          preset: str | AlignmentConfig = "dna",
          mode: str = "global", method: str = "auto") -> Alignment:
    """Align two strings and return a validated :class:`Alignment`.

    Args:
        preset: Scoring/alphabet preset name (see :data:`PRESETS`) or a
            full :class:`AlignmentConfig`.
        mode: ``"global"`` (end-to-end, through the SMX system model),
            ``"local"`` (best substring pair), or ``"semiglobal"``
            (whole query, free reference overhangs).
        method: ``"auto"`` (the default dataflow for the mode) or
            ``"wavefront"`` (the O(n*s) wavefront aligner; global mode
            under the unit-cost edit model only -- anything else raises
            :class:`~repro.errors.ConfigurationError`).
            ``"bitparallel"`` is score-only and raises here; use
            :func:`score`.
    """
    config = _resolve(preset)
    _check_method(method, mode)
    if routes.score_only(method):
        raise ConfigurationError(
            f"method {method!r} is score-only "
            f"({routes.score_only(method)}); use score() / score_batch(), "
            "or method='wavefront' for an alignment")
    q_codes = config.encode(query)
    r_codes = config.encode(reference)
    if method == "wavefront":
        return WavefrontAligner().align(q_codes, r_codes,
                                        config.model).alignment
    if mode == "global":
        if len(q_codes) == 0 or len(r_codes) == 0:
            # The SMX offload model rejects empty sequences (there is
            # no tile to compute); answer the degenerate case in
            # software so the API stays total.
            alignment = FullAligner().align(q_codes, r_codes,
                                            config.model).alignment
        else:
            result = SmxSystem(config).align(q_codes, r_codes)
            alignment = result.alignment
    elif mode == "local":
        alignment = LocalAligner().align(q_codes, r_codes,
                                         config.model).alignment
    elif mode == "semiglobal":
        alignment = SemiGlobalAligner().align(q_codes, r_codes,
                                              config.model).alignment
    else:
        raise ConfigurationError(
            f"unknown mode {mode!r}; choose from {_MODES}"
        )
    return alignment


def score(query: str, reference: str,
          preset: str | AlignmentConfig = "dna",
          mode: str = "global", method: str = "auto") -> int:
    """Alignment score only (no traceback storage).

    Accepts the same ``method`` argument as :func:`align`, plus
    ``"bitparallel"`` -- the batched blocked-Myers kernel (global mode,
    unit-cost edit model only; anything else raises
    :class:`~repro.errors.ConfigurationError`).
    """
    config = _resolve(preset)
    _check_method(method, mode)
    q_codes = config.encode(query)
    r_codes = config.encode(reference)
    if method == "wavefront":
        return WavefrontAligner().compute_score(q_codes, r_codes,
                                                config.model).score
    if routes.score_only(method):
        engine = BatchEngine(config, BatchConfig(engine=method,
                                                 traceback=False))
        return engine.run([(q_codes, r_codes)])[0].score
    if mode == "global":
        if len(q_codes) == 0 or len(r_codes) == 0:
            return FullAligner().compute_score(q_codes, r_codes,
                                               config.model).score
        return SmxSystem(config).score(q_codes, r_codes).score
    if mode == "local":
        return LocalAligner().compute_score(q_codes, r_codes,
                                            config.model).score
    if mode == "semiglobal":
        return SemiGlobalAligner().compute_score(q_codes, r_codes,
                                                 config.model).score
    raise ConfigurationError(f"unknown mode {mode!r}; choose from {_MODES}")


def _batch_config(batch: BatchConfig | None, mode: str, engine: str,
                  workers: int, traceback: bool) -> BatchConfig:
    if batch is not None:
        return batch
    return BatchConfig(engine=engine, mode=mode, workers=workers,
                       traceback=traceback)


def _run_batch(config: AlignmentConfig, cfg: BatchConfig, encoded,
               resilience, deadline_s: float | None):
    """Dispatch a prepared batch to the plain or supervised engine.

    Returns ``(results, failure_by_index)``: with supervision, pairs
    that could not be completed map to
    :class:`~repro.resilience.failures.PairFailure` records; without
    it the failure map is empty (errors raise, as before).
    """
    if resilience is None and deadline_s is None:
        return BatchEngine(config, cfg).run(encoded), {}
    from repro.resilience import ResilienceConfig, SupervisedEngine
    if resilience is None:
        resilience = ResilienceConfig(deadline_s=deadline_s)
    elif deadline_s is not None and resilience.deadline_s is None:
        from dataclasses import replace
        resilience = replace(resilience, deadline_s=deadline_s)
    outcome = SupervisedEngine(config, cfg, resilience).run(encoded)
    return outcome.results, outcome.failure_index


def align_batch(pairs, preset: str | AlignmentConfig = "dna",
                mode: str = "global", engine: str = "vector",
                workers: int = 1,
                batch: BatchConfig | None = None,
                resilience=None,
                deadline_s: float | None = None) -> list:
    """Align many (query, reference) string pairs at once.

    The ``vector`` engine (default) buckets pairs by length and sweeps
    whole buckets per NumPy operation -- far faster than looping
    :func:`align`, with bit-identical results. ``engine="scalar"``
    loops the per-pair aligners (the reference path), and
    ``workers > 1`` shards the batch across processes. Pass a full
    :class:`~repro.exec.BatchConfig` as ``batch`` for banded / X-drop /
    affine batches; it overrides the convenience arguments.

    Returns one :class:`Alignment` per pair, in submission order. An
    empty ``pairs`` list returns an empty list; zero-length sequences
    produce well-formed all-gap alignments.

    Fault tolerance: pass ``deadline_s`` (a wall-clock budget) and/or
    ``resilience`` (a :class:`~repro.resilience.ResilienceConfig`) to
    run through the supervised engine. The call then *never raises for
    per-pair trouble*: positions that could not be completed hold a
    typed :class:`~repro.resilience.PairFailure` instead of an
    :class:`Alignment`, still in submission order.
    """
    config = _resolve(preset)
    cfg = _batch_config(batch, mode, engine, workers, traceback=True)
    encoded = [(config.encode(q), config.encode(r)) for q, r in pairs]
    results, failed = _run_batch(config, cfg, encoded, resilience,
                                 deadline_s)
    return [failed[i] if result is None and i in failed
            else result.alignment
            for i, result in enumerate(results)]


def score_batch(pairs, preset: str | AlignmentConfig = "dna",
                mode: str = "global", engine: str = "vector",
                workers: int = 1,
                batch: BatchConfig | None = None,
                resilience=None,
                deadline_s: float | None = None) -> list:
    """Scores only for many pairs (no traceback storage).

    Same engine selection (and ``resilience`` / ``deadline_s``
    behaviour) as :func:`align_batch`; heuristic batch configurations
    may yield ``None`` for pairs whose alignment was pruned, and
    supervised calls put :class:`~repro.resilience.PairFailure` records
    at positions that could not be completed.
    """
    config = _resolve(preset)
    cfg = _batch_config(batch, mode, engine, workers, traceback=False)
    encoded = [(config.encode(q), config.encode(r)) for q, r in pairs]
    results, failed = _run_batch(config, cfg, encoded, resilience,
                                 deadline_s)
    return [failed[i] if result is None and i in failed
            else result.score
            for i, result in enumerate(results)]


def edit_distance(a: str, b: str,
                  preset: str | AlignmentConfig = "text") -> int:
    """Levenshtein distance via the SMX edit-model dataflow."""
    config = _resolve(preset)
    if config.model.theta != 2 or config.model.smax != 0:
        raise ConfigurationError(
            f"preset {config.name!r} is not an edit-distance model"
        )
    return -score(a, b, preset=config)


def similarity(a: str, b: str,
               preset: str | AlignmentConfig = "text") -> float:
    """Normalized similarity in [0, 1]: 1 - distance / max_length."""
    if not a and not b:
        return 1.0
    distance = edit_distance(a, b, preset=preset)
    return 1.0 - distance / max(len(a), len(b))
