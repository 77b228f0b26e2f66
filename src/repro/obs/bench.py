"""Benchmark history: deterministic micro-benchmarks + regression gate.

Three PRs of engine work produced an *empty* benchmark trajectory --
nothing compared one commit's kernel throughput against the last. This
module gives ``repro bench`` its machinery:

- :func:`collect` runs a small deterministic suite of vector-kernel
  micro-benchmarks (and, in full mode, engine-level scalar-vs-vector
  runs) and returns one schema-versioned **record**;
- :func:`load_history` / :func:`append_record` maintain
  ``results/BENCH_HISTORY.json`` (:data:`HISTORY_SCHEMA`);
- :func:`check` compares a fresh record against the **trailing
  median** of each metric's history and flags regressions beyond a
  configurable tolerance;
- :func:`record_from_run_reports` ingests existing ``smx-run-report/1``
  files (``bench_batch_engine``, ``table3_gcups``) so the history can
  be seeded from numbers already in ``results/``.

Metrics come in two flavours the gate treats differently:

- **absolute** throughput (``kernel.linear.dna.cups``,
  ``engine.score.vector.pairs_per_sec``) or cost per item (anything
  ending ``.us_per_pair``, lower is better) -- meaningful on one
  machine, noisy across machines;
- **relative** ratios (anything ending ``.speedup``) -- dimensionless
  and machine-portable, the right thing to gate in shared CI
  (``check(relative_only=True)``).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import time
from datetime import datetime, timezone

import numpy as np

#: Schema tag of the history file (``results/BENCH_HISTORY.json``).
HISTORY_SCHEMA = "smx-bench-history/1"

#: Default regression tolerance: fail when a metric drops more than
#: this fraction below its trailing median.
DEFAULT_TOLERANCE = 0.25

#: Default trailing-median window (records per metric).
DEFAULT_WINDOW = 5


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, cwd=os.path.dirname(os.path.abspath(__file__)))
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def is_relative(metric: str) -> bool:
    """Whether a metric is a machine-portable ratio (gateable in CI)."""
    return metric.endswith(".speedup")


def lower_is_better(metric: str) -> bool:
    """Whether a metric is a cost (time per item), not a rate."""
    return metric.endswith(".us_per_pair")


# ----------------------------------------------------------------------
# Micro-benchmarks
# ----------------------------------------------------------------------

def _bench_pairs(n_pairs: int, length: int, alphabet_size: int,
                 seed: int = 7) -> list:
    rng = np.random.default_rng(seed)
    return [(rng.integers(0, alphabet_size, length, dtype=np.uint8),
             rng.integers(0, alphabet_size, length, dtype=np.uint8))
            for _ in range(n_pairs)]


def _best_of(repeats: int, fn) -> float:
    """Minimum wall time of ``repeats`` calls (classic best-of timing:
    the minimum is the least noise-polluted sample)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def collect(quick: bool = True, repeats: int = 3) -> dict:
    """Run the micro-benchmark suite and return one history record.

    Quick mode (the CI default) runs only the vector-kernel
    micro-benchmarks; full mode adds engine-level scalar-vs-vector
    comparisons. Inputs are seeded, so two runs measure identical work.
    """
    from repro.algorithms.affine import AffineGapPenalties
    from repro.config import dna_gap_config, protein_config
    from repro.exec import kernels
    from repro.exec.buckets import bucketize

    n_pairs, length = (16, 192) if quick else (32, 256)
    dna = dna_gap_config()
    protein = protein_config()
    dna_pairs = _bench_pairs(n_pairs, length, 4)
    protein_pairs = _bench_pairs(n_pairs, length, 20, seed=11)
    [dna_bucket] = list(bucketize(dna_pairs, 16))
    [protein_bucket] = list(bucketize(protein_pairs, 16))
    linear_cells = n_pairs * length * length
    metrics: dict[str, float] = {}

    t = _best_of(repeats, lambda: kernels.sweep_linear(
        dna_bucket, dna.model, "global", keep=False))
    metrics["kernel.linear.dna.cups"] = linear_cells / t

    t_wide = _best_of(repeats, lambda: kernels.sweep_linear(
        dna_bucket, dna.model, "global", keep=False, force_wide=True))
    metrics["kernel.linear.narrow.speedup"] = t_wide / t

    t = _best_of(repeats, lambda: kernels.sweep_linear(
        protein_bucket, protein.model, "global", keep=False))
    metrics["kernel.linear.protein.cups"] = linear_cells / t

    penalties = AffineGapPenalties(open=-6, extend=-1)
    t = _best_of(repeats, lambda: kernels.sweep_affine(
        dna_bucket, dna.model, penalties, keep=False))
    metrics["kernel.affine.dna.cups"] = 3 * linear_cells / t

    _, banded_cells, _ = kernels.sweep_banded(
        dna_bucket, dna.model, 16, None, keep=False)
    t = _best_of(repeats, lambda: kernels.sweep_banded(
        dna_bucket, dna.model, 16, None, keep=False))
    metrics["kernel.banded.dna.cups"] = int(np.sum(banded_cells)) / t

    _, xdrop_cells, _, _ = kernels.sweep_xdrop(
        dna_bucket, dna.model, 50, None, keep=False)
    t = _best_of(repeats, lambda: kernels.sweep_xdrop(
        dna_bucket, dna.model, 50, None, keep=False))
    metrics["kernel.xdrop.dna.cups"] = int(np.sum(xdrop_cells)) / t

    # The adaptive planner only pays for itself on long reads, so its
    # suite keeps a fixed long-read shape in both modes -- the history
    # series stays comparable with the full-size bench_adaptive runs.
    metrics.update(_collect_adaptive(repeats, 16 if quick else 32, 1024))
    # The bit-parallel series keeps one fixed shape in *both* modes:
    # its speedup over the wavefront engine grows with the batch size
    # (packed uint64 lanes amortize the per-column dispatch), so mixing
    # batch sizes would make the history series incomparable with the
    # full-size bench_bitparallel records the gate medians over.
    metrics.update(_collect_bitparallel(repeats))
    # One fixed short-read shape in both modes too: the only series
    # that runs a traceback, so the only ones that see the kept state
    # of the linear sweep and the walk over it.
    metrics.update(_collect_cigar(repeats))

    if not quick:
        metrics.update(_collect_engine(repeats))

    return {"created": _now(), "git_sha": _git_sha(), "quick": quick,
            "params": {"pairs": n_pairs, "length": length,
                       "repeats": repeats},
            "metrics": metrics}


def _mutated_pairs(config, n_pairs: int, length: int, error: float,
                   seed: int = 13) -> list:
    """High-identity (query, reference) pairs, the adaptive planner's
    sweet spot (a ~(1 - error) identity long-read verification batch)."""
    from repro.workloads.synthetic import ErrorProfile, mutate

    rng = np.random.default_rng(seed)
    profile = ErrorProfile(substitution=0.5 * error,
                           insertion=0.25 * error,
                           deletion=0.25 * error)
    pairs = []
    for _ in range(n_pairs):
        reference = config.alphabet.random(length, rng)
        query, _ = mutate(reference, profile, config.alphabet, rng)
        pairs.append((query, reference))
    return pairs


def _collect_adaptive(repeats: int, n_pairs: int,
                      length: int) -> dict[str, float]:
    """Adaptive planner suite: ``engine="auto"`` against the fixed
    full-vector engine on a 95%-identity batch (ratio metrics, so the
    CI gate covers the planner's speedup on every run)."""
    from repro.config import dna_edit_config
    from repro.exec.buckets import bucketize
    from repro.exec.engine import BatchConfig, BatchEngine
    from repro.exec.wavefront import sweep_wavefront

    config = dna_edit_config()
    pairs = _mutated_pairs(config, n_pairs, length, error=0.05)

    def run(engine: str) -> float:
        batch = BatchConfig(engine=engine, traceback=False)
        return _best_of(repeats,
                        lambda: BatchEngine(config, batch).run(pairs))

    t_auto = run("auto")
    t_vector = run("vector")
    buckets = list(bucketize(pairs, 2 * length))
    cells = sum(int(np.sum(sweep_wavefront(b, config.model).cells))
                for b in buckets)
    t = _best_of(repeats, lambda: [sweep_wavefront(b, config.model)
                                   for b in buckets])
    return {
        "engine.adaptive.identity95.speedup": t_vector / t_auto,
        "kernel.wavefront.dna.cups": cells / t,
    }


def _collect_bitparallel(repeats: int, n_pairs: int = 64,
                         length: int = 1024) -> dict[str, float]:
    """Bit-parallel Myers suite on one fixed long-read shape.

    The kernel CUPS series uses the 95%-identity long-read batch (the
    same generator behind ``kernel.wavefront.dna.cups``, one dense
    bucket), so the two series answer "same batch, which kernel"
    directly. The engine speedup uses uniformly random equal-length
    pairs instead: that is the divergence regime the planner routes to
    bit-parallel, where the wavefront's O(d^2) frontier is at its
    worst and the uint64 lanes stay fully packed in a single bucket.
    Both shapes match ``benchmarks/bench_bitparallel.py`` exactly so
    the history forms one comparable series.
    """
    from repro.config import dna_edit_config
    from repro.exec.bitparallel import sweep_bitparallel
    from repro.exec.buckets import bucketize
    from repro.exec.engine import BatchConfig, BatchEngine

    config = dna_edit_config()
    identity_pairs = _mutated_pairs(config, n_pairs, length, error=0.05)
    buckets = list(bucketize(identity_pairs, 2 * length))
    cells = sum(len(q) * len(r) for q, r in identity_pairs)
    t_kernel = _best_of(repeats, lambda: [sweep_bitparallel(b)
                                          for b in buckets])

    random_pairs = _bench_pairs(n_pairs, length, 4, seed=29)

    def run(engine: str) -> float:
        batch = BatchConfig(engine=engine, traceback=False)
        return _best_of(repeats,
                        lambda: BatchEngine(config, batch).run(
                            random_pairs))

    t_bitparallel = run("bitparallel")
    t_wavefront = run("wavefront")
    return {
        "kernel.bitparallel.dna.cups": cells / t_kernel,
        "engine.bitparallel.vs_wavefront.speedup":
            t_wavefront / t_bitparallel,
    }


def _collect_cigar(repeats: int, n_pairs: int = 256,
                   length: int = 128) -> dict[str, float]:
    """CIGAR suite: short dna-gap reads at 5 % through the vector
    engine with ``traceback=True`` (a handful of length buckets sharing
    one walk), as a cost per pair and as the ratio to the scalar
    aligner on the same pairs, which is what shared CI can gate."""
    from repro.config import dna_gap_config
    from repro.exec.engine import BatchConfig, BatchEngine

    config = dna_gap_config()
    pairs = _mutated_pairs(config, n_pairs, length, error=0.05)

    def run(engine: str) -> float:
        batch = BatchConfig(engine=engine, traceback=True)
        return _best_of(repeats,
                        lambda: BatchEngine(config, batch).run(pairs))

    t_vector = run("vector")
    return {"engine.cigar.short.us_per_pair": 1e6 * t_vector / n_pairs,
            "engine.cigar.short.speedup": run("scalar") / t_vector}


def _collect_engine(repeats: int) -> dict[str, float]:
    """Engine-level scalar-vs-vector comparison (full mode only)."""
    from repro.config import dna_gap_config
    from repro.exec.engine import BatchConfig, BatchEngine

    config = dna_gap_config()
    pairs = _bench_pairs(64, 256, 4, seed=23)

    def run(engine: str) -> float:
        batch = BatchConfig(engine=engine, traceback=False)
        return _best_of(repeats,
                        lambda: BatchEngine(config, batch).run(pairs))

    t_vector = run("vector")
    t_scalar = run("scalar")
    return {"engine.score.vector.pairs_per_sec": len(pairs) / t_vector,
            "engine.score.speedup": t_scalar / t_vector}


# ----------------------------------------------------------------------
# History file
# ----------------------------------------------------------------------

def load_history(path: str) -> dict:
    """Load (or initialise) a benchmark-history file.

    Raises:
        ValueError: the file exists but is not a benchmark history.
    """
    if not os.path.exists(path):
        return {"schema": HISTORY_SCHEMA, "records": []}
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc.msg})") \
                from None
    schema = data.get("schema") if isinstance(data, dict) else None
    if not isinstance(schema, str) or \
            not schema.startswith("smx-bench-history/"):
        raise ValueError(f"{path}: not a benchmark history "
                         f"(schema={schema!r})")
    data.setdefault("records", [])
    return data


def save_history(path: str, history: dict) -> str:
    """Atomically write a history dict back to disk."""
    from repro.core.atomicio import atomic_write_json
    return atomic_write_json(path, history, indent=1, sort_keys=True)


def append_record(path: str, record: dict) -> dict:
    """Append one record to the history at ``path`` (created if new)."""
    history = load_history(path)
    history["records"].append(record)
    save_history(path, history)
    return history


# ----------------------------------------------------------------------
# Regression gate
# ----------------------------------------------------------------------

def check(record: dict, history: dict,
          tolerance: float = DEFAULT_TOLERANCE,
          window: int = DEFAULT_WINDOW,
          relative_only: bool = False) -> list[dict]:
    """Gate a fresh record against the trailing history.

    For every metric in ``record`` the baseline is the **median of its
    last ``window`` historical values**; the metric regresses when it
    falls below ``(1 - tolerance) * baseline``. Tracked metrics are
    higher-is-better throughputs or speedups, except the costs
    :func:`lower_is_better` names, which regress when they rise above
    ``baseline / (1 - tolerance)``; ``ratio`` is always the share of
    the baseline's performance that is left. Metrics with no history
    report ``status="new"``.

    With ``relative_only`` only machine-portable ratio metrics
    (:func:`is_relative`) are gated -- the right setting for shared CI
    runners whose absolute throughput varies wildly.
    """
    records = history.get("records", [])
    results = []
    for metric in sorted(record.get("metrics", {})):
        if relative_only and not is_relative(metric):
            continue
        value = float(record["metrics"][metric])
        trail = [float(r["metrics"][metric]) for r in records
                 if isinstance(r.get("metrics"), dict)
                 and metric in r["metrics"]][-window:]
        if not trail:
            results.append({"metric": metric, "value": value,
                            "baseline": None, "ratio": None,
                            "threshold": None, "status": "new"})
            continue
        baseline = statistics.median(trail)
        if lower_is_better(metric):
            ratio = baseline / value if value else float("inf")
            threshold = baseline / (1.0 - tolerance) if tolerance < 1.0 \
                else float("inf")
            status = "regression" if value > threshold else "ok"
        else:
            ratio = value / baseline if baseline else float("inf")
            threshold = (1.0 - tolerance) * baseline
            status = "regression" if value < threshold else "ok"
        results.append({"metric": metric, "value": value,
                        "baseline": baseline, "ratio": ratio,
                        "threshold": threshold, "status": status})
    return results


def format_check(results: list[dict]) -> str:
    """Terminal table for a :func:`check` result list."""
    if not results:
        return "(no metrics to check)"
    width = max(len(row["metric"]) for row in results)
    lines = [f"{'metric':<{width}}  {'value':>14} {'baseline':>14} "
             f"{'ratio':>7}  status"]
    for row in results:
        baseline = (f"{row['baseline']:>14.3g}"
                    if row["baseline"] is not None else f"{'-':>14}")
        ratio = (f"{row['ratio']:>7.3f}"
                 if row["ratio"] is not None else f"{'-':>7}")
        lines.append(f"{row['metric']:<{width}}  {row['value']:>14.3g} "
                     f"{baseline} {ratio}  {row['status']}")
    return "\n".join(lines)


def format_regressions(results: list[dict]) -> str:
    """One explanatory line per regressed metric: what it measured,
    what the trailing-median baseline was, and the threshold it fell
    below -- so a CI failure names the culprit without the reader
    re-deriving the gate arithmetic."""
    lines = []
    for row in results:
        if row.get("status") != "regression":
            continue
        lines.append(
            f"regressed: {row['metric']} = {row['value']:.4g} "
            f"(baseline median {row['baseline']:.4g}, "
            f"threshold {row['threshold']:.4g}; "
            f"{(1.0 - row['ratio']) * 100.0:.1f}% below baseline)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Seeding from existing run reports
# ----------------------------------------------------------------------

def record_from_run_reports(paths: list[str]) -> dict:
    """Distil ``smx-run-report/1`` files into one history record.

    ``bench_batch_engine`` timing rows become
    ``engine.<name>.pairs_per_sec`` metrics plus ``engine.<config>-
    <mode>.speedup`` ratios; ``table3_gcups`` SMX rows become
    ``table3.<config>.gcups``. Unknown payload shapes are skipped, not
    fatal, so the ingest stays usable as reports evolve.
    """
    metrics: dict[str, float] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        if not isinstance(report, dict):
            continue
        by_engine: dict[tuple[str, str], float] = {}
        for row in report.get("timings") or []:
            name = row.get("name")
            rate = row.get("pairs_per_sec")
            if not name or not isinstance(rate, (int, float)):
                continue
            metrics[f"engine.{name}.pairs_per_sec"] = float(rate)
            engine = row.get("engine")
            config_mode = (row.get("config"), row.get("mode"))
            if engine in ("scalar", "vector") and all(config_mode):
                by_engine[(f"{config_mode[0]}-{config_mode[1]}",
                           engine)] = float(rate)
        for (label, engine), rate in by_engine.items():
            scalar = by_engine.get((label, "scalar"))
            if engine == "vector" and scalar:
                metrics[f"engine.{label}.speedup"] = rate / scalar
        entries = (report.get("tables") or {}).get("entries") or []
        for entry in entries:
            name = entry.get("name", "")
            gcups = entry.get("peak_gcups_per_pu")
            if name.startswith("SMX ") and \
                    isinstance(gcups, (int, float)):
                slug = name[4:].lower().replace(" ", "-")
                metrics[f"table3.{slug}.gcups"] = float(gcups)
    return {"created": _now(), "git_sha": _git_sha(), "quick": False,
            "params": {"ingested": [os.path.basename(p) for p in paths]},
            "metrics": metrics}
