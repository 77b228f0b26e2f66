"""Adaptive kernel planner: route each pair to the cheapest exact kernel.

The batch engine's ``engine="auto"`` path asks this module, per pair,
"how divergent does this pair look?" and routes it accordingly:

- **wavefront** -- near-identical pairs under the unit-cost edit model:
  the O(n*s) batched wavefront sweep touches a vanishing fraction of
  the DP matrix (the paper's Fig. 2 trade-off).
- **banded** -- moderately divergent pairs under general models: a
  banded sweep with an estimated corridor, *verified exact* after the
  fact by the band certificate below and widened on failure. (Under
  the edit model the wavefront sweep is cheaper than any certified
  corridor throughout this range, so edit pairs stay on wavefront.)
- **bitparallel** -- high-divergence pairs under the unit-cost edit
  model when no traceback is needed: the batched blocked-Myers sweep
  (:mod:`repro.exec.bitparallel`) costs O(n*m / 64) regardless of
  divergence, so it replaces the full kernel exactly where the
  wavefront's O(n + d^2) sweep stops paying. Score-only, because the
  bit vectors carry no path state.
- **full** -- everything else (short, empty, or high-divergence pairs
  needing a CIGAR, and models the certificate cannot cover).

Divergence is estimated from a k-mer sketch: the fraction ``f`` of
shared k-mers relates to per-base identity roughly as ``f = id**k``
(each shared k-mer needs k consecutive error-free bases), so
``divergence = 1 - f**(1/k)``. The estimate is *only* a routing hint:
every route returns exact results, so a bad estimate costs time, never
correctness.

The band certificate (used by the engine to prove a banded result
exact): a global path whose diagonal offset ``k = j - i`` strays ``e``
beyond the ``[min(0, m-n), max(0, m-n)]`` corridor needs at least ``e``
extra insertion/deletion *pairs*, each trading a diagonal move for two
gap moves, so its score is at most ``best - e * denom`` with ``denom =
smax - gap_i - gap_d`` and ``best = smax * min(n, m) + skew`` (the
all-match bound; ``skew`` is the mandatory-gap cost of the length
difference). Reading that backwards with any achieved in-band score
``s <= optimal``: every optimal path satisfies ``e <= (best - s) //
denom``, so a half-width of ``|m - n| + e_max + 2`` provably contains
all optimal paths -- and then the banded matrix equals the full matrix
on every optimal-path cell and the canonical traceback is identical to
the full-matrix traceback.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.scoring.model import ScoringModel

#: Route labels, also used as the ``exec.plan.{route}`` counter names.
ROUTE_WAVEFRONT = "wavefront"
ROUTE_BANDED = "banded"
ROUTE_BITPARALLEL = "bitparallel"
ROUTE_FULL = "full"
ROUTES = (ROUTE_WAVEFRONT, ROUTE_BANDED, ROUTE_BITPARALLEL, ROUTE_FULL)

#: Multiplier applied to the golden-ratio constant hash of k-mers.
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)

#: Sketch size cap: longer sequences keep only k-mers whose hash falls
#: under a threshold (MinHash-style *value* sampling, so a shared k-mer
#: is sampled in both sequences or in neither -- position-based
#: sampling would decorrelate under indels). Sampling only blurs the
#: divergence estimate; routing is advisory, never correctness.
_MAX_SKETCH = 512


@dataclass(frozen=True)
class PlannerPolicy:
    """Tuning knobs of the adaptive planner (safe to leave at defaults).

    Attributes:
        k: Sketch k-mer length.
        banded_divergence: Upper divergence bound for the banded route;
            beyond it the pair pays the full kernel directly. Edit-model
            pairs within it take the wavefront kernel instead, because
            its O(n + d^2) sweep undercuts every certified corridor in
            that range.
        min_length: Pairs with ``max(n, m)`` below this go straight to
            the full kernel -- too small for routing to pay off.
        probe_slack: The wavefront sweep of each auto-routed pair is
            capped at ``probe_slack * max(its estimated distance, 8)``;
            pairs that blow their cap demote to the full kernel instead
            of sweeping O(n + m) wavefronts.
        band_slack: Extra half-width added to the first banded try so
            mild underestimates still certify without a widening pass.
    """

    k: int = 8
    banded_divergence: float = 0.20
    min_length: int = 32
    probe_slack: int = 4
    band_slack: int = 8

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(f"planner k must be >= 1, got {self.k}")
        if not 0.0 <= self.banded_divergence <= 1.0:
            raise ConfigurationError(
                "banded_divergence must be within [0, 1], got "
                f"{self.banded_divergence}")
        if self.min_length < 0:
            raise ConfigurationError(
                f"min_length must be >= 0, got {self.min_length}")
        if self.probe_slack < 1 or self.band_slack < 0:
            raise ConfigurationError(
                "probe_slack must be >= 1 and band_slack >= 0, got "
                f"{self.probe_slack} / {self.band_slack}")


def is_edit_model(model: ScoringModel) -> bool:
    """True when the model is the unit-cost edit model the wavefront
    kernel implements."""
    return (model.smax == 0 and model.smin == -1
            and model.gap_i == -1 and model.gap_d == -1)


def _kmer_hashes(codes: np.ndarray, k: int) -> np.ndarray:
    """Distinct k-mer hashes of one code sequence (uint64, wrapping)."""
    if len(codes) < k:
        return np.empty(0, dtype=np.uint64)
    windows = np.lib.stride_tricks.sliding_window_view(
        codes.astype(np.uint64), k)
    weights = _HASH_MULT ** np.arange(k, dtype=np.uint64)
    hashes = (windows * weights[None, :]).sum(
        axis=1, dtype=np.uint64) * _HASH_MULT
    rate = len(hashes) // _MAX_SKETCH
    if rate > 1:
        hashes = hashes[hashes < np.uint64((1 << 64) // rate)]
    return np.unique(hashes)


def estimate_divergence(q_codes: np.ndarray, r_codes: np.ndarray,
                        k: int) -> float:
    """Estimated per-base divergence of a pair from its k-mer sketch.

    Returns a value in [0, 1]; 0.0 means the sketches are identical,
    1.0 means no k-mer is shared (or a sequence is shorter than k).
    """
    q_hashes = _kmer_hashes(np.asarray(q_codes), k)
    r_hashes = _kmer_hashes(np.asarray(r_codes), k)
    denom = max(len(q_hashes), len(r_hashes))
    if denom == 0:
        return 1.0
    shared = len(np.intersect1d(q_hashes, r_hashes, assume_unique=True))
    if shared == 0:
        return 1.0
    identity = (shared / denom) ** (1.0 / k)
    return 1.0 - identity


def estimate_distance(q_codes: np.ndarray, r_codes: np.ndarray,
                      divergence: float) -> int:
    """Rough edit-distance estimate implied by a divergence estimate."""
    n, m = len(q_codes), len(r_codes)
    return abs(m - n) + int(np.ceil(divergence * min(n, m)))


def plan_routes(pairs, model: ScoringModel, policy: PlannerPolicy,
                traceback: bool = True) -> tuple[list[str], list[int]]:
    """Choose a kernel route and a distance estimate for every pair.

    Returns ``(routes, estimates)`` in submission order. Routing is
    purely advisory -- the engine verifies banded results with
    :func:`certified_half_width` and demotes capped wavefront sweeps
    to the full kernel -- so estimates can be arbitrarily wrong
    without affecting scores. ``traceback=False`` unlocks the
    score-only bit-parallel route for high-divergence edit pairs.
    """
    edit_ok = is_edit_model(model)
    banded_ok = model.smax - model.gap_i - model.gap_d > 0
    routes: list[str] = []
    estimates: list[int] = []
    for q_codes, r_codes in pairs:
        n, m = len(q_codes), len(r_codes)
        if min(n, m) == 0 or max(n, m) < max(policy.min_length, policy.k):
            routes.append(ROUTE_FULL)
            estimates.append(n + m)
            continue
        divergence = estimate_divergence(q_codes, r_codes, policy.k)
        estimate = estimate_distance(q_codes, r_codes, divergence)
        estimates.append(estimate)
        if edit_ok and divergence <= policy.banded_divergence:
            # Under the edit model the wavefront sweep costs O(n + d^2)
            # -- cheaper than any corridor the certificate would accept
            # (O(width * n) with width >= d) throughout the banded
            # range, so moderate divergence routes to the wavefront
            # too; the probe cap demotes gross underestimates.
            routes.append(ROUTE_WAVEFRONT)
        elif edit_ok and not traceback:
            # High-divergence edit pairs, score only: the bit-parallel
            # sweep is O(n*m / 64) at *any* divergence -- exact where
            # the wavefront's O(d^2) term blows up, cheaper than the
            # full kernel always. CIGAR pairs stay on full (the bit
            # vectors carry no path state).
            routes.append(ROUTE_BITPARALLEL)
        elif banded_ok and divergence <= policy.banded_divergence:
            routes.append(ROUTE_BANDED)
        else:
            routes.append(ROUTE_FULL)
    return routes, estimates


def certified_half_width(model: ScoringModel, n: int, m: int,
                         score: int) -> int | None:
    """Half-width that provably contains all optimal global paths.

    ``score`` is any *achieved* in-band score (a lower bound on the
    optimum; lower scores only widen the answer, so the certificate
    stays safe). Returns ``None`` when the model is degenerate
    (``smax == gap_i + gap_d``) and no finite certificate exists.
    """
    denom = model.smax - model.gap_i - model.gap_d
    if denom <= 0:
        return None
    delta = m - n
    skew = model.gap_d * delta if delta >= 0 else model.gap_i * (-delta)
    best = model.smax * min(n, m) + skew
    slack = max(0, best - score)
    return abs(delta) + slack // denom + 2


def band_is_certified(model: ScoringModel, n: int, m: int, score: int,
                      half: int) -> bool:
    """True when a banded run at ``half`` provably equals the full DP."""
    needed = certified_half_width(model, n, m, score)
    return needed is not None and half >= needed


def width_class(width: int) -> int:
    """Round a half-width up to its power-of-two class, so banded pairs
    re-bucket into a few dense groups instead of one group per width."""
    return 1 << max(0, int(np.ceil(np.log2(max(1, width)))))
