"""repro.exec -- batched alignment execution engine.

Batches many independent pairwise alignments through vectorized NumPy
kernels (length-bucketed, one ``np.maximum`` sweep advancing every pair
at once) or through the scalar per-pair aligners, with optional
multi-process sharding. See :class:`BatchEngine` / :class:`BatchConfig`
and the public :func:`repro.api.align_batch` front-end.
"""

from repro.exec.bitparallel import BitparallelSweep, sweep_bitparallel
from repro.exec.buckets import PAD_CODE, PairBatch, bucketize
from repro.exec import routes
from repro.exec.engine import BatchConfig, BatchEngine, make_scalar_aligner
from repro.exec.planner import PlannerPolicy, plan_routes
from repro.exec.wavefront import WavefrontSweep, sweep_wavefront

__all__ = [
    "ALGORITHMS", "ENGINES", "MODES", "BatchConfig", "BatchEngine",
    "BitparallelSweep", "PAD_CODE", "PairBatch", "PlannerPolicy",
    "WavefrontSweep", "bucketize", "make_scalar_aligner", "plan_routes",
    "routes", "sweep_bitparallel", "sweep_wavefront",
]


def __getattr__(name: str):
    """``ENGINES`` / ``ALGORITHMS`` / ``MODES``, read live off the route
    registry so a newly registered route shows up."""
    if name in ("ENGINES", "ALGORITHMS", "MODES"):
        return getattr(routes, name.lower())()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
