"""Trace-driven simulation.

* :mod:`repro.sim.engine` — the reference implementation: plain objects,
  one Python loop, semantics that read directly off the paper.  The
  oracle of every other path.
* :mod:`repro.sim.chunked` / :func:`repro.sim.fast.predictor_streams` —
  the gshare sweep producing correctness/BHR streams (memoized per
  benchmark+predictor, whole-trace or chunk by chunk).
* :mod:`repro.sim.kernels` — the grouped-scan kernels, each defined once:
  group ranks, lagged-shift CIR history, the clamp-affine scan, the
  resetting count.
* :mod:`repro.sim.batched` — :class:`~repro.sim.batched.GridObserver`,
  the one production kernel of every confidence-table statistic.
* :mod:`repro.sim.fast` — per-access CIR/counter streams as single-stream
  views of the same grouping (for the application models, the
  context-switch ablation, and as the grid kernel's golden reference).
  Property tests assert exact equivalence with the reference engine.
"""

from repro.sim.cache import cached_predictor_streams, clear_stream_cache
from repro.sim.diskcache import (
    StreamKey,
    clear_disk_cache,
    disk_cache_stats,
    load_cached_streams,
    store_cached_streams,
    stream_cache_dir,
)
from repro.sim.engine import EstimatorRun, SimulationResult, simulate
from repro.sim.fast import (
    PredictorStreams,
    cir_pattern_stream,
    predictor_streams,
    resetting_counter_stream,
    saturating_counter_stream,
    two_level_pattern_stream,
)

__all__ = [
    "simulate",
    "SimulationResult",
    "EstimatorRun",
    "predictor_streams",
    "PredictorStreams",
    "cir_pattern_stream",
    "two_level_pattern_stream",
    "saturating_counter_stream",
    "resetting_counter_stream",
    "cached_predictor_streams",
    "clear_stream_cache",
    "StreamKey",
    "stream_cache_dir",
    "store_cached_streams",
    "load_cached_streams",
    "disk_cache_stats",
    "clear_disk_cache",
]
