"""Shared stream/statistics helpers for the experiment modules.

Predictor sweeps are memoized per (benchmark, predictor geometry), and
every confidence-table statistics request — a figure's whole grid or a
single ``*_statistics`` helper call — is one :class:`SweepRequest`
answered from the content-keyed sweep tier (stream key + grid digest).
The helpers return *per-benchmark* statistics dictionaries; experiments
combine them with the paper's equal-branch-count weighting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import observability
from repro.analysis.buckets import BucketStatistics
from repro.core.indexing import IndexFunction, make_index
from repro.experiments.config import ExperimentConfig
from repro.sim.batched import (
    PATTERN,
    RESETTING,
    SATURATING,
    TWO_LEVEL,
    GridObserver,
    SweepSpec,
    grid_digest,
)
from repro.sim.cache import (
    cached_predictor_streams,
    has_disk_entry,
    iter_cached_stream_chunks,
    load_sweep_results,
    peek_cached_streams,
    seed_memory_tier,
    store_sweep_results,
    sweep_result_key,
)
from repro.sim.chunked import (
    CIRTableObserver,
    ResettingCounterObserver,
    SaturatingCounterObserver,
    StreamChunk,
    TwoLevelObserver,
)
from repro.sim.fast import (
    PredictorStreams,
    cir_pattern_stream,
    resetting_counter_stream,
    saturating_counter_stream,
    two_level_pattern_stream,
)
from repro.testing import faults
from repro.utils.bits import bit_mask
from repro.utils.resilient import resilient_map, serial_task

#: Initial CIR patterns by policy name, resolved per (entries, cir_bits).
InitSpec = "int | np.ndarray"


def _stream_request(config: ExperimentConfig, benchmark: str) -> Dict:
    """Keyword arguments of the cached sweep for one suite benchmark."""
    return {
        "benchmark": benchmark,
        "length": config.trace_length,
        "seed": config.seed,
        "entries": config.predictor_entries,
        "history_bits": config.predictor_history_bits,
        "bhr_record_bits": max(config.predictor_history_bits, config.ct_index_bits),
        "gcir_bits": config.ct_index_bits,
    }


def _stream_worker(payload: Dict):
    """Process-pool entry point: run one sweep, report its metrics delta.

    Workers share the persistent disk cache with the parent (and each
    other), so whatever they compute is immediately reusable; the metrics
    snapshot rides back so the parent can account fleet-wide totals.  The
    payload carries the chunk size alongside the cache-key request, so a
    ``jobs > 1`` run sweeps through the same per-chunk tier a serial
    chunked run would.
    """
    observability.reset_metrics()
    request = payload["request"]
    faults.inject_worker_faults(request.get("benchmark", ""))
    streams = cached_predictor_streams(chunk_size=payload["chunk_size"], **request)
    return streams, observability.snapshot()


def _serial_stream_worker(payload: Dict) -> PredictorStreams:
    """In-parent degraded path: the same sweep, pool-worker parity.

    Wrapped in :func:`repro.utils.resilient.serial_task` so the sweep's
    metrics delta is isolated and merged exactly like a pool worker's
    snapshot, and the serial fault hooks fire at task entry.
    """
    request = payload["request"]
    return serial_task(
        request.get("benchmark", ""),
        lambda: cached_predictor_streams(
            chunk_size=payload["chunk_size"], **request
        ),
    )


def _parallel_streams(
    requests: List[Dict], config: ExperimentConfig
) -> List[PredictorStreams]:
    """Fan sweep requests across a fault-tolerant pool, in request order.

    Crashed workers, slow tasks, and failing tasks are retried / degraded
    per :func:`repro.utils.resilient.resilient_map`; the returned streams
    are byte-identical to a serial run regardless.
    """
    payloads = [
        {"request": request, "chunk_size": config.chunk_size}
        for request in requests
    ]
    return resilient_map(
        _stream_worker,
        payloads,
        jobs=min(config.jobs, len(requests)),
        serial_worker=_serial_stream_worker,
        max_retries=config.max_retries,
        task_timeout=config.task_timeout,
    )


def suite_streams(config: ExperimentConfig) -> Dict[str, PredictorStreams]:
    """Predictor streams for every benchmark in the config's suite.

    With ``config.jobs > 1`` the cache-missing sweeps run in a
    fault-tolerant process pool; results merge back in benchmark order,
    so the returned mapping is identical to a serial run.  ``chunk_size``
    composes with ``jobs``: workers (and the serial path) route disk
    traffic through the per-chunk cache tier, sweeping with O(chunk)
    memory.  Sweeps whose entries already sit on disk are loaded serially
    — pool startup is only paid when something actually needs computing.
    """
    requests = [_stream_request(config, name) for name in config.benchmarks]
    with observability.timed("suite_streams.seconds"):
        if config.jobs > 1 and len(requests) > 1:
            results = [peek_cached_streams(**request) for request in requests]
            missing = [i for i, streams in enumerate(results) if streams is None]
            cold = [
                i for i in missing
                if not has_disk_entry(chunk_size=config.chunk_size, **requests[i])
            ]
            if len(cold) > 1:
                fresh = _parallel_streams([requests[i] for i in cold], config)
                for i, streams in zip(cold, fresh):
                    seed_memory_tier(streams, **requests[i])
                    results[i] = streams
            for i in missing:
                if results[i] is None:
                    results[i] = cached_predictor_streams(
                        chunk_size=config.chunk_size, **requests[i]
                    )
        else:
            results = [
                cached_predictor_streams(chunk_size=config.chunk_size, **request)
                for request in requests
            ]
    return dict(zip(config.benchmarks, results))


def suite_stream_chunks(config: ExperimentConfig, benchmark: str):
    """Predictor stream chunks of one suite benchmark (chunked pipeline).

    A generator over :class:`~repro.sim.chunked.StreamChunk`; backed by
    the per-chunk disk cache, so warm iterations replay from disk without
    sweeping and without ever materializing the full streams.
    """
    return iter_cached_stream_chunks(
        chunk_size=config.chunk_size, **_stream_request(config, benchmark)
    )


def _fold_chunk_statistics(
    config: ExperimentConfig,
    benchmark: str,
    num_buckets: int,
    observe: "Callable[[StreamChunk], np.ndarray]",
) -> BucketStatistics:
    """Fold one benchmark's chunks into summed bucket statistics."""
    total = BucketStatistics.zeros(num_buckets)
    for chunk in suite_stream_chunks(config, benchmark):
        total = total + BucketStatistics.from_streams(
            observe(chunk), chunk.correct, num_buckets=num_buckets
        )
    return total


def _chunk_indices(
    index_function: IndexFunction, chunk: StreamChunk
) -> np.ndarray:
    """Confidence-table indices of one chunk's accesses."""
    if index_function.uses_gcir:
        gcirs = chunk.gcirs
    else:
        gcirs = np.zeros(chunk.num_branches, dtype=np.int64)
    return index_function.vectorized(chunk.pcs, chunk.bhrs, gcirs)


def _maybe_gcirs(
    index_function: IndexFunction, streams: PredictorStreams
) -> np.ndarray:
    """Global-CIR stream, computed only when the index actually uses it."""
    if index_function.uses_gcir:
        return streams.gcirs
    return np.zeros(streams.num_branches, dtype=np.int64)


def suite_misprediction_rate(config: ExperimentConfig) -> float:
    """Equal-weighted suite misprediction rate of the underlying predictor."""
    rates = [s.misprediction_rate for s in suite_streams(config).values()]
    return float(np.mean(rates)) if rates else 0.0


def ones_init(config: ExperimentConfig) -> int:
    """The paper's default CT initialization (all CIR bits set)."""
    return bit_mask(config.cir_bits)


def _sweep_one(
    config: ExperimentConfig, spec: SweepSpec
) -> Dict[str, BucketStatistics]:
    """One confidence-table spec over the suite, through the sweep tier."""
    return sweep_grid(config, [spec])[0]


def one_level_pattern_statistics(
    config: ExperimentConfig,
    index_kind: str = "pc_xor_bhr",
    init_patterns: Optional[InitSpec] = None,
    index_function: Optional[IndexFunction] = None,
) -> Dict[str, BucketStatistics]:
    """Raw CIR-pattern bucket statistics of a one-level mechanism.

    One entry per benchmark; buckets are the 2**cir_bits CIR patterns.
    ``index_kind`` picks a paper index ("pc", "bhr", "pc_xor_bhr");
    ``index_function`` overrides it with an arbitrary
    :class:`~repro.core.indexing.IndexFunction` (for the ablations).
    ``init_patterns`` defaults to the paper's all-ones initialization.
    """
    if index_function is None:
        index_function = make_index(index_kind, config.ct_index_bits)
    return _sweep_one(
        config, SweepSpec.pattern(index_function, config.cir_bits, init_patterns)
    )


def two_level_pattern_statistics(
    config: ExperimentConfig,
    first_index_kind: str = "pc_xor_bhr",
    second_use_pc: bool = False,
    second_use_bhr: bool = False,
    first_index_function: Optional[IndexFunction] = None,
) -> Dict[str, BucketStatistics]:
    """Second-level CIR-pattern statistics of a two-level mechanism."""
    if first_index_function is None:
        first_index_function = make_index(first_index_kind, config.ct_index_bits)
    return _sweep_one(
        config,
        SweepSpec.two_level(
            first_index_function,
            config.cir_bits,
            second_use_pc=second_use_pc,
            second_use_bhr=second_use_bhr,
        ),
    )


def resetting_counter_statistics(
    config: ExperimentConfig,
    maximum: int = 16,
    index_kind: str = "pc_xor_bhr",
    ct_index_bits: Optional[int] = None,
    index_function: Optional[IndexFunction] = None,
) -> Dict[str, BucketStatistics]:
    """Resetting-counter bucket statistics (buckets = counter values)."""
    if index_function is None:
        if ct_index_bits is None:
            ct_index_bits = config.ct_index_bits
        index_function = make_index(index_kind, ct_index_bits)
    return _sweep_one(config, SweepSpec.resetting(index_function, maximum))


def saturating_counter_statistics(
    config: ExperimentConfig,
    maximum: int = 16,
    index_kind: str = "pc_xor_bhr",
    index_function: Optional[IndexFunction] = None,
) -> Dict[str, BucketStatistics]:
    """Saturating-counter bucket statistics (buckets = counter values)."""
    if index_function is None:
        index_function = make_index(index_kind, config.ct_index_bits)
    return _sweep_one(config, SweepSpec.saturating(index_function, maximum))


def static_branch_statistics(
    config: ExperimentConfig,
) -> Dict[str, BucketStatistics]:
    """Per-static-branch statistics (buckets = dense per-benchmark PC rank)."""
    if config.chunk_size is not None:
        statistics = {}
        for name in config.benchmarks:
            counts: Dict[int, float] = {}
            mispredicts: Dict[int, float] = {}
            for chunk in suite_stream_chunks(config, name):
                unique_pcs, inverse = np.unique(chunk.pcs, return_inverse=True)
                chunk_counts = np.bincount(inverse, minlength=unique_pcs.size)
                chunk_mispredicts = np.bincount(
                    inverse,
                    weights=(chunk.correct == 0).astype(np.float64),
                    minlength=unique_pcs.size,
                )
                for pc, count, missed in zip(
                    unique_pcs.tolist(),
                    chunk_counts.tolist(),
                    chunk_mispredicts.tolist(),
                ):
                    counts[pc] = counts.get(pc, 0.0) + count
                    mispredicts[pc] = mispredicts.get(pc, 0.0) + missed
            ordered = sorted(counts)
            statistics[name] = BucketStatistics(
                np.array([counts[pc] for pc in ordered], dtype=np.float64),
                np.array([mispredicts[pc] for pc in ordered], dtype=np.float64),
            )
        return statistics
    statistics: Dict[str, BucketStatistics] = {}
    for name, streams in suite_streams(config).items():
        unique_pcs, inverse = np.unique(streams.pcs, return_inverse=True)
        statistics[name] = BucketStatistics.from_streams(
            inverse, streams.correct, num_buckets=unique_pcs.size
        )
    return statistics


def per_benchmark_map(
    config: ExperimentConfig,
    build: Callable[[str, PredictorStreams], BucketStatistics],
) -> Dict[str, BucketStatistics]:
    """Apply an arbitrary per-benchmark statistics builder over the suite."""
    return {
        name: build(name, streams)
        for name, streams in suite_streams(config).items()
    }


@dataclass(frozen=True)
class SweepRequest:
    """A whole experiment grid submitted as one unit.

    ``specs`` lists the grid points in result order; ``config`` supplies
    the suite, the predictor geometry, and the execution knobs (engine,
    jobs, chunk size).  :func:`run_sweep` returns one per-benchmark
    statistics dict per spec, bit-identical for either engine.
    """

    config: ExperimentConfig
    specs: Tuple[SweepSpec, ...]


def sweep_grid(
    config: ExperimentConfig, specs: Sequence[SweepSpec]
) -> List[Dict[str, BucketStatistics]]:
    """Evaluate a grid of confidence-table specs over the config's suite."""
    return run_sweep(SweepRequest(config=config, specs=tuple(specs)))


def run_sweep(request: SweepRequest) -> List[Dict[str, BucketStatistics]]:
    """Dispatch one :class:`SweepRequest` to the configured engine.

    The batched engine serves every grid, singletons included, from the
    content-keyed sweep tier; ``engine="per-config"`` evaluates each spec
    with its own per-config kernel (the golden oracle of the batched one).
    """
    config = request.config
    specs = request.specs
    if not specs:
        return []
    if config.engine == "per-config":
        return [_per_config_spec_statistics(config, spec) for spec in specs]
    return _batched_grid_statistics(config, specs)


def _per_config_spec_statistics(
    config: ExperimentConfig, spec: SweepSpec
) -> Dict[str, BucketStatistics]:
    """One grid point through its per-config kernel, uncached.

    Monolithic runs read the full suite streams; chunked runs fold the
    matching :mod:`repro.sim.chunked` observer over the stream chunks.
    """
    index_function = spec.index_function
    num_buckets = spec.num_buckets
    if config.chunk_size is not None:
        return {
            name: _fold_chunk_statistics(
                config, name, num_buckets, _chunk_observe(spec)
            )
            for name in config.benchmarks
        }
    statistics: Dict[str, BucketStatistics] = {}
    for name, streams in suite_streams(config).items():
        if spec.kind == TWO_LEVEL:
            # The level-1 index always sees a zero global-CIR stream.
            gcirs = np.zeros(streams.num_branches, dtype=np.int64)
        else:
            gcirs = _maybe_gcirs(index_function, streams)
        indices = index_function.vectorized(streams.pcs, streams.bhrs, gcirs)
        if spec.kind == PATTERN:
            buckets = cir_pattern_stream(
                indices, streams.correct, spec.width, spec.init
            )
        elif spec.kind == RESETTING:
            buckets = resetting_counter_stream(
                indices, streams.correct, maximum=spec.width
            )
        elif spec.kind == SATURATING:
            buckets = saturating_counter_stream(
                indices,
                streams.correct,
                maximum=spec.width,
                table_entries=index_function.table_entries,
            )
        else:
            init = bit_mask(spec.width)
            buckets = two_level_pattern_stream(
                indices,
                streams.correct,
                streams.pcs,
                streams.bhrs,
                level1_cir_bits=spec.width,
                level2_cir_bits=spec.width,
                second_use_pc=spec.second_use_pc,
                second_use_bhr=spec.second_use_bhr,
                level1_init=init,
                level2_init=init,
            )
        statistics[name] = BucketStatistics.from_streams(
            buckets, streams.correct, num_buckets=num_buckets
        )
    return statistics


def _chunk_observe(spec: SweepSpec) -> "Callable[[StreamChunk], np.ndarray]":
    """A fresh per-config chunk observer for ``spec``: chunk -> buckets."""
    index_function = spec.index_function
    entries = index_function.table_entries
    if spec.kind == TWO_LEVEL:
        init = bit_mask(spec.width)
        two_level = TwoLevelObserver(
            level1_cir_bits=spec.width,
            level2_cir_bits=spec.width,
            table_entries=entries,
            second_use_pc=spec.second_use_pc,
            second_use_bhr=spec.second_use_bhr,
            level1_init=init,
            level2_init=init,
        )
        # The level-1 index always sees a zero global-CIR stream, as in
        # the monolithic path.
        return lambda chunk: two_level.observe(
            index_function.vectorized(
                chunk.pcs,
                chunk.bhrs,
                np.zeros(chunk.num_branches, dtype=np.int64),
            ),
            chunk.correct,
            chunk.pcs,
            chunk.bhrs,
        )
    observer: "CIRTableObserver | ResettingCounterObserver | SaturatingCounterObserver"
    if spec.kind == PATTERN:
        observer = CIRTableObserver(spec.width, entries, spec.init)
    elif spec.kind == RESETTING:
        observer = ResettingCounterObserver(spec.width, entries)
    else:
        observer = SaturatingCounterObserver(spec.width, entries)
    return lambda chunk: observer.observe(
        _chunk_indices(index_function, chunk), chunk.correct
    )


def _monolithic_chunk(streams: PredictorStreams, needs_gcir: bool) -> StreamChunk:
    """Wrap full predictor streams as one chunk for the grid observer."""
    if needs_gcir:
        gcirs = streams.gcirs
    else:
        gcirs = np.zeros(streams.num_branches, dtype=np.int64)
    return StreamChunk(
        trace_name=streams.trace_name,
        start=0,
        correct=streams.correct,
        bhrs=streams.bhrs,
        pcs=streams.pcs,
        gcirs=gcirs,
    )


def _batched_grid_statistics(
    config: ExperimentConfig, specs: Tuple[SweepSpec, ...]
) -> List[Dict[str, BucketStatistics]]:
    """The batched engine: one fused pass per benchmark for a whole grid.

    Results are content-keyed per (stream request, grid digest) in the
    sweep tier of the cache, so repeat figure runs skip both the sweep
    and the fold.  Missing benchmarks warm the stream tiers through
    :func:`suite_streams` first (pool-accelerated when ``jobs > 1``),
    then fold serially — the fold is cheap next to the sweep.
    """
    grid = grid_digest(specs)
    per_spec: List[Dict[str, BucketStatistics]] = [{} for _ in specs]
    keys = {}
    missing: List[str] = []
    for name in config.benchmarks:
        key = sweep_result_key(grid=grid, **_stream_request(config, name))
        keys[name] = key
        cached = load_sweep_results(key)
        if cached is not None and len(cached) == len(specs):
            for position, stats in enumerate(cached):
                per_spec[position][name] = stats
        else:
            missing.append(name)
    if missing:
        if config.jobs > 1 and len(missing) > 1:
            # Pool-accelerate the stream sweeps (the expensive part);
            # chunked runs warm the per-chunk disk tier the same way.
            suite_streams(config.scaled(benchmarks=tuple(missing)))
        for name in missing:
            observer = GridObserver(specs)
            observability.increment("batched.grid_sweeps")
            with observability.timed("batched.grid_sweep_seconds"):
                if config.chunk_size is None:
                    streams = cached_predictor_streams(
                        chunk_size=None, **_stream_request(config, name)
                    )
                    observer.observe(
                        _monolithic_chunk(streams, observer.needs_gcir)
                    )
                else:
                    for chunk in suite_stream_chunks(config, name):
                        observer.observe(chunk)
            statistics = observer.statistics()
            store_sweep_results(keys[name], statistics)
            for position, stats in enumerate(statistics):
                per_spec[position][name] = stats
    return per_spec
