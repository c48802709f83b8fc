"""Grid-equivalence golden suite: reference kernels versus production.

:class:`repro.sim.batched.GridObserver` is the one production kernel of
every confidence-table statistic.  Its reference is the single-stream
per-access kernels of :mod:`repro.sim.fast`, run one spec at a time over
the whole stream (``test_sim_fast.py`` pins those to the
:mod:`repro.sim.engine` oracle).  This suite pins the contract at three
levels — the full experiment registry across chunk sizes and job counts,
the :func:`sweep_grid` statistics (singleton grids and the direct
``*_statistics`` helpers included), and the raw kernel on
hypothesis-generated ragged grids — plus grid fusion and the parity
bugfixes that rode along (serial-report metrics lifecycle, config
validation, fig10 stream dedupe).
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.analysis.buckets import BucketStatistics
from repro.cli import main
from repro.core.indexing import XorIndex, make_index
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.registry import (
    _serial_report,
    get_experiment,
    list_experiments,
    run_all_reports,
    run_experiment_report,
)
from repro.experiments.runner import (
    one_level_pattern_statistics,
    resetting_counter_statistics,
    saturating_counter_statistics,
    suite_streams,
    sweep_grid,
    two_level_pattern_statistics,
)
from repro.sim.batched import GridObserver, SweepSpec
from repro.sim.cache import (
    SWEEP_MEMORY_TIER_MAX_BYTES,
    clear_stream_cache,
    sweep_memory_tier_info,
)
from repro.sim.chunked import StreamChunk
from repro.sim.fast import (
    cir_pattern_stream,
    resetting_counter_stream,
    saturating_counter_stream,
    two_level_pattern_stream,
)
from repro.testing import faults
from repro.utils.bits import bit_mask
from repro.utils.resilient import serial_task

CONFIG = ExperimentConfig(benchmarks=("jpeg_play", "gcc"), trace_length=3000)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
    monkeypatch.delenv("REPRO_FAULT_SPEC", raising=False)
    clear_stream_cache()
    faults.reset_fault_state()
    observability.reset_metrics()
    yield tmp_path
    clear_stream_cache()
    faults.reset_fault_state()
    observability.reset_metrics()


def _mixed_grid(config):
    """A ragged grid touching every spec kind, index family, and init form."""
    bits = config.ct_index_bits
    index = make_index("pc_xor_bhr", bits)
    gcir_index = XorIndex(bits, use_pc=True, use_bhr=True, use_gcir=True)
    array_init = np.arange(index.table_entries, dtype=np.int64) & np.int64(
        bit_mask(5)
    )
    return [
        SweepSpec.pattern(index, config.cir_bits),
        SweepSpec.pattern(make_index("pc", bits), 4, init=0),
        SweepSpec.pattern(gcir_index, 5, init=array_init),
        SweepSpec.resetting(index, config.cir_bits),
        SweepSpec.saturating(make_index("bhr", bits), 3),
        SweepSpec.two_level(index, 4, second_use_pc=True),
        SweepSpec.two_level(make_index("pc", bits - 2), 5, second_use_bhr=True),
    ]


def _reference_values(spec, pcs, bhrs, gcirs, correct):
    """One spec's per-access bucket stream from the single-stream kernels."""
    index = spec.index_function
    zero_gcirs = np.zeros(len(correct), dtype=np.int64)
    if spec.kind == "two_level":
        # The level-1 index always reads a zero global-CIR stream.
        ones = bit_mask(spec.width)
        return two_level_pattern_stream(
            index.vectorized(pcs, bhrs, zero_gcirs),
            correct,
            pcs,
            bhrs,
            level1_cir_bits=spec.width,
            level2_cir_bits=spec.width,
            second_use_pc=spec.second_use_pc,
            second_use_bhr=spec.second_use_bhr,
            level1_init=ones,
            level2_init=ones,
        )
    indices = index.vectorized(pcs, bhrs, gcirs if index.uses_gcir else zero_gcirs)
    if spec.kind == "pattern":
        return cir_pattern_stream(indices, correct, spec.width, spec.init)
    if spec.kind == "resetting":
        return resetting_counter_stream(indices, correct, maximum=spec.width)
    return saturating_counter_stream(
        indices, correct, maximum=spec.width, table_entries=index.table_entries
    )


def _reference_statistics(specs, chunk):
    """Reference statistics of every spec over one whole chunk."""
    return [
        BucketStatistics.from_streams(
            _reference_values(
                spec, chunk.pcs, chunk.bhrs, chunk.gcirs, chunk.correct
            ),
            chunk.correct,
            num_buckets=spec.num_buckets,
        )
        for spec in specs
    ]


def _reference_grid(config, specs):
    """Reference per-benchmark statistics, shaped like :func:`sweep_grid`."""
    per_spec = [{} for _ in specs]
    for name, streams in suite_streams(config).items():
        chunk = StreamChunk(
            trace_name=name,
            start=0,
            correct=streams.correct,
            bhrs=streams.bhrs,
            pcs=streams.pcs,
            gcirs=streams.gcirs,
        )
        for position, stats in enumerate(_reference_statistics(specs, chunk)):
            per_spec[position][name] = stats
    return per_spec


def _assert_grid_results_equal(batched, per_config):
    assert len(batched) == len(per_config)
    for left, right in zip(batched, per_config):
        assert list(left) == list(right)
        for name in left:
            assert np.array_equal(left[name].counts, right[name].counts)
            assert np.array_equal(left[name].mispredicts, right[name].mispredicts)


class TestRegistryGolden:
    """Every registered experiment, byte-identical for any chunking."""

    def test_full_registry_bit_identical(self, cache_dir, monkeypatch):
        # Per-chunk disk entries would dominate at tiny chunk sizes, so the
        # disk tiers are off; the memory tiers and the grid kernel still
        # run.  ablation-trace-length sweeps its own fixed 20k-160k
        # lengths, which only the 512-branch chunks keep affordable.
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        for chunk_size, length in ((512, 1200), (7, 240), (1, 80)):
            config = CONFIG.scaled(trace_length=length)
            for experiment in list_experiments():
                if chunk_size < 512 and experiment.id == "ablation-trace-length":
                    continue
                clear_stream_cache()
                monolithic = experiment.run(config).format()
                clear_stream_cache()
                chunked = experiment.run(config.scaled(chunk_size=chunk_size))
                assert chunked.format() == monolithic, (experiment.id, chunk_size)

    def test_jobs_interplay_bit_identical(self, cache_dir):
        """jobs=2 warms the stream tier through the pool; output unchanged."""
        ids = ["fig8", "fig10"]
        serial = run_all_reports(CONFIG, experiment_ids=ids, jobs=1)
        clear_stream_cache()
        parallel = run_all_reports(CONFIG.scaled(jobs=2), experiment_ids=ids)
        assert [r.text for r in serial] == [r.text for r in parallel]


#: The registered experiments whose whole grid is one fused sweep.
GRID_EXPERIMENTS = (
    "fig5",
    "fig6",
    "fig8",
    "fig10",
    "fig11",
    "ablation-indexing",
    "ablation-counter-width",
)


class TestGridFusion:
    """Structural fusion: one sweep_grid call per experiment grid."""

    @pytest.mark.parametrize("experiment_id", GRID_EXPERIMENTS)
    def test_one_fused_sweep_per_benchmark(
        self, cache_dir, monkeypatch, experiment_id
    ):
        experiment = get_experiment(experiment_id)
        calls = []

        def recording_sweep_grid(config, specs):
            before = observability.counter_value("batched.grid_sweeps")
            result = sweep_grid(config, specs)
            after = observability.counter_value("batched.grid_sweeps")
            calls.append((len(specs), after - before))
            return result

        module = sys.modules[experiment.run.__module__]
        monkeypatch.setattr(module, "sweep_grid", recording_sweep_grid)
        monkeypatch.setattr(runner, "sweep_grid", recording_sweep_grid)
        config = CONFIG.scaled(trace_length=1200)
        experiment.run(config)
        assert len(calls) == 1, calls
        grid_size, sweeps = calls[0]
        assert 3 <= grid_size <= 6
        assert sweeps == len(config.benchmarks)


class TestSweepGridGolden:
    """sweep_grid against the reference kernels, across chunk sizes."""

    @pytest.mark.parametrize(
        ("chunk_size", "length"),
        [(1, 120), (64, 1200), (1024, 3000), (None, 3000)],
    )
    def test_chunk_sizes_bit_identical(self, cache_dir, chunk_size, length):
        config = CONFIG.scaled(trace_length=length)
        specs = _mixed_grid(config)
        chunked = sweep_grid(config.scaled(chunk_size=chunk_size), specs)
        clear_stream_cache()
        monolithic = sweep_grid(config, specs)
        _assert_grid_results_equal(chunked, monolithic)
        _assert_grid_results_equal(monolithic, _reference_grid(config, specs))

    def test_singleton_requests_use_sweep_tier(self, cache_dir):
        """Singleton grids and direct helper calls live in the sweep tier.

        Cold, each request sweeps every benchmark once; a repeat in the
        same process hits the memo; a new process on the same disk loads
        every result and sweeps nothing.
        """
        config = CONFIG.scaled(trace_length=1200)
        benchmarks = len(config.benchmarks)
        index = make_index("pc_xor_bhr", config.ct_index_bits)
        requests = [
            lambda: sweep_grid(config, [SweepSpec.pattern(index, 4)])[0],
            lambda: one_level_pattern_statistics(config, "pc"),
            lambda: two_level_pattern_statistics(config, second_use_pc=True),
            lambda: resetting_counter_statistics(config, maximum=8),
            lambda: saturating_counter_statistics(config, maximum=4),
        ]
        cold = []
        for request in requests:
            observability.reset_metrics()
            cold.append(request())
            assert observability.counter_value("batched.grid_sweeps") == benchmarks
            assert observability.counter_value("sweep_cache.stores") == benchmarks

        observability.reset_metrics()
        memo = [request() for request in requests]
        assert observability.counter_value("batched.grid_sweeps") == 0
        assert observability.counter_value("sweep_cache.memory_hits") == (
            benchmarks * len(requests)
        )

        clear_stream_cache()
        observability.reset_metrics()
        disk = [request() for request in requests]
        assert observability.counter_value("batched.grid_sweeps") == 0
        assert observability.counter_value("stream_cache.disk_hits") == 0
        assert observability.counter_value("sweep_cache.disk_hits") == (
            benchmarks * len(requests)
        )
        _assert_grid_results_equal(cold, memo)
        _assert_grid_results_equal(cold, disk)

    @pytest.mark.parametrize("chunk_size", [None, 512])
    def test_helpers_bit_identical_to_per_config(self, cache_dir, chunk_size):
        config = CONFIG.scaled(trace_length=1500, chunk_size=chunk_size)
        bits = config.ct_index_bits
        index = make_index("pc_xor_bhr", bits)
        gcir_index = XorIndex(bits, use_pc=True, use_bhr=True, use_gcir=True)
        helpers = [
            one_level_pattern_statistics(config),
            one_level_pattern_statistics(config, index_function=gcir_index),
            one_level_pattern_statistics(
                config.scaled(cir_bits=5), "bhr", init_patterns=0
            ),
            two_level_pattern_statistics(config, second_use_bhr=True),
            resetting_counter_statistics(config, maximum=6, ct_index_bits=7),
            saturating_counter_statistics(config, maximum=3, index_kind="pc"),
        ]
        assert observability.counter_value("batched.grid_sweeps") > 0
        specs = [
            SweepSpec.pattern(index, config.cir_bits),
            SweepSpec.pattern(gcir_index, config.cir_bits),
            SweepSpec.pattern(make_index("bhr", bits), 5, init=0),
            SweepSpec.two_level(index, config.cir_bits, second_use_bhr=True),
            SweepSpec.resetting(make_index("pc_xor_bhr", 7), 6),
            SweepSpec.saturating(make_index("pc", bits), 3),
        ]
        _assert_grid_results_equal(helpers, _reference_grid(config, specs))

    def test_sweep_memo_stays_within_byte_bound(self, cache_dir):
        """Results larger in sum than the bound evict least-recent first."""
        config = CONFIG.scaled(trace_length=600)
        index = make_index("pc_xor_bhr", config.ct_index_bits)
        # A 16-bit CIR result is 1 MiB per benchmark; sweep enough distinct
        # inits to overflow the memo several times over.
        entry_bytes = 2 * 8 * (1 << 16)
        inits = SWEEP_MEMORY_TIER_MAX_BYTES // entry_bytes + 3
        for init in range(inits):
            sweep_grid(config, [SweepSpec.pattern(index, 16, init=init)])
            info = sweep_memory_tier_info()
            assert info["bytes"] <= info["max_bytes"] == SWEEP_MEMORY_TIER_MAX_BYTES
        info = sweep_memory_tier_info()
        assert info["entries"] == SWEEP_MEMORY_TIER_MAX_BYTES // entry_bytes
        assert info["bytes"] == info["entries"] * entry_bytes

        # The most recent result is still a memo hit; the oldest reloads
        # from disk without a sweep.
        observability.reset_metrics()
        sweep_grid(config, [SweepSpec.pattern(index, 16, init=inits - 1)])
        assert observability.counter_value("sweep_cache.memory_hits") == len(
            config.benchmarks
        )
        observability.reset_metrics()
        sweep_grid(config, [SweepSpec.pattern(index, 16, init=0)])
        assert observability.counter_value("sweep_cache.disk_hits") == len(
            config.benchmarks
        )
        assert observability.counter_value("batched.grid_sweeps") == 0

    def test_per_config_engine_never_runs_kernel(self, cache_dir):
        """The single-stream reference kernels bypass the grid and its tier."""
        config = CONFIG.scaled(trace_length=1200)
        _reference_grid(config, _mixed_grid(config))
        assert observability.counter_value("batched.grid_sweeps") == 0
        assert observability.counter_value("sweep_cache.stores") == 0

    def test_sweep_cache_tiers(self, cache_dir):
        config = CONFIG.scaled(trace_length=1200)
        specs = _mixed_grid(config)
        cold = sweep_grid(config, specs)
        assert observability.counter_value("batched.grid_sweeps") == len(
            config.benchmarks
        )
        assert observability.counter_value("sweep_cache.stores") == len(
            config.benchmarks
        )
        assert observability.timer_seconds("batched.grid_sweep_seconds") > 0.0

        # Same process: the in-memory sweep tier answers without a kernel run.
        observability.reset_metrics()
        warm = sweep_grid(config, specs)
        assert observability.counter_value("batched.grid_sweeps") == 0
        assert observability.counter_value("sweep_cache.memory_hits") == len(
            config.benchmarks
        )
        _assert_grid_results_equal(cold, warm)

        # Cold process memory, warm disk: the sweep tier loads, never sweeps.
        clear_stream_cache()
        observability.reset_metrics()
        disk = sweep_grid(config, specs)
        assert observability.counter_value("batched.grid_sweeps") == 0
        assert observability.counter_value("sweep_cache.disk_hits") == len(
            config.benchmarks
        )
        _assert_grid_results_equal(cold, disk)

    def test_fig10_sweeps_each_benchmark_once(self, cache_dir):
        """Regression: fig10 used to recompute streams for headline sizes.

        The deduped grid submits every table size in one sweep_grid call, so
        a cold run does exactly one batched sweep per benchmark — not one
        per (benchmark, size) — and a warm rerun does none.
        """
        from repro.experiments import fig10_small_tables

        config = CONFIG.scaled(trace_length=1200)
        first = fig10_small_tables.run(config).format()
        assert observability.counter_value("batched.grid_sweeps") == len(
            config.benchmarks
        )
        observability.reset_metrics()
        second = fig10_small_tables.run(config).format()
        assert observability.counter_value("batched.grid_sweeps") == 0
        assert first == second


def _split_chunks(chunk, piece):
    pieces = []
    for start in range(0, chunk.num_branches, piece):
        stop = start + piece
        pieces.append(
            StreamChunk(
                trace_name=chunk.trace_name,
                start=chunk.start + start,
                correct=chunk.correct[start:stop],
                bhrs=chunk.bhrs[start:stop],
                pcs=chunk.pcs[start:stop],
                gcirs=chunk.gcirs[start:stop],
            )
        )
    return pieces


_SPEC_DESCRIPTORS = st.lists(
    st.tuples(
        st.sampled_from(["pattern", "resetting", "saturating", "two_level"]),
        st.sampled_from(["pc", "bhr", "pc_xor_bhr", "gcir"]),
        st.integers(min_value=2, max_value=6),  # index bits
        st.integers(min_value=1, max_value=6),  # width / maximum
        st.booleans(),  # second_use_pc / array init toggle
        st.booleans(),  # second_use_bhr
    ),
    min_size=1,
    max_size=5,
)


class TestRaggedGridProperty:
    """Hypothesis: the kernel matches the reference kernels on any grid."""

    @staticmethod
    def _build_specs(descriptors, rng):
        specs = []
        for kind, index_kind, index_bits, width, flag_a, flag_b in descriptors:
            if index_kind == "gcir":
                index = XorIndex(index_bits, use_pc=True, use_bhr=True, use_gcir=True)
            else:
                index = make_index(index_kind, index_bits)
            if kind == "pattern":
                if flag_a:
                    init = rng.randint(
                        0, 1 << width, size=index.table_entries
                    ).astype(np.int64)
                else:
                    init = bit_mask(width)
                specs.append(SweepSpec.pattern(index, width, init=init))
            elif kind == "resetting":
                specs.append(SweepSpec.resetting(index, width))
            elif kind == "saturating":
                specs.append(SweepSpec.saturating(index, width))
            else:
                specs.append(
                    SweepSpec.two_level(
                        index, width, second_use_pc=flag_a, second_use_bhr=flag_b
                    )
                )
        return specs

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=1, max_value=160),
        piece=st.integers(min_value=1, max_value=64),
        descriptors=_SPEC_DESCRIPTORS,
    )
    @settings(max_examples=30, deadline=None)
    def test_kernel_matches_reference(self, seed, n, piece, descriptors):
        rng = np.random.RandomState(seed)
        chunk = StreamChunk(
            trace_name="ragged",
            start=0,
            correct=rng.randint(0, 2, size=n).astype(np.uint8),
            bhrs=rng.randint(0, 1 << 8, size=n).astype(np.int64),
            pcs=(rng.randint(0, 1 << 10, size=n) << 2).astype(np.int64),
            gcirs=rng.randint(0, 1 << 8, size=n).astype(np.int64),
        )
        specs = self._build_specs(descriptors, rng)

        reference = _reference_statistics(specs, chunk)

        monolithic = GridObserver(specs)
        monolithic.observe(chunk)
        chunked = GridObserver(specs)
        for split in _split_chunks(chunk, piece):
            chunked.observe(split)

        for expected, mono, split in zip(
            reference, monolithic.statistics(), chunked.statistics()
        ):
            assert np.array_equal(expected.counts, mono.counts)
            assert np.array_equal(expected.mispredicts, mono.mispredicts)
            assert np.array_equal(expected.counts, split.counts)
            assert np.array_equal(expected.mispredicts, split.mispredicts)


class TestSerialReportParity:
    """Satellite bugfix: the degraded serial path mirrors a pool worker."""

    def test_serial_report_matches_direct_run(self, cache_dir):
        config = CONFIG.scaled(benchmarks=("jpeg_play",), trace_length=1200)
        report = _serial_report(("fig5", config))
        direct = run_experiment_report("fig5", config)
        assert report.text == direct.text
        assert report.experiment_id == "fig5"

    def test_serial_task_isolates_parent_counters(self):
        observability.reset_metrics()
        observability.increment("parent.only", 3)
        inner = {}

        def run():
            observability.increment("task.only")
            inner["snapshot"] = observability.snapshot()
            return 7

        assert serial_task("key", run) == 7
        # The task never saw the parent's counters (pool-worker parity) ...
        assert "parent.only" not in inner["snapshot"]["counters"]
        # ... yet afterwards both the parent state and the delta are merged.
        assert observability.counter_value("parent.only") == 3
        assert observability.counter_value("task.only") == 1

    def test_failing_serial_task_merges_nothing(self):
        observability.reset_metrics()
        observability.increment("parent.only", 2)

        def run():
            observability.increment("task.partial")
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            serial_task("key", run)
        # Matches a worker that died before reporting: no partial counters.
        assert observability.counter_value("task.partial") == 0
        assert observability.counter_value("parent.only") == 2

    def test_serial_fault_hooks_fire(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "slow_task=1.0,slow_seconds=0.0")
        faults.reset_fault_state()
        observability.reset_metrics()
        assert serial_task("task-key", lambda: 11) == 11
        assert observability.counter_value("faults.slow_task") == 1
        faults.reset_fault_state()

    def test_serial_path_survives_worker_crash_spec(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_SPEC_ENV, "worker_crash=1.0")
        faults.reset_fault_state()
        observability.reset_metrics()
        # The parent is the path of last resort: the crash fault must be
        # suppressed (not drawn, not counted), never kill the process.
        assert serial_task("task-key", lambda: 13) == 13
        assert observability.counter_value("faults.worker_crash") == 0
        faults.reset_fault_state()


class TestConfigValidation:
    """Satellite bugfix: programmatic configs fail fast like the CLI."""

    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            ({"jobs": 0}, "--jobs must be >= 1"),
            ({"chunk_size": 0}, "--chunk-size must be >= 1"),
            ({"max_retries": -1}, "--max-retries must be >= 0"),
            ({"task_timeout": 0.0}, "--task-timeout must be > 0"),
            ({"trace_length": 0}, "--length must be >= 1"),
        ],
    )
    def test_programmatic_construction_fails_fast(self, overrides, message):
        with pytest.raises(ValueError) as excinfo:
            ExperimentConfig(**overrides)
        assert str(excinfo.value) == message
        with pytest.raises(ValueError) as excinfo:
            CONFIG.scaled(**overrides)
        assert str(excinfo.value) == message

    def test_cli_reports_identical_message(self, cache_dir):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig5", "--jobs", "0"])
        assert str(excinfo.value) == "--jobs must be >= 1"

    def test_cli_engine_flag(self, cache_dir, capsys):
        """The retired ``--engine`` knob is an argparse usage error."""
        argv = ["run", "fig5", "--length", "1200", "--benchmarks", "jpeg_play"]
        assert main(argv) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--engine", "per-config"])
        assert excinfo.value.code == 2
