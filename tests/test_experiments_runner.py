"""Unit tests for the shared experiment runner helpers."""

import numpy as np
import pytest

from repro.analysis.buckets import BucketStatistics
from repro.core import OneLevelConfidence
from repro.core.indexing import ConcatIndex, GlobalCIRIndex, PCIndex, XorIndex
from repro.core.init_policies import init_ones
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    _monolithic_chunk,
    one_level_pattern_statistics,
    ones_init,
    resetting_counter_statistics,
    saturating_counter_statistics,
    static_branch_statistics,
    suite_misprediction_rate,
    suite_streams,
    two_level_pattern_statistics,
)
from repro.predictors import GsharePredictor
from repro.sim import simulate
from repro.sim.batched import GridObserver, SweepSpec
from repro.workloads import load_benchmark

CONFIG = ExperimentConfig(
    benchmarks=("jpeg_play", "gcc"),
    trace_length=6_000,
)


class TestSuiteStreams:
    def test_one_stream_per_benchmark(self):
        streams = suite_streams(CONFIG)
        assert set(streams) == {"jpeg_play", "gcc"}
        for stream in streams.values():
            assert stream.num_branches == 6_000

    def test_misprediction_rate_is_mean(self):
        streams = suite_streams(CONFIG)
        expected = np.mean([s.misprediction_rate for s in streams.values()])
        assert suite_misprediction_rate(CONFIG) == pytest.approx(expected)

    def test_small_predictor_config(self):
        small = CONFIG.small_predictor
        streams = suite_streams(small)
        # Different predictor geometry gives a different correctness stream.
        large_streams = suite_streams(CONFIG)
        assert not np.array_equal(
            streams["gcc"].correct, large_streams["gcc"].correct
        )


class TestStatisticsHelpers:
    def test_one_level_totals(self):
        stats = one_level_pattern_statistics(CONFIG, "pc_xor_bhr")
        for benchmark_stats in stats.values():
            assert benchmark_stats.total == 6_000
            assert benchmark_stats.num_buckets == 1 << CONFIG.cir_bits

    def test_one_level_consistent_mispredicts(self):
        stats = one_level_pattern_statistics(CONFIG, "pc")
        streams = suite_streams(CONFIG)
        for name, benchmark_stats in stats.items():
            assert benchmark_stats.total_mispredicts == pytest.approx(
                streams[name].num_mispredicts
            )

    def test_custom_index_function(self):
        index = XorIndex(10, use_pc=True)
        stats = one_level_pattern_statistics(CONFIG, index_function=index)
        assert set(stats) == {"jpeg_play", "gcc"}

    def test_gcir_index_function_uses_gcir_stream(self):
        stats = one_level_pattern_statistics(
            CONFIG, index_function=GlobalCIRIndex(10)
        )
        for benchmark_stats in stats.values():
            assert benchmark_stats.total == 6_000

    def test_two_level_totals(self):
        stats = two_level_pattern_statistics(CONFIG, "pc_xor_bhr")
        for benchmark_stats in stats.values():
            assert benchmark_stats.total == 6_000

    def test_resetting_bucket_count(self):
        stats = resetting_counter_statistics(CONFIG, maximum=8)
        for benchmark_stats in stats.values():
            assert benchmark_stats.num_buckets == 9

    def test_resetting_small_table_override(self):
        full = resetting_counter_statistics(CONFIG, maximum=8)
        small = resetting_counter_statistics(CONFIG, maximum=8, ct_index_bits=7)
        # The override changes the table (different distributions) but the
        # accounting stays exact.
        assert small["gcc"].total == full["gcc"].total == 6_000
        assert small["gcc"].total_mispredicts == full["gcc"].total_mispredicts
        assert not np.array_equal(small["gcc"].counts, full["gcc"].counts)

    def test_saturating_bucket_count(self):
        stats = saturating_counter_statistics(CONFIG, maximum=4)
        for benchmark_stats in stats.values():
            assert benchmark_stats.num_buckets == 5

    def test_static_statistics_bucket_per_site(self):
        stats = static_branch_statistics(CONFIG)
        streams = suite_streams(CONFIG)
        for name, benchmark_stats in stats.items():
            assert benchmark_stats.num_buckets == np.unique(
                streams[name].pcs
            ).size

    def test_ones_init_width(self):
        assert ones_init(CONFIG) == (1 << CONFIG.cir_bits) - 1


class TestGcirIndexedStatistics:
    """Regression coverage for the concat-GCIR indexing bug.

    The GCIR feed used to be decided by sniffing ``"GCIR" in
    index_function.name``, which misses :class:`ConcatIndex`'s lowercase
    field names (``cat(gcir:8,...)``) — concat-indexed GCIR configurations
    silently ran on an all-zeros GCIR stream.  The decision now lives in
    :attr:`SweepSpec.feeds_gcir` / :attr:`GridObserver.needs_gcir`.  These
    tests pin the production statistics against the reference engine
    driven with the same index.
    """

    #: Small geometry so the reference engine stays fast; widths chosen
    #: so the engine registers (16-bit BHR/GCIR in ``simulate``) cover
    #: every bit the index functions consume.
    CONFIG = ExperimentConfig(
        benchmarks=("jpeg_play",),
        trace_length=4_000,
        predictor_entries=1 << 10,
        predictor_history_bits=10,
        ct_index_bits=8,
        cir_bits=6,
    )

    def _reference_counts(self, index_function):
        trace = load_benchmark("jpeg_play", self.CONFIG.trace_length, self.CONFIG.seed)
        estimator = OneLevelConfidence(
            index_function, cir_bits=self.CONFIG.cir_bits, initializer=init_ones
        )
        predictor = GsharePredictor(
            entries=self.CONFIG.predictor_entries,
            history_bits=self.CONFIG.predictor_history_bits,
        )
        result = simulate(trace, predictor, [estimator])
        return result.estimator_runs[estimator.name]

    def _fast_statistics(self, index_function):
        return one_level_pattern_statistics(
            self.CONFIG, index_function=index_function
        )["jpeg_play"]

    def test_concat_gcir_matches_reference_engine(self):
        index = ConcatIndex(8, fields=[("gcir", 4), ("pc", 4)])
        fast = self._fast_statistics(index)
        reference = self._reference_counts(index)
        np.testing.assert_array_equal(fast.counts, reference.counts.astype(float))
        np.testing.assert_array_equal(
            fast.mispredicts, reference.mispredicts.astype(float)
        )

    def test_gcir_alone_matches_reference_engine(self):
        index = GlobalCIRIndex(8)
        fast = self._fast_statistics(index)
        reference = self._reference_counts(index)
        np.testing.assert_array_equal(fast.counts, reference.counts.astype(float))

    def test_concat_gcir_differs_from_zero_gcir_stream(self):
        """The fixed path must not reproduce the buggy all-zeros behavior."""
        index = ConcatIndex(8, fields=[("gcir", 4), ("pc", 4)])
        fast = self._fast_statistics(index)
        streams = suite_streams(self.CONFIG)["jpeg_play"]
        zero_gcirs = np.zeros(streams.num_branches, dtype=np.int64)
        buggy_indices = index.vectorized(streams.pcs, streams.bhrs, zero_gcirs)
        from repro.sim.fast import cir_pattern_stream

        buggy_patterns = cir_pattern_stream(
            buggy_indices, streams.correct, self.CONFIG.cir_bits,
            ones_init(self.CONFIG),
        )
        buggy = BucketStatistics.from_streams(
            buggy_patterns, streams.correct, num_buckets=1 << self.CONFIG.cir_bits
        )
        assert not np.array_equal(fast.counts, buggy.counts)

    def test_maybe_gcirs_dispatch(self):
        concat = ConcatIndex(8, fields=[("gcir", 4), ("pc", 4)])
        width = self.CONFIG.cir_bits
        assert SweepSpec.pattern(concat, width).feeds_gcir
        assert not SweepSpec.pattern(PCIndex(8), width).feeds_gcir
        # A two-level level-1 index always reads a zero GCIR stream.
        assert not SweepSpec.two_level(concat, width).feeds_gcir
        observer = GridObserver([SweepSpec.pattern(concat, width)])
        assert observer.needs_gcir
        assert not GridObserver([SweepSpec.pattern(PCIndex(8), width)]).needs_gcir

        streams = suite_streams(self.CONFIG)["jpeg_play"]
        chunk = _monolithic_chunk(streams, observer.needs_gcir)
        assert chunk.gcirs is streams.gcirs
        assert chunk.gcirs.any()
        assert not _monolithic_chunk(streams, False).gcirs.any()
