"""The fast simulation path for full-scale experiments.

Two observations make the paper's experiments cheap without changing any
semantics:

1. **The predictor decouples from the confidence mechanisms.**  Every
   confidence estimator consumes only the streams ``(pc, bhr, correct)``;
   none of them feeds back into the predictor.  So the predictor runs
   once per (trace, configuration) — :func:`predictor_streams`, a tight
   sequential loop — and its output streams are reused by every
   confidence experiment (see :mod:`repro.sim.cache`).

2. **CIR tables are linear shift registers.**  The pattern an access
   reads is fully determined by the previous accesses to the same entry,
   so one stable argsort by entry turns per-access pattern
   reconstruction into vectorized lagged shifts.  The per-access
   functions here are single-stream views of the grid grouping in
   :mod:`repro.sim.kernels` that :class:`repro.sim.batched.GridObserver`
   runs over whole experiment grids: one pass yields both the patterns
   each access read and the table after the stream.

Resetting counters are a pure function of the (wide-enough) CIR, so they
ride the same pass; saturating counters are a segmented clamp-affine scan
(:func:`saturating_counter_stream`).  Two-level tables cascade two
grouped passes (:func:`two_level_pattern_stream`).

These per-access streams feed the application models and the
context-switch ablation, and serve as the golden reference of the grid
kernel.  Exact equivalence with :mod:`repro.sim.engine` is asserted by
the test suite, including under hypothesis-generated random traces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.core.indexing import PC_ALIGNMENT_BITS, make_index
from repro.sim.kernels import (
    flatten_and_group,
    lagged_shifts,
    resetting_counts,
    segmented_clamped_walk,
)
from repro.traces.trace import Trace
from repro.utils.bits import bit_mask
from repro.utils.validation import check_in_range, check_positive


@dataclass(frozen=True)
class PredictorStreams:
    """Per-branch output streams of one predictor sweep."""

    trace_name: str
    #: Correctness per dynamic branch (uint8; 1 = predicted correctly).
    correct: np.ndarray
    #: Global BHR value seen by each branch (pre-branch), int64.
    bhrs: np.ndarray
    #: Branch PCs (int64 copy of the trace's, for index computation).
    pcs: np.ndarray
    #: Width of the derived global-CIR stream (see :attr:`gcirs`).
    gcir_bits: int = 16

    @property
    def num_branches(self) -> int:
        return int(self.correct.shape[0])

    @property
    def num_mispredicts(self) -> int:
        return int(self.num_branches - self.correct.sum())

    @property
    def misprediction_rate(self) -> float:
        if self.num_branches == 0:
            return 0.0
        return self.num_mispredicts / self.num_branches

    @functools.cached_property
    def gcirs(self) -> np.ndarray:
        """Global-CIR value seen by each branch (derived lazily, then cached).

        The global CIR is the ``gcir_bits``-wide shift register of
        incorrect bits; its pre-branch value for branch t is built from
        branches t-1, t-2, ... — i.e. bit j is the incorrect bit of
        branch ``t - 1 - j``, which makes the whole stream a stack of
        lagged shifts rather than a sequential scan.
        """
        return lagged_shifts((self.correct == 0).astype(np.int64), self.gcir_bits)


def predictor_streams(
    trace: Trace,
    entries: int = 1 << 16,
    history_bits: int = 16,
    bhr_record_bits: int = 16,
    gcir_bits: int = 16,
    chunk_size: Optional[int] = None,
) -> PredictorStreams:
    """Run a gshare predictor over ``trace`` and return its streams.

    Semantically identical to driving
    :class:`repro.predictors.gshare.GsharePredictor` through the reference
    engine: the table starts weakly-taken, prediction and training use the
    same pre-branch BHR, and the BHR shifts in the resolved outcome.
    The sweep runs on the vectorized table-state-carrying kernel of
    :mod:`repro.sim.chunked`; ``chunk_size`` bounds the kernel's working
    set (``None`` sweeps the trace as one chunk) and never changes the
    output.

    ``bhr_record_bits`` controls the width of the *recorded* BHR stream
    (confidence tables may use more history bits than the predictor);
    ``gcir_bits`` the width of the lazily derived global-CIR stream.
    """
    index_mask = entries - 1
    if entries & index_mask:
        raise ValueError(f"entries must be a power of two, got {entries}")
    from repro.sim.chunked import sweep_streams

    return sweep_streams(
        trace,
        entries=entries,
        history_bits=history_bits,
        bhr_record_bits=bhr_record_bits,
        gcir_bits=gcir_bits,
        chunk_size=chunk_size,
    )


InitPatterns = Union[int, np.ndarray]


def _initial_table(init_patterns: InitPatterns, entries: int) -> np.ndarray:
    """A fresh per-entry pattern table (an array init is copied as is)."""
    if isinstance(init_patterns, np.ndarray):
        return init_patterns.astype(np.int64)
    return np.full(entries, int(init_patterns), dtype=np.int64)


def _cir_pass(
    indices: np.ndarray, correct: np.ndarray, cir_bits: int, table: np.ndarray
) -> np.ndarray:
    """One grouped pass over a single stream: the grid grouping of one.

    Returns the pattern each access read, in time order, and advances
    ``table`` in place to the per-entry patterns after the stream.
    """
    indices = np.asarray(indices, dtype=np.int64)
    correct_arr = np.asarray(correct)
    if indices.shape != correct_arr.shape:
        raise ValueError("indices and correct must have equal length")
    incorrect = (correct_arr == 0).astype(np.int64)
    grouped = flatten_and_group([indices], [table.shape[0]], incorrect, cir_bits)
    patterns = np.empty(indices.shape[0], dtype=np.int64)
    patterns[grouped.order] = grouped.pattern_segment(0, cir_bits, table)
    return patterns


def cir_pattern_stream(
    indices: np.ndarray,
    correct: np.ndarray,
    cir_bits: int,
    init_patterns: InitPatterns = 0,
) -> np.ndarray:
    """Per-access pre-update CIR patterns of a table of shift registers.

    Parameters
    ----------
    indices:
        Table entry accessed by each dynamic branch (int array).
    correct:
        Per-branch correctness (1 = correct); entry shifts in ``1 - correct``.
    cir_bits:
        Register width n.
    init_patterns:
        Either a scalar initial pattern applied to every entry, or an
        array indexed by entry number (e.g. a random initialization).

    Returns
    -------
    int64 array: the pattern each access *read* (before its own update).
    """
    check_in_range(cir_bits, 1, 30, "cir_bits")
    indices = np.asarray(indices, dtype=np.int64)
    entries = int(indices.max(initial=-1)) + 1
    return _cir_pass(indices, correct, cir_bits, _initial_table(init_patterns, entries))


def two_level_pattern_stream(
    level1_indices: np.ndarray,
    correct: np.ndarray,
    pcs: np.ndarray,
    bhrs: np.ndarray,
    level1_cir_bits: int = 16,
    level2_cir_bits: int = 16,
    second_use_pc: bool = False,
    second_use_bhr: bool = False,
    level1_init: InitPatterns = 0,
    level2_init: InitPatterns = 0,
) -> np.ndarray:
    """Per-access second-level CIR patterns of a two-level mechanism.

    Cascades two grouped scans: the first reconstructs the level-1 CIR
    each access reads; that CIR (optionally XORed with PC and BHR) is the
    level-2 index for both lookup and update, exactly as in
    :class:`repro.core.two_level.TwoLevelConfidence`.
    """
    cir1 = cir_pattern_stream(level1_indices, correct, level1_cir_bits, level1_init)
    level2_indices = cir1.copy()
    if second_use_pc:
        level2_indices ^= np.asarray(pcs, dtype=np.int64) >> PC_ALIGNMENT_BITS
    if second_use_bhr:
        level2_indices ^= np.asarray(bhrs, dtype=np.int64)
    level2_indices &= bit_mask(level1_cir_bits)
    return cir_pattern_stream(level2_indices, correct, level2_cir_bits, level2_init)


def resetting_counter_stream(
    indices: np.ndarray,
    correct: np.ndarray,
    maximum: int = 16,
    initial: int = 0,
) -> np.ndarray:
    """Per-access pre-update values of a table of resetting counters.

    Uses the CIR equivalence: a resetting counter equals the index of the
    lowest set bit of a ``maximum``-bit CIR (saturating when the CIR is
    all zeros).  An initial counter value ``c`` corresponds to the initial
    pattern ``(all-ones << c)``.
    """
    check_in_range(maximum, 1, 30, "maximum")
    check_in_range(initial, 0, maximum, "initial")
    mask = bit_mask(maximum)
    init_pattern = (mask << initial) & mask
    patterns = cir_pattern_stream(indices, correct, maximum, init_pattern)
    return resetting_counts(patterns, maximum)


def pc_xor_bhr_indices(streams: PredictorStreams, index_bits: int) -> np.ndarray:
    """Entry of the paper's PC xor BHR confidence table each branch reads."""
    index = make_index("pc_xor_bhr", index_bits)
    return index.vectorized(streams.pcs, streams.bhrs, np.zeros_like(streams.pcs))


def pc_xor_bhr_counters(
    streams: PredictorStreams, index_bits: int, maximum: int = 16
) -> np.ndarray:
    """Pre-update values of a PC xor BHR table of resetting counters over
    one sweep's streams (the paper's recommended confidence table)."""
    return resetting_counter_stream(
        pc_xor_bhr_indices(streams, index_bits), streams.correct, maximum=maximum
    )


def final_cir_patterns(
    indices: np.ndarray,
    correct: np.ndarray,
    cir_bits: int,
    init_patterns: InitPatterns,
    table_entries: int,
) -> np.ndarray:
    """Per-entry CIR patterns *after* all accesses in the stream.

    Returns an array of ``table_entries`` patterns: entries never accessed
    keep their initial pattern; accessed entries hold the pattern after
    their final update.  Used to carry CT state across simulated context
    switches.
    """
    check_in_range(cir_bits, 1, 30, "cir_bits")
    finals = _initial_table(init_patterns, table_entries)
    if finals.shape != (table_entries,):
        raise ValueError(
            f"init_patterns must cover {table_entries} entries, "
            f"got shape {finals.shape}"
        )
    _cir_pass(indices, correct, cir_bits, finals)
    return finals


def cir_pattern_stream_with_flushes(
    indices: np.ndarray,
    correct: np.ndarray,
    cir_bits: int,
    table_entries: int,
    flush_interval: int,
    policy: str,
    base_init: InitPatterns = 0,
) -> np.ndarray:
    """CIR pattern stream under periodic context switches.

    Every ``flush_interval`` dynamic branches the CT is "context switched"
    according to ``policy``:

    * ``reinit`` — reset every entry to ``base_init`` (modelling a full
      flush back to the configured initialization);
    * ``keep`` — leave the table untouched (the paper's unstudied
      alternative);
    * ``keep_lastbit`` — keep entry values but set the oldest bit of every
      CIR (the paper's Section 5.4 conjecture: "leave the CIRs at their
      current values ... except the oldest bit which should be
      initialized at 1").
    """
    if policy not in ("reinit", "keep", "keep_lastbit"):
        raise ValueError(f"unknown flush policy {policy!r}")
    # A non-positive interval would make the segment loop below produce an
    # empty (or never-terminating) stream; reject it up front.
    check_positive(flush_interval, "flush_interval")
    check_in_range(cir_bits, 1, 30, "cir_bits")
    indices = np.asarray(indices, dtype=np.int64)
    correct_arr = np.asarray(correct)
    n = indices.shape[0]
    oldest_bit = 1 << (cir_bits - 1)

    patterns = np.empty(n, dtype=np.int64)
    table = _initial_table(base_init, table_entries)
    for start in range(0, n, flush_interval):
        stop = min(start + flush_interval, n)
        if policy == "reinit" and start:
            table = _initial_table(base_init, table_entries)
        # One pass per segment: the patterns read and the table carried on.
        patterns[start:stop] = _cir_pass(
            indices[start:stop], correct_arr[start:stop], cir_bits, table
        )
        if policy == "keep_lastbit":
            table |= oldest_bit
    return patterns


def saturating_counter_stream(
    indices: np.ndarray,
    correct: np.ndarray,
    maximum: int = 16,
    initial: int = 0,
    table_entries: Optional[int] = None,
) -> np.ndarray:
    """Per-access pre-update values of a table of saturating counters.

    Saturation is a non-linear recurrence, but the per-step update is a
    clamp-affine function, so the whole table evaluates as one segmented
    clamped-walk scan (:func:`repro.sim.kernels.segmented_clamped_walk`)
    instead of a sequential Python loop.
    """
    check_positive(maximum, "maximum")
    check_in_range(initial, 0, maximum, "initial")
    indices = np.asarray(indices, dtype=np.int64)
    correct_arr = np.asarray(correct)
    n = indices.shape[0]
    if table_entries is None:
        table_entries = int(indices.max(initial=0)) + 1 if n else 1
    deltas = np.where(correct_arr != 0, 1, -1)
    init_values = np.full(table_entries, initial, dtype=np.int64)
    values, _ = segmented_clamped_walk(indices, deltas, 0, maximum, init_values)
    return values
