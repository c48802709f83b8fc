"""Chunked streaming simulation core.

The monolithic fast path (:mod:`repro.sim.fast`) materializes the full
trace and every derived stream, so peak memory grows linearly with trace
length.  This module bounds peak memory by the *chunk* size instead:
traces are consumed as a generator of fixed-size chunks, all table state
(the gshare counter table and BHR, CIR tables, saturating-counter
tables) carries across chunk boundaries, and per-chunk bucket streams
fold into running statistics.  Because every mechanism in the paper is
causal — each access depends only on earlier accesses to the same entry
— cutting the stream at arbitrary boundaries and re-seeding the next
chunk with the carried state reproduces the monolithic streams *bit for
bit*; the golden-equivalence tests assert exactly that for chunk sizes
down to 1.

The chunk kernel is also where the last sequential Python loops die:

* **The gshare sweep is a table-state-carrying NumPy kernel.**  The BHR
  stream is a lagged-shift reconstruction of the outcome bits (the
  register shifts in the *resolved outcome*, so it never depends on the
  predictions), which makes the per-branch table index fully
  vectorizable.  The 2-bit counters are then a table of clamped ±1
  walks, evaluated by the clamp-affine scan of :mod:`repro.sim.kernels`.

Confidence tables consume the chunks through
:class:`repro.sim.batched.GridObserver`, which carries every table's
state across chunk boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from repro import observability
from repro.core.indexing import PC_ALIGNMENT_BITS
from repro.sim.kernels import lagged_shifts, segmented_clamped_walk
from repro.traces.trace import Trace
from repro.utils.bits import bit_mask
from repro.utils.validation import check_in_range, check_positive

#: Default chunk size of the streaming pipeline: large enough that the
#: per-chunk NumPy dispatch overhead is negligible, small enough that the
#: derived int64 streams stay a few MiB.
DEFAULT_CHUNK_SIZE = 65_536

#: 2-bit counter initial value matching the paper ("weakly taken").
_WEAKLY_TAKEN = 2

#: Widest shift register the int64 lagged-shift kernels support.
MAX_REGISTER_BITS = 62


def resolve_chunk_size(chunk_size: Optional[int], total: int) -> int:
    """The effective chunk size: ``None`` means one chunk (monolithic)."""
    if chunk_size is None:
        return max(total, 1)
    return check_positive(chunk_size, "chunk_size")


def iter_trace_chunks(trace: Trace, chunk_size: Optional[int]) -> Iterator[Trace]:
    """Yield ``trace`` as contiguous sub-trace views of ``chunk_size`` branches.

    Slices share the underlying arrays (NumPy views), so iterating a
    materialized trace adds no per-chunk copies.
    """
    step = resolve_chunk_size(chunk_size, len(trace))
    for start in range(0, len(trace), step):
        yield trace.slice(start, min(start + step, len(trace)))


# --------------------------------------------------------------------------
# Shift-register streams with carry (BHR / global CIR across chunks)
# --------------------------------------------------------------------------


def lagged_register_stream(bits: np.ndarray, carry: int, width: int) -> np.ndarray:
    """Pre-position values of a ``width``-bit shift register fed by ``bits``.

    Position ``t`` sees the register *before* ``bits[t]`` shifts in:
    bit ``j`` is ``bits[t - 1 - j]``, falling back to ``carry`` (the
    register value entering this chunk) for positions near the start.
    """
    check_in_range(width, 0, MAX_REGISTER_BITS, "width")
    bits = np.asarray(bits, dtype=np.int64)
    m = bits.shape[0]
    if width == 0 or m == 0:
        return np.zeros(m, dtype=np.int64)
    values = lagged_shifts(bits, width)
    mask = bit_mask(width)
    carry = int(carry) & mask
    for t in range(min(m, width)):
        values[t] = int(values[t]) | ((carry << t) & mask)
    return values


def register_carry_out(bits: np.ndarray, carry: int, width: int) -> int:
    """The register value after all of ``bits`` shifted in (next chunk's carry)."""
    check_in_range(width, 0, MAX_REGISTER_BITS, "width")
    if width == 0:
        return 0
    bits = np.asarray(bits, dtype=np.int64)
    m = bits.shape[0]
    mask = bit_mask(width)
    packed = 0
    for j in range(min(m, width)):
        packed |= int(bits[m - 1 - j]) << j
    if m >= width:
        return packed & mask
    return ((int(carry) << m) | packed) & mask


# --------------------------------------------------------------------------
# The chunked gshare sweep
# --------------------------------------------------------------------------


@dataclass
class GshareState:
    """Predictor state carried across chunk boundaries."""

    #: 2-bit counter table (int64 values 0..3, one per entry).
    table: np.ndarray
    #: Global BHR, masked to ``state_bits``.
    bhr: int = 0
    #: Global CIR of predictor-incorrect bits, masked to ``gcir_bits``.
    gcir: int = 0
    #: Dynamic branches consumed so far (next chunk's start offset).
    position: int = 0

    @classmethod
    def fresh(cls, entries: int) -> "GshareState":
        """The paper's initial state: every counter weakly taken."""
        index_mask = entries - 1
        if entries & index_mask or entries <= 0:
            raise ValueError(f"entries must be a power of two, got {entries}")
        return cls(table=np.full(entries, _WEAKLY_TAKEN, dtype=np.int64))

    def copy(self) -> "GshareState":
        return GshareState(
            table=self.table.copy(),
            bhr=self.bhr,
            gcir=self.gcir,
            position=self.position,
        )


@dataclass(frozen=True)
class StreamChunk:
    """Per-branch predictor output streams of one chunk."""

    trace_name: str
    #: Dynamic-branch offset of this chunk within the full stream.
    start: int
    #: Correctness per branch (uint8; 1 = predicted correctly).
    correct: np.ndarray
    #: Pre-branch BHR per branch (int64, masked to the record width).
    bhrs: np.ndarray
    #: Branch PCs (int64).
    pcs: np.ndarray
    #: Pre-branch global CIR per branch (int64).
    gcirs: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    @property
    def num_branches(self) -> int:
        return int(self.correct.shape[0])


def sweep_chunk(
    pcs: np.ndarray,
    outcomes: np.ndarray,
    state: GshareState,
    history_bits: int = 16,
    bhr_record_bits: int = 16,
    gcir_bits: int = 16,
    trace_name: str = "",
) -> StreamChunk:
    """Run the vectorized gshare kernel over one chunk, advancing ``state``.

    Semantically identical to the reference engine's sequential sweep:
    prediction and training use the same pre-branch BHR, the table
    updates are saturating 2-bit counters, and the BHR shifts in the
    resolved outcome.  ``state`` is mutated in place (table, BHR, global
    CIR, position), so consecutive calls continue the same stream.
    """
    entries = state.table.shape[0]
    index_mask = entries - 1
    history_mask = bit_mask(history_bits)
    record_mask = bit_mask(bhr_record_bits)
    state_bits = max(history_bits, bhr_record_bits)
    check_in_range(state_bits, 0, MAX_REGISTER_BITS, "history/record bits")

    outcomes_arr = np.asarray(outcomes, dtype=np.int64)
    pcs_arr = np.asarray(pcs).astype(np.int64)

    bhr_values = lagged_register_stream(outcomes_arr, state.bhr, state_bits)
    indices = (
        (pcs_arr >> PC_ALIGNMENT_BITS) ^ (bhr_values & history_mask)
    ) & index_mask
    deltas = np.where(outcomes_arr == 1, 1, -1)
    counters, state.table = segmented_clamped_walk(
        indices, deltas, 0, 3, state.table
    )
    correct = ((counters >> 1) == outcomes_arr).astype(np.uint8)

    incorrect = (correct == 0).astype(np.int64)
    gcir_values = lagged_register_stream(incorrect, state.gcir, gcir_bits)

    chunk = StreamChunk(
        trace_name=trace_name,
        start=state.position,
        correct=correct,
        bhrs=bhr_values & record_mask,
        pcs=pcs_arr,
        gcirs=gcir_values,
    )
    state.bhr = register_carry_out(outcomes_arr, state.bhr, state_bits)
    state.gcir = register_carry_out(incorrect, state.gcir, gcir_bits)
    state.position += int(outcomes_arr.shape[0])
    return chunk


def sweep_stream_chunks(
    chunks: Iterable[Trace],
    entries: int = 1 << 16,
    history_bits: int = 16,
    bhr_record_bits: int = 16,
    gcir_bits: int = 16,
    state: Optional[GshareState] = None,
) -> Iterator[StreamChunk]:
    """Generator pipeline: trace chunks in, predictor stream chunks out.

    Accepts any iterable of :class:`~repro.traces.trace.Trace` chunks —
    views of a materialized trace (:func:`iter_trace_chunks`) or a true
    streaming source that generates each chunk on demand — so peak
    memory is bounded by the chunk size regardless of stream length.
    Per-chunk wall time, chunk counts, and peak RSS are recorded through
    :mod:`repro.observability`.
    """
    if state is None:
        state = GshareState.fresh(entries)
    for chunk_trace in chunks:
        with observability.timed("chunked.sweep_seconds"):
            chunk = sweep_chunk(
                chunk_trace.pcs,
                chunk_trace.outcomes,
                state,
                history_bits=history_bits,
                bhr_record_bits=bhr_record_bits,
                gcir_bits=gcir_bits,
                trace_name=chunk_trace.name,
            )
        observability.increment("chunked.chunks")
        observability.record_peak_rss()
        yield chunk


def sweep_streams(
    trace: Trace,
    entries: int = 1 << 16,
    history_bits: int = 16,
    bhr_record_bits: int = 16,
    gcir_bits: int = 16,
    chunk_size: Optional[int] = None,
):
    """Full-trace sweep via the chunk kernel; returns ``PredictorStreams``.

    This is the engine behind :func:`repro.sim.fast.predictor_streams`:
    identical output to the historical sequential loop, produced by the
    vectorized kernel (one chunk per ``chunk_size`` branches).
    """
    from repro.sim.fast import PredictorStreams

    correct_parts = []
    bhr_parts = []
    for chunk in sweep_stream_chunks(
        iter_trace_chunks(trace, chunk_size),
        entries=entries,
        history_bits=history_bits,
        bhr_record_bits=bhr_record_bits,
        gcir_bits=gcir_bits,
    ):
        correct_parts.append(chunk.correct)
        bhr_parts.append(chunk.bhrs)
    if correct_parts:
        correct = np.concatenate(correct_parts)
        bhrs = np.concatenate(bhr_parts)
    else:
        correct = np.zeros(0, dtype=np.uint8)
        bhrs = np.zeros(0, dtype=np.int64)
    return PredictorStreams(
        trace_name=trace.name,
        correct=correct,
        bhrs=bhrs,
        pcs=trace.pcs.astype(np.int64),
        gcir_bits=gcir_bits,
    )


def num_chunks(total: int, chunk_size: Optional[int]) -> int:
    """How many chunks a ``total``-branch stream splits into."""
    step = resolve_chunk_size(chunk_size, total)
    return max(1, math.ceil(total / step)) if total else 1
