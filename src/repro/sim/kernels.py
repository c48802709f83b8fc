"""Grouped-scan kernels shared by every confidence-table path.

Every table in the paper — CIR tables, resetting and saturating counters,
gshare's 2-bit counters — is a set of entries that evolve independently:
an access reads its entry, then updates it.  A stable argsort by entry
puts each entry's accesses contiguously, in time order, so the whole
table evaluates as vectorized scans over the sorted stream:

* **CIR shift registers.**  After ``r`` updates with incorrect-bits
  ``b_1 .. b_r`` (newest last) an entry holds
  ``((P0 << r) | b_r ... b_1) & mask``.  A lagged-shift reconstruction of
  the sorted incorrect bits, cut at each position's in-group rank, gives
  every pattern at once (:func:`flatten_and_group`,
  :meth:`FlatGroups.pattern_segment`).
* **Saturating counters.**  The step ``x -> min(hi, max(lo, x + d))`` is
  a *clamp-affine* function ``x -> min(U, max(L, x + s))``, and those are
  closed under composition::

      (later ∘ earlier): s = s1 + s2
                         L = max(l2, l1 + s2)
                         U = min(u2, max(l2, u1 + s2))

  so the per-entry prefix compositions are a segmented Hillis-Steele
  scan (:func:`stacked_clamped_walk`), ``O(n log n)`` vectorized work.
* **Resetting counters** are the lowest-set-bit index of a wide-enough
  CIR (:func:`resetting_counts`).

:mod:`repro.sim.batched` runs these over a whole configuration grid,
:mod:`repro.sim.fast` over one stream, and :mod:`repro.sim.chunked`
drives the gshare sweep with :func:`segmented_clamped_walk`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple, Union

import numpy as np

from repro.utils.bits import bit_mask
from repro.utils.validation import check_in_range

#: Sentinel clamp bounds representing "no clamp yet" (identity function).
_NO_CLAMP = 1 << 40


def group_ranks(sorted_indices: np.ndarray) -> np.ndarray:
    """Rank of each sorted position within its (contiguous) index group."""
    n = sorted_indices.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    is_start = np.concatenate(([True], sorted_indices[1:] != sorted_indices[:-1]))
    group_starts = np.flatnonzero(is_start)
    group_sizes = np.diff(np.concatenate((group_starts, [n])))
    start_of_position = np.repeat(group_starts, group_sizes)
    return np.arange(n, dtype=np.int64) - start_of_position


def lagged_shifts(bits: np.ndarray, width: int) -> np.ndarray:
    """``width``-bit shift-register values fed by ``bits``, no group bounds.

    Bit ``j`` of position ``t`` is ``bits[t - 1 - j]`` (zero before the
    stream starts): the register each position sees before its own bit
    shifts in.  ``bits`` must be int64.
    """
    n = bits.shape[0]
    values = np.zeros(n, dtype=np.int64)
    for j in range(min(width, n - 1)):
        values[j + 1 :] |= bits[: n - j - 1] << j
    return values


@dataclass
class FlatGroups:
    """Sorted flattened layout of several index streams over one chunk.

    Stream ``u`` of ``n`` accesses occupies flat positions
    ``[u*n, (u+1)*n)`` before sorting; after the stable argsort its
    accesses occupy the *sorted* slice ``[u*n, (u+1)*n)`` as well,
    because the per-stream entry offsets are disjoint and cumulative.
    Within that slice, time order and group ranks are exactly those of a
    per-stream sort.
    """

    n: int
    offsets: np.ndarray
    order: np.ndarray
    sorted_flat: np.ndarray
    ranks: np.ndarray
    is_last: np.ndarray
    incorrect_sorted: np.ndarray
    history: np.ndarray
    history_width: int

    def segment(self, stream: int) -> slice:
        """Sorted-domain slice holding stream ``stream``'s accesses."""
        return slice(stream * self.n, (stream + 1) * self.n)

    def pattern_segment(
        self, stream: int, width: int, table: np.ndarray
    ) -> np.ndarray:
        """Pre-update ``width``-bit patterns of one stream, sorted order.

        Reads the shared history through ``bit_mask(width)`` and applies
        the per-entry initial patterns carried in ``table``; ``table`` is
        advanced in place to the post-chunk state (the last access of
        each entry publishes its post-update pattern).
        """
        check_in_range(width, 1, self.history_width, "width")
        sl = self.segment(stream)
        entries = self.sorted_flat[sl] - self.offsets[stream]
        ranks = self.ranks[sl]
        incorrect = self.incorrect_sorted[sl]
        mask = np.int64(bit_mask(width))
        init_sorted = table[entries]
        patterns = ((init_sorted << np.minimum(ranks, width)) & mask) | (
            self.history[sl] & mask
        )
        post = ((patterns << np.int64(1)) | incorrect) & mask
        last = self.is_last[sl]
        table[entries[last]] = post[last]
        return patterns

    def time_positions(self, stream: int) -> np.ndarray:
        """Original time index of each sorted position of one stream."""
        return self.order[self.segment(stream)] - np.int64(stream * self.n)


def flatten_and_group(
    index_streams: Sequence[np.ndarray],
    entry_counts: Sequence[int],
    incorrect: np.ndarray,
    history_width: int,
) -> FlatGroups:
    """One stable argsort + shared history over several index streams.

    ``history_width`` is the widest shift register any consumer needs
    (0 skips the reconstruction entirely, e.g. a saturating-only grid).
    The history is rebuilt without group bounds, then cut once: bit
    ``j`` belongs to a position's own entry exactly when its in-group
    rank exceeds ``j``, so masking with ``(1 << min(rank, W)) - 1``
    drops every bit that leaked in from the previous group.
    """
    n = int(incorrect.shape[0])
    streams = len(index_streams)
    offsets = np.zeros(streams, dtype=np.int64)
    if streams > 1:
        offsets[1:] = np.cumsum(
            np.asarray(entry_counts[:-1], dtype=np.int64)
        )
    flat = np.empty(streams * n, dtype=np.int64)
    for u, indices in enumerate(index_streams):
        flat[u * n : (u + 1) * n] = indices + offsets[u]
    order = np.argsort(flat, kind="stable")
    sorted_flat = flat[order]
    ranks = group_ranks(sorted_flat)
    total = sorted_flat.shape[0]
    is_last = np.empty(total, dtype=bool)
    if total:
        is_last[:-1] = sorted_flat[1:] != sorted_flat[:-1]
        is_last[-1] = True
    incorrect_tiled = np.tile(np.asarray(incorrect, dtype=np.int64), streams)
    incorrect_sorted = incorrect_tiled[order]
    history = lagged_shifts(incorrect_sorted, history_width)
    if history_width:
        history &= (np.int64(1) << np.minimum(ranks, history_width)) - 1
    return FlatGroups(
        n=n,
        offsets=offsets,
        order=order,
        sorted_flat=sorted_flat,
        ranks=ranks,
        is_last=is_last,
        incorrect_sorted=incorrect_sorted,
        history=history,
        history_width=history_width,
    )


def stacked_clamped_walk(
    ranks: np.ndarray,
    deltas: np.ndarray,
    lo: int,
    upper_bounds: Union[int, np.ndarray],
    init_sorted: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Segmented clamped walk over already-grouped sorted segments.

    Inputs may concatenate several configurations' sorted segments, with
    a per-position clamp upper bound (each configuration contributes its
    own counter maximum).  The clamp-affine composition is element-wise,
    so windows never leak across groups: rank-0 positions seed the
    identity and the ``ranks >= offset`` guard masks every cross-group
    gather.

    Returns ``(pre, post)`` in the same sorted order: the value each
    access read, and the value it wrote.
    """
    total = ranks.shape[0]
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    # Exclusive prefix composition per group: position of rank r carries
    # the composition of the steps of ranks 0..r-1.  Seed each position
    # with its *predecessor's* step (rank 0 gets the identity), then run
    # an inclusive segmented scan.
    shift = np.where(
        ranks > 0,
        np.concatenate((np.zeros(1, dtype=np.int64), deltas[:-1])),
        0,
    )
    lower = np.where(ranks > 0, np.int64(lo), -_NO_CLAMP)
    upper = np.where(ranks > 0, upper_bounds, _NO_CLAMP)

    max_rank = int(ranks.max())
    offset = 1
    while offset <= max_rank:
        in_group = ranks >= offset
        earlier_shift = np.empty_like(shift)
        earlier_lower = np.empty_like(lower)
        earlier_upper = np.empty_like(upper)
        earlier_shift[offset:] = shift[:-offset]
        earlier_lower[offset:] = lower[:-offset]
        earlier_upper[offset:] = upper[:-offset]
        earlier_shift[:offset] = 0
        earlier_lower[:offset] = -_NO_CLAMP
        earlier_upper[:offset] = _NO_CLAMP
        # Compose (this ∘ earlier): the earlier window applies first.
        composed_shift = earlier_shift + shift
        composed_lower = np.maximum(lower, earlier_lower + shift)
        composed_upper = np.minimum(upper, np.maximum(lower, earlier_upper + shift))
        shift = np.where(in_group, composed_shift, shift)
        lower = np.where(in_group, composed_lower, lower)
        upper = np.where(in_group, composed_upper, upper)
        offset <<= 1

    pre = np.minimum(upper, np.maximum(lower, init_sorted + shift))
    post = np.minimum(upper_bounds, np.maximum(np.int64(lo), pre + deltas))
    return pre, post


def segmented_clamped_walk(
    indices: np.ndarray,
    deltas: np.ndarray,
    lo: int,
    hi: int,
    init_values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized table of clamped walks ``x -> min(hi, max(lo, x + d))``.

    Parameters
    ----------
    indices:
        Table entry accessed by each position.
    deltas:
        Per-position step (any integers, typically ±1).
    lo, hi:
        Clamp bounds of every entry.
    init_values:
        Per-entry starting values (one per table entry).

    Returns
    -------
    ``(pre_values, final_values)``: the value each access *read* (before
    its own update), and a fresh copy of the table after all updates —
    the carry for the next chunk.
    """
    indices = np.asarray(indices, dtype=np.int64)
    deltas = np.asarray(deltas, dtype=np.int64)
    if indices.shape != deltas.shape:
        raise ValueError("indices and deltas must have equal length")
    n = indices.shape[0]
    finals = np.asarray(init_values, dtype=np.int64).copy()
    if n == 0:
        return np.zeros(0, dtype=np.int64), finals

    order = np.argsort(indices, kind="stable")
    sorted_indices = indices[order]
    pre_sorted, post_sorted = stacked_clamped_walk(
        group_ranks(sorted_indices), deltas[order], lo, hi, finals[sorted_indices]
    )
    pre_values = np.empty(n, dtype=np.int64)
    pre_values[order] = pre_sorted
    # Later positions overwrite earlier ones, so the last access wins.
    finals[sorted_indices] = post_sorted
    return pre_values, finals


def resetting_counts(patterns: np.ndarray, maximum: int) -> np.ndarray:
    """Resetting-counter values of CIR patterns (lowest-set-bit index).

    A resetting counter equals the index of the lowest set bit of a
    ``maximum``-bit CIR, saturating at ``maximum`` when the CIR is all
    zeros.
    """
    lowest = patterns & -patterns
    return np.where(
        patterns == 0,
        maximum,
        np.log2(np.maximum(lowest, 1)).astype(np.int64),
    ).astype(np.int64)
