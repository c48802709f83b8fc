"""Multi-thread (SMT) fetch arbitration with confidence gating.

N threads share one fetch port.  Each thread is one branch stream: its
PCs, whether each prediction was correct, and (optionally) whether each
branch was flagged low-confidence — the per-branch arrays the engine's
cached streams provide, so only the arbitration recurrence below runs
branch by branch.  The arbiter grants the port block-by-block to the
ready thread that has been waiting longest (round-robin by readiness
time).

Thread semantics per grant:

* fetching a block occupies the port for ``block / fetch_width`` cycles;
* a branch resolves ``resolve_latency`` cycles after its block's fetch;
* **ungated**: threads keep fetching speculatively past unresolved
  branches; blocks fetched after a branch that later resolves
  mispredicted are wrong-path — they occupy the port and are squashed,
  and the thread refetches them after the resolution;
* **gated**: after fetching a branch flagged low-confidence, a
  thread removes itself from arbitration until that branch resolves.
  Covered mispredictions waste no port time; the price is the lost
  overlap when a gated branch was in fact predicted correctly — which
  other threads absorb, exactly the paper's application 2 argument.

The model answers the throughput question: how many useful instructions
per port-cycle does each policy sustain over the same work?
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence

from numpy.typing import ArrayLike

from repro.pipeline.machine import FrontendConfig, branch_lists


@dataclass(frozen=True)
class SMTConfig:
    """Shared-port geometry (reuses the frontend block/latency model)."""

    frontend: FrontendConfig = FrontendConfig()
    #: Gate fetch behind branches flagged in the threads' ``low`` arrays.
    gate_on_low_confidence: bool = False


@dataclass(frozen=True)
class SMTReport:
    """Throughput outcome of one arbitration run."""

    total_cycles: float
    useful_instructions: int
    squashed_slots: float
    per_thread_cycles: List[float]
    gated_stalls: int

    @property
    def throughput(self) -> float:
        """Useful instructions per port-cycle."""
        if self.total_cycles == 0:
            return 0.0
        return self.useful_instructions / self.total_cycles

    @property
    def waste_fraction(self) -> float:
        total = self.useful_instructions + self.squashed_slots
        return self.squashed_slots / total if total else 0.0


class _Thread:
    """Arbitration state of one hardware thread."""

    __slots__ = ("blocks", "correct", "low", "position", "barrier", "finish_time")

    def __init__(
        self, blocks: List[int], correct: List[bool], low: List[bool]
    ) -> None:
        self.blocks = blocks
        self.correct = correct
        self.low = low
        self.position = 0
        #: Resolution time of the oldest unresolved *mispredicted* branch;
        #: blocks fetched before it are wrong-path.
        self.barrier: Optional[float] = None
        self.finish_time = 0.0


def simulate_smt(
    pcs: Sequence[ArrayLike],
    correct: Sequence[ArrayLike],
    low: Optional[Sequence[ArrayLike]] = None,
    config: SMTConfig = SMTConfig(),
) -> SMTReport:
    """Run the shared-fetch-port arbitration to completion.

    Thread ``t`` fetches the branches ``pcs[t]``; ``correct[t]`` and
    ``low[t]`` are its per-branch correctness and low-confidence flags.
    """
    if len(correct) != len(pcs):
        raise ValueError("need one correct array per thread")
    if low is not None and len(low) != len(pcs):
        raise ValueError("need one low array per thread")
    if config.gate_on_low_confidence and low is None:
        raise ValueError("gating requires low-confidence signals")
    if not pcs:
        raise ValueError("need at least one thread")

    frontend = config.frontend
    width = float(frontend.fetch_width)
    resolve_latency = float(frontend.resolve_latency)
    gate_on_low = config.gate_on_low_confidence

    threads: List[_Thread] = []
    for index in range(len(pcs)):
        try:
            lists = branch_lists(
                frontend, pcs[index], correct[index],
                None if low is None else low[index],
            )
        except ValueError as error:
            raise ValueError(f"thread {index}: {error}") from None
        threads.append(_Thread(*lists))

    port_free = 0.0
    useful = 0
    squashed = 0.0
    gated_stalls = 0

    # Round-robin by readiness: the ready thread that has waited longest
    # (smallest ready time, then lowest index) wins the port.  The heap
    # holds one (ready time, index) entry per unfinished thread.
    ready = [(0.0, index) for index, thread in enumerate(threads) if thread.blocks]
    while ready:
        ready_at, index = ready[0]
        thread = threads[index]
        start = ready_at if ready_at > port_free else port_free
        position = thread.position
        block = thread.blocks[position]
        port_free = start + block / width

        if thread.barrier is not None and start < thread.barrier:
            # Wrong-path fetch: burns the port, retires nothing, and the
            # thread stays on the same architectural branch.
            squashed += block
            heapq.heapreplace(ready, (port_free, index))
            continue
        thread.barrier = None

        resolve_at = port_free + resolve_latency
        useful += block
        thread.position = position + 1
        if thread.position == len(thread.blocks):
            thread.finish_time = resolve_at
            heapq.heappop(ready)
        elif gate_on_low and thread.low[position]:
            gated_stalls += 1
            heapq.heapreplace(ready, (resolve_at, index))
        else:
            heapq.heapreplace(ready, (port_free, index))
            if not thread.correct[position]:
                thread.barrier = resolve_at

    total_cycles = max(
        [port_free] + [thread.finish_time for thread in threads]
    )
    return SMTReport(
        total_cycles=total_cycles,
        useful_instructions=useful,
        squashed_slots=squashed,
        per_thread_cycles=[thread.finish_time for thread in threads],
        gated_stalls=gated_stalls,
    )
