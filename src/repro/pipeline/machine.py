"""Single-thread speculative frontend timing model.

The model takes the two per-branch facts the paper's applications need
— was the prediction correct, and was the branch flagged low-confidence
— as arrays, so the predictor and the confidence table run once, on the
cached streams of :mod:`repro.sim`, and only the cycle recurrence below
stays sequential.  It tracks fetch *slots* (one instruction per slot,
``fetch_width`` slots per cycle) along the predicted path:

* every dynamic branch is preceded by a deterministic per-site run of
  non-branch instructions (its *fetch block*);
* a branch resolves ``resolve_latency`` cycles after the cycle it was
  fetched in;
* on a misprediction, every slot fetched after the branch and before its
  resolution is squashed, and fetch redirects at the resolution cycle
  plus ``redirect_penalty``;
* given a ``low`` signal, a branch flagged low-confidence forks when no
  other fork is outstanding.  The model allows exactly one outstanding
  fork: the paper's selective dual-path discussion assumes two threads,
  the predicted path and one alternate.  Until the fork resolves, a
  secondary fetch port of ``alternate_width`` slots/cycle follows the
  non-predicted path (the paper's premise: dual-path uses resources that
  "would be unused anyway"), stealing ``fork_primary_loss`` of the
  primary port's bandwidth (cache-port contention).  A mispredicted
  forked branch pays no redirect and resumes *ahead* by the
  alternate-path instructions already fetched; the primary slots spent
  past it are squashed.  A correctly-predicted forked branch squashes
  the alternate-path slots instead.

Time is accounted per fetch block (not per cycle) with fractional-cycle
precision, which keeps full-suite runs in seconds while preserving the
bandwidth/latency trade-offs the applications measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class FrontendConfig:
    """Geometry and latencies of the modelled frontend."""

    #: Instructions fetched per cycle along one path.
    fetch_width: int = 4
    #: Cycles from a branch's fetch to its resolution.
    resolve_latency: int = 8
    #: Extra cycles to redirect fetch after a (non-forked) misprediction.
    redirect_penalty: int = 1
    #: Deterministic per-site fetch-block sizing: a branch at ``pc`` is
    #: preceded by ``min_block + (pc >> 2) % block_spread`` instructions.
    min_block: int = 2
    block_spread: int = 6
    #: Secondary-port bandwidth used by a forked alternate path
    #: (slots/cycle); the paper assumes spare machine resources.
    alternate_width: float = 2.0
    #: Fraction of primary fetch bandwidth lost while a fork is
    #: outstanding (models port/cache contention with the alternate path).
    fork_primary_loss: float = 0.1

    def __post_init__(self) -> None:
        check_positive(self.fetch_width, "fetch_width")
        check_positive(self.resolve_latency, "resolve_latency")
        check_positive(self.min_block, "min_block")
        check_positive(self.block_spread, "block_spread")
        if self.redirect_penalty < 0:
            raise ValueError("redirect_penalty must be non-negative")
        if self.alternate_width < 0:
            raise ValueError("alternate_width must be non-negative")
        if not 0.0 <= self.fork_primary_loss < 1.0:
            raise ValueError("fork_primary_loss must be within [0, 1)")

    def block_size(self, pc):
        """Instructions in the fetch block ending at the branch at ``pc``
        (the non-branch run plus the branch itself); ``pc`` may be an
        int64 array, giving one size per branch."""
        return self.min_block + (pc >> 2) % self.block_spread + 1


@dataclass(frozen=True)
class FrontendReport:
    """Timing outcome of one frontend run."""

    cycles: float
    retired_instructions: int
    squashed_slots: float
    branches: int
    mispredictions: int
    forks: int
    covered_mispredictions: int

    @property
    def ipc(self) -> float:
        """Retired (correct-path) instructions per cycle."""
        return self.retired_instructions / self.cycles if self.cycles else 0.0

    @property
    def fork_fraction(self) -> float:
        return self.forks / self.branches if self.branches else 0.0

    @property
    def misprediction_coverage(self) -> float:
        if self.mispredictions == 0:
            return 0.0
        return self.covered_mispredictions / self.mispredictions

    def speedup_over(self, baseline: "FrontendReport") -> float:
        """IPC ratio of this run over ``baseline``."""
        return self.ipc / baseline.ipc if baseline.ipc else 0.0


def branch_lists(
    config: FrontendConfig,
    pcs: ArrayLike,
    correct: ArrayLike,
    low: Optional[ArrayLike] = None,
) -> Tuple[List[int], List[bool], List[bool]]:
    """Per-branch fetch-block sizes, correctness and low-confidence flags
    as plain lists, the recurrence's inputs (``low`` all false if absent).
    """
    pcs = np.asarray(pcs, dtype=np.int64)
    arrays = [pcs, np.asarray(correct, dtype=bool)]
    if low is not None:
        arrays.append(np.asarray(low, dtype=bool))
    lengths = [len(array) for array in arrays]
    if len(set(lengths)) > 1:
        names = "pcs, correct and low" if low is not None else "pcs and correct"
        raise ValueError(
            f"{names} must have equal lengths, got "
            f"{', '.join(map(str, lengths))}"
        )
    lows = arrays[2].tolist() if low is not None else [False] * len(pcs)
    return config.block_size(pcs).tolist(), arrays[1].tolist(), lows


class SpeculativeFrontend:
    """Runs the fetch/resolve/squash recurrence over per-branch arrays."""

    def __init__(self, config: FrontendConfig = FrontendConfig()) -> None:
        self._config = config

    def run(
        self,
        pcs: ArrayLike,
        correct: ArrayLike,
        low: Optional[ArrayLike] = None,
    ) -> FrontendReport:
        """Simulate the frontend over one branch stream and report timing.

        ``correct[i]`` says whether branch ``i`` was predicted correctly;
        ``low[i]``, when given, flags it low-confidence at fetch time and
        enables forking.
        """
        config = self._config
        blocks, corrects, lows = branch_lists(config, pcs, correct, low)
        width = float(config.fetch_width)
        resolve_latency = float(config.resolve_latency)
        redirect_penalty = float(config.redirect_penalty)
        alternate_width = float(config.alternate_width)
        primary_loss = float(config.fork_primary_loss)
        #: Correct-path slots the alternate port banks during a fork's
        #: speculation window.
        alternate_slots = alternate_width * resolve_latency
        head_start = min(alternate_slots / width, resolve_latency)

        clock = 0.0                  # fetch-time in cycles (fractional)
        retired = 0
        squashed = 0.0
        mispredictions = 0
        forks = 0
        covered = 0
        #: Resolution time of the currently outstanding fork, if any.
        fork_resolves_at: Optional[float] = None

        for block, is_correct, is_low in zip(blocks, corrects, lows):
            # While a fork is outstanding, the primary port runs slightly
            # degraded (the alternate path contends for cache bandwidth).
            if fork_resolves_at is not None and clock < fork_resolves_at:
                effective_width = width * (1.0 - primary_loss)
            else:
                effective_width = width
                fork_resolves_at = None
            fetch_done = clock + block / effective_width
            retired += block

            if is_low and fork_resolves_at is None:
                forks += 1
                resolve_at = fetch_done + resolve_latency
                if is_correct:
                    # The alternate-path slots were down the wrong path.
                    squashed += alternate_slots
                    fork_resolves_at = resolve_at
                    clock = fetch_done
                else:
                    mispredictions += 1
                    covered += 1
                    # The primary path past the branch was wrong: its slots
                    # during the window are squashed.  The alternate path
                    # already fetched ``alternate_slots`` of correct path,
                    # so fetch resumes *ahead* by that many slots — and
                    # without a redirect penalty.
                    squashed += effective_width * resolve_latency
                    clock = resolve_at - head_start
            elif is_correct:
                clock = fetch_done
            else:
                mispredictions += 1
                # All slots fetched between this branch and its resolution
                # go down the wrong path.
                squashed += effective_width * resolve_latency
                clock = fetch_done + resolve_latency + redirect_penalty
                fork_resolves_at = None

        return FrontendReport(
            cycles=clock,
            retired_instructions=retired,
            squashed_slots=squashed,
            branches=len(blocks),
            mispredictions=mispredictions,
            forks=forks,
            covered_mispredictions=covered,
        )
