"""Speculative-frontend pipeline models.

The paper's applications presuppose a speculative processor: dual-path
execution trades *fetch bandwidth* for misprediction recovery, and SMT
fetch gating reallocates fetch slots between threads.  The analytic
models in :mod:`repro.apps` charge fixed per-event penalties; this
package provides timing models in which those costs *emerge* from fetch
bandwidth, branch-resolution latency, and squash semantics:

* :class:`~repro.pipeline.machine.SpeculativeFrontend` — a single-thread
  fetch/resolve timing model with wrong-path squash, optionally forking
  both paths (one fork at a time) on a low-confidence signal;
* :mod:`repro.pipeline.smt` — a multi-thread fetch arbiter where threads
  compete for one fetch port, with optional confidence gating.

Both take per-branch arrays — PCs, whether each prediction was correct,
and optionally a low-confidence flag — and run only the sequential
cycle recurrence.  The predictor and the confidence table never run
here: their outputs come from the engine's cached streams
(:mod:`repro.sim`), computed once and shared with every other consumer.

The models are deliberately frontend-centric (the paper's costs are all
fetch-side); backend execution is abstracted as retirement of correctly
fetched instructions.
"""

from repro.pipeline.machine import (
    FrontendConfig,
    FrontendReport,
    SpeculativeFrontend,
)
from repro.pipeline.smt import SMTConfig, SMTReport, simulate_smt

__all__ = [
    "FrontendConfig",
    "FrontendReport",
    "SpeculativeFrontend",
    "SMTConfig",
    "SMTReport",
    "simulate_smt",
]
