"""Bounded-memory gate for the chunked streaming pipeline.

Runs a synthetic trace 10x the paper's full per-benchmark length
(1.6M branches) through :func:`repro.sim.chunked.sweep_stream_chunks`
with a *streaming* chunk source — each chunk is generated on demand and
dropped after it is folded, so the full trace is never materialized —
and folds every chunk into running confidence-table statistics through
:class:`repro.sim.batched.GridObserver`, the production kernel the figure
runners use.

The gate measures this process's peak RSS growth over the warmed-up
baseline (interpreter + numpy + predictor tables + the first chunk,
sampled after chunk 0 completes) and FAILS if the growth exceeds twice
the chunk working-set budget.  A monolithic run of the same trace would
allocate ~25 bytes/branch of stream state (40 MiB here) before the
analysis stage even starts; the chunked pipeline must stay within
O(chunk) of that.

Usage (exits non-zero on gate failure)::

    PYTHONPATH=src python benchmarks/memory_gate.py [--out BENCH_memory.json]

Writes a ``BENCH_memory.json`` report with the measured numbers either
way, in the same spirit as ``bench_timings.json``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Iterator

import numpy as np

from repro import observability
from repro.bench import headline_metric, write_bench_report
from repro.core.indexing import make_index
from repro.sim.batched import GridObserver, SweepSpec
from repro.sim.chunked import sweep_stream_chunks
from repro.traces import Trace
from repro.workloads.ibs import DEFAULT_TRACE_LENGTH

#: 10x the full per-benchmark trace length used by the paper experiments.
TOTAL_BRANCHES = 10 * DEFAULT_TRACE_LENGTH

CHUNK_SIZE = 65_536

#: Bytes of per-chunk working set the pipeline is budgeted for.  Each
#: in-flight chunk holds the trace slice (pcs 8 + outcomes 1), the swept
#: streams (correct 1 + bhrs 8 + pcs 8 + gcirs 8), and transient scan
#: intermediates of the same order; 256 bytes/branch is a deliberately
#: round ceiling over that ~34 bytes/branch of live state.
CHUNK_BUDGET_BYTES = 256 * CHUNK_SIZE

#: The gate: peak RSS growth beyond the post-first-chunk baseline must
#: stay under twice the chunk budget, or the pipeline is accumulating
#: per-branch state and the O(chunk) claim is broken.
RSS_GROWTH_LIMIT_BYTES = 2 * CHUNK_BUDGET_BYTES


def synthetic_chunks(
    total: int, chunk_size: int, seed: int = 0
) -> Iterator[Trace]:
    """Generate a long synthetic trace one chunk at a time.

    Branch sites and biases are drawn once (a few thousand static
    branches, like the IBS workloads); per-branch outcomes are drawn
    per chunk, so live memory is one chunk regardless of ``total``.
    """
    rng = np.random.default_rng(seed)
    num_sites = 4_096
    sites = rng.integers(0, 1 << 18, size=num_sites, dtype=np.uint64) << 2
    biases = rng.beta(0.6, 0.6, size=num_sites)
    for start in range(0, total, chunk_size):
        count = min(chunk_size, total - start)
        which = rng.integers(0, num_sites, size=count)
        outcomes = (rng.random(count) < biases[which]).astype(np.uint8)
        yield Trace(sites[which], outcomes, name="synthetic_10x")


def run_gate(out_path: str) -> int:
    started = time.perf_counter()
    # A 2^16-entry PC-indexed table of 16-bit CIRs, all-ones initialized.
    observer = GridObserver([SweepSpec.pattern(make_index("pc", 16), 16)])
    baseline_rss = 0
    chunks_done = 0

    stream = sweep_stream_chunks(
        synthetic_chunks(TOTAL_BRANCHES, CHUNK_SIZE),
        entries=1 << 16,
        history_bits=16,
    )
    for chunk in stream:
        observer.observe(chunk)
        chunks_done += 1
        if chunks_done == 1:
            # Baseline: interpreter, numpy, tables, and one full chunk
            # of working set are all resident by now.
            baseline_rss = observability.peak_rss_bytes()

    statistics = observer.statistics()[0]
    peak_rss = observability.record_peak_rss()
    growth = max(0, peak_rss - baseline_rss)
    passed = growth <= RSS_GROWTH_LIMIT_BYTES

    total_branches_folded = int(statistics.counts.sum())
    write_bench_report(
        out_path,
        kind="memory",
        passed=passed,
        headline={"rss_growth_bytes": headline_metric(growth, "lower")},
        metrics={
            "total_branches": TOTAL_BRANCHES,
            "chunk_size": CHUNK_SIZE,
            "chunks": chunks_done,
            "chunk_budget_bytes": CHUNK_BUDGET_BYTES,
            "rss_growth_limit_bytes": RSS_GROWTH_LIMIT_BYTES,
            "baseline_rss_bytes": baseline_rss,
            "peak_rss_bytes": peak_rss,
            "total_mispredicts": int(statistics.mispredicts.sum()),
            "total_branches_folded": total_branches_folded,
            "wall_seconds": time.perf_counter() - started,
            "observability": observability.snapshot(),
        },
        generated_by="benchmarks/memory_gate.py",
    )

    print(
        f"memory gate: {TOTAL_BRANCHES:,} branches in {chunks_done} chunks of "
        f"{CHUNK_SIZE:,}; peak RSS {peak_rss / 2**20:.1f} MiB "
        f"({growth / 2**20:.1f} MiB over baseline, "
        f"limit {RSS_GROWTH_LIMIT_BYTES / 2**20:.1f} MiB) -> "
        f"{'PASS' if passed else 'FAIL'}"
    )
    if total_branches_folded != TOTAL_BRANCHES:
        print(
            f"memory gate: folded {total_branches_folded:,} of "
            f"{TOTAL_BRANCHES:,} branches",
            file=sys.stderr,
        )
        return 1
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="BENCH_memory.json",
        help="report path (default: BENCH_memory.json)",
    )
    args = parser.parse_args(argv)
    return run_gate(args.out)


if __name__ == "__main__":
    raise SystemExit(main())
