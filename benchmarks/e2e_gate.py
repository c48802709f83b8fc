"""End-to-end ``run-all`` gate: paper-scale cold and warm wall time.

Runs the full-suite default ``repro run-all`` (8 benchmarks x 160k
branches) twice as subprocesses on one private ``REPRO_CACHE_DIR``:

1. **Cold** — an empty cache: trace generation, gshare sweeps, the grid
   kernel and every cache write.
2. **Warm** — the same cache, now primed: what re-running after a report
   edit costs.

Both stdouts must be byte-identical to the checked-in
``results_full.txt`` (so the gate also catches a stale results file;
the warm run's trailing ``wrote <profile>`` line is stripped first),
the warm run must be at least :data:`WARM_SPEEDUP_FLOOR` times faster
than the cold one, or the cache tiers have stopped paying, and the warm
run's ``--profile`` must leave every :data:`WARM_ZERO_COUNTERS` entry at
0: a warm run that recomputes a sweep or misses the disk fails even
when it happens to be fast enough.

Usage (exits non-zero on gate failure)::

    PYTHONPATH=src python benchmarks/e2e_gate.py [--out BENCH_e2e.json]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Sequence

from repro.bench import headline_metric, write_bench_report

#: Minimum cold/warm wall ratio of the full-suite ``run-all``.
WARM_SPEEDUP_FLOOR = 2.0

RESULTS_PATH = Path(__file__).resolve().parents[1] / "results_full.txt"

#: ``--profile`` counters the warm run must leave at 0: no disk miss in
#: the stream, chunk or sweep tier, and no gshare or grid sweep recomputed.
WARM_ZERO_COUNTERS = (
    "stream_cache.disk_misses",
    "stream_cache.chunk_misses",
    "sweep_cache.disk_misses",
    "stream_cache.sweeps",
    "stream_cache.chunk_sweeps",
    "batched.grid_sweeps",
)


def _timed_run_all(
    env: Dict[str, str], extra_args: Sequence[str] = ()
) -> "tuple[float, str]":
    """Wall seconds and stdout of one default ``repro run-all``."""
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-m", "repro", "run-all", *extra_args],
        env=env,
        capture_output=True,
        text=True,
    )
    seconds = time.perf_counter() - started
    if completed.returncode != 0:
        tail = "\n".join(completed.stderr.strip().splitlines()[-10:])
        raise RuntimeError(f"run-all failed ({completed.returncode}):\n{tail}")
    return seconds, completed.stdout


def run_gate(out_path: str) -> int:
    expected = RESULTS_PATH.read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as scratch:
        env = dict(os.environ, REPRO_CACHE_DIR=os.path.join(scratch, "cache"))
        env.pop("REPRO_CACHE_DISABLE", None)
        profile = os.path.join(scratch, "warm-profile.json")
        cold_seconds, cold_stdout = _timed_run_all(env)
        warm_seconds, warm_stdout = _timed_run_all(env, ["--profile", profile])
        with open(profile, encoding="utf-8") as handle:
            counters = json.load(handle)["counters"]
        warm_stdout = warm_stdout.removesuffix(f"\nwrote {profile}\n")

    warm_counters = {name: counters.get(name, 0) for name in WARM_ZERO_COUNTERS}
    warm_recomputed = any(warm_counters.values())
    cold_identical = cold_stdout == expected
    warm_identical = warm_stdout == expected
    warm_speedup = cold_seconds / warm_seconds
    passed = (
        cold_identical
        and warm_identical
        and warm_speedup >= WARM_SPEEDUP_FLOOR
        and not warm_recomputed
    )

    write_bench_report(
        out_path,
        kind="e2e",
        passed=passed,
        headline={"warm_speedup": headline_metric(warm_speedup, "higher")},
        metrics={
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "warm_speedup_floor": WARM_SPEEDUP_FLOOR,
            "cold_matches_results": cold_identical,
            "warm_matches_results": warm_identical,
            "warm_counters": warm_counters,
        },
        generated_by="benchmarks/e2e_gate.py",
    )

    print(
        f"e2e gate: cold {cold_seconds:.2f}s, warm {warm_seconds:.2f}s "
        f"({warm_speedup:.2f}x, floor {WARM_SPEEDUP_FLOOR:.1f}x); "
        f"matches {RESULTS_PATH.name}: cold {cold_identical}, "
        f"warm {warm_identical}; warm recomputed nothing: "
        f"{not warm_recomputed} -> {'PASS' if passed else 'FAIL'}"
    )
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default="BENCH_e2e.json",
        help="report path (default: BENCH_e2e.json)",
    )
    args = parser.parse_args(argv)
    return run_gate(args.out)


if __name__ == "__main__":
    raise SystemExit(main())
