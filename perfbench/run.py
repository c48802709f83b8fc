"""End-to-end benchmark of the paper pipeline (``repro run-all``) and its consumers.

Run from the root of a source checkout (no build step; the program is
imported from ``src/``):

    python3 perfbench/run.py --workload cold-serial --seed 0 --seconds 15 --trace 0

Every program run is a fresh process with a private ``REPRO_CACHE_DIR``
under ``.perfbench_work/`` in the checkout, timed from outside (spawn to
exit, ``wait4`` CPU and peak RSS).  ``--seconds`` bounds the measuring
loop; the end-to-end metrics are medians over its repeats.  With
``--trace 1`` one more run goes through ``traced.py`` and the result
carries the per-layer metrics instead.  Every run's output is checked:
digests must agree within the run, and with ``reference.json`` for the
seeds it lists.  The second-to-last stdout line is a JSON record with
the environment fingerprint and every sample; the last line is the
result.  README.md documents the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"

#: Two of the eight IBS benchmarks at the paper's trace length (160,000
#: branches each; the default ``ExperimentConfig`` otherwise).  Eight
#: would make one cold ``run-all`` take 30-40 s, which leaves no room
#: for repeats inside a run; two keeps every experiment's share of the
#: work as at paper scale, at about 40% of the cost.
SUITE = ("gcc", "jpeg_play")

#: A run must exit within 180 s; children are killed at this deadline.
RUN_DEADLINE_S = 165.0
#: Interpreter + ``import repro`` + registry starts timed per set-up.
SETUP_STARTS = 5


@dataclass(frozen=True)
class Workload:
    kind: str  # "run-all" or "apps"
    jobs: int
    warm: bool


#: Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    "cold-serial": Workload("run-all", jobs=1, warm=False),
    "warm-serial": Workload("run-all", jobs=1, warm=True),
    "cold-jobs2": Workload("run-all", jobs=2, warm=False),
    "apps-warm": Workload("apps", jobs=1, warm=True),
}

#: ``--profile`` counters a warm run must leave at 0: no disk miss in the
#: stream, chunk or sweep tier, and no gshare or grid sweep recomputed.
WARM_ZERO_COUNTERS = (
    "stream_cache.disk_misses",
    "stream_cache.chunk_misses",
    "sweep_cache.disk_misses",
    "stream_cache.sweeps",
    "stream_cache.chunk_sweeps",
    "batched.grid_sweeps",
)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units(experiment_ids: List[str]) -> Dict[str, str]:
    units = {
        "workloads.generate_s": "s",
        "workloads.generate_calls": "count",
        "workloads.generate_unique_ratio": "ratio",
        "sim.gshare_sweep_s": "s",
        "sim.gshare_sweep_calls": "count",
        "sim.grid_observe_s": "s",
        "sim.grid_observe_calls": "count",
        "sim.per_config_s": "s",
        "sim.per_config_calls": "count",
        "sim.cache_store_s": "s",
        "sim.cache_store_calls": "count",
        "sim.cache_bytes_written": "bytes",
        "sim.cache_load_s": "s",
        "sim.cache_load_calls": "count",
        "sim.cache_hit_ratio": "ratio",
        "analysis.curves_s": "s",
        "analysis.curves_calls": "count",
        "analysis.buckets_s": "s",
        "pipeline.run_s": "s",
        "pipeline.run_calls": "count",
        "apps.dual_path_s": "s",
        "apps.smt_fetch_s": "s",
        "apps.reverser_s": "s",
        "apps.hybrid_selector_s": "s",
    }
    units.update({f"experiments.{eid}_s": "s" for eid in experiment_ids})
    units.update({
        "experiments.unattributed_s": "s",
        "parallel.busy_frac": "ratio",
        "parallel.duplicate_sweeps": "count",
        "parallel.retries": "count",
        "parallel.serial_fallbacks": "count",
        "parallel.timeouts": "count",
        "trace.overhead_frac": "ratio",
    })
    return units


@dataclass
class Sample:
    """One program process, timed and checked from outside."""

    role: str  # setup, prime, measure or traced
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: Optional[int]
    digest: Optional[str] = None
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


class Run:
    """One benchmark run: its private directory, its children and its checks."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.deadline = deadline
        self.dir = WORK_DIR / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.samples: List[Sample] = []
        self.experiment_ids: List[str] = []
        self.config: Dict = {}
        self._caches = 0
        for sub in ("tmp", "xdg-cache"):
            (self.dir / sub).mkdir(parents=True, exist_ok=True)

    # -- processes ---------------------------------------------------------

    def env(self, cache_dir: Path) -> Dict[str, str]:
        """Hermetic child environment: private cache, no fault injection."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["PYTHONHASHSEED"] = "0"
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env["XDG_CACHE_HOME"] = str(self.dir / "xdg-cache")
        env["TMPDIR"] = str(self.dir / "tmp")
        return env

    def new_cache(self) -> Path:
        self._caches += 1
        return self.dir / f"cache{self._caches}"

    def spawn(self, role: str, argv: List[str], cache_dir: Path):
        """Run ``argv`` to exit or deadline; returns (sample, stdout)."""
        log = self.dir / f"{role}{len(self.samples)}"
        with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(
                argv, cwd=ROOT, env=self.env(cache_dir), stdout=out, stderr=err,
                start_new_session=True,
            )
            reaped: Dict = {}

            def reap() -> None:
                reaped["status"] = os.wait4(child.pid, 0)
                reaped["end"] = time.perf_counter()

            reaper = threading.Thread(target=reap, daemon=True)
            reaper.start()
            reaper.join(max(0.0, self.deadline - time.monotonic()))
            timed_out = reaper.is_alive()
            _kill_group(child.pid)
            reaper.join()
        _, status, usage = reaped["status"]
        child.returncode = os.waitstatus_to_exitcode(status)
        sample = Sample(
            role=role,
            wall_s=reaped["end"] - start,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            exit_code=child.returncode,
        )
        if timed_out:
            sample.problems.append("timed out")
        elif child.returncode != 0:
            tail = Path(f"{log}.err").read_text(errors="replace")[-2000:]
            sample.problems.append(f"exit code {child.returncode}: {tail}")
        self.samples.append(sample)
        return sample, Path(f"{log}.out").read_text(errors="replace")

    # -- the workload ------------------------------------------------------

    def command(self, profile: Path) -> List[str]:
        common = ["--benchmarks", *SUITE, "--seed", str(self.seed), "--profile", str(profile)]
        if self.workload.kind == "apps":
            return ["apps", *common]
        jobs = ["--jobs", str(self.workload.jobs)] if self.workload.jobs > 1 else []
        return ["run-all", *common, *jobs]

    def argv(self, target: List[str]) -> List[str]:
        if target[0] == "apps":
            return [sys.executable, str(HERE / "apps_main.py"), *target[1:]]
        return [sys.executable, "-m", "repro", *target]

    def run_workload(self, role: str, cache_dir: Path, traced: bool = False):
        """One workload process; returns (sample, profile counters, layers)."""
        tag = f"{role}{len(self.samples)}"
        profile = self.dir / f"{tag}.profile.json"
        layers_path = self.dir / f"{tag}.layers.json"
        target = self.command(profile)
        argv = (
            [sys.executable, str(HERE / "traced.py"), "--layers-out", str(layers_path),
             "--", *target]
            if traced else self.argv(target)
        )
        sample, stdout = self.spawn(role, argv, cache_dir)
        counters: Dict[str, int] = {}
        layers: Dict = {}
        if sample.exit_code == 0:
            try:
                payload = json.loads(profile.read_text())
                counters = payload["counters"]
                self.config = payload.get("extra", {}).get("config", self.config)
                if traced:
                    layers = json.loads(layers_path.read_text())
            except (OSError, ValueError, KeyError) as error:
                sample.problems.append(f"unreadable profile or layer record: {error}")
            self.check_output(sample, stdout, profile)
            if self.workload.warm and role != "prime":
                recomputed = {name: counters.get(name, 0) for name in WARM_ZERO_COUNTERS}
                if any(recomputed.values()):
                    sample.problems.append(f"warm precondition broken: {recomputed}")
        return sample, counters, layers

    def check_output(self, sample: Sample, stdout: str, profile: Path) -> None:
        """Structural check and digest of one workload run's stdout."""
        if self.workload.kind == "apps":
            names = [line.split(" ", 1)[0] for line in stdout.splitlines()]
            if names != ["dual-path", "smt-fetch", "reverser", "hybrid-selector"]:
                sample.problems.append(f"apps output lists {names}")
            text = stdout
        else:
            suffix = f"\nwrote {profile}\n"
            if not stdout.endswith(suffix):
                sample.problems.append("run-all output lacks the profile line")
            text = stdout[: -len(suffix)] if stdout.endswith(suffix) else stdout
            headers = [line.split(":", 1)[0][4:] for line in text.splitlines()
                       if line.startswith("=== ")]
            if headers != self.experiment_ids:
                sample.problems.append(
                    f"run-all reported {headers}, registry has {self.experiment_ids}"
                )
        sample.digest = hashlib.sha256(text.encode()).hexdigest()

    def setup_starts(self) -> List[float]:
        """Time interpreter start + ``import repro`` + registry (``repro list``)."""
        walls = []
        for _ in range(SETUP_STARTS):
            sample, stdout = self.spawn("setup", self.argv(["list"]), self.new_cache())
            walls.append(sample.wall_s)
            ids = [line.split()[0] for line in stdout.splitlines() if line.strip()]
            if sample.ok and not ids:
                sample.problems.append("repro list printed no experiments")
            if sample.ok:
                self.experiment_ids = ids
        return walls

    def check_digests(self, reference: Dict) -> None:
        """All outputs of this run agree, and match the reference if one exists."""
        checked = [s for s in self.samples if s.digest is not None]
        disagree = len({s.digest for s in checked}) > 1
        expected = reference.get(self.workload.kind, {}).get(str(self.seed))
        for sample in checked:
            if disagree:
                sample.problems.append("output differs from another run of the same seed")
            if expected is not None and sample.digest != expected:
                sample.problems.append(f"output differs from reference.json ({expected})")


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def cache_stats(cache_dir: Path):
    """(bytes, stream entries) in a private cache directory."""
    if not cache_dir.exists():
        return 0, 0
    files = [p for p in cache_dir.rglob("*") if p.is_file()]
    streams = [p for p in files if p.parent.name == "predictor_streams" and p.suffix == ".npz"]
    return sum(p.stat().st_size for p in files), len(streams)


def fingerprint(config: Dict) -> Dict:
    """Where and on what code the result was measured."""
    import numpy

    git_sha, git_dirty = None, None
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True)
        if head.returncode == 0:
            git_sha, git_dirty = head.stdout.strip(), bool(status.stdout.strip())
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": git_sha,
        "git_dirty": git_dirty,
        "src_sha256": src.hexdigest(),
        "trace_length": config.get("trace_length"),
        "benchmarks": config.get("benchmarks"),
        "seed": config.get("seed"),
    }


def per_layer_metrics(
    run: Run, traced: Sample, counters: Dict[str, int], layers: Dict,
    cache_dir: Path, streams_before: int, untraced: Dict[str, float],
) -> Dict[str, float]:
    self_s = layers.get("self_seconds", {})
    calls = layers.get("calls", {})
    metrics: Dict[str, float] = {}
    for layer in ("workloads.generate", "sim.gshare_sweep", "sim.grid_observe", "sim.per_config",
                  "sim.cache_store", "sim.cache_load", "analysis.curves", "analysis.buckets",
                  "pipeline.run", "apps.dual_path", "apps.smt_fetch", "apps.reverser",
                  "apps.hybrid_selector"):
        metrics[f"{layer}_s"] = self_s.get(layer, 0.0)
        metrics[f"{layer}_calls"] = calls.get(layer, 0)
    generated = layers.get("generate_calls", 0)
    # No generation at all wastes nothing: report 1.0, not 0/0.
    metrics["workloads.generate_unique_ratio"] = (
        layers.get("generate_distinct", 0) / generated if generated else 1.0
    )
    cache_bytes, streams_after = cache_stats(cache_dir)
    metrics["sim.cache_bytes_written"] = cache_bytes
    tiers = ("stream_cache", "sweep_cache")
    hits = sum(counters.get(f"{tier}.disk_hits", 0) for tier in tiers)
    misses = sum(counters.get(f"{tier}.disk_misses", 0) for tier in tiers)
    metrics["sim.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for eid in run.experiment_ids:
        metrics[f"experiments.{eid}_s"] = self_s.get(f"experiments.{eid}", 0.0)
    metrics["experiments.unattributed_s"] = traced.wall_s - sum(self_s.values())
    metrics["parallel.busy_frac"] = untraced["cpu_s"] / (untraced["wall_s"] * run.workload.jobs)
    metrics["parallel.duplicate_sweeps"] = (
        counters.get("stream_cache.sweeps", 0) - (streams_after - streams_before)
    )
    metrics["parallel.retries"] = counters.get("retries.attempted", 0)
    metrics["parallel.serial_fallbacks"] = counters.get("degraded.serial_fallback", 0)
    metrics["parallel.timeouts"] = counters.get("tasks.timed_out", 0)
    metrics["trace.overhead_frac"] = traced.wall_s / untraced["wall_s"] - 1.0
    units = per_layer_units(run.experiment_ids)
    return {name: metrics.get(name, 0.0) for name in units}


def measure(run: Run, seconds: float, trace: bool):
    """Set up, measure, optionally trace; returns (record, metrics)."""
    setup_walls = run.setup_starts()
    setup_s = statistics.median(setup_walls)
    primed: Optional[Path] = None
    if run.workload.warm:
        primed = run.new_cache()
        prime, _, _ = run.run_workload("prime", primed)
        setup_s += prime.wall_s

    measured: List[Sample] = []
    started = time.perf_counter()
    while not measured or time.perf_counter() - started < seconds:
        # Keep room for one more repeat (and the traced run) before the deadline.
        reserve = measured[-1].wall_s * (3.0 if trace else 1.5) if measured else 0.0
        if measured and time.monotonic() + reserve > run.deadline:
            break
        cache = primed if primed is not None else run.new_cache()
        sample, _, _ = run.run_workload("measure", cache)
        measured.append(sample)
        if primed is None:
            shutil.rmtree(cache, ignore_errors=True)

    good = [s for s in measured if s.ok] or measured
    untraced = {
        "wall_s": statistics.median(s.wall_s for s in good),
        "cpu_s": statistics.median(s.cpu_s for s in good),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in good),
        "setup_s": setup_s,
    }
    record = {
        "setup_starts_s": setup_walls,
        "end_to_end": untraced,
    }
    if not trace:
        metrics = {name: (untraced[name], unit) for name, unit in END_TO_END_UNITS.items()}
        return record, metrics

    cache = primed if primed is not None else run.new_cache()
    _, streams_before = cache_stats(cache)
    traced, counters, layers = run.run_workload("traced", cache, traced=True)
    per_layer = per_layer_metrics(run, traced, counters, layers, cache, streams_before, untraced)
    record["per_layer"] = per_layer
    units = per_layer_units(run.experiment_ids)
    return record, {name: (value, units[name]) for name, value in per_layer.items()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    run = Run(args.workload, args.seed, time.monotonic() + RUN_DEADLINE_S)
    try:
        record, metrics = measure(run, args.seconds, bool(args.trace))
        run.check_digests(json.loads((HERE / "reference.json").read_text()))
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    failed = sum(1 for s in run.samples if not s.ok)
    record = {
        "schema": "perfbench-record/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(run.config),
        **record,
        "samples": [asdict(s) for s in run.samples],
    }
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(run.samples),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
