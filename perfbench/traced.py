"""Traced workload process: per-layer self time and call counts, from outside.

Wraps the public entry points of each program layer at every module
binding that refers to them (plus the class attribute for methods),
then runs the workload in this process and writes, as JSON, each
layer's self seconds (time inside the layer minus time in nested
wrapped layers) and its call count (outermost entries only, so a layer
that calls itself, or a second entry point of the same layer, counts
once).  Nothing under ``src/`` is modified.

    PYTHONPATH=src python3 perfbench/traced.py --layers-out layers.json \
        -- run-all --benchmarks gcc jpeg_play --seed 0
    PYTHONPATH=src python3 perfbench/traced.py --layers-out layers.json \
        -- apps --benchmarks gcc jpeg_play --seed 0

Forked pool workers inherit the wrappers but their records die with
them, so on ``--jobs N`` runs the numbers are the parent's view.
"""

import argparse
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: layer name -> (module, attribute path) of every wrapped entry point.
LAYERS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "workloads.generate": (
        ("repro.workloads.program", "SyntheticProgram.generate"),
        ("repro.workloads.spec_like", "load_spec_benchmark"),
    ),
    "sim.gshare_sweep": (
        ("repro.sim.chunked", "sweep_stream_chunks"),
        ("repro.sim.fast", "predictor_streams"),
    ),
    "sim.grid_observe": (("repro.sim.batched", "GridObserver.observe"),),
    "sim.per_config": tuple(
        ("repro.sim.fast", name)
        for name in (
            "cir_pattern_stream",
            "two_level_pattern_stream",
            "resetting_counter_stream",
            "saturating_counter_stream",
            "cir_pattern_stream_with_flushes",
            "final_cir_patterns",
        )
    ),
    "sim.cache_store": tuple(
        ("repro.sim.diskcache", f"store_cached_{tier}")
        for tier in ("streams", "chunk", "sweep")
    ),
    "sim.cache_load": tuple(
        ("repro.sim.diskcache", f"load_cached_{tier}")
        for tier in ("streams", "chunk", "sweep")
    ),
    "analysis.curves": (("repro.analysis.curves", "ConfidenceCurve.from_statistics"),),
    "analysis.buckets": (("repro.analysis.buckets", "BucketStatistics.from_streams"),),
    "pipeline.run": (
        ("repro.pipeline.machine", "SpeculativeFrontend.run"),
        ("repro.pipeline.smt", "simulate_smt"),
    ),
    "apps.dual_path": (("repro.apps.dual_path", "evaluate_dual_path"),),
    "apps.smt_fetch": (("repro.apps.smt_fetch", "evaluate_smt_fetch"),),
    "apps.reverser": (("repro.apps.reverser", "evaluate_reverser"),),
    "apps.hybrid_selector": (("repro.apps.hybrid_selector", "evaluate_hybrid_selector"),),
    # Keyed by experiment id at call time: experiments.<id>.
    "experiments": (("repro.experiments.registry", "run_experiment_report"),),
}

GENERATE_LAYER = "workloads.generate"


class Tracer:
    """Self time and outermost-call counts over a stack of active spans."""

    def __init__(self) -> None:
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.generate_keys: List[Tuple] = []
        self._stack: List[List] = []
        self._active: Counter = Counter()

    def call(self, layer: str, generate_key: Optional[Tuple] = None) -> None:
        """Count an outermost call (and its trace key, for generation)."""
        if self._active[layer]:
            return
        self.calls[layer] += 1
        if generate_key is not None:
            self.generate_keys.append(generate_key)

    def enter(self, layer: str) -> None:
        self._active[layer] += 1
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        layer, start, child_seconds = self._stack.pop()
        inclusive = time.perf_counter() - start
        self._active[layer] -= 1
        self.self_seconds[layer] += inclusive - child_seconds
        if self._stack:
            self._stack[-1][2] += inclusive


def _generate_key(args: tuple, kwargs: dict) -> Tuple:
    """(program, length, seed) of a trace-generation call."""
    head = args[0]
    program = head.name if hasattr(head, "name") else head
    rest = list(args[1:])
    length = kwargs.get("length", rest[0] if rest else None)
    seed = kwargs.get("seed", rest[1] if len(rest) > 1 else 0)
    return (program, length, seed)


def _wrap(tracer: Tracer, layer: str, function: Callable) -> Callable:
    def layer_of(args: tuple, kwargs: dict) -> str:
        if layer == "experiments":
            experiment_id = args[0] if args else kwargs["experiment_id"]
            return f"experiments.{experiment_id}"
        return layer

    def note(name: str, args: tuple, kwargs: dict) -> None:
        key = _generate_key(args, kwargs) if name == GENERATE_LAYER else None
        tracer.call(name, key)

    if inspect.isgeneratorfunction(function):

        @functools.wraps(function)
        def generator_wrapper(*args, **kwargs):
            name = layer_of(args, kwargs)
            note(name, args, kwargs)
            tracer.enter(name)
            try:
                inner = function(*args, **kwargs)
            finally:
                tracer.exit()
            while True:
                tracer.enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.exit()
                yield item

        return generator_wrapper

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        name = layer_of(args, kwargs)
        note(name, args, kwargs)
        tracer.enter(name)
        try:
            return function(*args, **kwargs)
        finally:
            tracer.exit()

    return wrapper


#: Packages the workloads never import (the static checker), skipped
#: because importing them out of their own order trips an import cycle.
NOT_ON_RUN_PATH = ("repro.analysis.lint", "repro.analysis.flow")


def _import_program_modules() -> None:
    """Import the program's modules so every binding exists before patching."""
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name.endswith("__main__") or module.name.startswith(NOT_ON_RUN_PATH):
            continue
        importlib.import_module(module.name)


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`LAYERS`."""
    _import_program_modules()
    modules = [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]
    for layer, entry_points in LAYERS.items():
        for module_name, attribute in entry_points:
            owner = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method_name = attribute.split(".")
                cls = getattr(owner, class_name)
                raw = cls.__dict__[method_name]
                if isinstance(raw, classmethod):
                    setattr(cls, method_name, classmethod(_wrap(tracer, layer, raw.__func__)))
                else:
                    setattr(cls, method_name, _wrap(tracer, layer, raw))
                continue
            original = getattr(owner, attribute)
            wrapped = _wrap(tracer, layer, original)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, binding, wrapped)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layers-out", required=True, help="write layer JSON here")
    parser.add_argument("target", nargs=argparse.REMAINDER, help="-- run-all ... | -- apps ...")
    args = parser.parse_args(argv)
    target = args.target[1:] if args.target[:1] == ["--"] else args.target
    if not target:
        parser.error("missing workload after --")
    tracer = Tracer()
    install(tracer)
    if target[0] == "apps":
        import apps_main

        status = apps_main.main(target[1:])
    else:
        from repro.cli import main as repro_main

        status = repro_main(target)
    record = {
        "self_seconds": dict(tracer.self_seconds),
        "calls": dict(tracer.calls),
        "generate_calls": len(tracer.generate_keys),
        "generate_distinct": len(set(tracer.generate_keys)),
    }
    with open(args.layers_out, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
