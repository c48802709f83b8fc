"""The ``apps-warm`` workload: the four confidence consumers in one process.

``repro run-all`` never reaches :mod:`repro.apps`, so this process calls
the four public ``evaluate_*`` entry points on the default
``ExperimentConfig`` (restricted to ``--benchmarks``, with ``--seed``)
and prints one line per application: its name and its report's
``to_dict()`` as sorted JSON.  That stdout is what the benchmark's
output check digests.

    PYTHONPATH=src python3 perfbench/apps_main.py --seed 0 \
        --benchmarks gcc jpeg_play --profile apps-profile.json
"""

import argparse
import dataclasses
import json
from typing import List, Optional

from repro import apps, observability
from repro.experiments.config import DEFAULT_CONFIG

# Entry points are looked up on ``repro.apps`` at call time, so a traced
# run calls the module bindings it wrapped.
APPLICATIONS = (
    ("dual-path", "evaluate_dual_path"),
    ("smt-fetch", "evaluate_smt_fetch"),
    ("reverser", "evaluate_reverser"),
    ("hybrid-selector", "evaluate_hybrid_selector"),
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--benchmarks", nargs="+", required=True)
    parser.add_argument("--profile", default=None, help="write --profile JSON here")
    args = parser.parse_args(argv)
    config = DEFAULT_CONFIG.scaled(seed=args.seed, benchmarks=tuple(args.benchmarks))
    for name, entry_point in APPLICATIONS:
        report = getattr(apps, entry_point)(config)
        print(name, json.dumps(report.to_dict(), sort_keys=True))
    if args.profile:
        extra = {"command": "apps", "config": dataclasses.asdict(config)}
        observability.write_profile(args.profile, extra=extra)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
