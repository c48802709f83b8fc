"""Bench: the paper's applications on the full suite.

The paper's Section 6 data point: "if we fork a dual thread following 20
percent of the conditional branch predictions, we can capture over 80
percent of the mispredictions" — checked here by sweeping the resetting
counter fork threshold to the ~20 % operating point.
"""

from repro.apps import (
    evaluate_dual_path,
    evaluate_hybrid_selector,
    evaluate_reverser,
    evaluate_smt_fetch,
)


def test_dual_path_paper_operating_point(run_once):
    def sweep():
        # Find the largest threshold whose fork fraction stays near 20 %.
        chosen = None
        for threshold in range(17):
            report = evaluate_dual_path(fork_threshold=threshold)
            if report.fork_fraction <= 0.22:
                chosen = report
            else:
                break
        return chosen

    report = run_once(sweep)
    print()
    print(report.format())
    # Paper: forking after ~20 % of predictions captures >80 % of
    # mispredictions.  Our synthetic suite lands in the same band.
    assert report.fork_fraction <= 0.22
    assert report.misprediction_coverage >= 0.70


def test_smt_fetch_gating(run_once):
    report = run_once(evaluate_smt_fetch)
    print()
    print(report.format())
    assert report.gated_efficiency > report.ungated_efficiency
    assert all(gain > -0.02 for gain in report.per_benchmark.values())


def test_reverser(run_once):
    report = run_once(evaluate_reverser)
    print()
    print(report.format())
    # Table 1's message: no resetting-counter bucket crosses 50 %, so the
    # counter-based reverser never fires.
    assert report.counter_reversed_fraction < 0.001
    # Pattern-level reversal is allowed to fire but must not collapse
    # accuracy (train/test split keeps it honest).
    assert report.pattern_reversed_accuracy >= report.baseline_accuracy - 0.005


def test_hybrid_selector(run_once):
    report = run_once(evaluate_hybrid_selector)
    print()
    print(report.format())
    assert report.mean_chooser > report.mean_bimodal
    assert report.mean_chooser > report.mean_gshare
    assert report.confidence_selector_competitive
