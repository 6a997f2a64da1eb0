"""Ablation benchmarks for the design choices called out in DESIGN.md.

* Fit-score weights ``wWS : wPS`` — the paper calibrates 3:1; the ablation
  compares 1:1, 3:1 and 9:1.
* Encoding prefix-count threshold — the paper ignores links carrying fewer
  than 1,500 prefixes; the ablation sweeps the threshold.
"""

import pytest

from repro.core.fit_score import FitScoreConfig
from repro.core.inference import InferenceConfig
from repro.core.swifted_router import SwiftConfig
from repro.experiments import fig7, replay_corpus
from repro.metrics.quadrants import Quadrant, quadrant_shares


def _config_with_weights(ws_weight: float, ps_weight: float) -> SwiftConfig:
    return SwiftConfig(
        inference=InferenceConfig(
            fit_score=FitScoreConfig(ws_weight=ws_weight, ps_weight=ps_weight)
        )
    )


@pytest.mark.slow
def test_bench_ablation_fit_score_weights(benchmark, corpus):
    def run_ablation():
        results = {}
        for label, (ws, ps) in {"1:1": (1.0, 1.0), "3:1": (3.0, 1.0), "9:1": (9.0, 1.0)}.items():
            records, _ = replay_corpus(corpus, _config_with_weights(ws, ps))
            localisations = [record.localisation() for record in records]
            results[label] = quadrant_shares([(c.tpr, c.fpr) for c in localisations])
        return results

    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print()
    for label, shares in results.items():
        print(
            f"  wWS:wPS={label}  good={shares[Quadrant.TOP_LEFT]:.2f}  "
            f"over={shares[Quadrant.TOP_RIGHT]:.2f}  "
            f"under={shares[Quadrant.BOTTOM_LEFT]:.2f}  "
            f"bad={shares[Quadrant.BOTTOM_RIGHT]:.2f}"
        )
    # The paper's 3:1 weighting should be at least as good as 1:1 on the
    # share of good inferences, and never produce bad inferences.
    assert results["3:1"][Quadrant.BOTTOM_RIGHT] == 0.0


@pytest.mark.slow
def test_bench_ablation_encoding_threshold(benchmark, corpus):
    subset = corpus[:8]

    def run_ablation():
        return {
            threshold: fig7.run(
                subset, bit_budgets=(18,), prefix_threshold=threshold
            ).median_at(18)
            for threshold in (200, 500, 1500, 5000)
        }

    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print()
    for threshold, median in sorted(results.items()):
        print(f"  prefix threshold {threshold:>5}: median encoding performance {median:.3f}")
    # Lower thresholds can only improve (or equal) coverage at a fixed budget
    # as long as the budget is not exhausted by light links.
    assert results[200] >= results[5000] - 0.25
