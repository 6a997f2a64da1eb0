"""Benchmarks regenerating Fig. 9(a) (case study) and the §6.5 rule counts."""

import pytest

from repro.experiments import fig9, rerouting_speed


@pytest.mark.slow
def test_bench_fig9_case_study(benchmark):
    result = benchmark.pedantic(
        fig9.run, kwargs={"prefix_count": 120000}, rounds=1, iterations=1
    )
    print()
    print(fig9.format_result(result))
    # The SWIFTED deployment converges in a couple of seconds regardless of
    # the table size, while the vanilla router takes tens of seconds; the
    # paper reports a ~98% reduction at 290k prefixes.
    assert result.swift_convergence_seconds < 6.0
    assert result.speedup_percent > 85.0


def test_bench_rerouting_speed(benchmark, corpus):
    subset = corpus[:12]
    result = benchmark.pedantic(
        rerouting_speed.run, args=(subset,), rounds=1, iterations=1
    )
    print()
    print(rerouting_speed.format_result(result))
    # Few rules and sub-second data-plane updates (paper: 64 rules over 16
    # backup next hops, ~130 ms; the replay has one backup next hop).
    assert result.median_rules() <= 600
    assert result.median_update_seconds() < 0.5
