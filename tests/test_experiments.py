"""Tests for the experiment harnesses (scaled-down runs)."""

import pytest

from repro.experiments import burst_corpus, evaluate_burst
from repro.experiments import (
    fig2,
    fig6,
    fig7,
    fig8,
    fig9,
    rerouting_speed,
    simulation_validation,
    table1,
    table2,
)
from repro.core.burst_detection import extract_bursts
from repro.metrics.quadrants import Quadrant
from repro.traces.columnar import ColumnarTrace
from repro.traces.synthetic import SyntheticTraceConfig, SyntheticTraceGenerator


@pytest.fixture(scope="module")
def corpus():
    bursts = burst_corpus(
        peer_count=5, duration_days=8, min_table_size=3000, max_table_size=12000, seed=3
    )
    assert bursts, "the corpus fixture must generate at least one burst"
    return bursts


@pytest.fixture(scope="module")
def small_trace():
    config = SyntheticTraceConfig(
        peer_count=8, duration_days=8, min_table_size=3000, max_table_size=20000,
        noise_rate_per_second=0.0, seed=21,
    )
    return SyntheticTraceGenerator(config).generate()


class TestCommon:
    def test_corpus_bursts_have_rib_and_ground_truth(self, corpus):
        burst = corpus[0]
        assert burst.size >= 2500
        assert burst.withdrawn_prefixes
        assert burst.failed_link is not None
        assert set(burst.withdrawn_prefixes) <= set(burst.rib)

    def test_evaluate_burst_produces_scores(self, corpus):
        evaluation = evaluate_burst(corpus[0])
        if evaluation.made_prediction:
            assert 0.0 <= evaluation.tpr <= 1.0
            assert 0.0 <= evaluation.fpr <= 1.0
            assert evaluation.prediction is not None


class TestTable1:
    def test_downtime_grows_linearly(self):
        result = table1.run(burst_sizes=(10000, 50000), use_probes=False)
        assert result.downtime_of[50000] > 4 * result.downtime_of[10000]
        text = table1.format_result(result)
        assert "10k" in text and "50k" in text

    def test_matches_paper_within_factor_two(self):
        result = table1.run(burst_sizes=(10000, 100000), use_probes=False)
        for size, paper_value in ((10000, 3.8), (100000, 37.9)):
            assert result.downtime_of[size] == pytest.approx(paper_value, rel=0.5)


@pytest.fixture(scope="module")
def small_trace_bursts(small_trace):
    """The bursts extracted from each session's stream of ``small_trace``."""
    return {
        peer.peer_as: extract_bursts(
            ColumnarTrace.from_messages(small_trace.messages_of(peer.peer_as))
        )
        for peer in small_trace.peers
    }


class TestFig2:
    def test_burst_counts_scale_with_sessions(self, small_trace):
        result = fig2.run(trace=small_trace, session_counts=(1, 5), min_sizes=(1500, 5000), samples=10)
        assert result.total_bursts > 0
        few = result.bursts_per_month[(1, 1500)].median
        many = result.bursts_per_month[(5, 1500)].median
        assert many >= few
        assert "Fig. 2" in fig2.format_result(result)

    def test_extracted_bursts_match_ground_truth(self, small_trace, small_trace_bursts):
        # Noise is off, so every extracted burst is one generated burst with
        # the same size; a burst no 10 s window of which reaches 1,500
        # withdrawals is not a burst by §2.2.1 and may be missed.
        missed = 0
        for peer_as, extracted in small_trace_bursts.items():
            truth = small_trace.bursts_of(peer_as)
            matched = []
            for burst in extracted:
                (generated,) = [
                    g for g in truth if g.start_time <= burst.start_time <= g.end_time
                ]
                assert burst.size == generated.size
                matched.append(generated)
            assert len({id(g) for g in matched}) == len(matched)
            missed += len(truth) - len(matched)
        assert missed <= 1

    def test_figure_is_measured_not_echoed(self, small_trace, small_trace_bursts):
        result = fig2.run(trace=small_trace, session_counts=(1,), min_sizes=(1500,), samples=2)
        extracted = [b.duration for bursts in small_trace_bursts.values() for b in bursts]
        figure = result.small_burst_durations + result.large_burst_durations
        assert sorted(figure) == sorted(extracted)
        assert result.total_bursts == len(extracted)
        assert result.generator_bursts == small_trace.burst_count
        assert "paper: 0.37, generator:" in fig2.format_result(result)

    def test_larger_bursts_are_rarer(self, small_trace):
        result = fig2.run(trace=small_trace, session_counts=(5,), min_sizes=(1500, 10000), samples=10)
        assert (
            result.bursts_per_month[(5, 10000)].median
            <= result.bursts_per_month[(5, 1500)].median
        )


class TestFig6:
    def test_quadrants_and_no_bad_inferences(self, corpus):
        result = fig6.run(corpus)
        assert result.burst_count == len(corpus)
        # The paper's key qualitative claim: no inference in the bottom-right.
        assert result.bad_inference_share() == 0.0
        # Most inferences are good (top-left dominates).
        good = result.with_history.get(Quadrant.TOP_LEFT, 0.0)
        assert good >= 0.5 or not result.points_with_history
        assert "Fig. 6" in fig6.format_result(result)


class TestTable2:
    def test_prediction_accuracy(self, corpus):
        result = table2.run(corpus)
        assert result.small_count + result.large_count > 0
        if result.small_count:
            assert result.median_cpr(large=False) >= 0.5
        assert "Table 2" in table2.format_result(result)


class TestFig7:
    def test_more_bits_never_hurt(self, corpus):
        result = fig7.run(corpus[:6], bit_budgets=(13, 18, 28), prefix_threshold=500)
        medians = [result.median_at(bits) for bits in (13, 18, 28)]
        assert medians == sorted(medians)
        assert medians[-1] > 0.5
        assert "Fig. 7" in fig7.format_result(result)


class TestFig8:
    def test_swift_learns_faster_than_bgp(self, corpus):
        result = fig8.run(corpus)
        assert result.swift_seconds and result.bgp_seconds
        assert result.median(swift=True) <= result.median(swift=False)
        assert "Fig. 8" in fig8.format_result(result)


class TestFig9:
    def test_case_study_speedup(self):
        result = fig9.run(prefix_count=30000)
        assert result.swift_convergence_seconds < result.vanilla_convergence_seconds
        assert result.speedup_percent > 50.0
        assert result.vanilla_loss_series[0][1] == 100.0
        assert "speed-up" in fig9.format_result(result)


class TestReroutingSpeed:
    def test_rule_counts_and_latency(self, corpus):
        result = rerouting_speed.run(corpus[:6], backup_next_hops=16)
        assert result.bursts > 0
        assert result.median_rules() >= 1
        assert result.median_update_seconds() < 0.5
        assert "Rerouting speed" in rerouting_speed.format_result(result)


class TestSimulationValidation:
    def test_end_of_burst_inference_contains_or_neighbours_failure(self):
        result = simulation_validation.run(
            as_count=150, prefixes_per_as=10, failures=8, min_burst=30, seed=2
        )
        assert result.bursts > 0
        assert result.end_wrong <= result.bursts * 0.2
        assert result.end_contains_failed_share + (result.end_adjacent / result.bursts) >= 0.8
        assert "Simulation validation" in simulation_validation.format_result(result)
