"""Tests for the experiment harnesses (scaled-down runs)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles.encoding_coverage import coverage

from repro.experiments import cached_corpus, replay_corpus, session_replays
from repro.experiments.common import trace_corpus
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
from repro.core.burst_detection import BurstDetectorConfig, extract_bursts
from repro.core.encoding import EncoderConfig
from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig
from repro.core.swifted_router import SwiftConfig
from repro.experiments.month_replay import StreamReplayer
from repro.metrics.quadrants import Quadrant
from repro.traces.synthetic import SyntheticTraceConfig, SyntheticTraceGenerator


@pytest.fixture(scope="module")
def corpus():
    bursts = cached_corpus(
        peer_count=5, duration_days=8, min_table_size=3000, max_table_size=12000, seed=3
    )
    assert bursts, "the corpus fixture must generate at least one burst"
    return bursts


@pytest.fixture(scope="module")
def records(corpus):
    """The corpus replayed once with the default configuration."""
    records, unmatched = replay_corpus(corpus)
    assert records and not unmatched
    return records


@pytest.fixture(scope="module")
def small_trace():
    config = SyntheticTraceConfig(
        peer_count=8, duration_days=8, min_table_size=3000, max_table_size=20000,
        noise_rate_per_second=0.0, seed=21,
    )
    return SyntheticTraceGenerator(config).stream()


class TestCommon:
    def test_corpus_bursts_have_rib_and_ground_truth(self, corpus):
        burst = corpus[0]
        assert burst.size >= 2500
        assert burst.withdrawn_prefixes
        assert burst.failed_link is not None
        assert set(burst.withdrawn_prefixes) <= set(burst.rib)

    def test_replay_records_carry_scores(self, corpus, records):
        assert {id(record.burst) for record in records} == {id(burst) for burst in corpus}
        for record in records:
            burst, start = record.burst, record.inference.burst_start
            assert burst.start_time <= start <= burst.messages.last_timestamp
            localisation = record.localisation()
            assert 0.0 <= localisation.tpr <= 1.0
            assert 0.0 <= localisation.fpr <= 1.0
            assert 0.0 <= record.prediction().tpr <= 1.0

    def test_a_record_outside_the_corpus_is_counted_not_dropped(self, corpus, records):
        # The session's stream still carries the burst left out of the
        # corpus: its inference is reported as unmatched.
        assert sum(record.burst is corpus[0] for record in records) == 1
        result = table2.run(corpus[1:])
        assert result.unmatched == 1
        assert result.small_count + result.large_count == len(records) - 1
        assert "outside every corpus burst: 1" in table2.format_result(result)


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
        peer.peer_as: extract_bursts(small_trace.messages_of(peer.peer_as))
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
        assert result.generator_bursts == len(small_trace.bursts)
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


class TestEmptyClasses:
    def test_a_class_with_no_burst_reads_n0(self, corpus):
        # No tier-1 corpus burst reaches Fig. 7's 10k or Table 2's 15k class.
        assert max(burst.size for burst in corpus) < 10000
        figure = fig7.run(corpus, bit_budgets=(18,))
        assert figure.large_bursts == {18: None}
        assert "n=0" in fig7.format_result(figure)
        table = table2.run(corpus)
        assert table.large_count == 0 and table.large_cpr == {}
        assert table.median_cpr(large=True) is None
        assert "n=0: no burst" in table2.format_result(table)


class TestFig7:
    def test_more_bits_never_hurt(self, corpus):
        result = fig7.run(corpus[:6], bit_budgets=(13, 18, 28), prefix_threshold=500)
        medians = [result.median_at(bits) for bits in (13, 18, 28)]
        assert medians == sorted(medians)
        assert medians[-1] > 0.5
        assert "Fig. 7" in fig7.format_result(result)


#: Drawn sessions are small: bursts of a few hundred withdrawals, which the
#: paper's 1,500-withdrawal detector and 2,500-withdrawal trigger never see.
#: The property scales the generator's burst floor, the detector and the
#: trigger down together.
_SMALL_WORLD_INFERENCE = InferenceConfig(
    detector=BurstDetectorConfig(start_threshold=60),
    schedule=TriggeringSchedule(steps=((100, 1_000_000),), unconditional_after=100),
)


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    peers=st.integers(1, 2),
    table_size=st.integers(400, 3000),
    prefix_threshold=st.sampled_from([1, 100, 500]),
    seed=st.integers(0, 2**32 - 1),
)
def test_rerouted_share_is_the_coverage_oracle(peers, table_size, prefix_threshold, seed):
    trace = SyntheticTraceGenerator(
        SyntheticTraceConfig(
            peer_count=peers,
            duration_days=2,
            bursts_per_session_month=150,
            burst_size_minimum=100,
            min_table_size=400,
            max_table_size=table_size,
            noise_rate_per_second=0.0,
            seed=seed,
        )
    ).stream()
    corpus = trace_corpus(trace, min_burst_size=1)
    config = SwiftConfig(
        inference=_SMALL_WORLD_INFERENCE,
        encoder=EncoderConfig(prefix_threshold=prefix_threshold),
    )
    # The replay loads each session's RIB over a less preferred backup
    # session: the RIB is what the router encoded at provision time.
    ribs = {id(burst.messages.trace): burst.rib for burst in corpus}.values()
    for best_paths, (router, records) in zip(ribs, session_replays(corpus, config)):
        profile_of = router.backup_index.profile_of
        for record in records:
            if record.action is None:
                continue
            inference = record.inference
            predicted = inference.prediction.predicted_prefixes
            assert record.rerouted_share() == coverage(
                router.encoded_tags, best_paths, predicted, inference.inferred_links
            )
            for prefix in predicted:
                tag = router.encoded_tags.tags.get(prefix)
                matching = [
                    rule for rule in record.action.rules
                    if tag is not None and rule.matches(tag)
                ]
                if not matching:
                    continue
                backups = profile_of[prefix].next_hops
                crossed = set(best_paths[prefix].links()) & set(inference.inferred_links)
                for rule in matching:
                    assert any(backups.get(link) == rule.next_hop for link in crossed)


class TestFig8:
    def test_swift_learns_faster_than_bgp(self, corpus):
        result = fig8.run(corpus)
        assert result.swift_seconds and result.bgp_seconds
        assert result.median(swift=True) <= result.median(swift=False)
        # The detector fires on each burst's first rows.
        assert result.detection_delays == [0.0] * result.bursts_with_prediction
        text = fig8.format_result(result)
        assert "Fig. 8" in text and "median detection delay" in text


class TestFig9:
    def test_case_study_speedup(self):
        result = fig9.run(prefix_count=30000)
        assert result.swift_convergence_seconds < result.vanilla_convergence_seconds
        assert result.speedup_percent > 50.0
        assert result.vanilla_loss_series[0][1] == 100.0
        assert "speed-up" in fig9.format_result(result)


@pytest.fixture(scope="module")
def rerouting(corpus):
    return rerouting_speed.run(corpus)


class TestReroutingSpeed:
    def test_rule_counts_and_latency(self, rerouting):
        assert rerouting.bursts > 0
        assert rerouting.median_update_seconds() < 0.5
        assert "Rerouting speed" in rerouting_speed.format_result(rerouting)

    def test_unencoded_counts_inferences_that_installed_nothing(self, records, rerouting):
        assert rerouting.bursts == len(records)
        assert rerouting.unencoded == sum(r.action is None for r in records)
        assert len(rerouting.rule_counts) == rerouting.bursts - rerouting.unencoded
        assert f"installing no rule: {rerouting.unencoded}" in (
            rerouting_speed.format_result(rerouting)
        )

    @pytest.mark.parametrize("prefix_threshold", [1500, 500])
    def test_rule_counts_are_the_encoders_rules(self, corpus, prefix_threshold):
        # The tier-1 corpus is one session: its replay's actions are all of
        # the corpus's reroutes, installed from the encoder's rules.
        encoder_config = EncoderConfig(prefix_threshold=prefix_threshold)
        result = rerouting_speed.run(corpus, encoder_config=encoder_config)
        (session,) = {id(burst.messages.trace): burst for burst in corpus}.values()
        replayer = StreamReplayer(
            session.rib,
            session.peer_as,
            swift_config=SwiftConfig(encoder=encoder_config),
        )
        installed = [action.rule_count for action in replayer.feed(session.messages.trace)]
        assert result.rule_counts == installed
        assert max(result.rule_counts) > 0


class TestSimulationValidation:
    def test_end_of_burst_inference_contains_or_neighbours_failure(self):
        result = simulation_validation.run(
            as_count=150, prefixes_per_as=10, failures=8, min_burst=30, seed=2
        )
        assert result.bursts > 0
        assert result.end_wrong <= result.bursts * 0.2
        assert result.end_contains_failed_share + (result.end_adjacent / result.bursts) >= 0.8
        assert "Simulation validation" in simulation_validation.format_result(result)
        # Every prefix the router moved still has a route on its new next
        # hop after the failure.
        assert result.moved_safe > 0
        assert result.moved_unsafe == 0


@settings(max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(as_count=st.integers(60, 150), seed=st.integers(0, 2**16))
def test_end_of_burst_inference_contains_the_failed_link(as_count, seed):
    """Theorem 4.1 through the router: with no noise, every simulated
    burst's end-of-burst inference contains the failed link."""
    result = simulation_validation.run(
        as_count=as_count, prefixes_per_as=10, failures=4, min_burst=20, seed=seed
    )
    verdicts = {outcome.verdict for outcome in result.outcomes}
    assert verdicts <= {"exact", "superset"}
