"""Tests for the trace substrate: MRT format, topologies, generator."""

import io
import random

import pytest

from repro.bgp.attributes import ASPath
from repro.bgp.messages import Update
from repro.bgp.prefix import Prefix
from repro.traces.collectors import build_collector_fleet
from repro.traces.columnar import ColumnarTrace
from repro.traces.mrt import (
    RowParser,
    TraceReader,
    TraceRecord,
    TraceWriter,
    messages_to_records,
)
from repro.traces.popularity import POPULAR_ORGANIZATIONS, all_popular_asns, is_popular_asn, organization_of
from repro.traces.session_topology import SessionTopology, SessionTopologyConfig
from repro.traces.synthetic import SyntheticTraceConfig, SyntheticTraceGenerator
from repro.traces.validation import TraceValidationError, ValidationReport


class TestMrtFormat:
    def test_record_roundtrip(self):
        record = TraceRecord(
            type="A",
            timestamp=12.5,
            peer_as=3356,
            prefix=Prefix.from_string("10.0.0.0/24"),
            as_path=ASPath([3356, 15169]),
        )
        assert TraceRecord.from_line(record.to_line()) == record

    def test_withdrawal_record(self):
        record = TraceRecord(
            type="W", timestamp=1.0, peer_as=2, prefix=Prefix.from_string("10.0.0.0/24")
        )
        assert "W|" in record.to_line()

    def test_invalid_records(self):
        with pytest.raises(ValueError):
            TraceRecord(type="X", timestamp=0.0, peer_as=1)
        with pytest.raises(ValueError):
            TraceRecord(type="A", timestamp=0.0, peer_as=1)  # missing prefix/path
        with pytest.raises(ValueError):
            TraceRecord.from_line("bad line")

    def test_writer_reader_roundtrip_via_file_object(self):
        buffer = io.StringIO()
        records = [
            TraceRecord(type="W", timestamp=float(i), peer_as=2,
                        prefix=Prefix.from_string(f"10.0.{i}.0/24"))
            for i in range(5)
        ]
        writer = TraceWriter(buffer)
        writer.write_all(records)
        buffer.seek(0)
        read_back = list(TraceReader(buffer))
        assert read_back == records

    def test_message_conversion_roundtrip(self):
        messages = [
            Update.withdraw(1.0, 2, Prefix.from_string("10.0.0.0/24")),
            Update.announce(
                2.0,
                2,
                Prefix.from_string("10.0.1.0/24"),
                __import__("repro.bgp.attributes", fromlist=["PathAttributes"]).PathAttributes(
                    as_path=ASPath([2, 6]), next_hop=2
                ),
            ),
        ]
        buffer = io.StringIO()
        TraceWriter(buffer).write_all(messages_to_records(messages))
        buffer.seek(0)
        back = TraceReader(buffer).read_columnar().to_messages()
        assert back == messages


class TestRowParser:
    """The one text → row step every reader of the dump format shares."""

    @pytest.mark.parametrize("text", ["", "   \n", "# header", "   # indented"])
    def test_blank_and_comment_lines_are_not_checked(self, text):
        report = ValidationReport(lenient=True)
        assert RowParser.read_line(text, report) is None
        assert report.checked == 0 and report.clean

    def test_lenient_report_notes_a_malformed_line(self):
        report = ValidationReport(lenient=True)
        assert RowParser.read_line("bad line\n", report) is None
        assert report.checked == 1
        assert report.skipped == {"malformed-line": 1}

    def test_strict_report_raises_on_a_malformed_line(self):
        with pytest.raises(TraceValidationError):
            RowParser.read_line("bad line", ValidationReport(lenient=False))

    def test_no_report_raises_on_a_malformed_line(self):
        with pytest.raises(TraceValidationError):
            RowParser.read_line("bad line", None)

    def test_backwards_timestamp_and_peer_zero_are_skipped(self):
        prefix = Prefix.from_string("10.0.0.0/24")
        lines = [
            TraceRecord(type="W", timestamp=5.0, peer_as=2, prefix=prefix).to_line(),
            TraceRecord(type="W", timestamp=4.0, peer_as=2, prefix=prefix).to_line(),
            TraceRecord(
                type="A", timestamp=5.0, peer_as=0, prefix=prefix, as_path=ASPath([2, 5])
            ).to_line(),
            TraceRecord(type="S", timestamp=5.0, peer_as=3).to_line(),
        ]
        parser = RowParser()
        trace = ColumnarTrace()
        added = [parser.add_line(trace, line, None) for line in lines]
        assert added == [True, False, False, True]
        assert parser.report.skipped == {"non-monotone-timestamp": 1, "invalid-peer": 1}
        # A skipped record leaves the watermark where the last kept one set it.
        assert parser.previous_time == 5.0
        assert [type(m).__name__ for m in trace.to_messages()] == ["Update", "Notification"]


class TestPopularity:
    def test_known_asns(self):
        assert is_popular_asn(15169)
        assert organization_of(15169) == "Google"
        assert not is_popular_asn(64512)
        assert len(POPULAR_ORGANIZATIONS) == 15
        assert len(all_popular_asns()) >= 15


class TestCollectors:
    def test_fleet_shape(self):
        fleet = build_collector_fleet(peer_count=50, seed=1, flapping_peers=3)
        peers = [peer for collector in fleet for peer in collector.peers]
        assert len(peers) == 50
        assert sum(1 for peer in peers if peer.flapping) == 3
        assert all(peer.table_size >= 4000 for peer in peers)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            build_collector_fleet(peer_count=0)


class TestSessionTopology:
    def test_structure_and_rib(self):
        topology = SessionTopology(SessionTopologyConfig(total_prefixes=2000, seed=1))
        assert topology.prefix_count == 2000
        # Every RIB path starts at the peer AS.
        for path in list(topology.rib.values())[:100]:
            assert path.first_hop == topology.peer_as
        counts = topology.link_prefix_counts()
        assert sum(1 for c in counts.values() if c > 0) > 10

    def test_prefixes_below_and_via_link(self):
        topology = SessionTopology(SessionTopologyConfig(total_prefixes=500, seed=2))
        counts = topology.link_prefix_counts()
        link = max(counts, key=counts.get)
        child = topology.child_of_link(link)
        via = topology.prefixes_via_link(link)
        below = topology.prefixes_below(child)
        assert set(via) == set(below)
        assert len(via) == counts[link]

    def test_reroute_path_avoids_failed_subtree(self):
        topology = SessionTopology(
            SessionTopologyConfig(total_prefixes=500, seed=3, alternate_probability=1.0)
        )
        counts = topology.link_prefix_counts()
        link = max(counts, key=counts.get)
        child = topology.child_of_link(link)
        subtree = topology.subtree(child)
        prefixes = topology.prefixes_below(child)
        rerouted = topology.reroute_path(topology.origin_of(prefixes[0]), child, subtree)
        if rerouted is not None:
            links = rerouted.links()
            canonical = link if link[0] <= link[1] else (link[1], link[0])
            assert canonical not in links

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SessionTopologyConfig(total_prefixes=0)


class TestSyntheticTrace:
    def test_generation_and_consistency(self):
        config = SyntheticTraceConfig(
            peer_count=3, duration_days=5, min_table_size=2000, max_table_size=6000,
            noise_rate_per_second=0.0, seed=5,
        )
        trace = SyntheticTraceGenerator(config).generate()
        assert len(trace.peers) == 3
        for burst in trace.bursts:
            assert burst.size >= config.burst_size_minimum
            rib = trace.rib_of(burst.peer.peer_as)
            # Withdrawn prefixes existed in the pre-trace RIB.
            assert burst.withdrawn_prefixes <= set(rib)
            # Withdrawn prefixes all crossed the failed link.
            failed = burst.failed_link
            sample = list(burst.withdrawn_prefixes)[:50]
            assert all(failed in rib[p].links() for p in sample)

    def test_single_burst_generation(self):
        generator = SyntheticTraceGenerator(SyntheticTraceConfig(seed=9))
        topology = SessionTopology(SessionTopologyConfig(total_prefixes=5000, seed=9))
        burst = generator.generate_burst(topology, target_size=2000, rng=random.Random(1))
        assert burst is not None
        assert burst.size >= 1500
        assert burst.duration > 0

    def test_determinism(self):
        config = SyntheticTraceConfig(
            peer_count=2, duration_days=3, min_table_size=2000, max_table_size=4000,
            noise_rate_per_second=0.0, seed=11,
        )
        first = SyntheticTraceGenerator(config).generate()
        second = SyntheticTraceGenerator(config).generate()
        assert [b.size for b in first.bursts] == [b.size for b in second.bursts]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticTraceConfig(peer_count=0)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(withdrawal_fraction=0.0)
