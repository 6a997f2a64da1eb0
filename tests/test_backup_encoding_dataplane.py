"""Tests for backup computation, the tag encoding and the data plane."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.prefix import Prefix, prefix_block
from repro.bgp.rib import RibEntry
from repro.core.backup import (
    BackupComputer, BackupProfileIndex, BackupTableView, ReroutingPolicy,
)
from repro.core.encoding import EncoderConfig, TagEncoder, WildcardRule
from repro.dataplane.fib import PerPrefixFib, TwoStageForwardingTable
from repro.dataplane.packet import Packet
from repro.dataplane.timing import FibUpdateTimingModel

PFX = prefix_block("60.0.0.0/24", 2000)


def _entry(prefix, path, peer=None, local_pref=100):
    as_path = ASPath(path)
    return RibEntry(
        prefix=prefix,
        attributes=PathAttributes(
            as_path=as_path, next_hop=as_path.first_hop, local_pref=local_pref
        ),
        peer_as=peer or as_path.first_hop,
    )


class TestReroutingPolicy:
    def test_forbidden_and_preferences(self):
        policy = ReroutingPolicy(
            forbidden_next_hops=frozenset({9}), preferences={3: 0, 4: 5}
        )
        assert not policy.allows(9)
        assert policy.allows(3)
        assert policy.preference_of(3) < policy.preference_of(4)
        assert policy.preference_of(42) == policy.default_preference

    def test_capacity(self):
        policy = ReroutingPolicy(capacity_limits={3: 2})
        assert policy.capacity_of(3) == 2
        assert policy.capacity_of(4) is None


class TestBackupComputer:
    def test_avoids_protected_link(self):
        computer = BackupComputer()
        prefix = PFX[0]
        alternates = [_entry(prefix, [3, 6]), _entry(prefix, [4, 5, 6])]
        selection = computer.select(prefix, (5, 6), alternates)
        assert selection is not None and selection.next_hop == 3

    def test_strict_mode_avoids_endpoints(self):
        computer = BackupComputer(avoid_both_endpoints=True)
        prefix = PFX[0]
        alternates = [_entry(prefix, [3, 6]), _entry(prefix, [4, 9, 10])]
        selection = computer.select(prefix, (5, 6), alternates)
        # (3, 6) visits endpoint 6 and is rejected in strict mode.
        assert selection is not None and selection.next_hop == 4

    def test_policy_preference_wins(self):
        policy = ReroutingPolicy(preferences={4: 0, 3: 5})
        computer = BackupComputer(policy=policy)
        prefix = PFX[0]
        alternates = [_entry(prefix, [3, 9, 6]), _entry(prefix, [4, 8, 6])]
        selection = computer.select(prefix, (5, 6), alternates)
        assert selection.next_hop == 4

    def test_capacity_limit_spills_to_next_choice(self):
        policy = ReroutingPolicy(preferences={3: 0, 4: 1}, capacity_limits={3: 1})
        computer = BackupComputer(policy=policy)
        usage = {}
        alternates = lambda prefix: [_entry(prefix, [3, 6]), _entry(prefix, [4, 8, 6])]
        first = computer.select(PFX[0], (5, 6), alternates(PFX[0]), usage)
        second = computer.select(PFX[1], (5, 6), alternates(PFX[1]), usage)
        assert first.next_hop == 3
        assert second.next_hop == 4

    def test_forbidden_next_hop_excluded(self):
        policy = ReroutingPolicy(forbidden_next_hops=frozenset({3}))
        computer = BackupComputer(policy=policy)
        alternates = [_entry(PFX[0], [3, 6])]
        assert computer.select(PFX[0], (5, 6), alternates) is None

    def test_protected_links_depth_limit(self):
        computer = BackupComputer(max_depth=2)
        links = computer.protected_links(ASPath([2, 5, 6, 7, 8]), local_as=1)
        assert links == [(1, 2), (2, 5)]

    def test_compute_table(self):
        computer = BackupComputer()
        best = {
            PFX[0]: _entry(PFX[0], [2, 5, 6], local_pref=200),
            PFX[1]: _entry(PFX[1], [2, 5, 6], local_pref=200),
        }
        alternates = {
            PFX[0]: [_entry(PFX[0], [3, 6])],
            PFX[1]: [_entry(PFX[1], [3, 6])],
        }
        table = computer.compute_table(1, best, lambda p: alternates[p])
        assert (5, 6) in table[PFX[0]]
        # Filling an index returns the same table, read through the index.
        index = BackupProfileIndex()
        view = computer.compute_table(1, best, lambda p: alternates[p], index=index)
        assert isinstance(view, BackupTableView)
        assert view == table and dict(view) == table
        assert index.next_hops((5, 6)) == {3: 2}
        assert index.profile_of[PFX[0]].next_hops == {
            link: selection.next_hop for link, selection in table[PFX[0]].items()
        }
        # Capacity limits take the reference walk, index or not.
        capped = BackupComputer(policy=ReroutingPolicy(capacity_limits={3: 1}))
        reference = capped.compute_table_reference(1, best, lambda p: alternates[p])
        assert list(reference) == [PFX[0]]
        index = BackupProfileIndex()
        assert capped.compute_table(1, best, lambda p: alternates[p], index=index) == reference
        assert index.next_hops((1, 2)) == {3: 1}


def _fig1_paths(count=2000):
    paths = {}
    for prefix in PFX[: count // 2]:
        paths[prefix] = ASPath([2, 5, 6])
    for prefix in PFX[count // 2 : count]:
        paths[prefix] = ASPath([2, 5, 6, 7])
    return paths


class TestTagEncoder:
    def test_tags_are_within_budget(self):
        encoder = TagEncoder(EncoderConfig(prefix_threshold=100))
        encoded = encoder.encode(_fig1_paths())
        assert all(0 <= tag < (1 << 48) for tag in encoded.tags.values())
        assert encoded.encoded_prefix_count == len(encoded.tags)

    def test_heavy_links_encoded_first(self):
        encoder = TagEncoder(EncoderConfig(path_bits=2, prefix_threshold=100))
        encoded = encoder.encode(_fig1_paths())
        # With only 2 bits, the heaviest (link, position) pairs win.
        assert encoded.is_encoded((2, 5), 1)

    def test_threshold_excludes_light_links(self):
        paths = _fig1_paths()
        # One extra path crossing a light link.
        paths[Prefix.from_string("99.0.0.0/24")] = ASPath([2, 9, 99])
        encoder = TagEncoder(EncoderConfig(prefix_threshold=100))
        encoded = encoder.encode(paths)
        assert not encoded.is_encoded((2, 9), 1)

    def test_reroute_rule_matches_affected_prefixes_only(self):
        paths = _fig1_paths()
        encoder = TagEncoder(EncoderConfig(prefix_threshold=100))
        encoded = encoder.encode(paths, neighbors=[2, 3])
        rules = encoder.reroute_rules(encoded, (6, 7), {3: 10})
        assert rules, "link (6,7) should be encoded"
        rule = rules[0]
        affected = [p for p, path in paths.items() if path.traverses((6, 7))]
        unaffected = [p for p, path in paths.items() if not path.traverses((6, 7))]
        # Tags of prefixes whose backup next-hop is 3 and path crosses (6, 7)
        # match; others never match.
        assert not any(rule.matches(encoded.tags[p]) for p in unaffected)

    def test_coverage_metric(self):
        paths = _fig1_paths()
        encoder = TagEncoder(EncoderConfig(prefix_threshold=100))
        encoded = encoder.encode(paths)
        coverage = encoder.coverage(encoded, paths, list(paths), [(5, 6)])
        assert coverage == pytest.approx(1.0)
        coverage_none = encoder.coverage(encoded, paths, list(paths), [(42, 43)])
        assert coverage_none == 0.0

    def test_next_hop_capacity_limited_by_bits(self):
        config = EncoderConfig(total_bits=16, path_bits=6, backup_depth=1)
        assert config.bits_per_nexthop == 5
        assert config.max_next_hops == 31

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(path_bits=48, total_bits=48)
        with pytest.raises(ValueError):
            EncoderConfig(total_bits=0)


class TestWildcardRule:
    def test_matching(self):
        rule = WildcardRule(value=0b1010, mask=0b1110, next_hop=3)
        assert rule.matches(0b1011)
        assert not rule.matches(0b0010)

    @given(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1))
    def test_match_is_mask_consistent(self, tag, mask):
        rule = WildcardRule(value=tag & mask, mask=mask, next_hop=1)
        assert rule.matches(tag)


class TestPerPrefixFib:
    def test_lpm_forwarding(self):
        fib = PerPrefixFib()
        fib.install(Prefix.from_string("10.0.0.0/8"), 2)
        fib.install(Prefix.from_string("10.1.0.0/16"), 3)
        assert fib.next_hop_of(Prefix.from_string("10.1.2.3/32").network) == 3
        assert fib.next_hop_of(Prefix.from_string("10.9.2.3/32").network) == 2
        packet = Packet(destination=Prefix.from_string("11.0.0.1/32").network)
        assert fib.forward(packet).dropped

    def test_update_counter(self):
        fib = PerPrefixFib()
        fib.install(PFX[0], 2)
        fib.withdraw(PFX[0])
        assert not fib.withdraw(PFX[0])
        assert fib.updates_applied == 2


class TestTwoStageTable:
    def _table(self):
        table = TwoStageForwardingTable()
        table.set_tag(PFX[0], 0b0101)
        table.set_tag(PFX[1], 0b1001)
        table.install_rule(WildcardRule(value=0b0001, mask=0b0011, next_hop=2), priority=0)
        return table

    def test_default_forwarding(self):
        table = self._table()
        assert table.forward_address(PFX[0].network) == 2
        assert table.forward_address(PFX[1].network) == 2

    def test_high_priority_rule_wins(self):
        table = self._table()
        table.install_rule(
            WildcardRule(value=0b0100, mask=0b0100, next_hop=3), priority=100
        )
        assert table.forward_address(PFX[0].network) == 3
        assert table.forward_address(PFX[1].network) == 2

    def test_clear_rules_by_priority(self):
        table = self._table()
        table.install_rule(WildcardRule(value=0, mask=0, next_hop=9), priority=100)
        removed = table.clear_rules(min_priority=100)
        assert removed == 1
        assert table.rule_count == 1

    def test_unknown_destination_dropped(self):
        table = self._table()
        assert table.forward_address(Prefix.from_string("99.0.0.1/32").network) is None


class TestTiming:
    def test_per_prefix_scaling_matches_table1_shape(self):
        timing = FibUpdateTimingModel()
        assert timing.per_prefix_convergence_time(290000) == pytest.approx(109.0, rel=0.05)
        assert timing.per_prefix_convergence_time(10000) == pytest.approx(3.75, rel=0.05)

    def test_rule_updates_are_milliseconds(self):
        timing = FibUpdateTimingModel()
        assert timing.rule_update_time(64) < 0.3
        assert timing.rule_update_time(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            FibUpdateTimingModel(per_prefix_seconds=0)
        with pytest.raises(ValueError):
            FibUpdateTimingModel().per_prefix_convergence_time(-1)
