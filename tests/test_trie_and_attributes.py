"""Tests for the prefix trie, AS paths and path attributes."""

import pytest
from hypothesis import given, strategies as st

from repro.bgp.attributes import ASPath, Community, Origin, PathAttributes
from repro.bgp.prefix import Prefix, prefix_block
from repro.bgp.trie import PrefixTrie


class TestPrefixTrie:
    def test_insert_get_remove(self):
        trie = PrefixTrie()
        prefix = Prefix.from_string("10.0.0.0/24")
        trie.insert(prefix, "a")
        assert trie[prefix] == "a"
        assert prefix in trie
        assert trie.remove(prefix) == "a"
        assert prefix not in trie
        assert len(trie) == 0

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            PrefixTrie().remove(Prefix.from_string("10.0.0.0/24"))

    def test_longest_prefix_match(self):
        trie = PrefixTrie()
        trie.insert(Prefix.from_string("10.0.0.0/8"), "short")
        trie.insert(Prefix.from_string("10.1.0.0/16"), "long")
        match = trie.lookup(Prefix.from_string("10.1.2.3/32").network)
        assert match is not None and match[1] == "long"
        match = trie.lookup(Prefix.from_string("10.2.2.3/32").network)
        assert match is not None and match[1] == "short"
        assert trie.lookup(Prefix.from_string("11.0.0.1/32").network) is None

    def test_iteration_sorted(self):
        trie = PrefixTrie()
        block = prefix_block("10.0.0.0/24", 20)
        for index, prefix in enumerate(reversed(block)):
            trie.insert(prefix, index)
        assert list(trie.keys()) == sorted(block)

    @given(st.sets(st.integers(0, 2**24 - 1), min_size=1, max_size=40))
    def test_lpm_agrees_with_bruteforce(self, networks):
        trie = PrefixTrie()
        prefixes = [Prefix(network << 8, 24) for network in networks]
        for prefix in prefixes:
            trie.insert(prefix, prefix)
        probe = prefixes[0].network + 5
        match = trie.lookup(probe)
        expected = [p for p in prefixes if p.contains_address(probe)]
        assert match is not None and match[0] in expected


class TestASPath:
    def test_links_and_positions(self):
        path = ASPath([2, 5, 6, 8])
        assert path.links() == ((2, 5), (5, 6), (6, 8))
        assert path.links_with_positions()[0] == ((2, 5), 1)
        assert path.origin_as == 8
        assert path.first_hop == 2

    def test_traverses(self):
        path = ASPath([2, 5, 6])
        assert path.traverses((6, 5))
        assert not path.traverses((2, 6))
        assert path.traverses_as(5)

    def test_loop_detection_and_prepend(self):
        assert not ASPath([1, 2, 3]).has_loop()
        assert ASPath([1, 2, 1]).has_loop()
        assert ASPath([2, 3]).prepend(2).asns == (2, 2, 3)

    def test_from_string_and_str_roundtrip(self):
        path = ASPath.from_string("2 5 6")
        assert str(path) == "2 5 6"
        assert len(path) == 3

    def test_invalid_asn_raises(self):
        with pytest.raises(ValueError):
            ASPath([0, 1])

    def test_truncate(self):
        assert ASPath([1, 2, 3, 4]).truncate(2).asns == (1, 2, 3)

    @given(st.lists(st.integers(1, 2**16), min_size=2, max_size=10))
    def test_link_count_is_length_minus_one(self, asns):
        path = ASPath(asns)
        assert len(path.links()) == len(asns) - 1


class TestAttributes:
    def test_community_parse_and_validate(self):
        community = Community.from_string("65000:100")
        assert str(community) == "65000:100"
        with pytest.raises(ValueError):
            Community(70000, 1)
        with pytest.raises(ValueError):
            Community.from_string("bad")

    def test_path_attributes_validation(self):
        attributes = PathAttributes(as_path=ASPath([2, 6]), next_hop=2)
        assert attributes.local_pref == 100
        assert attributes.origin == Origin.IGP
        with pytest.raises(ValueError):
            PathAttributes(as_path=ASPath([2]), next_hop=2, local_pref=-1)
