"""Tests for repro.bgp.prefix."""

import copy
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.bgp.prefix import (
    Prefix,
    PrefixError,
    _restore_prefix,
    parse_prefix,
    prefix_block,
    random_addresses,
    summarize_prefixes,
)
from repro.traces.fulltable import FullTableConfig, FullTableGenerator


class TestPrefixParsing:
    def test_parse_simple(self):
        prefix = Prefix.from_string("203.0.113.0/24")
        assert prefix.length == 24
        assert str(prefix) == "203.0.113.0/24"

    def test_parse_bare_address_is_host_route(self):
        assert Prefix.from_string("10.0.0.1").length == 32

    def test_parse_helper(self):
        assert parse_prefix("10.0.0.0/8") == Prefix(10 << 24, 8)

    def test_host_bits_are_masked(self):
        assert str(Prefix.from_string("10.0.0.255/24")) == "10.0.0.0/24"

    @pytest.mark.parametrize(
        "bad", ["10.0.0/24", "10.0.0.256/24", "10.0.0.0/33", "10.0.0.0/x", "a.b.c.d/8"]
    )
    def test_invalid_strings_raise(self, bad):
        with pytest.raises(PrefixError):
            Prefix.from_string(bad)

    def test_invalid_length_raises(self):
        with pytest.raises(PrefixError):
            Prefix(0, 40)


class TestPrefixProperties:
    def test_ordering_and_hash(self):
        a = Prefix.from_string("10.0.0.0/24")
        b = Prefix.from_string("10.0.1.0/24")
        assert a < b
        assert len({a, b, Prefix.from_string("10.0.0.0/24")}) == 2

    def test_containment(self):
        supernet = Prefix.from_string("10.0.0.0/16")
        subnet = Prefix.from_string("10.0.5.0/24")
        assert supernet.contains(subnet)
        assert not subnet.contains(supernet)
        assert supernet.contains_address(subnet.network)

    def test_supernet_and_subnets_roundtrip(self):
        prefix = Prefix.from_string("192.0.2.0/24")
        low, high = prefix.subnets()
        assert low.supernet() == prefix
        assert high.supernet() == prefix
        assert low.num_addresses + high.num_addresses == prefix.num_addresses

    def test_default_route_has_no_supernet(self):
        with pytest.raises(PrefixError):
            Prefix(0, 0).supernet()

    def test_host_route_cannot_be_split(self):
        with pytest.raises(PrefixError):
            Prefix.from_string("10.0.0.1/32").subnets()

    def test_bits_representation(self):
        assert Prefix.from_string("128.0.0.0/1").bits() == "1"
        assert Prefix.from_string("192.0.0.0/2").bits() == "11"
        assert Prefix(0, 0).bits() == ""

    def test_address_range(self):
        prefix = Prefix.from_string("10.0.0.0/30")
        assert prefix.last_address - prefix.first_address == 3


class TestPrefixBlock:
    def test_block_is_consecutive_and_distinct(self):
        block = prefix_block("10.0.0.0/24", 100)
        assert len(set(block)) == 100
        assert block[1].network - block[0].network == 256

    def test_block_length_mismatch_raises(self):
        with pytest.raises(PrefixError):
            prefix_block("10.0.0.0/16", 4, length=24)

    def test_random_addresses_fall_inside_prefixes(self):
        block = prefix_block("10.0.0.0/24", 10)
        rng = random.Random(1)
        addresses = random_addresses(block, 50, rng)
        assert len(addresses) == 50
        assert all(any(p.contains_address(a) for p in block) for a in addresses)

    def test_random_addresses_empty_pool_raises(self):
        with pytest.raises(PrefixError):
            random_addresses([], 1, random.Random(0))


class TestSummarize:
    def test_adjacent_siblings_merge(self):
        pair = [Prefix.from_string("10.0.0.0/25"), Prefix.from_string("10.0.0.128/25")]
        assert summarize_prefixes(pair) == [Prefix.from_string("10.0.0.0/24")]

    def test_non_siblings_do_not_merge(self):
        pair = [Prefix.from_string("10.0.0.128/25"), Prefix.from_string("10.0.1.0/25")]
        assert len(summarize_prefixes(pair)) == 2

    @given(st.integers(min_value=0, max_value=2**32 - 256), st.integers(8, 28))
    def test_summarize_preserves_address_count(self, base, length):
        prefix = Prefix(base, length)
        low, high = prefix.subnets()
        merged = summarize_prefixes([low, high])
        assert sum(p.num_addresses for p in merged) == prefix.num_addresses


class TestPrefixHypothesis:
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 32))
    def test_roundtrip_string(self, network, length):
        prefix = Prefix(network, length)
        assert Prefix.from_string(str(prefix)) == prefix

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 32))
    def test_supernet_contains_child(self, network, length):
        prefix = Prefix(network, length)
        assert prefix.supernet().contains(prefix)


_PAIRS = st.tuples(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 32))


class TestHashingContract:
    """``Prefix`` hashes, compares and orders in C, over a well-spread hash.

    Every RIB, index and FIB is a dict or set keyed by prefixes: a
    Python-level ``__hash__`` or ``__eq__`` turns each probe into an
    interpreter call, and a hash that clusters (a packed
    ``(network << 6) | length`` int keeps the low 14 bits of every /24
    constant) degrades open addressing.  Both regress silently — these
    tests are the gate.
    """

    def test_no_python_level_comparison_or_hash(self):
        for dunder in ("__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            assert dunder not in Prefix.__dict__, dunder
        assert Prefix.__hash__ is tuple.__hash__
        assert Prefix.__slots__ == ()
        assert not hasattr(Prefix(0, 0), "__dict__")

    @given(_PAIRS, _PAIRS)
    def test_equality_and_ordering_are_the_pairs(self, a, b):
        pa, pb = Prefix(*a), Prefix(*b)
        ka, kb = (pa.network, pa.length), (pb.network, pb.length)
        assert (pa == pb) == (ka == kb)
        assert (hash(pa) == hash(pb)) or ka != kb
        assert (pa < pb) == (ka < kb)
        assert (pa <= pb) == (ka <= kb)
        assert (pa > pb) == (ka > kb)
        assert (pa >= pb) == (ka >= kb)

    def test_sort_order_is_network_then_length(self):
        rng = random.Random(5)
        prefixes = [
            Prefix(rng.getrandbits(32), rng.choice((0, 8, 16, 20, 24, 32)))
            for _ in range(500)
        ]
        assert sorted(prefixes) == sorted(
            prefixes, key=lambda prefix: (prefix.network, prefix.length)
        )

    @given(_PAIRS)
    def test_masking(self, pair):
        network, length = pair
        prefix = Prefix(network, length)
        mask = ((1 << length) - 1) << (32 - length)
        assert prefix.network == network & mask
        assert prefix.length == length
        assert Prefix(prefix.network, length) == prefix

    @pytest.mark.parametrize(
        "network, length", [(0, -1), (0, 33), (-1, 8), (2**32, 8), (2**32, 0)]
    )
    def test_out_of_range_raises(self, network, length):
        with pytest.raises(PrefixError):
            Prefix(network, length)

    @given(_PAIRS)
    def test_pickle_and_copy_round_trip(self, pair):
        prefix = Prefix(*pair)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(prefix, protocol))
            assert type(clone) is Prefix and clone == prefix
            assert hash(clone) == hash(prefix) and str(clone) == str(prefix)
        for clone in (copy.copy(prefix), copy.deepcopy(prefix)):
            assert type(clone) is Prefix and clone == prefix

    def test_existing_payloads_still_load(self):
        # What every Prefix in a .trace_cache pickle or shipped job reduces
        # to; the target must stay importable under this name.
        prefix = Prefix.from_string("203.0.113.0/24")
        assert prefix.__reduce__() == (_restore_prefix, (prefix.network, 24))
        payload = pickle.dumps([prefix, prefix])
        assert b"_restore_prefix" in payload
        first, second = pickle.loads(payload)
        assert first == prefix and type(first) is Prefix and first is second

    @staticmethod
    def _distinct_low_bits(values) -> int:
        return len({value & 0xFFFF for value in values})

    @pytest.mark.parametrize("table", ["consecutive_24s", "full_table"])
    def test_hash_spreads_over_the_low_bits(self, table):
        if table == "consecutive_24s":
            prefixes = prefix_block("10.0.0.0/24", 16384)
        else:
            prefixes = FullTableGenerator(
                FullTableConfig(prefix_count=16000, seed=11)
            ).generate().prefixes
        rng = random.Random(17)
        ideal = self._distinct_low_bits(rng.getrandbits(64) for _ in prefixes)
        spread = self._distinct_low_bits(map(hash, prefixes))
        assert spread >= 0.8 * ideal, (spread, ideal)
