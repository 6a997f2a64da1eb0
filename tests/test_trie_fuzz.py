"""Randomized parity fuzz: compressed trie vs per-bit reference vs brute force.

The path-compressed :class:`~repro.bgp.trie.PrefixTrie` earns its structural
cleverness only if it is indistinguishable from the obviously-correct
implementations.  Each trial drives three models through one random
interleaving of inserts, overwrites, removes and re-inserts, checking after
every batch that

* exact queries (``in``, ``get``, ``len``, sorted iteration) match a dict,
* LPM lookups match both the per-bit reference trie and a brute-force
  "scan every stored prefix, keep the longest match" oracle, including the
  default route and deeply nested single-branch chains, and
* a fresh ``build_from_sorted`` of the surviving entries is structurally
  indistinguishable from the incrementally-built trie.

``tests/test_contracts.py`` pins the two classes' public surfaces
together; this suite pins their behaviour.
"""

import random

import pytest

from oracles.trie_reference import ReferencePrefixTrie

from repro.bgp.prefix import Prefix
from repro.bgp.trie import PrefixTrie

_TRIALS = 8
_BATCHES = 6
_OPS_PER_BATCH = 60


def _random_prefix(rng):
    # Skewed toward short masks so nesting and covering relations are common.
    length = rng.choice((0, 4, 8, 8, 12, 16, 16, 20, 24, 24, 28, 32))
    network = rng.getrandbits(32) & (0 if length == 0 else (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF)
    return Prefix(network, length)


def _covers(prefix, address):
    length = prefix.length
    if length == 0:
        return True
    return (address ^ prefix.network) >> (32 - length) == 0


def _brute_lookup(model, address):
    best = None
    for prefix, value in model.items():
        if _covers(prefix, address):
            if best is None or prefix.length > best[0].length:
                best = (prefix, value)
    return best


def _check_parity(rng, compressed, reference, model):
    assert len(compressed) == len(reference) == len(model)
    assert list(compressed.items()) == sorted(model.items())
    assert list(compressed.items()) == list(reference.items())

    probes = [_random_prefix(rng) for _ in range(25)] + list(model)[:25]
    for probe in probes:
        assert (probe in compressed) == (probe in model)
        assert compressed.get(probe, -1) == model.get(probe, -1)
        address = probe.network | rng.getrandbits(32 - probe.length) if probe.length < 32 else probe.network
        got = compressed.lookup(address)
        assert got == reference.lookup(address)
        assert got == _brute_lookup(model, address)

    # Structural parity of the bulk-load path against incremental inserts.
    rebuilt = PrefixTrie()
    rebuilt.build_from_sorted(sorted(model.items()))
    assert list(rebuilt.items()) == list(compressed.items())
    assert rebuilt.node_count() == compressed.node_count()


@pytest.mark.parametrize("seed", range(_TRIALS))
def test_fuzz_compressed_vs_reference_vs_bruteforce(seed):
    rng = random.Random(0xC0FFEE + seed)
    compressed = PrefixTrie()
    reference = ReferencePrefixTrie()
    model = {}
    removed = []
    counter = 0
    for _ in range(_BATCHES):
        for _ in range(_OPS_PER_BATCH):
            roll = rng.random()
            if roll < 0.55 or not model:
                prefix = _random_prefix(rng)
                counter += 1
                compressed.insert(prefix, counter)
                reference.insert(prefix, counter)
                model[prefix] = counter
            elif roll < 0.80:
                prefix = rng.choice(list(model))
                assert compressed.remove(prefix) == model[prefix]
                assert reference.remove(prefix) == model.pop(prefix)
                removed.append(prefix)
            elif roll < 0.90 and removed:
                # Re-insert a previously removed prefix (fresh value).
                prefix = removed.pop(rng.randrange(len(removed)))
                counter += 1
                compressed[prefix] = counter
                reference[prefix] = counter
                model[prefix] = counter
            else:
                # Remove of an absent prefix must raise in both.
                prefix = _random_prefix(rng)
                if prefix not in model:
                    with pytest.raises(KeyError):
                        compressed.remove(prefix)
                    with pytest.raises(KeyError):
                        reference.remove(prefix)
        _check_parity(rng, compressed, reference, model)


def test_default_route_and_nested_chain_edges():
    compressed = PrefixTrie()
    reference = ReferencePrefixTrie()
    model = {}
    chain = [Prefix(0, 0)] + [
        Prefix(0x0A000000 & ((0xFFFFFFFF << (32 - l)) & 0xFFFFFFFF), l)
        for l in range(1, 33)
    ]
    for value, prefix in enumerate(chain):
        compressed.insert(prefix, value)
        reference.insert(prefix, value)
        model[prefix] = value

    rng = random.Random(99)
    _check_parity(rng, compressed, reference, model)
    # An address inside the chain matches the /32; one outside the deepest
    # branch falls back to the longest still-covering ancestor.
    assert compressed.lookup(0x0A000000)[0] == Prefix(0x0A000000, 32)
    assert compressed.lookup(0x0A000001)[0] == Prefix(0x0A000000, 31)
    assert compressed.lookup(0xFFFFFFFF)[0] == Prefix(0, 0)

    # Tear the chain down from the middle outward; parity must survive the
    # contraction cascades.
    for prefix in chain[15:] + chain[:15]:
        assert compressed.remove(prefix) == reference.remove(prefix) == model.pop(prefix)
        assert list(compressed.items()) == list(reference.items())
    assert len(compressed) == 0 and compressed.node_count() == 1
    assert compressed.lookup(0x0A000000) is None


def test_build_from_sorted_rejects_bad_input():
    ordered = [(Prefix(0x0A000000, 8), 1), (Prefix(0x0B000000, 8), 2)]
    trie = PrefixTrie()
    with pytest.raises(ValueError):
        trie.build_from_sorted(reversed(ordered))
    trie = PrefixTrie()
    with pytest.raises(ValueError):
        trie.build_from_sorted([ordered[0], ordered[0]])
    trie = PrefixTrie()
    trie.build_from_sorted(ordered)
    with pytest.raises(ValueError):
        trie.build_from_sorted(ordered)
