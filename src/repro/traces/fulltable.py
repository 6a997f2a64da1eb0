"""Synthetic full-table (DFZ-shaped) workload generator.

The synthetic burst traces top out around 30k prefixes; a real default-free
zone table is ~1M routes.  This module synthesises a table of that shape so
the trie RIB and its longest-prefix match, the backup profile index and the
provisioning pipeline can be driven at internet scale (`benchmarks/test_bench_fulltable.py`
→ ``BENCH_fulltable.json``):

* **Length mix** — covering blocks between /11 and /20 with /21–/24
  more-specifics underneath, plus flat /24-ish runs, echoing the measured
  DFZ distribution where ~60% of routes are /24 and most of them nest
  inside a shorter covering announcement.
* **Subnet nesting** — a configurable fraction of the table is generated as
  *blocks*: one covering prefix plus more-specific children scattered under
  it that overwhelmingly inherit the block's origin (a small
  ``divergent_fraction`` originates elsewhere, e.g. anycast or customer
  carve-outs).  The nesting gives the trie RIB covering prefixes to choose
  among on a longest-prefix match, and children that share the cover's
  origin share its candidate profile, so they land on one interned profile
  of the :class:`~repro.core.backup.BackupProfileIndex` instead of adding
  their own.
* **Power-law origins** — origin ASes are drawn with a heavily skewed
  distribution (a few hypergiants originate thousands of prefixes, a long
  tail originates one or two), which keeps the distinct-profile count far
  below the prefix count, exactly like interned real table dumps.

Per ``(peer, origin)`` the announced :class:`PathAttributes` are interned in
the table object, so every prefix sharing an origin shares attribute
*objects* — the identity the speaker's batched decision path memoises its
winner on, once per candidate profile, and the profile-grouped backup
computation groups by.

Generation is deterministic per seed and streams straight into the columnar
substrate (:meth:`FullTable.columnar_table`); nothing quadratic, so the 1M
default builds in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.prefix import Prefix
from repro.traces.columnar import ColumnarTrace

__all__ = ["FullTable", "FullTableConfig", "FullTableGenerator"]

#: First usable network (skip 0/8); legacy short blocks go in
#: [_BASE_ADDRESS, _SHORT_REGION_END), /16 slots above it.
_BASE_ADDRESS = 0x01000000
_SHORT_REGION_END = 0x60000000

#: /16 allocation slots (upper 16 bits): [96.0.0.0, 224.0.0.0) — below
#: multicast.  Slots are shuffled so consecutive table entries land in
#: unrelated parts of the address space, like real registry allocations.
_SLOT_BASE = 0x6000
_SLOT_END = 0xE000

#: Rare legacy short covering blocks (/11–/15) with their weights, and the
#: common slot-sized covers (/16–/20): most allocations are /16–/20.
_SHORT_COVER_LENGTHS = (11, 12, 14, 15)
_SHORT_COVER_WEIGHTS = (1, 1, 2, 2)
_SLOT_COVER_LENGTHS = (16, 17, 18, 19, 20)
_SLOT_COVER_WEIGHTS = (40, 40, 44, 44, 40)

#: Flat-run lengths (routes with no covering announcement): the classic
#: DFZ histogram spike at /24 with a tail of shorter standalone routes.
_FLAT_LENGTHS = (16, 19, 20, 21, 22, 23, 24)
_FLAT_WEIGHTS = (2, 2, 3, 4, 6, 6, 30)


@dataclass(frozen=True)
class FullTableConfig:
    """Shape of the synthesised table.

    Attributes
    ----------
    prefix_count:
        Total number of routed prefixes to generate (~1M for a DFZ table).
    peer_count:
        Number of full-feed peering sessions announcing every prefix.
    origin_count:
        Size of the origin-AS pool (the DFZ sees ~65k origin ASes).
    nested_fraction:
        Fraction of blocks generated as cover + more-specific children (the
        rest are flat runs without a covering route).
    divergent_fraction:
        Probability that a nested child originates from a different AS than
        its covering block (breaking profile sharing for that child).
    transit_count:
        Size of the transit-AS pool used to build announced AS paths.
    seed:
        Generation seed; same seed, same table.
    """

    prefix_count: int = 1_000_000
    peer_count: int = 3
    origin_count: int = 65_000
    nested_fraction: float = 0.95
    divergent_fraction: float = 0.02
    transit_count: int = 400
    seed: int = 20170821

    def __post_init__(self) -> None:
        if self.prefix_count < 1:
            raise ValueError("prefix_count must be positive")
        if self.peer_count < 1:
            raise ValueError("peer_count must be positive")
        if self.origin_count < 1:
            raise ValueError("origin_count must be positive")
        if not 0.0 <= self.nested_fraction <= 1.0:
            raise ValueError("nested_fraction must be in [0, 1]")
        if not 0.0 <= self.divergent_fraction <= 1.0:
            raise ValueError("divergent_fraction must be in [0, 1]")

    @property
    def peers(self) -> Tuple[int, ...]:
        """The peer AS numbers (65001, 65002, ...)."""
        return tuple(65001 + index for index in range(self.peer_count))


class FullTable:
    """A generated full table: sorted prefixes with their origin ASes.

    Prefixes are unique and sorted by ``(network, length)`` — ready for
    ``PrefixTrie.build_from_sorted`` — with ``origins[i]`` the origin AS of
    ``prefixes[i]``.  Announced attributes are interned per
    ``(peer, origin)`` so profile-grouped consumers see shared objects.
    """

    def __init__(
        self,
        config: FullTableConfig,
        prefixes: List[Prefix],
        origins: List[int],
    ) -> None:
        self.config = config
        self.prefixes = prefixes
        self.origins = origins
        self.peers = config.peers
        self._attr_cache: Dict[Tuple[int, int], PathAttributes] = {}
        self._rng = Random(config.seed ^ 0x5F5F5F5F)

    def __len__(self) -> int:
        return len(self.prefixes)

    def attributes_for(self, peer_as: int, origin: int) -> PathAttributes:
        """The (interned) attributes ``peer_as`` announces for ``origin``.

        The AS path is ``peer -> transit(s) -> origin`` with one or two
        transits picked deterministically from the pool, so paths are 3–4
        hops and every prefix of an origin shares one attribute object per
        peer.
        """
        key = (peer_as, origin)
        attributes = self._attr_cache.get(key)
        if attributes is None:
            transit_count = self.config.transit_count
            first = 10_000 + (origin * 31 + peer_as * 7) % transit_count
            hops: Tuple[int, ...]
            if (origin + peer_as) % 3 == 0:
                hops = (peer_as, first, origin)
            else:
                second = 10_000 + (origin * 17 + peer_as * 13) % transit_count
                if second == first:
                    second = 10_000 + (second + 1 - 10_000) % transit_count
                hops = (peer_as, first, second, origin)
            attributes = PathAttributes(as_path=ASPath(hops), next_hop=peer_as)
            self._attr_cache[key] = attributes
        return attributes

    def entries(self, peer_as: int) -> Iterator[Tuple[Prefix, PathAttributes]]:
        """Yield the ``(prefix, attributes)`` feed of one peer, sorted."""
        attributes_for = self.attributes_for
        for prefix, origin in zip(self.prefixes, self.origins):
            yield prefix, attributes_for(peer_as, origin)

    def columnar_table(self) -> ColumnarTrace:
        """The full table as one columnar announcement trace at t=0.

        Peer-major order (the whole feed of peer 1, then peer 2, ...) so the
        speaker's columnar replay sees one long same-peer run per session.
        """
        trace = ColumnarTrace()
        announce = trace.announce
        for peer_as in self.peers:
            for prefix, attributes in self.entries(peer_as):
                announce(0.0, peer_as, prefix, attributes)
        return trace

    def burst(
        self,
        peer_as: int,
        count: int,
        start_time: float = 0.0,
        offset: int = 0,
        spacing: float = 0.0005,
    ) -> ColumnarTrace:
        """A withdrawal burst from one peer over a contiguous table slice.

        Models the paper's outage workload at table scale: ``count``
        consecutive prefixes (starting at ``offset`` in table order) are
        withdrawn by ``peer_as`` at ``spacing`` second intervals.
        """
        if count < 0 or offset < 0 or offset + count > len(self.prefixes):
            raise ValueError(
                f"burst slice [{offset}, {offset + count}) out of range "
                f"for a {len(self.prefixes)}-prefix table"
            )
        trace = ColumnarTrace()
        withdraw = trace.withdraw
        timestamp = start_time
        for prefix in self.prefixes[offset : offset + count]:
            withdraw(timestamp, peer_as, prefix)
            timestamp += spacing
        return trace

    def nested_count(self) -> int:
        """Number of prefixes covered by a shorter prefix also in the table."""
        nested = 0
        covers: List[Prefix] = []
        for prefix in self.prefixes:
            while covers and not covers[-1].contains(prefix):
                covers.pop()
            if covers:
                nested += 1
            covers.append(prefix)
        return nested


class FullTableGenerator:
    """Streams out a :class:`FullTable` for a :class:`FullTableConfig`."""

    def __init__(self, config: Optional[FullTableConfig] = None) -> None:
        self.config = config or FullTableConfig()

    def _draw_origin(self, rng: Random) -> int:
        """Power-law origin draw: cubing the uniform skews mass to low ids."""
        origin_count = self.config.origin_count
        index = int(origin_count * rng.random() ** 3)
        if index >= origin_count:
            index = origin_count - 1
        return 3_000 + index

    def generate(self) -> FullTable:
        """Build the table (sorted, unique prefixes; aligned origins).

        Allocation is scattered, not packed: every /16-or-longer block claims
        a random /16 slot (and a random sub-position inside it), and a
        block's more-specific children sit at random offsets under the
        cover.  A packed layout would let per-bit structures share nearly
        every path between consecutive routes, which real tables — built
        from decades of unrelated registry allocations — do not allow.
        """
        config = self.config
        rng = Random(config.seed)
        pairs: List[Tuple[int, int, int]] = []  # (network, length, origin)
        target = config.prefix_count
        slots = list(range(_SLOT_BASE, _SLOT_END))
        rng.shuffle(slots)
        slot_index = 0
        short_cursor = _BASE_ADDRESS
        cover_lengths = _SHORT_COVER_LENGTHS + _SLOT_COVER_LENGTHS
        cover_weights = _SHORT_COVER_WEIGHTS + _SLOT_COVER_WEIGHTS
        while len(pairs) < target:
            remaining = target - len(pairs)
            if rng.random() < config.nested_fraction and remaining > 1:
                # Nested block: covering prefix + scattered children.
                cover_len = rng.choices(cover_lengths, cover_weights)[0]
                cover_size = 1 << (32 - cover_len)
                if cover_len < 16:
                    # Legacy short block: low region, random slack between.
                    base = (short_cursor + cover_size - 1) & ~(cover_size - 1)
                    if base + cover_size > _SHORT_REGION_END:
                        raise RuntimeError(
                            "full-table generation ran out of legacy space; "
                            "lower prefix_count"
                        )
                    short_cursor = base + cover_size * (1 + rng.randint(0, 1))
                else:
                    if slot_index >= len(slots):
                        raise RuntimeError(
                            "full-table generation ran out of /16 slots; "
                            "lower prefix_count"
                        )
                    slot = slots[slot_index]
                    slot_index += 1
                    sub = rng.randrange(1 << (cover_len - 16))
                    base = (slot << 16) | (sub * cover_size)
                origin = self._draw_origin(rng)
                pairs.append((base, cover_len, origin))
                child_len = rng.randint(max(cover_len + 2, 21), 24)
                child_size = 1 << (32 - child_len)
                capacity = cover_size // child_size
                child_count = min(rng.randint(32, 96), capacity, remaining - 1)
                for offset in rng.sample(range(capacity), child_count):
                    child_origin = origin
                    if rng.random() < config.divergent_fraction:
                        child_origin = self._draw_origin(rng)
                    pairs.append((base + offset * child_size, child_len, child_origin))
            else:
                # Flat run: same-length standalone routes scattered in a slot.
                if slot_index >= len(slots):
                    raise RuntimeError(
                        "full-table generation ran out of /16 slots; "
                        "lower prefix_count"
                    )
                slot = slots[slot_index]
                slot_index += 1
                flat_len = rng.choices(_FLAT_LENGTHS, _FLAT_WEIGHTS)[0]
                flat_size = 1 << (32 - flat_len)
                capacity = 1 << (flat_len - 16)
                run = min(rng.randint(1, 24), capacity, remaining)
                base = slot << 16
                for offset in rng.sample(range(capacity), run):
                    pairs.append((base + offset * flat_size, flat_len, self._draw_origin(rng)))
        pairs.sort()
        prefixes = [Prefix(network, length) for network, length, _ in pairs]
        origins = [origin for _, _, origin in pairs]
        return FullTable(config, prefixes, origins)
