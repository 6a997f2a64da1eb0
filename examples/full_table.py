"""Provision a SWIFT router from an internet-scale (DFZ-shaped) full table.

Walks the whole full-table pipeline at a configurable scale:

1. synthesise a DFZ-shaped table (power-law origins, /8-/24 length mix,
   heavy subnet nesting) with :class:`repro.traces.fulltable.FullTableGenerator`,
2. stream every peer's full feed through the columnar substrate into a
   :class:`repro.bgp.speaker.BGPSpeaker`,
3. bulk-build the path-compressed Loc-RIB trie and answer longest-prefix-match
   queries from it,
4. fill the router's backup-profile index, which interns one profile per
   distinct tuple of per-link backups instead of one entry per
   (prefix, link).

Usage::

    python examples/full_table.py [prefix_count] [peer_count]

Defaults to 150k prefixes over 3 feeds (~10 s); the 1M-prefix version of
this pipeline runs in ``benchmarks/test_bench_fulltable.py`` and records its
numbers in ``BENCH_fulltable.json``.
"""

import random
import sys
import time

sys.path.insert(0, "src")

from repro.bgp.prefix import random_addresses
from repro.bgp.speaker import BGPSpeaker
from repro.core.backup import BackupComputer
from repro.traces.fulltable import FullTableConfig, FullTableGenerator

LOCAL_AS = 65000


def main() -> None:
    prefix_count = int(sys.argv[1]) if len(sys.argv) > 1 else 150_000
    peer_count = int(sys.argv[2]) if len(sys.argv) > 2 else 3

    config = FullTableConfig(prefix_count=prefix_count, peer_count=peer_count)
    started = time.perf_counter()
    table = FullTableGenerator(config).generate()
    print(
        f"generated {len(table):,}-prefix table "
        f"({table.nested_count():,} nested) in {time.perf_counter() - started:.2f}s"
    )

    speaker = BGPSpeaker(local_as=LOCAL_AS)
    for peer_as in table.peers:
        speaker.add_peer(peer_as)
    started = time.perf_counter()
    speaker.receive_columnar(table.columnar_table())
    feed_seconds = time.perf_counter() - started
    print(
        f"loaded {peer_count} full feeds ({peer_count * len(table):,} messages) "
        f"in {feed_seconds:.2f}s"
    )

    started = time.perf_counter()
    best_trie = speaker.loc_rib.best_trie()
    print(
        f"bulk-built compressed Loc-RIB trie in {time.perf_counter() - started:.2f}s: "
        f"{best_trie.node_count():,} nodes, "
        f"{best_trie.memory_bytes() / 1e6:.1f} MB for {len(best_trie):,} routes"
    )

    addresses = random_addresses(
        table.prefixes[:: max(1, len(table) // 20_000)], 50_000, random.Random(3)
    )
    started = time.perf_counter()
    for address in addresses:
        best_trie.lookup(address)
    rate = len(addresses) / (time.perf_counter() - started)
    print(f"LPM over the full table: {rate:,.0f} lookups/s")

    best = dict(speaker.loc_rib.best_entries())
    started = time.perf_counter()
    index = BackupComputer().compute_table(
        best, speaker.alternate_routes, speaker.loc_rib.candidate_map
    )
    profiles = set(index.profile_of.values())
    entries = sum(len(profile.winners) * profile.prefix_count for profile in profiles)
    print(
        f"backup profile index in {time.perf_counter() - started:.2f}s: "
        f"{entries:,} (prefix, link) backups held by {len(profiles):,} profiles "
        f"over {len(index.by_link):,} protected links"
    )
    example = table.prefixes[len(table) // 2]
    profile = index.profile_of.get(example)
    print(
        f"backups for {example}: "
        + (
            ", ".join(
                f"link {link} -> via AS{next_hop}"
                for link, next_hop in sorted(profile.next_hops.items())
            )
            if profile is not None
            else "(none)"
        )
    )


if __name__ == "__main__":
    main()
