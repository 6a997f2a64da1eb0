"""Internet-scale full-table benchmarks (``BENCH_fulltable.json``).

The paper's deployment target is a router carrying a full DFZ table (~1M
routes over several full feeds), not the 4k–30k-prefix tables of the burst
corpus.  This module drives the whole provisioning pipeline at that scale
with the DFZ-shaped synthetic table from :mod:`repro.traces.fulltable`:

* **build + LPM** — generate ~1M prefixes, stream three full feeds through
  the columnar substrate into a :class:`~repro.bgp.speaker.BGPSpeaker`,
  bulk-build the Loc-RIB best trie, and measure longest-prefix-match
  throughput; loads the two-stage FIB's stage 1 with one tag per best
  prefix and holds its longest-present-length-first probe to the trie's
  answers at a DFZ length spread; also measures the path-compressed trie
  against the per-bit reference twin on a sparse sample (sampling keeps the
  reference's node explosion honest — a per-bit trie over a *dense* table
  shares almost every path, which real, registry-scattered tables do not
  allow);
* **backup profiles** — profile-grouped backup computation into the
  router's backup-profile index, asserting the >=10x entry reduction of
  interned profiles and parity against ``compute_table_reference`` at a
  30k sub-table (the reference is per-prefix and would take minutes at 1M);
* **burst replay** — a 200k-prefix withdrawal burst from one feed replayed
  through the fully-loaded speaker, plus what *acting* on it costs per
  inferred link: the provision-time backup-profile index's lookup against
  the per-prefix walk it replaced (``tests/oracles/reroute_walk.py``).

All tests are ``slow`` + ``fulltable``; run them with
``pytest -m fulltable benchmarks/test_bench_fulltable.py``.  Scale down via
``REPRO_FULLTABLE_PREFIXES`` (the memory-ratio assertion only arms at the
full default scale).  Results merge into ``BENCH_fulltable.json`` at the
repository root through :func:`conftest.record`.
"""

import os
import random
import statistics
import time

import pytest

from conftest import record
from oracles.reroute_walk import backups_for_link
from oracles.trie_reference import ReferencePrefixTrie

from repro.bgp.prefix import random_addresses
from repro.bgp.speaker import BGPSpeaker
from repro.bgp.trie import PrefixTrie
from repro.core.backup import BackupComputer
from repro.dataplane.fib import TwoStageForwardingTable
from repro.traces.fulltable import FullTableConfig, FullTableGenerator

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RESULTS_PATH = os.path.join(_REPO_ROOT, "BENCH_fulltable.json")

#: Table scale; override with ``REPRO_FULLTABLE_PREFIXES`` for reduced runs.
_PREFIX_COUNT = int(os.environ.get("REPRO_FULLTABLE_PREFIXES", "1000000"))
_LOCAL_AS = 65000

#: Reference-parity scale: ``compute_table_reference`` ranks per prefix (no
#: profile grouping), so parity is asserted on a 30k sub-table.
_PARITY_PREFIX_COUNT = min(30_000, _PREFIX_COUNT)

#: Trie-comparison sample: ~3% of the table (30k at the 1M default), so the
#: sampled prefixes are as unrelated as real tables' neighbouring routes and
#: the per-bit reference cannot amortise shared paths across a dense block.
_TRIE_SAMPLE = max(1, min(30_000, _PREFIX_COUNT // 33))

pytestmark = [pytest.mark.slow, pytest.mark.fulltable]


class _BuiltTable:
    """The full table provisioned end to end, with per-stage timings."""

    def __init__(self, prefix_count):
        config = FullTableConfig(prefix_count=prefix_count)
        started = time.perf_counter()
        self.table = FullTableGenerator(config).generate()
        self.generate_seconds = time.perf_counter() - started

        started = time.perf_counter()
        trace = self.table.columnar_table()
        self.columnar_seconds = time.perf_counter() - started
        self.message_count = len(trace)

        self.speaker = BGPSpeaker(local_as=_LOCAL_AS)
        for peer_as in self.table.peers:
            self.speaker.add_peer(peer_as)
        started = time.perf_counter()
        self.speaker.receive_columnar(trace)
        self.speaker_seconds = time.perf_counter() - started

        self.best = dict(self.speaker.loc_rib.best_entries())


@pytest.fixture(scope="module")
def built():
    return _BuiltTable(_PREFIX_COUNT)


def test_bench_fulltable_build_and_lpm(built):
    table = built.table
    assert len(built.best) == len(table)

    # Loc-RIB best trie: lazy bulk build over the sorted best routes.
    started = time.perf_counter()
    best_trie = built.speaker.loc_rib.best_trie()
    trie_build_seconds = time.perf_counter() - started
    assert len(best_trie) == len(table)

    # LPM throughput through the compressed trie (addresses drawn inside
    # routed prefixes spread across the whole table).
    probe_prefixes = table.prefixes[:: max(1, len(table) // 50_000)]
    addresses = random_addresses(probe_prefixes, 200_000, random.Random(3))
    lookup = best_trie.lookup
    started = time.perf_counter()
    for address in addresses:
        lookup(address)
    lookup_seconds = time.perf_counter() - started
    lookups_per_second = len(addresses) / lookup_seconds

    # FIB stage 1 over the same table: one tag per best prefix, then the
    # same probe addresses, answered as the best trie answers them.
    tags = {prefix: number for number, prefix in enumerate(built.best)}
    fib = TwoStageForwardingTable()
    started = time.perf_counter()
    fib.load_tags(tags)
    stage1_load_seconds = time.perf_counter() - started
    tag_of = fib.tag_of
    started = time.perf_counter()
    for address in addresses:
        tag_of(address)
    stage1_lookup_seconds = time.perf_counter() - started
    for address in addresses:
        match = lookup(address)
        assert tag_of(address) == (None if match is None else tags[match[0]]), address

    # Compressed vs per-bit reference on a sparse sample: identical answers,
    # then the node/memory comparison the compressed trie exists for.
    rng = random.Random(7)
    sample_indexes = sorted(rng.sample(range(len(table)), _TRIE_SAMPLE))
    sample = [(table.prefixes[index], index) for index in sample_indexes]
    compressed = PrefixTrie()
    compressed.build_from_sorted(sample)
    reference = ReferencePrefixTrie()
    for prefix, value in sample:
        reference.insert(prefix, value)
    probe = random_addresses(
        [prefix for prefix, _ in sample[:2000]], 2000, random.Random(11)
    )
    for address in probe:
        assert compressed.lookup(address) == reference.lookup(address)
    node_ratio = reference.node_count() / compressed.node_count()
    memory_ratio = reference.memory_bytes() / compressed.memory_bytes()
    if _PREFIX_COUNT >= 500_000:
        # At reduced scales the fixed 3% sample is too small for a stable
        # ratio; the guarantee is claimed (and asserted) at full scale.
        assert memory_ratio >= 5.0, (
            f"compressed trie must be >=5x smaller than the per-bit "
            f"reference on a sparse sample, got {memory_ratio:.2f}x"
        )
        assert node_ratio >= 3.0

    # "Minutes, not hours" on one CPU for the whole provision.
    total_seconds = (
        built.generate_seconds
        + built.columnar_seconds
        + built.speaker_seconds
        + trie_build_seconds
    )
    assert total_seconds < 600.0

    record(
        RESULTS_PATH,
        "fulltable.build_and_lpm",
        {
            "prefixes": len(table),
            "peers": len(table.peers),
            "messages": built.message_count,
            "nested_prefixes": table.nested_count(),
            "generate_seconds": round(built.generate_seconds, 3),
            "columnar_seconds": round(built.columnar_seconds, 3),
            "speaker_seconds": round(built.speaker_seconds, 3),
            "speaker_messages_per_second": round(
                built.message_count / built.speaker_seconds
            ),
            "trie_build_seconds": round(trie_build_seconds, 3),
            "trie_nodes": best_trie.node_count(),
            "trie_memory_mb": round(best_trie.memory_bytes() / 1e6, 1),
            "lpm_lookups_per_second": round(lookups_per_second),
            "stage1_load_seconds": round(stage1_load_seconds, 3),
            "stage1_lookups_per_second": round(len(addresses) / stage1_lookup_seconds),
            "sample_size": _TRIE_SAMPLE,
            "sample_node_ratio_vs_reference": round(node_ratio, 2),
            "sample_memory_ratio_vs_reference": round(memory_ratio, 2),
        },
    )


def test_bench_fulltable_backup_profiles(built):
    computer = BackupComputer()
    speaker = built.speaker

    started = time.perf_counter()
    index = computer.compute_table(
        built.best, speaker.alternate_routes, speaker.loc_rib.candidate_map
    )
    grouped_seconds = time.perf_counter() - started
    profiles = set(index.profile_of.values())
    stored_entries = sum(len(profile.winners) for profile in profiles)
    source_entries = sum(
        len(profile.winners) * profile.prefix_count for profile in profiles
    )

    # The index answers per-prefix queries as the ungrouped selection would ...
    rng = random.Random(5)
    spot_prefixes = rng.sample(list(built.best), min(2000, len(built.best)))
    for prefix in spot_prefixes:
        winners = computer.select_winners(
            built.best[prefix].as_path, speaker.alternate_routes(prefix)
        )
        profile = index.profile_of.get(prefix)
        assert (() if profile is None else profile.winners) == winners
    # ... and shares profiles across the nested table by an order of magnitude.
    reduction = source_entries / stored_entries
    assert reduction >= 10.0, (
        f"backup profiles must shrink the nested full table >=10x, "
        f"got {reduction:.2f}x"
    )

    # Parity with the per-prefix reference at 30k scale.
    parity = _BuiltTable(_PARITY_PREFIX_COUNT)
    parity_index = computer.compute_table(
        parity.best, parity.speaker.alternate_routes,
        parity.speaker.loc_rib.candidate_map,
    )
    parity_reference = computer.compute_table_reference(
        parity.best, parity.speaker.alternate_routes
    )
    assert {
        prefix: profile.winners for prefix, profile in parity_index.profile_of.items()
    } == parity_reference, "the profile index must hold the reference's backups"

    record(
        RESULTS_PATH,
        "fulltable.backup_profiles",
        {
            "protected_prefixes": len(index.profile_of),
            "grouped_seconds": round(grouped_seconds, 3),
            "source_entries": source_entries,
            "profiles": len(profiles),
            "profile_entries": stored_entries,
            "protected_links": len(index.by_link),
            "reduction": round(reduction, 2),
            "parity_prefixes": _PARITY_PREFIX_COUNT,
        },
    )


def test_bench_fulltable_burst_replay(built):
    # Runs last in the module: the burst mutates the shared speaker.
    table = built.table
    peer_as = table.peers[0]
    count = min(200_000, len(table))
    burst = table.burst(peer_as, count, start_time=1.0)

    # What a reroute for this burst reads, built from the pre-burst table as
    # provision() would: per inferred link, the index lookup that replaced
    # the walk over the predicted (here: the withdrawn) prefixes.
    index = BackupComputer().compute_table(
        built.best, built.speaker.alternate_routes, built.speaker.loc_rib.candidate_map
    )
    # The per-prefix table the walk read: prefix -> link -> backup next hop.
    backup_table = {
        prefix: profile.next_hops for prefix, profile in index.profile_of.items()
    }
    weight = {
        link: sum(profile.prefix_count for profile in profiles)
        for link, profiles in index.by_link.items()
    }
    heaviest = sorted(weight, key=lambda link: (-weight[link], link))[:8]
    predicted = table.prefixes[:count]
    lookup_ms, walk_ms = [], []
    for link in heaviest:
        started = time.perf_counter()
        by_index = index.next_hops(link)
        lookup_ms.append((time.perf_counter() - started) * 1e3)
        assert sum(by_index.values()) == sum(
            1 for per_link in backup_table.values() if link in per_link
        )
        started = time.perf_counter()
        backups_for_link(backup_table, link, predicted)
        walk_ms.append((time.perf_counter() - started) * 1e3)
    del backup_table

    changes = []
    built.speaker.add_best_route_listener(changes.extend)
    started = time.perf_counter()
    built.speaker.receive_columnar(burst)
    burst_seconds = time.perf_counter() - started

    session = built.speaker.session(peer_as)
    assert table.prefixes[0] not in session.rib_in
    assert table.prefixes[count - 1] not in session.rib_in
    # Other feeds still cover every withdrawn prefix, so nothing went dark.
    losses = [change for change in changes if change.is_loss_of_reachability]
    if len(table.peers) > 1:
        assert not losses

    record(
        RESULTS_PATH,
        "fulltable.burst_replay",
        {
            "prefixes": len(table),
            "withdrawals": count,
            "burst_seconds": round(burst_seconds, 3),
            "withdrawals_per_second": round(count / burst_seconds),
            "best_route_changes": len(changes),
            "index_profiles": len(set(index.profile_of.values())),
            "index_links": len(index.by_link),
            "reroute_links_timed": len(heaviest),
            "index_lookup_ms_per_link_median": round(statistics.median(lookup_ms), 4),
            "index_lookup_ms_per_link_max": round(max(lookup_ms), 4),
            "walk_ms_per_link_median": round(statistics.median(walk_ms), 2),
        },
    )
