"""Test oracle: the per-prefix reroute walk ``SwiftedRouter`` used to run.

Until the backup-profile index (``repro.core.backup.BackupProfileIndex``)
replaced it, every inferred link walked every predicted prefix through the
backup table to collect the backup next-hops.  The walk is kept here,
test-only and reading the router's tables as arguments, as the reference the
index-derived rules are compared against.

The router keeps no per-prefix table any more; :func:`backup_table` is the
one test-side view of it, read off the index.
"""

from collections import Counter
from typing import Dict, FrozenSet, Iterable, Mapping, Tuple

from repro.bgp.prefix import Prefix
from repro.core.backup import BackupSelection, BackupTableView
from repro.core.encoding import EncodedTags, TagEncoder

Link = Tuple[int, int]
#: ``(value, mask, next_hop, priority)`` of one installed wildcard rule.
RuleKey = Tuple[int, int, int, int]


def backup_table(router) -> Dict[Prefix, Dict[Link, BackupSelection]]:
    """``prefix -> protected link -> selection``, from ``router.backup_index``.

    The shape ``BackupComputer.compute_table`` returns, as a snapshot; a
    prefix without backups has no entry.
    """
    return dict(BackupTableView(router.backup_index))


def backups_for_link(
    backup_table: Mapping[Prefix, Mapping[Link, BackupSelection]],
    link: Link,
    prefixes: Iterable[Prefix],
    shared_endpoints: FrozenSet[int] = frozenset(),
) -> Dict[int, int]:
    """Backup next-hops (and prefix counts) for traffic crossing ``link``.

    When the inference aggregated several links, ``shared_endpoints`` are
    the ASes common to all of them; backups whose path traverses one of
    those endpoints are avoided when possible (§4.2 safety rule), falling
    back to the pre-computed selection otherwise.
    """
    link = link if link[0] <= link[1] else (link[1], link[0])
    counts: Dict[int, int] = {}
    for prefix in prefixes:
        per_link = backup_table.get(prefix)
        if not per_link:
            continue
        selections = list(per_link.values())
        selection = per_link.get(link)
        next_hop = selection.next_hop if selection is not None else None
        if next_hop is None:
            # Fall back to any backup of the prefix avoiding the inferred
            # link (e.g. the link was not individually protected).
            for candidate in selections:
                if link not in candidate.as_path.links():
                    next_hop = candidate.next_hop
                    break
        if next_hop is not None and shared_endpoints:
            for candidate in selections:
                if not (shared_endpoints & set(candidate.as_path.asns)):
                    next_hop = candidate.next_hop
                    break
        if next_hop is None:
            continue
        counts[next_hop] = counts.get(next_hop, 0) + 1
    return counts


def walk_rules(
    encoder: TagEncoder,
    encoded: EncodedTags,
    backup_table: Mapping[Prefix, Mapping[Link, BackupSelection]],
    inferred_links: Iterable[Link],
    predicted_prefixes: Iterable[Prefix],
    shared_endpoints: FrozenSet[int],
    priority: int,
) -> "Counter[RuleKey]":
    """The rule multiset the walk-based ``_apply_inference`` installed."""
    predicted = list(predicted_prefixes)
    rules: Counter = Counter()
    for link in inferred_links:
        backups = backups_for_link(backup_table, link, predicted, shared_endpoints)
        if not backups:
            continue
        for rule in encoder.reroute_rules(encoded, link, backups):
            rules[(rule.value, rule.mask, rule.next_hop, priority)] += 1
    return rules
