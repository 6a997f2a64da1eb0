"""Test oracle: the per-prefix reroute walk ``SwiftedRouter`` used to run.

Until the backup-profile index (``repro.core.backup.BackupProfileIndex``)
replaced it, every inferred link walked every predicted prefix through the
backup table to collect the backup next-hops.  The walk is kept here,
test-only and reading the router's tables as arguments, as the reference the
index-derived rules are compared against.  It counts, per inferred link, the
backup each predicted prefix holds for that link — the one its tag carries —
and nothing else: a prefix without a backup for the link adds no rule.

The router keeps no per-prefix table any more; :func:`backup_table` is the
one test-side view of it, read off the index: a backup is its next hop.
"""

from collections import Counter
from typing import Dict, Iterable, Mapping, Tuple

from repro.bgp.prefix import Prefix
from repro.core.encoding import EncodedTags, TagEncoder

Link = Tuple[int, int]
#: ``(value, mask, next_hop, priority)`` of one installed wildcard rule.
RuleKey = Tuple[int, int, int, int]


def backup_table(router) -> Dict[Prefix, Dict[Link, int]]:
    """``prefix -> protected link -> backup next hop``, from
    ``router.backup_index``, as a snapshot; a prefix without backups has no
    entry."""
    return {
        prefix: dict(profile.next_hops)
        for prefix, profile in router.backup_index.profile_of.items()
    }


def backups_for_link(
    backup_table: Mapping[Prefix, Mapping[Link, int]],
    link: Link,
    prefixes: Iterable[Prefix],
) -> Dict[int, int]:
    """Backup next-hops (and prefix counts) for traffic crossing ``link``:
    the backup each of ``prefixes`` holds for ``link``, where it holds one."""
    link = link if link[0] <= link[1] else (link[1], link[0])
    counts: Dict[int, int] = {}
    for prefix in prefixes:
        hop = backup_table.get(prefix, {}).get(link)
        if hop is not None:
            counts[hop] = counts.get(hop, 0) + 1
    return counts


def walk_rules(
    encoder: TagEncoder,
    encoded: EncodedTags,
    backup_table: Mapping[Prefix, Mapping[Link, int]],
    inferred_links: Iterable[Link],
    predicted_prefixes: Iterable[Prefix],
    priority: int,
) -> "Counter[RuleKey]":
    """The rule multiset the walk-based ``_apply_inference`` installed."""
    predicted = list(predicted_prefixes)
    rules: Counter = Counter()
    for link in inferred_links:
        backups = backups_for_link(backup_table, link, predicted)
        if not backups:
            continue
        for rule in encoder.reroute_rules(encoded, link, backups):
            rules[(rule.value, rule.mask, rule.next_hop, priority)] += 1
    return rules
