"""Test oracle: the paper's *encoding performance* read off the encoding alone.

Fig. 7 used to compute it this way, as ``TagEncoder.coverage``: among the
predicted prefixes, the share whose best path crosses one of the inferred
links at a position the encoding gives an identifier.  The figure now reads
a router replay instead — the share of predicted prefixes whose stage-1 tag
matches one of the installed reroute rules
(``repro.experiments.common.ReplayRecord.rerouted_share``) — and this is the
reference that share is compared against.
"""

from typing import Iterable, Mapping, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.prefix import Prefix
from repro.core.encoding import EncodedTags

Link = Tuple[int, int]


def _canonical(link: Link) -> Link:
    return link if link[0] <= link[1] else (link[1], link[0])


def coverage(
    encoded: EncodedTags,
    best_paths: Mapping[Prefix, ASPath],
    prefixes: Iterable[Prefix],
    links: Iterable[Link],
) -> float:
    """Fraction of ``prefixes`` crossing one of ``links`` at an encoded
    position; an empty ``prefixes`` misses nothing (1.0)."""
    wanted = {_canonical(link) for link in links}
    prefixes = list(prefixes)
    if not prefixes:
        return 1.0
    covered = 0
    for prefix in prefixes:
        path = best_paths.get(prefix)
        if path is None:
            continue
        for position, link in enumerate(path.links(), 1):
            if link in wanted and encoded.is_encoded(link, position):
                covered += 1
                break
    return covered / len(prefixes)
