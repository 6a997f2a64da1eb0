"""The BGP decision process.

Implements the standard best-path selection steps a router applies to the
candidate routes for a prefix (RFC 4271 §9.1, simplified to the attributes we
model):

1. highest LOCAL_PREF,
2. shortest AS path,
3. lowest ORIGIN,
4. lowest MED (compared across all candidates, i.e. "always-compare-med"),
5. lowest peer AS number (deterministic tie break standing in for lowest
   router-id).

The process is pluggable so the AS-level propagation simulator can substitute
Gao–Rexford preference (customer > peer > provider) for step 1, as real
operators do via LOCAL_PREF assignment.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.bgp.rib import RibEntry

__all__ = ["DecisionProcess", "default_decision_process", "gao_rexford_ranking"]


# A ranking function maps a candidate to a sortable key; *smaller is better*.
RankingFunction = Callable[[RibEntry], Tuple]


class DecisionProcess:
    """Selects the best route among candidates using a ranking function.

    Parameters
    ----------
    ranking:
        Callable mapping a :class:`RibEntry` to a tuple; the candidate with
        the smallest tuple wins.  Defaults to the standard BGP ranking.  A
        stored route is an attribute object and a peer AS, nothing else, so
        every ranking depends only on those — the property that lets the
        batched speaker path run one selection per *distinct candidate
        profile* instead of one per prefix.
    """

    def __init__(self, ranking: Optional[RankingFunction] = None) -> None:
        self._ranking = ranking or standard_ranking

    def select(self, candidates: Iterable[RibEntry]) -> Optional[RibEntry]:
        """Return the preferred candidate, or ``None`` if there are none.

        Candidates whose AS path contains a loop are discarded, matching the
        loop-prevention rule of eBGP.
        """
        valid = [entry for entry in candidates if not entry.as_path.has_loop()]
        if not valid:
            return None
        return min(valid, key=self._ranking)

    def rank(self, candidates: Iterable[RibEntry]) -> List[RibEntry]:
        """Return all loop-free candidates sorted from most to least preferred."""
        valid = [entry for entry in candidates if not entry.as_path.has_loop()]
        return sorted(valid, key=self._ranking)


def standard_ranking(entry: RibEntry) -> Tuple:
    """The default BGP ranking key (smaller tuple = more preferred)."""
    return (
        -entry.attributes.local_pref,
        len(entry.as_path),
        int(entry.attributes.origin),
        entry.attributes.med,
        entry.peer_as,
    )


def gao_rexford_ranking(
    relationship_of: Callable[[int], int],
) -> RankingFunction:
    """Build a ranking that prefers customer > peer > provider routes.

    Parameters
    ----------
    relationship_of:
        Callable mapping a peer AS number to a preference class: ``0`` for a
        customer, ``1`` for a peer, ``2`` for a provider.  Routes from lower
        classes are preferred regardless of path length, which is how
        operators implement the economic "prefer revenue-generating routes"
        rule with LOCAL_PREF.
    """

    def ranking(entry: RibEntry) -> Tuple:
        return (
            relationship_of(entry.peer_as),
            -entry.attributes.local_pref,
            len(entry.as_path),
            int(entry.attributes.origin),
            entry.attributes.med,
            entry.peer_as,
        )

    return ranking


def default_decision_process() -> DecisionProcess:
    """Return a decision process using the standard BGP ranking."""
    return DecisionProcess(standard_ranking)
