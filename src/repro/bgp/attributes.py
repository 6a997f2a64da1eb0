"""BGP path attributes.

SWIFT's inference works entirely off the AS-path attribute of announcements
and withdrawals, but to keep the substrate faithful we also model the other
attributes that drive the decision process (local preference, MED, origin,
communities) and that the paper mentions as obstacles to update packing
(communities, §2.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

__all__ = ["ASPath", "Community", "Origin", "PathAttributes"]


class Origin(IntEnum):
    """BGP ORIGIN attribute; lower is preferred by the decision process."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


@dataclass(frozen=True, order=True)
class Community:
    """A standard BGP community ``asn:value``.

    The paper notes that widespread community usage defeats update packing
    because updates with distinct attribute sets cannot share a message.
    The synthetic trace generator attaches per-prefix communities for this
    reason.
    """

    asn: int
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.asn <= 0xFFFF:
            raise ValueError(f"community ASN {self.asn} out of 16-bit range")
        if not 0 <= self.value <= 0xFFFF:
            raise ValueError(f"community value {self.value} out of 16-bit range")

    def __str__(self) -> str:
        return f"{self.asn}:{self.value}"

    @classmethod
    def from_string(cls, text: str) -> "Community":
        """Parse ``"asn:value"``."""
        asn_text, _, value_text = text.partition(":")
        if not asn_text.isdigit() or not value_text.isdigit():
            raise ValueError(f"invalid community {text!r}")
        return cls(int(asn_text), int(value_text))


class ASPath:
    """An AS_PATH: an ordered sequence of AS numbers, nearest AS first.

    The path ``(2, 5, 6)`` means the advertising neighbor is AS 2, which
    reaches the origin AS 6 via AS 5 — exactly the orientation used in the
    paper's Fig. 1/Fig. 5.  AS-path *links* (pairs of adjacent ASes) are what
    the SWIFT inference algorithm scores, so this class exposes them
    directly via :meth:`links` and :meth:`links_with_positions`.
    """

    __slots__ = ("_asns", "_links", "_loop")

    def __init__(self, asns: Iterable[int]) -> None:
        asns = tuple(int(a) for a in asns)
        for asn in asns:
            if asn <= 0:
                raise ValueError(f"invalid AS number {asn}")
        self._asns = asns
        # Lazily-computed caches; paths are immutable and their links are
        # re-read on every RIB index update, so memoising them keeps the
        # replay hot path off the zip/canonicalise work.
        self._links: Optional[Tuple[Tuple[int, int], ...]] = None
        self._loop: Optional[bool] = None

    # -- accessors --------------------------------------------------------

    @property
    def asns(self) -> Tuple[int, ...]:
        """The AS numbers, nearest first."""
        return self._asns

    @property
    def origin_as(self) -> Optional[int]:
        """The AS originating the prefix (last element), or ``None`` if empty."""
        return self._asns[-1] if self._asns else None

    @property
    def first_hop(self) -> Optional[int]:
        """The neighbor AS the path was learned from, or ``None`` if empty."""
        return self._asns[0] if self._asns else None

    def __len__(self) -> int:
        return len(self._asns)

    def __iter__(self):
        return iter(self._asns)

    def __getitem__(self, index):
        return self._asns[index]

    def __contains__(self, asn: int) -> bool:
        return asn in self._asns

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ASPath):
            return NotImplemented
        return self._asns == other._asns

    def __hash__(self) -> int:
        return hash(self._asns)

    def __reduce__(self):
        # Restore via the trusted fast path (skips re-validation; the lazy
        # link/loop caches rebuild on demand) — trace caches serialise
        # hundreds of thousands of paths.
        return (_restore_aspath, (self._asns,))

    def __repr__(self) -> str:
        return f"ASPath({list(self._asns)!r})"

    def __str__(self) -> str:
        return " ".join(str(asn) for asn in self._asns)

    # -- derived views ----------------------------------------------------

    def links(self) -> Tuple[Tuple[int, int], ...]:
        """Return the AS links (adjacent pairs) along the path.

        Links are returned in canonical (sorted endpoint) form because an
        AS adjacency is undirected for the purposes of failure inference.
        The tuple is computed once and cached (paths are immutable).
        """
        links = self._links
        if links is None:
            links = self._links = tuple(
                _canonical_link(a, b) for a, b in zip(self._asns, self._asns[1:])
            )
        return links

    def directed_links(self) -> List[Tuple[int, int]]:
        """Return the links in traversal order without canonicalisation."""
        return list(zip(self._asns, self._asns[1:]))

    def links_with_positions(self) -> List[Tuple[Tuple[int, int], int]]:
        """Return ``(link, position)`` pairs.

        Position numbering follows §5 of the paper: the link between the
        first and second AS of the path is at position 1 (the "depth 1"
        link adjacent to the SWIFTED router's neighbor), the next one at
        position 2, and so on.
        """
        return [
            (_canonical_link(a, b), index + 1)
            for index, (a, b) in enumerate(zip(self._asns, self._asns[1:]))
        ]

    def traverses(self, link: Tuple[int, int]) -> bool:
        """Return ``True`` if the path crosses the (undirected) AS link."""
        canonical = _canonical_link(*link)
        return canonical in self.links()

    def traverses_as(self, asn: int) -> bool:
        """Return ``True`` if the path visits the AS."""
        return asn in self._asns

    def has_loop(self) -> bool:
        """Return ``True`` if any AS appears more than once (invalid path)."""
        loop = self._loop
        if loop is None:
            loop = self._loop = len(set(self._asns)) != len(self._asns)
        return loop

    def prepend(self, asn: int, count: int = 1) -> "ASPath":
        """Return a new path with ``asn`` prepended ``count`` times."""
        return ASPath((asn,) * count + self._asns)

    def truncate(self, max_links: int) -> "ASPath":
        """Return a copy keeping at most ``max_links`` links from the head."""
        return ASPath(self._asns[: max_links + 1])

    @classmethod
    def from_string(cls, text: str) -> "ASPath":
        """Parse a whitespace-separated AS path string such as ``"2 5 6"``."""
        parts = text.split()
        return cls(int(part) for part in parts)


def _restore_aspath(asns: Tuple[int, ...]) -> "ASPath":
    """Unpickle fast path: rebuild a path from an already-validated tuple."""
    path = ASPath.__new__(ASPath)
    path._asns = asns
    path._links = None
    path._loop = None
    return path


def _canonical_link(a: int, b: int) -> Tuple[int, int]:
    """Return the undirected (sorted) form of an AS link."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class PathAttributes:
    """The attribute set attached to a BGP announcement.

    Only the attributes relevant to path selection and to SWIFT are kept.
    ``next_hop`` identifies the egress neighbor (an AS number in our AS-level
    model rather than an IP address), matching how the paper reasons about
    "primary next-hop" and "backup next-hop" at the AS granularity.
    """

    as_path: ASPath
    next_hop: int
    local_pref: int = 100
    med: int = 0
    origin: Origin = Origin.IGP
    communities: FrozenSet[Community] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.local_pref < 0:
            raise ValueError("local_pref must be non-negative")
        if self.med < 0:
            raise ValueError("MED must be non-negative")

    def __reduce__(self):
        # Constructor-call pickling; see ASPath.__reduce__.
        return (
            PathAttributes,
            (
                self.as_path,
                self.next_hop,
                self.local_pref,
                self.med,
                self.origin,
                self.communities,
            ),
        )

    def with_local_pref(self, local_pref: int) -> "PathAttributes":
        """Return a copy with a different LOCAL_PREF."""
        return PathAttributes(
            as_path=self.as_path,
            next_hop=self.next_hop,
            local_pref=local_pref,
            med=self.med,
            origin=self.origin,
            communities=self.communities,
        )

    def with_communities(self, communities: Sequence[Community]) -> "PathAttributes":
        """Return a copy with the given community set."""
        return PathAttributes(
            as_path=self.as_path,
            next_hop=self.next_hop,
            local_pref=self.local_pref,
            med=self.med,
            origin=self.origin,
            communities=frozenset(communities),
        )
