"""Popular origin organizations.

§2.2.1 of the paper extracts, from the Cisco "Umbrella 1 Million" list, the
organizations behind the top 100 DNS domains (15 organizations: Google,
Akamai, Amazon, Apple, Microsoft, Facebook, etc.) and reports that 84% of the
observed withdrawal bursts include at least one prefix announced by one of
them.  We hard-code the organizations with a representative set of their
well-known origin AS numbers so the synthetic trace generator can mark some
origins as popular and the burst analysis can reproduce the statistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

__all__ = [
    "POPULAR_ORGANIZATIONS",
    "PopularOrigin",
    "all_popular_asns",
    "is_popular_asn",
    "organization_of",
]


@dataclass(frozen=True)
class PopularOrigin:
    """A popular content/cloud organization and its best-known origin ASNs."""

    name: str
    asns: Tuple[int, ...]


#: The 15 organizations behind the Umbrella top-100 domains (§2.2.1), with
#: representative public ASNs.
POPULAR_ORGANIZATIONS: Tuple[PopularOrigin, ...] = (
    PopularOrigin("Google", (15169, 396982, 43515)),
    PopularOrigin("Akamai", (20940, 16625, 32787)),
    PopularOrigin("Amazon", (16509, 14618)),
    PopularOrigin("Apple", (714, 6185)),
    PopularOrigin("Microsoft", (8075, 8068)),
    PopularOrigin("Facebook", (32934, 54115)),
    PopularOrigin("Netflix", (2906, 40027)),
    PopularOrigin("Cloudflare", (13335, 209242)),
    PopularOrigin("Twitter", (13414, 35995)),
    PopularOrigin("Yahoo", (10310, 26101)),
    PopularOrigin("Verisign", (7342, 26134)),
    PopularOrigin("Fastly", (54113,)),
    PopularOrigin("Limelight", (22822,)),
    PopularOrigin("Dropbox", (19679,)),
    PopularOrigin("LinkedIn", (14413, 20049)),
)


def all_popular_asns() -> FrozenSet[int]:
    """The set of every ASN belonging to a popular organization."""
    asns: List[int] = []
    for organization in POPULAR_ORGANIZATIONS:
        asns.extend(organization.asns)
    return frozenset(asns)


_POPULAR_LOOKUP: Dict[int, str] = {
    asn: organization.name
    for organization in POPULAR_ORGANIZATIONS
    for asn in organization.asns
}


def is_popular_asn(asn: int) -> bool:
    """True if ``asn`` belongs to one of the popular organizations."""
    return asn in _POPULAR_LOOKUP


def organization_of(asn: int) -> str:
    """Name of the popular organization owning ``asn`` (KeyError if not popular)."""
    return _POPULAR_LOOKUP[asn]
