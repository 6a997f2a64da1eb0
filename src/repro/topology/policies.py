"""Valley-free (Gao–Rexford) routing policies.

Inter-domain routing policies are the reason convergence is slow: ASes hide
paths from each other ("BGP information hiding", §2.1.1).  The propagation
simulator uses the standard valley-free export model:

* a route learned from a **customer** is exported to everyone,
* a route learned from a **peer** or a **provider** is exported only to
  customers,

and the standard preference order customer > peer > provider, then shortest
AS path, then lowest neighbor ASN as tie break.  This matches how the paper
configures its C-BGP topology (§6.1).
"""

from __future__ import annotations

from typing import Sequence

from repro.topology.as_graph import ASGraph

__all__ = [
    "is_valley_free",
    "relationship_preference",
    "valley_free_export",
]

# Preference classes; lower is better (customer routes bring revenue).
_PREFERENCE = {"customer": 0, "peer": 1, "provider": 2}


def relationship_preference(relationship: str) -> int:
    """Map a relationship label to its Gao–Rexford preference class."""
    try:
        return _PREFERENCE[relationship]
    except KeyError:
        raise ValueError(f"unknown relationship {relationship!r}") from None


def valley_free_export(learned_from: str, export_to: str) -> bool:
    """Return True if a route learned over ``learned_from`` may be exported.

    Parameters
    ----------
    learned_from:
        Relationship of the neighbor the route was learned from, as seen by
        the exporting AS: ``"customer"``, ``"peer"``, ``"provider"`` or
        ``"origin"`` (the AS originates the prefix itself).
    export_to:
        Relationship of the neighbor the route would be exported to.
    """
    if learned_from == "origin":
        return True
    if learned_from == "customer":
        return True
    # Routes from peers and providers only flow "downhill" to customers.
    return export_to == "customer"


def is_valley_free(graph: ASGraph, path: Sequence[int]) -> bool:
    """Check that an AS path (origin last) respects valley-free export rules.

    The path is given in BGP order (nearest AS first, origin last), i.e. the
    traffic flows from the first AS towards the origin, while the route
    announcement travelled in the opposite direction.  A path is valley-free
    when, walking from the origin towards the receiver, the sequence of
    relationships is a series of customer-to-provider ("uphill") steps,
    followed by at most one peering step, followed by provider-to-customer
    ("downhill") steps.
    """
    if len(path) <= 1:
        return True
    # Walk announcement direction: origin -> ... -> receiver.
    announcement_order = list(reversed(path))
    # State machine: 0 = uphill allowed, 1 = after peak (only downhill).
    seen_peak = False
    for sender, receiver in zip(announcement_order, announcement_order[1:]):
        if not graph.has_link(sender, receiver):
            return False
        relationship = graph.link(sender, receiver).relationship_from(sender)
        # relationship describes what *receiver* is to *sender*:
        #   "provider"  -> announcement goes uphill (sender is customer)
        #   "peer"      -> peering step (the single allowed peak)
        #   "customer"  -> announcement goes downhill
        if relationship == "provider":
            if seen_peak:
                return False
        elif relationship == "peer":
            if seen_peak:
                return False
            seen_peak = True
        elif relationship == "customer":
            seen_peak = True
        else:  # pragma: no cover - defensive
            return False
    return True

