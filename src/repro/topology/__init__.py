"""AS-level topology substrate.

Provides the AS graph with business relationships, tier classification,
valley-free (Gao–Rexford) export policies, and the topology generator used
to reproduce the paper's C-BGP evaluation setup (§6.1: 1,000 ASes, average
degree 8.4, power-law degree distribution with exponent 2.1, tiered
relationships, 20 prefixes per AS).
"""

from repro.topology.as_graph import ASGraph, ASLink, ASNode, Relationship
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.policies import (
    valley_free_export,
    is_valley_free,
    relationship_preference,
)
from repro.topology.tiers import assign_tiers

__all__ = [
    "ASGraph",
    "ASLink",
    "ASNode",
    "Relationship",
    "TopologyConfig",
    "assign_tiers",
    "generate_topology",
    "is_valley_free",
    "relationship_preference",
    "valley_free_export",
]
