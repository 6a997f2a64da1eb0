"""BGP substrate: prefixes, messages, RIBs, decision process and speakers.

This package implements the inter-domain routing machinery SWIFT sits on
top of.  It is intentionally self contained (no third party dependencies)
and models BGP at the level of detail the paper relies on:

* IPv4 prefixes and longest-prefix-match lookup (:mod:`repro.bgp.prefix`,
  :mod:`repro.bgp.trie`),
* path attributes and UPDATE / WITHDRAW messages (:mod:`repro.bgp.attributes`,
  :mod:`repro.bgp.messages`),
* per-peer Adj-RIB-In tables, a Loc-RIB and the standard decision process
  (:mod:`repro.bgp.rib`, :mod:`repro.bgp.decision`),
* peering sessions holding each neighbor's routes, state and counters
  (:mod:`repro.bgp.session`),
* a small BGP speaker tying the pieces together (:mod:`repro.bgp.speaker`).
"""

from repro.bgp.attributes import Origin, PathAttributes
from repro.bgp.decision import DecisionProcess, default_decision_process
from repro.bgp.messages import (
    BGPMessage,
    KeepAlive,
    MessageType,
    Notification,
    OpenMessage,
    Update,
    Withdraw,
)
from repro.bgp.prefix import Prefix, PrefixError, summarize_prefixes
from repro.bgp.rib import AdjRibIn, LocRib, RibEntry, RouteChange
from repro.bgp.session import PeeringSession, SessionState
from repro.bgp.speaker import BGPSpeaker
from repro.bgp.trie import PrefixTrie

__all__ = [
    "AdjRibIn",
    "BGPMessage",
    "BGPSpeaker",
    "DecisionProcess",
    "KeepAlive",
    "LocRib",
    "MessageType",
    "Notification",
    "OpenMessage",
    "Origin",
    "PathAttributes",
    "PeeringSession",
    "Prefix",
    "PrefixError",
    "PrefixTrie",
    "RibEntry",
    "RouteChange",
    "SessionState",
    "Update",
    "Withdraw",
    "default_decision_process",
    "summarize_prefixes",
]
