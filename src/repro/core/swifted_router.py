"""A SWIFTED border router (§3).

:class:`SwiftedRouter` composes the pieces built elsewhere in this package:

* a :class:`~repro.bgp.speaker.BGPSpeaker` holding the per-peer Adj-RIB-Ins
  and the Loc-RIB,
* a :class:`~repro.core.backup.BackupComputer` pre-computing policy-compliant
  backup next-hops for every prefix and protected link,
* a :class:`~repro.core.encoding.TagEncoder` producing the two-part tags and
  the wildcard reroute rules,
* a :class:`~repro.dataplane.fib.TwoStageForwardingTable` holding the tags
  (stage 1, the encoding's own tag dict) and the forwarding rules (stage 2),
* one :class:`~repro.core.inference.InferenceEngine` per peering session,
  watching the incoming streams for bursts.

Upon an accepted inference the router installs one high-priority rule per
(inferred link position, backup next-hop) — rerouting every affected prefix
at once — and returns a :class:`RerouteAction` with the modelled data-plane
update latency from the ``receive*`` call that fed the burst; the router keeps
no log of past actions.  A link's backup next-hops come from a provision-time
:class:`~repro.core.backup.BackupProfileIndex`, not from the predicted
prefixes — the tags carry the per-prefix state (§5) — so a reroute costs
O(rules).  The backup a rule installs is the one the tag carries: both read
the profile's per-link next hop, at the one protection depth
:attr:`~repro.core.encoding.EncoderConfig.backup_depth`.  When BGP has
re-converged (the burst ends), the SWIFT rules are withdrawn and forwarding
falls back to the BGP-derived state (§3).

Message streams should be fed through :meth:`SwiftedRouter.receive_batch`
(or, for columnar traces, :meth:`SwiftedRouter.receive_columnar`) where
possible: the speaker applies the whole batch in bulk, and consecutive
same-peer runs are handed to the session's inference engine in bulk, keeping
per-message Python overhead off the burst hot path.

The router learns what changed from session *change observers*, fed
prefixes rather than messages, and reads no best-route change, so its
speaker calls — table loads (:meth:`load_initial_routes`, one column walk
per table dump) included — are silent, no reachability tracking, no change
record and no best-path selection, unless a best-route listener is
registered.  Like SWIFT itself, which reroutes in the data plane before BGP
converges and reads best paths only to provision backups and tags, the
router reads the Loc-RIB only in :meth:`provision`, and the first read
selects every prefix touched since the last one, once (best routes on read,
``repro/bgp/README.md``): a burst streams in without a decision pass.
Re-provisioning is *incremental*: :meth:`SwiftedRouter.provision` keeps
the per-session :class:`~repro.core.inference.InferenceEngine`\\ s (and
their link/prefix indexes) alive, patching them for the prefixes that
changed out of band with
the routes the Adj-RIB-Ins hold at that point, and only looks up, recomputes
and re-indexes the prefixes whose candidate routes changed since the last
call.  A warm re-provision costs
O(changes), not O(RIB) — the paper's "re-runs it periodically / upon
significant RIB changes" loop becomes cheap enough to run after every quiet
period.  The cost model, per dirty prefix: the best-path selection the
drive deferred (one ``select`` per candidate profile, none for a sole
candidate, paid by the first Loc-RIB read), one Loc-RIB lookup and a read of
its candidate map (the speaker's decision-process sort is skipped, see
:meth:`SwiftedRouter._alternates`), one ranking of its alternates
(:meth:`~repro.core.backup.BackupComputer.rank`), at most
``backup_depth`` walks of that ranking for the first backup valid for a
protected link, one interning of the resulting backup next hops as a
profile.  A prefix that kept its best path object and its profile stops there
(``last_provision_stats["unchanged"]``); any other moves between
backup-index profiles and gets one tag and, when the tag changed, one
stage-1 dict store.  The backup index is the router's only backup table:
no per-(prefix, link) record is built.  Per call: the encoder's two allocation
checks — over the threshold-eligible links and only when one of them moved,
over the neighbors when a next-hop count moved
(:meth:`~repro.core.encoding.TagEncoder.encode_delta`) — and one visit per
session to flush its engine.  No table-sized structure is copied, sorted or
scanned; the encoding is patched in place.  When an identifier allocation
would move, the patch is refused before it touches anything and the tags are
re-encoded from scratch (``last_provision_stats["full_reencode"]``).  Pass
``full_rebuild=True`` to force the from-scratch path (also taken
automatically when the rerouting policy carries capacity limits, whose
global usage accounting is inherently non-incremental).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.messages import BGPMessage
from repro.bgp.prefix import Prefix
from repro.bgp.rib import RibEntry
from repro.bgp.speaker import BGPSpeaker
from repro.core import kernels
from repro.core.backup import BackupComputer, BackupProfileIndex, ReroutingPolicy
from repro.core.encoding import EncodedTags, EncoderConfig, TagEncoder, WildcardRule
from repro.core.history import HistoryModel
from repro.core.inference import InferenceConfig, InferenceEngine, InferenceResult
from repro.dataplane.fib import TwoStageForwardingTable
from repro.dataplane.timing import FibUpdateTimingModel
from repro.traces.columnar import table_dump

__all__ = ["RerouteAction", "SwiftConfig", "SwiftedRouter"]

Link = Tuple[int, int]

#: Priority used for the rules SWIFT installs upon an inference; the BGP
#: default rules sit at priority 0.
SWIFT_RULE_PRIORITY = 100


@dataclass(frozen=True)
class SwiftConfig:
    """Configuration of a SWIFTED router."""

    inference: InferenceConfig = field(default_factory=InferenceConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    policy: ReroutingPolicy = field(default_factory=ReroutingPolicy)
    timing: FibUpdateTimingModel = field(default_factory=FibUpdateTimingModel)


@dataclass(frozen=True)
class RerouteAction:
    """One SWIFT fast-reroute activation."""

    timestamp: float
    peer_as: int
    inferred_links: Tuple[Link, ...]
    rules: Tuple[WildcardRule, ...]
    rerouted_prefixes: FrozenSet[Prefix]
    dataplane_update_seconds: float

    @property
    def rule_count(self) -> int:
        """Number of wildcard rules installed by this activation."""
        return len(self.rules)


class _SessionChanges:
    """The sessions' change observer (:meth:`note`) and what it records:
    ``dirty``, the prefixes whose candidate routes changed since the last
    provision (an alternate appearing or vanishing also invalidates backup
    selections), and ``per_peer``, those whose Adj-RIB-In route changed while
    the router was not ``feeding`` its engines (table loads, direct speaker
    use).  It holds no router: a dropped router is freed by refcounting.
    """

    __slots__ = ("dirty", "per_peer", "feeding")

    def __init__(self) -> None:
        self.dirty: Set[Prefix] = set()
        self.per_peer: Dict[int, Dict[Prefix, None]] = {}
        self.feeding = False

    def note(self, session, prefixes: List[Prefix]) -> None:
        """Record changed prefixes; :meth:`SwiftedRouter.provision` patches
        the engines with the routes the Adj-RIB-Ins hold *then*."""
        self.dirty.update(prefixes)
        if not self.feeding:
            # A dict as an ordered set: the engine is patched in first-change
            # order, as the changes happened.
            self.per_peer.setdefault(session.peer_as, {}).update(
                dict.fromkeys(prefixes)
            )


class SwiftedRouter:
    """A border router running SWIFT."""

    def __init__(
        self,
        local_as: int,
        config: Optional[SwiftConfig] = None,
        history: Optional[HistoryModel] = None,
    ) -> None:
        self.local_as = local_as
        self.config = config or SwiftConfig()
        self.speaker = BGPSpeaker(local_as)
        self.forwarding = TwoStageForwardingTable()
        self.backup_computer = BackupComputer(
            policy=self.config.policy, max_depth=self.config.encoder.backup_depth
        )
        self.encoder = TagEncoder(self.config.encoder)
        self._history = history
        self._engines: Dict[int, InferenceEngine] = {}
        self._encoded: Optional[EncodedTags] = None
        # The router's one backup table: per prefix a profile of per-link
        # backups, per link the profiles a reroute reads (_apply_inference).
        self._backup_index = BackupProfileIndex()
        # Best-path snapshot at the last encode, for per-prefix delta
        # re-encoding on warm provisions.
        self._encoded_paths: Dict[Prefix, ASPath] = {}
        self._provisioned = False
        self._changes = _SessionChanges()
        self._provisioned_peers: FrozenSet[int] = frozenset()
        self.last_provision_stats: Dict[str, int] = {}

    # -- session management --------------------------------------------------

    def add_peer(self, peer_as: int, name: Optional[str] = None) -> None:
        """Create a peering session with ``peer_as``."""
        session = self.speaker.add_peer(peer_as, name=name)
        session.add_change_observer(self._changes.note)

    def load_initial_routes(
        self,
        peer_as: int,
        routes: Mapping[Prefix, "ASPath"],
        timestamp: float = 0.0,
        local_pref: int = 100,
    ) -> None:
        """Install an initial Adj-RIB-In for ``peer_as`` (e.g. a table dump).

        ``local_pref`` lets the caller express the operator's preference
        between neighbors (e.g. the paper's Fig. 1 router prefers its path
        through AS 2 even though AS 3 offers a shorter one).  The table
        enters as a :func:`~repro.traces.columnar.table_dump` through the
        speaker's column walk, building no message, with one attribute
        object per distinct path: real tables repeat a few thousand
        attribute sets across hundreds of thousands of prefixes, and the
        sharing lets the batched decision path select once per group.
        """
        self.speaker.receive_columnar(
            table_dump(routes, peer_as, local_pref=local_pref, timestamp=timestamp)
        )

    # -- provisioning -----------------------------------------------------------

    def provision(self, full_rebuild: bool = False) -> EncodedTags:
        """Pre-compute backups, tags and the default forwarding rules (§3.2).

        Must be called after the initial routes are loaded and before the
        burst arrives; a real deployment re-runs it periodically / upon
        significant RIB changes.  Re-runs are incremental: engines stay alive
        and are patched from the recorded route-change stream, and only the
        dirty prefixes are looked up in the Loc-RIB (never scanned here), get
        backups and tags recomputed and move between backup-index profiles.
        A warm call patches and returns the *same* :class:`EncodedTags`
        object (see the module docstring for the cost model); a new one
        appears only when the tags had to be re-encoded from scratch.
        ``full_rebuild=True`` forces the from-scratch path; rerouting
        policies with capacity limits always take it, because their global
        usage accounting cannot be patched per prefix.
        """
        peers = frozenset(self.speaker.peer_ases)
        incremental = (
            self._provisioned
            and not full_rebuild
            and peers == self._provisioned_peers
            and not self.config.policy.capacity_limits
        )
        loc_rib = self.speaker.loc_rib
        if incremental:
            dirty = self._changes.dirty
            self.last_provision_stats = {
                "mode": 1,
                "dirty_prefixes": len(dirty),
                "engine_deltas": sum(len(d) for d in self._changes.per_peer.values()),
            }
            # Provisioning restores BGP-derived forwarding: any SWIFT rules
            # still installed are dropped, exactly as the full rebuild's
            # clear_rules() does.
            self.forwarding.clear_rules(min_priority=SWIFT_RULE_PRIORITY)
            if dirty:
                # Recompute backups only for the dirty prefixes, collecting
                # the per-prefix encoding deltas as we go: a prefix that kept
                # its path object and its profile keeps its tag.
                changes: List[tuple] = []  # encode_delta's per-prefix input
                unchanged = 0
                index = self._backup_index
                profile_of = index.profile_of
                encoded_paths = self._encoded_paths
                select_winners = self.backup_computer.select_winners
                alternates_of = self._alternates
                no_backups: Dict[Link, int] = {}
                for prefix in dirty:
                    old_path = encoded_paths.get(prefix)
                    old_profile = profile_of.get(prefix)
                    best = loc_rib.best(prefix)
                    if best is None:
                        new_path = profile = None
                        if old_path is not None:
                            del encoded_paths[prefix]
                    else:
                        new_path = encoded_paths[prefix] = best.as_path
                        profile = index.profile_for(
                            select_winners(new_path, alternates_of(prefix))
                        )
                    if new_path is old_path and profile is old_profile:
                        unchanged += 1
                        continue
                    index.assign(prefix, profile)
                    changes.append((
                        prefix,
                        old_path,
                        new_path,
                        no_backups if old_profile is None else old_profile.next_hops,
                        no_backups if profile is None else profile.next_hops,
                    ))
                self.last_provision_stats["unchanged"] = unchanged
                assert self._encoded is not None
                tag_patch = self.encoder.encode_delta(
                    self._encoded, changes, neighbors=self.speaker.peer_ases
                )
                if tag_patch is None:
                    # The identifier allocation moved (and the encoding was
                    # left untouched): fall back to a full re-encode (backups
                    # above are already patched).
                    self._reencode(dict(loc_rib.best_entries()))
                    self.last_provision_stats["full_reencode"] = 1
                else:
                    # Stage 1 is the encoding's tag dict: this writes both.
                    self.forwarding.update_tags(tag_patch)
                    self.last_provision_stats["tag_patch"] = len(tag_patch)
        else:
            best_routes = dict(loc_rib.best_entries())
            self.last_provision_stats = {"mode": 0, "dirty_prefixes": len(best_routes)}
            self._backup_index = self.backup_computer.compute_table(
                best_routes, self._alternates, candidates_of=loc_rib.candidate_map
            )
            self._reencode(best_routes)

        self._refresh_engines(rebuild=not incremental)
        self._changes.dirty.clear()
        self._changes.per_peer.clear()
        self._provisioned_peers = peers
        self._provisioned = True
        assert self._encoded is not None
        return self._encoded

    def _alternates(self, prefix: Prefix) -> List[RibEntry]:
        """The prefix's alternates, as :meth:`BackupComputer.rank` needs them.

        The Loc-RIB candidates other than the best route's peer, minus looped
        paths, in session order — ``speaker.alternate_routes`` without its
        decision-process sort.  ``rank`` re-sorts on (preference, path
        length, next hop), and alternates that tie on that key share their
        next hop, so the input order cannot change a backup next hop.
        """
        best = self.speaker.loc_rib.best(prefix)
        best_peer = None if best is None else best.peer_as
        return [
            entry
            for entry in self.speaker.loc_rib.candidates(prefix)
            if entry.peer_as != best_peer and not entry.attributes.as_path.has_loop()
        ]

    def _reencode(self, best_routes: Mapping[Prefix, RibEntry]) -> None:
        """Re-run the full tag encoding and reload the forwarding state."""
        best_paths = {prefix: entry.as_path for prefix, entry in best_routes.items()}
        backups = {
            prefix: profile.next_hops
            for prefix, profile in self._backup_index.profile_of.items()
        }
        self._encoded = self.encoder.encode(
            best_paths, backups, neighbors=self.speaker.peer_ases
        )
        self._encoded_paths = best_paths
        self.forwarding.clear_rules()
        self.forwarding.load_tags(self._encoded.tags)
        self._install_default_rules()

    def _refresh_engines(self, rebuild: bool) -> None:
        """Create, patch or drop the per-session inference engines."""
        live_peers = set()
        for session in self.speaker.sessions():
            live_peers.add(session.peer_as)
            engine = self._engines.get(session.peer_as)
            if engine is None or rebuild:
                rib = {prefix: route.as_path for prefix, route in session.rib_in.items()}
                self._engines[session.peer_as] = InferenceEngine(
                    rib,
                    config=self.config.inference,
                    history=self._history,
                    local_as=self.local_as,
                    peer_as=session.peer_as,
                )
            else:
                engine.flush_quiet_state()
                touched = self._changes.per_peer.get(session.peer_as)
                if touched:
                    delta: Dict[Prefix, Optional[ASPath]] = {}
                    for prefix in touched:
                        entry = session.rib_in.get(prefix)
                        delta[prefix] = None if entry is None else entry.as_path
                    engine.apply_rib_delta(delta)
        for peer_as in list(self._engines):
            if peer_as not in live_peers:
                del self._engines[peer_as]

    def _install_default_rules(self) -> None:
        """Default stage-2 rules: forward on the primary next-hop of the tag."""
        assert self._encoded is not None
        shift, width = self._encoded.layout.primary_group
        for neighbor, identifier in self._encoded.next_hop_ids.items():
            rule = WildcardRule(
                value=identifier << shift,
                mask=((1 << width) - 1) << shift,
                next_hop=neighbor,
                description=f"default: primary next-hop AS {neighbor}",
            )
            self.forwarding.install_rule(rule, priority=0)

    # -- message processing --------------------------------------------------------

    def receive(self, message: BGPMessage) -> Optional[RerouteAction]:
        """Process one BGP message; returns a reroute action if SWIFT fires."""
        if not self._provisioned:
            raise RuntimeError("provision() must be called before receiving updates")
        self._changes.feeding = True
        try:
            self.speaker.receive(message)
            engine = self._engines.get(message.peer_as)
            if engine is None:
                return None
            result = engine.process_message(message)
        finally:
            self._changes.feeding = False
        if result is None:
            return None
        return self._apply_inference(message.peer_as, result)

    def receive_batch(self, messages: Iterable[BGPMessage]) -> List[RerouteAction]:
        """Process a batch of messages; returns every reroute action.

        The speaker applies the whole batch's Adj-RIB-In changes as messages
        stream in and, with no best-route listener, marks the touched
        prefixes stale for the next read of the Loc-RIB (the next
        :meth:`provision`) to select (:class:`~repro.bgp.speaker.SpeakerBatch`),
        while each session's inference engine receives consecutive same-peer
        runs via :meth:`~repro.core.inference.InferenceEngine.process_batch` —
        per-message Python overhead stays off the burst hot path on both
        sides.  Reroute application only reads the provision-time tables, so
        neither batching nor deferring selection changes the resulting
        actions.
        """
        if not self._provisioned:
            raise RuntimeError("provision() must be called before receiving updates")
        actions: List[RerouteAction] = []
        run: List[BGPMessage] = []
        run_peer: Optional[int] = None
        batch = self.speaker.begin_batch()

        def flush() -> None:
            if not run:
                return
            batch.add_run(run_peer, run)
            engine = self._engines.get(run_peer)
            if engine is not None:
                for result in engine.process_batch(run):
                    action = self._apply_inference(run_peer, result)
                    if action is not None:
                        actions.append(action)
            run.clear()

        self._changes.feeding = True
        try:
            for message in messages:
                if message.peer_as != run_peer:
                    flush()
                    run_peer = message.peer_as
                run.append(message)
            flush()
            batch.commit()
        finally:
            self._changes.feeding = False
        return actions

    def receive_columnar(self, source, kernel=None) -> List[RerouteAction]:
        """Process a columnar trace (or iterable of columnar runs).

        Mirrors :meth:`receive_batch` over the materialised stream — same
        reroute actions, same inference results — but consumes the trace in
        its native run-grouped shape *end to end*: the speaker applies each
        run straight from the columns
        (:meth:`~repro.bgp.speaker.SpeakerBatch.add_columnar_run`; the
        router's dirty-prefix tracking is a change observer fed prefixes)
        and the watching inference engine
        reads the same column window through
        :meth:`~repro.core.inference.InferenceEngine.process_columnar_run`.
        No :class:`~repro.bgp.messages.BGPMessage` is constructed anywhere
        on this path.

        ``kernel`` is the column-kernel backend for run segmentation;
        ``None`` takes the engines' configured backend
        (:attr:`InferenceConfig.kernel_backend`).
        """
        if not self._provisioned:
            raise RuntimeError("provision() must be called before receiving updates")
        if kernel is None:
            kernel = kernels.get_backend(self.config.inference.kernel_backend)
        iter_batches = getattr(source, "iter_batches", None)
        runs = iter_batches(kernel=kernel) if iter_batches is not None else source
        actions: List[RerouteAction] = []
        batch = self.speaker.begin_batch()
        self._changes.feeding = True
        try:
            for run in runs:
                batch.add_columnar_run(run)
                engine = self._engines.get(run.peer_as)
                if engine is None:
                    continue
                for result in engine.process_columnar_run(run):
                    action = self._apply_inference(run.peer_as, result)
                    if action is not None:
                        actions.append(action)
            batch.commit()
        finally:
            self._changes.feeding = False
        return actions

    # -- rerouting ---------------------------------------------------------------

    def _apply_inference(
        self, peer_as: int, result: InferenceResult
    ) -> Optional[RerouteAction]:
        """Install the reroute rules of one accepted inference.

        Each inferred link's backup next-hops come from the backup index, at
        a cost independent of how many prefixes were predicted.  A link no
        provisioned prefix protects (e.g. deeper than ``backup_depth``) has
        no entry: nothing is installed and no action returned.
        """
        assert self._encoded is not None
        rules: List[WildcardRule] = []
        for link in result.inferred_links:
            backups = self._backup_index.next_hops(link)
            if backups:
                rules.extend(self.encoder.reroute_rules(self._encoded, link, backups))
        if not rules:
            return None
        self.forwarding.install_rules(rules, priority=SWIFT_RULE_PRIORITY)
        duration = self.config.timing.rule_update_time(len(rules))
        return RerouteAction(
            timestamp=result.timestamp,
            peer_as=peer_as,
            inferred_links=result.inferred_links,
            rules=tuple(rules),
            rerouted_prefixes=result.prediction.predicted_prefixes,
            dataplane_update_seconds=duration,
        )

    def clear_reroutes(self) -> int:
        """Remove the SWIFT rules (BGP has re-converged, §3 "fall back")."""
        return self.forwarding.clear_rules(min_priority=SWIFT_RULE_PRIORITY)

    # -- forwarding & introspection ---------------------------------------------------

    def forward(self, destination: int) -> Optional[int]:
        """Next-hop the data plane currently uses for ``destination``."""
        return self.forwarding.forward_address(destination)

    @property
    def encoded_tags(self) -> Optional[EncodedTags]:
        """The tag encoding produced by the last :meth:`provision` call."""
        return self._encoded

    @property
    def backup_index(self) -> BackupProfileIndex:
        """The router's backups: ``profile_of[prefix].next_hops`` is the
        prefix's protected link -> backup next hop, ``next_hops(link)`` what
        a reroute of ``link`` installs."""
        return self._backup_index

    def engine_for(self, peer_as: int) -> InferenceEngine:
        """The inference engine watching the session with ``peer_as``."""
        return self._engines[peer_as]
