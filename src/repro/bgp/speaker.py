"""A minimal multi-session BGP speaker.

The :class:`BGPSpeaker` glues sessions, the decision process and the Loc-RIB
together: it accepts messages from any of its peering sessions, re-runs best
path selection for the touched prefixes, and reports best-route changes.
The case-study "vanilla router" (§2.1.2 / §7) builds on this speaker, adding
a timing model for FIB installation; the SWIFTED router wraps the same
speaker with the SWIFT engine.

Replay workloads should prefer the batched path: :meth:`BGPSpeaker.receive_batch`
applies every Adj-RIB-In / Loc-RIB candidate change of a batch first and then
runs the decision process **once per touched prefix** instead of once per
message — not at all for a prefix left with a single candidate (every
withdrawal of a failure burst), and, because the standard ranking depends
only on a candidate's attributes and peer AS, once per *distinct candidate
profile* when prefixes share their candidate sets (as table dumps and
re-convergence overwhelmingly do).  The batched path matches per-message
:meth:`BGPSpeaker.receive` in the final Loc-RIB and in the multiset of
loss-of-reachability / recovery events: candidate-set emptiness is tracked at
message boundaries, so a prefix that transiently loses every route mid-batch
still reports its blackhole (and the subsequent recovery), without forcing a
per-message decision pass.

Columnar runs are read here, not by the session:
:meth:`SpeakerBatch.add_columnar_run` takes a single-prefix row from the
columns to the batch state in one loop iteration, building no
:class:`~repro.bgp.rib.RouteChange`.  :meth:`SpeakerBatch.commit` re-selects
in one loop, in first-touch (per-message emission) order.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bgp.decision import DecisionProcess, default_decision_process
from repro.bgp.messages import BGPMessage, Update
from repro.bgp.prefix import Prefix
from repro.bgp.rib import LocRib, RibEntry, RouteChange, RouteChangeKind
from repro.bgp.session import PeeringSession, SessionState

__all__ = ["BGPSpeaker", "BestRouteChange", "SpeakerBatch"]

#: Module-level so the batched re-selection builds its profile keys with
#: C-level ``map`` calls instead of a Python-level lambda per candidate.
_attrgetter_attributes = attrgetter("attributes")

#: Winner-memo miss marker (a memoised ``None`` means every candidate loops).
_UNSELECTED = object()


def _has_loop_free(peers: Optional[Dict[int, RibEntry]]) -> bool:
    """Whether a peer -> candidate map holds a route ``select()`` would install.

    The batch's notion of "reachable": a looped announcement neither recovers
    a prefix nor masks a loss (``has_loop()`` is cached on the path).
    """
    if peers:
        for entry in peers.values():
            if not entry.attributes.as_path.has_loop():
                return True
    return False


class BestRouteChange:
    """A change of the best route for a prefix after processing messages.

    Like :class:`~repro.bgp.rib.RibEntry`, a ``__slots__`` class for
    construction speed (one per re-selected prefix on the replay hot path);
    treat instances as immutable.
    """

    __slots__ = ("prefix", "old", "new")

    def __init__(
        self, prefix: Prefix, old: Optional[RibEntry], new: Optional[RibEntry]
    ) -> None:
        self.prefix = prefix
        self.old = old
        self.new = new

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BestRouteChange):
            return NotImplemented
        return (
            self.prefix == other.prefix
            and self.old == other.old
            and self.new == other.new
        )

    def __hash__(self) -> int:
        return hash((self.prefix, self.old, self.new))

    def __repr__(self) -> str:
        return (
            f"BestRouteChange(prefix={self.prefix!r}, old={self.old!r}, "
            f"new={self.new!r})"
        )

    @property
    def is_loss_of_reachability(self) -> bool:
        """True when the prefix went from routed to unrouted."""
        return self.old is not None and self.new is None

    @property
    def is_recovery(self) -> bool:
        """True when the prefix went from unrouted to routed."""
        return self.old is None and self.new is not None

    @property
    def next_hop_changed(self) -> bool:
        """True when both routes exist but point at different next hops."""
        return (
            self.old is not None
            and self.new is not None
            and self.old.next_hop != self.new.next_hop
        )


class BGPSpeaker:
    """A border router speaking eBGP over several peering sessions.

    Parameters
    ----------
    local_as:
        The router's AS number.
    decision_process:
        Best-path selection logic; defaults to the standard BGP ranking.
    """

    def __init__(
        self,
        local_as: int,
        decision_process: Optional[DecisionProcess] = None,
    ) -> None:
        self.local_as = local_as
        self.decision_process = decision_process or default_decision_process()
        self.loc_rib = LocRib()
        self._sessions: Dict[int, PeeringSession] = {}
        self._best_route_listeners: List[Callable[[List[BestRouteChange]], None]] = []
        # Per-prefix memo of the decision process's full candidate ranking,
        # invalidated whenever the prefix's candidate set changes.  Serves
        # both the per-message re-selection (the ranked head is the best
        # route) and alternate_routes(), whose per-prefix sorts dominate
        # cold backup computation.
        self._ranked_cache: Dict[Prefix, List[RibEntry]] = {}

    # -- session management -----------------------------------------------

    def add_peer(self, peer_as: int, name: Optional[str] = None) -> PeeringSession:
        """Create (and establish) a session with ``peer_as``."""
        if peer_as in self._sessions:
            raise ValueError(f"session with AS {peer_as} already exists")
        session = PeeringSession(self.local_as, peer_as, name=name)
        session.establish()
        self._sessions[peer_as] = session
        return session

    def remove_peer(self, peer_as: int) -> List[BestRouteChange]:
        """Tear down the session with ``peer_as`` and withdraw its routes."""
        session = self._sessions.pop(peer_as, None)
        if session is None:
            raise KeyError(peer_as)
        affected = list(session.rib_in.prefixes())
        session.close()
        for prefix in affected:
            self.loc_rib.remove_candidate(prefix, peer_as)
            self._ranked_cache.pop(prefix, None)
        return self._reselect(affected)

    def session(self, peer_as: int) -> PeeringSession:
        """Return the session with ``peer_as`` (KeyError if unknown)."""
        return self._sessions[peer_as]

    def sessions(self) -> List[PeeringSession]:
        """All sessions, in insertion order."""
        return list(self._sessions.values())

    @property
    def peer_ases(self) -> List[int]:
        """AS numbers of all configured peers."""
        return list(self._sessions)

    def add_best_route_listener(
        self, callback: Callable[[List[BestRouteChange]], None]
    ) -> None:
        """Register a callback invoked with the best-route changes of each batch."""
        self._best_route_listeners.append(callback)

    # -- message handling -------------------------------------------------

    def receive(self, message: BGPMessage) -> List[BestRouteChange]:
        """Process one message from the peer it names and update best routes."""
        session = self._sessions.get(message.peer_as)
        if session is None:
            raise KeyError(f"no session with AS {message.peer_as}")
        changes = session.process(message)
        touched: List[Prefix] = []
        ranked_cache_pop = self._ranked_cache.pop
        for change in changes:
            if change.kind == RouteChangeKind.UNCHANGED:
                continue
            touched.append(change.prefix)
            ranked_cache_pop(change.prefix, None)
            if change.new is not None:
                self.loc_rib.set_candidate(change.new)
            else:
                self.loc_rib.remove_candidate(change.prefix, message.peer_as)
        best_changes = self._reselect(touched)
        if best_changes:
            for listener in self._best_route_listeners:
                listener(best_changes)
        return best_changes

    def receive_batch(self, messages: Iterable[BGPMessage]) -> List[BestRouteChange]:
        """Process a batch of messages, running best-path selection per prefix.

        All Adj-RIB-In and Loc-RIB candidate changes are applied first (in
        bulk per consecutive same-peer run); the decision process then runs
        once per *touched prefix* — once per candidate profile when the
        ranking allows it — rather than once per message, which is the
        difference between O(messages x touched) and O(touched) selection
        work on withdrawal bursts and path-exploration storms.  The
        best-route listeners fire once with the coalesced change list.

        Matches calling :meth:`receive` per message in the final Loc-RIB and
        in the multiset of loss-of-reachability / recovery events (transient
        blackholes are synthesised from candidate-set transitions tracked at
        message boundaries).  Intermediate next-hop flaps within a batch are
        coalesced away.  Messages are iterated exactly once (lazy streams
        are fine).
        """
        batch = self.begin_batch()
        run: List[BGPMessage] = []
        run_peer: Optional[int] = None
        for message in messages:
            if message.peer_as != run_peer:
                if run:
                    batch.add_run(run_peer, run)
                    run = []
                run_peer = message.peer_as
            run.append(message)
        if run:
            batch.add_run(run_peer, run)
        return batch.commit()

    def begin_batch(self) -> "SpeakerBatch":
        """Start an explicit batch; see :class:`SpeakerBatch`.

        Useful when the caller interleaves speaker updates with other
        per-message work (e.g. the SWIFTED router feeding inference engines)
        and wants a single decision pass at the end.
        """
        return SpeakerBatch(self)

    def receive_columnar(self, source, kernel=None) -> List[BestRouteChange]:
        """Process a columnar trace (or an iterable of columnar runs).

        The preferred replay entry point for array-backed traces: each
        same-peer run is applied straight from its columns
        (:meth:`SpeakerBatch.add_columnar_run`), skipping per-message object
        construction entirely when the sessions have no observers and stream
        recording is off.  Semantics match :meth:`receive_batch` over the
        materialised message stream exactly (same final Loc-RIB, same
        loss-of-reachability / recovery multiset).

        ``source`` is either an object exposing ``iter_batches()`` (a
        :class:`~repro.traces.columnar.ColumnarTrace`) or an iterable of
        :class:`~repro.traces.columnar.ColumnarRun` views.  ``kernel`` is
        the column-kernel backend (:mod:`repro.core.kernels`) for run
        segmentation; ``None`` takes the default.
        """
        if kernel is None:
            from repro.core import kernels

            kernel = kernels.default_backend()
        iter_batches = getattr(source, "iter_batches", None)
        runs = iter_batches(kernel=kernel) if iter_batches is not None else source
        batch = self.begin_batch()
        for run in runs:
            batch.add_columnar_run(run)
        return batch.commit()

    # -- queries ----------------------------------------------------------

    def best_route(self, prefix: Prefix) -> Optional[RibEntry]:
        """The current best route for ``prefix``, or ``None``."""
        return self.loc_rib.best(prefix)

    def alternate_routes(self, prefix: Prefix) -> List[RibEntry]:
        """Candidate routes other than the current best, most preferred first."""
        best = self.loc_rib.best(prefix)
        if best is None:
            return list(self._ranked(prefix))
        best_peer = best.peer_as
        return [entry for entry in self._ranked(prefix) if entry.peer_as != best_peer]

    def routed_prefixes(self) -> frozenset:
        """Prefixes that currently have a best route."""
        return frozenset(self.loc_rib.prefixes())

    def lpm_route(self, address: int) -> Optional[RibEntry]:
        """Longest-prefix-match best route for a destination address.

        Answers through the Loc-RIB's compressed trie view, so a full DFZ
        table resolves a dataplane-style lookup without scanning prefixes.
        """
        return self.loc_rib.best_lookup(address)

    def covered_routed_prefixes(self, prefix: Prefix) -> List[Prefix]:
        """Routed prefixes equal to or more specific than ``prefix``, sorted."""
        return [covered for covered, _ in self.loc_rib.covered_best(prefix)]

    # -- internals --------------------------------------------------------

    def _ranked(self, prefix: Prefix) -> List[RibEntry]:
        """The full candidate ranking of a prefix, memoised until it changes.

        The head of the list is what ``select()`` would install (both filter
        looped paths and use the same key, so stable ``sorted`` and ``min``
        agree on ties); the tail is the alternate-route order.
        """
        ranked = self._ranked_cache.get(prefix)
        if ranked is None:
            ranked = self._ranked_cache[prefix] = self.decision_process.rank(
                self.loc_rib.candidates(prefix)
            )
        return ranked

    def _reselect(self, prefixes: Sequence[Prefix]) -> List[BestRouteChange]:
        changes: List[BestRouteChange] = []
        ranked_of = self._ranked
        for prefix in prefixes:
            old = self.loc_rib.best(prefix)
            ranked = ranked_of(prefix)
            new = ranked[0] if ranked else None
            if old is new:
                continue
            # Peers first: spares RibEntry.__eq__ when a backup replaced the primary.
            if (
                old is not None
                and new is not None
                and old.peer_as == new.peer_as
                and old == new
            ):
                continue
            self.loc_rib.set_best(new, prefix=prefix)
            changes.append(BestRouteChange(prefix=prefix, old=old, new=new))
        return changes

    def _reselect_batch(self, prefixes: Sequence[Prefix]) -> List[BestRouteChange]:
        """Batched re-selection: one loop, one ranking per candidate profile.

        A prefix left with at most one candidate needs no ranking — under
        any decision process ``select([entry])`` is ``entry`` unless its
        path loops.  Every route of a first table load and every withdrawal
        that leaves one other session's route is such a prefix: half of
        what a two-session failure burst touches, nothing where three feeds
        carry each prefix.  For the rest, two prefixes whose candidate sets
        consist of the *same attribute objects from the same peers* (whole
        path-sharing prefix groups change together) rank identically under
        a prefix-independent decision process, so the winner peer is
        memoised per distinct profile: the first prefix of a profile calls
        ``select`` and every later one reuses its winner.  Falls back to
        per-prefix :meth:`_reselect` for rankings that are not
        prefix-independent.

        The changes come back in the order ``prefixes`` are given — the
        batch's first-touch order, which is per-message emission order.
        """
        if not self.decision_process.prefix_independent:
            return self._reselect(prefixes)
        loc_rib = self.loc_rib
        candidates_of = loc_rib._candidates.get
        best = loc_rib._best
        best_of = best.get
        # Without a materialised best-trie, installing a best route is one
        # dict write; with one, set_best keeps the trie in sync.
        set_best = None if loc_rib._best_trie is None else loc_rib.set_best
        select = self.decision_process.select
        attributes_of = _attrgetter_attributes
        # Profile key -> winner peer (None: every candidate loops).  The key
        # is the candidate peers (in insertion order — identical for
        # prefixes with the same announcement history, which is what path
        # groups share anyway) plus the identity of each candidate's
        # attribute object, built with C-level tuple/map calls.
        winners: Dict[Tuple, Optional[int]] = {}
        changes: List[BestRouteChange] = []
        append_change = changes.append
        for prefix in prefixes:
            peers = candidates_of(prefix)
            if not peers:
                new = None
            elif len(peers) == 1:
                (new,) = peers.values()
                if new.attributes.as_path.has_loop():
                    new = None
            else:
                key = (tuple(peers), tuple(map(id, map(attributes_of, peers.values()))))
                winner_peer = winners.get(key, _UNSELECTED)
                if winner_peer is _UNSELECTED:
                    winner = select(list(peers.values()))
                    winner_peer = winners[key] = (
                        None if winner is None else winner.peer_as
                    )
                new = None if winner_peer is None else peers[winner_peer]
            old = best_of(prefix)
            if old is new:
                continue
            if (
                old is not None
                and new is not None
                and old.peer_as == new.peer_as
                and old == new
            ):
                continue
            if set_best is not None:
                set_best(new, prefix)
            elif new is None:
                del best[prefix]
            else:
                best[prefix] = new
            append_change(BestRouteChange(prefix, old, new))
        return changes


class SpeakerBatch:
    """An in-progress batch of messages on a :class:`BGPSpeaker`.

    Adj-RIB-In and Loc-RIB *candidate* state is kept current as messages are
    added (it is order-sensitive), but best-path selection is deferred to
    :meth:`commit`, where it runs once per touched prefix — skipped for
    sole candidates and once per candidate profile when the decision process
    declares itself prefix-independent.  Between those points
    ``loc_rib.best()`` intentionally still answers with the pre-batch best
    route, which is what lets the deferred selection reconstruct the same
    ``old -> new`` transitions the per-message path would have reported.

    Loss-of-reachability parity with the per-message path is preserved
    without per-message selection: the batch tracks, at message boundaries,
    whether each touched prefix still has a loop-free candidate (the same
    condition under which ``select()`` installs a route), and synthesises
    the loss / recovery events for prefixes that transiently lost every
    usable route mid-batch.
    """

    def __init__(self, speaker: BGPSpeaker) -> None:
        self._speaker = speaker
        # Touched prefixes awaiting re-selection, in first-touch order
        # (matching the per-message emission order).  The value doubles as
        # the candidate-set emptiness tracker: True when the prefix had at
        # least one candidate after the last message that touched it
        # (initialised from the pre-batch best on first touch).
        self._pending: Dict[Prefix, bool] = {}
        # Mid-batch reachability transitions, in observation order:
        # (prefix, went_down, entry) — entry is the candidate removed by a
        # down transition / installed by an up transition.
        self._transitions: List[Tuple[Prefix, bool, Optional[RibEntry]]] = []
        self._committed = False

    def add_run(
        self, peer_as: Optional[int], messages: Sequence[BGPMessage]
    ) -> None:
        """Apply a consecutive same-peer run of messages in bulk."""
        session = self._session_for(peer_as)
        self._absorb(peer_as, session.process_batch(messages))

    def add_columnar_run(self, run) -> None:
        """Apply a same-peer columnar run (no message objects on the fast path).

        ``run`` is a :class:`~repro.traces.columnar.ColumnarRun`, duck-typed
        (``peer_as``, the run-column contract of ``src/repro/traces/README.md``,
        ``materialise()``).  Equivalent to ``add_run(run.peer_as,
        run.materialise())``, which it is when the session has message
        observers or records its stream; otherwise :meth:`_absorb_columns`.
        """
        session = self._session_for(run.peer_as)
        if session._observers or session.record_stream:
            self._absorb(run.peer_as, session.process_batch(run.materialise()))
        else:
            self._absorb_columns(session, run)

    def _absorb_columns(self, session: PeeringSession, run) -> None:
        """The column walk: one pass over rows ``[start, stop)``.

        A single-prefix row runs :meth:`_absorb`'s single-change branch
        inline — Adj-RIB-In (and trie), Loc-RIB candidate, ranking-cache
        eviction, pending reachability, transition — with no ``RouteChange``;
        a multi-prefix row builds its change list and takes :meth:`_absorb`.
        OPEN / NOTIFICATION rows move the session state as ``process_batch``
        does (a NOTIFICATION clears the Adj-RIB-In, not the candidates).
        Statistics fold in, and change observers fire, once per run.
        """
        peer_as = session.peer_as
        trace = run.trace
        pool = trace.pool
        prefix_at = pool.prefix_at
        attributes_at = pool.attributes_at
        msg_kind = trace.msg_kind
        msg_time = trace.msg_time
        wd_end = trace.wd_end
        ann_end = trace.ann_end
        wd_prefix = trace.wd_prefix
        ann_prefix = trace.ann_prefix
        ann_attr = trace.ann_attr
        start, stop = run.start, run.stop

        rib_in = session.rib_in
        routes = rib_in._routes
        routes_get = routes.get
        routes_pop = routes.pop
        trie = rib_in._prefix_trie
        speaker = self._speaker
        candidates = speaker.loc_rib._candidates
        candidates_get = candidates.get
        best = speaker.loc_rib._best
        ranked_cache_pop = speaker._ranked_cache.pop
        pending = self._pending
        pending_get = pending.get
        add_transition = self._transitions.append
        changed: List[Prefix] = []
        add_changed = changed.append
        unchanged = RouteChangeKind.UNCHANGED

        # Row i owns wd_prefix[w:wd_end[i]] and ann_prefix[a:ann_end[i]]
        # (cumulative bounds; kind byte 0 = UPDATE, 1 = OPEN,
        # 3 = NOTIFICATION; non-UPDATE rows carry no prefixes).
        w = w_first = wd_end[start - 1] if start else 0
        a = a_first = ann_end[start - 1] if start else 0
        for index, w_high, a_high in zip(
            range(start, stop), wd_end[start:stop], ann_end[start:stop]
        ):
            if w_high == w:
                if a_high == a:
                    kind = msg_kind[index]
                    if kind == 1:
                        session.state = SessionState.ESTABLISHED
                    elif kind == 3:
                        session.state = SessionState.CLOSED
                        rib_in.clear()
                        trie = None
                        session.stats.session_resets += 1
                    continue
                if a_high == a + 1:
                    # One announcement.
                    prefix = prefix_at(ann_prefix[a])
                    entry = RibEntry(
                        prefix, attributes_at(ann_attr[a]), peer_as, msg_time[index]
                    )
                    a = a_high
                    old = routes_get(prefix)
                    routes[prefix] = entry
                    if trie is not None:
                        trie.insert(prefix, entry)
                    add_changed(prefix)
                    ranked_cache_pop(prefix, None)
                    before = pending_get(prefix)
                    if before is None:
                        before = prefix in best
                    peers = candidates_get(prefix)
                    if peers is None:
                        peers = candidates[prefix] = {peer_as: entry}
                    else:
                        peers[peer_as] = entry
                    if not entry.attributes.as_path.has_loop():
                        if not before:
                            add_transition((prefix, False, entry))
                        pending[prefix] = True
                    else:
                        # A looped announcement may *replace* the prefix's
                        # only usable candidate.
                        now = _has_loop_free(peers)
                        if before and not now and old is not None:
                            add_transition((prefix, True, old))
                        pending[prefix] = now
                    continue
            elif w_high == w + 1 and a_high == a:
                # One withdrawal.
                prefix = prefix_at(wd_prefix[w])
                w = w_high
                old = routes_pop(prefix, None)
                if old is None:
                    continue
                if trie is not None:
                    trie.remove(prefix)
                add_changed(prefix)
                ranked_cache_pop(prefix, None)
                before = pending_get(prefix)
                if before is None:
                    before = prefix in best
                peers = candidates_get(prefix)
                if peers:
                    peers.pop(peer_as, None)
                    if not peers:
                        del candidates[prefix]
                now = _has_loop_free(peers)
                if before and not now:
                    add_transition((prefix, True, old))
                pending[prefix] = now
                continue
            # Several prefixes: the per-message change list.
            timestamp = msg_time[index]
            changes: List[RouteChange] = []
            while w < w_high:
                changes.append(rib_in.withdraw(prefix_at(wd_prefix[w]), timestamp))
                w += 1
            while a < a_high:
                changes.append(
                    rib_in.announce(
                        prefix_at(ann_prefix[a]), attributes_at(ann_attr[a]), timestamp
                    )
                )
                a += 1
            changed.extend(
                change.prefix for change in changes if change.kind is not unchanged
            )
            self._absorb(peer_as, (changes,))

        if stop > start:
            stats = session.stats
            stats.messages_received += stop - start
            stats.withdrawals_received += w - w_first
            stats.announcements_received += a - a_first
            stats.last_message_at = msg_time[stop - 1]
        session._notify_change_observers(changed)

    def _session_for(self, peer_as: Optional[int]):
        if self._committed:
            raise RuntimeError("batch already committed")
        session = self._speaker._sessions.get(peer_as)
        if session is None:
            raise KeyError(f"no session with AS {peer_as}")
        return session

    def _absorb(
        self, peer_as: Optional[int], per_message_changes: Iterable[List[RouteChange]]
    ) -> None:
        """Fold a run's per-message RIB changes into the batch state."""
        speaker = self._speaker
        loc_rib = speaker.loc_rib
        candidates_of = loc_rib._candidates
        best_of = loc_rib._best.get
        pending = self._pending
        transitions = self._transitions
        set_candidate = loc_rib.set_candidate
        remove_candidate = loc_rib.remove_candidate
        ranked_cache_pop = speaker._ranked_cache.pop
        unchanged = RouteChangeKind.UNCHANGED

        # Reachability is evaluated at message boundaries, so a
        # withdraw+reannounce inside one UPDATE stays atomic, exactly as in
        # the per-message path.  On a prefix's first touch the pre-message
        # state comes from the (still untouched) best-route table —
        # selection is deferred, so it reflects the pre-batch reachability.
        for changes in per_message_changes:
            if not changes:
                continue
            if len(changes) == 1:
                change = changes[0]
                if change.kind is unchanged:
                    continue
                prefix = change.prefix
                ranked_cache_pop(prefix, None)
                new = change.new
                before = pending.get(prefix)
                if before is None:
                    before = best_of(prefix) is not None
                if new is not None:
                    set_candidate(new)
                    if not new.attributes.as_path.has_loop():
                        if not before:
                            transitions.append((prefix, False, new))
                        pending[prefix] = True
                    else:
                        # A looped announcement may *replace* the prefix's
                        # only usable candidate: probe instead of assuming
                        # reachability is unchanged.
                        now = _has_loop_free(candidates_of.get(prefix))
                        if before and not now and change.old is not None:
                            transitions.append((prefix, True, change.old))
                        pending[prefix] = now
                else:
                    remove_candidate(prefix, peer_as)
                    now = _has_loop_free(candidates_of.get(prefix))
                    if before and not now:
                        transitions.append((prefix, True, change.old))
                    pending[prefix] = now
                continue
            # Per prefix: the peer's route before the message, its last change.
            net_change: Dict[Prefix, Tuple[Optional[RibEntry], RouteChange]] = {}
            for change in changes:
                if change.kind is unchanged:
                    continue
                prefix = change.prefix
                ranked_cache_pop(prefix, None)
                if change.new is not None:
                    set_candidate(change.new)
                else:
                    remove_candidate(prefix, peer_as)
                if prefix not in pending:
                    pending[prefix] = best_of(prefix) is not None
                first = net_change.get(prefix)
                net_change[prefix] = (change.old if first is None else first[0], change)
            for prefix, (replaced, change) in net_change.items():
                # Multi-change messages may mix removals and (possibly
                # looped) announcements of the same prefix, so probe the
                # candidate set directly rather than reasoning from the
                # last change alone.
                before = pending[prefix]
                now = _has_loop_free(candidates_of.get(prefix))
                if now and not before:
                    entry = change.new
                    if entry is None or entry.attributes.as_path.has_loop():
                        entry = next(
                            candidate
                            for candidate in candidates_of[prefix].values()
                            if not candidate.attributes.as_path.has_loop()
                        )
                    transitions.append((prefix, False, entry))
                elif before and not now:
                    # Only this peer's candidate moved, so the route it held
                    # before the message was the last usable one — also when
                    # that route was installed earlier in this batch and a
                    # withdrawal inside the message already took it out.
                    transitions.append((prefix, True, replaced))
                pending[prefix] = now

    def commit(self) -> List[BestRouteChange]:
        """Run the deferred selection and return the batch's changes.

        The returned list contains the synthesised transient loss / recovery
        events (for prefixes that flapped through unreachability mid-batch)
        followed by the coalesced ``pre-batch -> final`` best-route changes;
        together they carry the same multiset of loss-of-reachability and
        recovery events as the per-message path.  The final changes are in
        first-touch order — the order the per-message path emits them.  The
        best-route listeners fire once with the combined list.
        """
        if self._committed:
            raise RuntimeError("batch already committed")
        self._committed = True
        speaker = self._speaker
        final_changes = speaker._reselect_batch(list(self._pending))
        changes = self._reconcile_transitions(final_changes)
        changes.extend(final_changes)
        if changes:
            for listener in speaker._best_route_listeners:
                listener(changes)
        return changes

    def _reconcile_transitions(
        self, final_changes: List[BestRouteChange]
    ) -> List[BestRouteChange]:
        """Synthesise the transient events the coalesced changes hide.

        Every tracked down (up) transition corresponds to one per-message
        loss (recovery) event.  The final change of a prefix already reports
        at most one of each — its last down when the prefix ends the batch
        unreachable, its last up when it ends reachable after starting
        unreachable — so those are skipped and every other transition is
        emitted as a synthetic event.
        """
        transitions = self._transitions
        if not transitions:
            return []
        loss_covered = {
            change.prefix for change in final_changes if change.is_loss_of_reachability
        }
        recovery_covered = {
            change.prefix for change in final_changes if change.is_recovery
        }
        last_down: Dict[Prefix, int] = {}
        last_up: Dict[Prefix, int] = {}
        for index, (prefix, went_down, _) in enumerate(transitions):
            if went_down:
                last_down[prefix] = index
            else:
                last_up[prefix] = index
        synthetic: List[BestRouteChange] = []
        for index, (prefix, went_down, entry) in enumerate(transitions):
            if went_down:
                if prefix in loss_covered and last_down[prefix] == index:
                    continue
                synthetic.append(BestRouteChange(prefix=prefix, old=entry, new=None))
            else:
                if prefix in recovery_covered and last_up[prefix] == index:
                    continue
                synthetic.append(BestRouteChange(prefix=prefix, old=None, new=entry))
        return synthetic
