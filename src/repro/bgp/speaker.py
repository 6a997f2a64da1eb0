"""A minimal multi-session BGP speaker.

The :class:`BGPSpeaker` glues sessions, the decision process and the Loc-RIB
together: it accepts messages from any of its peering sessions, re-runs best
path selection for the touched prefixes — at the call when a best-route
listener is registered, at the next read of the Loc-RIB when none is — and
reports best-route changes to the listeners.
Route state has one owner, each session's Adj-RIB-In: the Loc-RIB keeps only
the best routes and reads a prefix's candidates through the sessions' route
tables, one probe per session, in session order.
The case-study "vanilla router" (§2.1.2 / §7) builds on this speaker, adding
a timing model for FIB installation; the SWIFTED router wraps the same
speaker with the SWIFT engine.

Replay workloads should prefer the batched path: :meth:`BGPSpeaker.receive_batch`
applies every Adj-RIB-In change of a batch first and then
runs the decision process **once per touched prefix** instead of once per
message — not at all for a prefix left with a single candidate (every
withdrawal of a failure burst), and, because a stored route is only an
attribute object and a peer AS, shared by every prefix the peer announced
with those attributes, once per *distinct candidate profile* when prefixes
share their candidate routes (as table dumps and re-convergence
overwhelmingly do).  The batched path matches per-message
:meth:`BGPSpeaker.receive` in the final Loc-RIB and in the multiset of
loss-of-reachability / recovery events: candidate-set emptiness is tracked at
message boundaries, so a prefix that transiently loses every route mid-batch
still reports its blackhole (and the subsequent recovery), without forcing a
per-message decision pass.

Columnar runs are read here, not by the session:
:meth:`SpeakerBatch.add_columnar_run` takes a single-prefix row from the
columns to the batch state in one loop iteration, building no
:class:`~repro.bgp.rib.RouteChange`.  A reporting :meth:`SpeakerBatch.commit`
re-selects in one loop, in first-touch (per-message emission) order.  A table
dump (:func:`~repro.traces.columnar.table_dump`) enters this way too.

One rule: the speaker selects at a call, and builds change records, if and
only if a best-route listener, their only reader, is registered.  Without one
it is *silent*: it tracks no reachability transition, builds no
:class:`BestRouteChange` and selects nothing.  A silent call marks the
prefixes it touched stale in the Loc-RIB, and the first read of the best
table selects them all, once per prefix however many calls touched it
(:class:`~repro.bgp.rib.LocRib`): a SWIFTED router reads best routes only
when it provisions, so its burst replay selects nothing.
:meth:`BGPSpeaker.add_best_route_listener` settles the table before it
registers, so a listener never starts from a stale one.  Every entry point —
``receive``, ``receive_batch``, ``receive_columnar``,
``begin_batch().commit()`` and ``remove_peer`` — returns ``None``: a silent
call cannot count the best routes it changed without selecting them, and
the listeners hear every change, so they can count.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.bgp.decision import DecisionProcess, default_decision_process
from repro.bgp.messages import BGPMessage
from repro.bgp.prefix import Prefix
from repro.bgp.rib import LocRib, RibEntry, RouteChange, RouteChangeKind
from repro.bgp.session import PeeringSession, SessionState

__all__ = ["BGPSpeaker", "BestRouteChange", "SpeakerBatch"]

#: Winner-memo miss marker (a memoised ``None`` means every candidate loops).
_UNSELECTED = object()


def _loop_free_route(
    probes: Sequence[Callable[[Prefix], Optional[RibEntry]]], prefix: Prefix
) -> Optional[RibEntry]:
    """The first route for ``prefix`` that ``select()`` could install.

    ``probes`` are route-table getters, in session order.  The batch's
    notion of "reachable": a looped announcement neither recovers a prefix
    nor masks a loss (``has_loop()`` is cached on the path).
    """
    for get in probes:
        entry = get(prefix)
        if entry is not None and not entry.attributes.as_path.has_loop():
            return entry
    return None


def _changed_prefixes(changes: List[RouteChange]) -> List[Prefix]:
    """The prefixes of the changes that moved a route, for ``_reselect``."""
    unchanged = RouteChangeKind.UNCHANGED
    return [change.prefix for change in changes if change.kind is not unchanged]


class BestRouteChange:
    """A change of the best route for a prefix after processing messages.

    Like :class:`~repro.bgp.rib.RouteChange`, a ``__slots__`` class for
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
        # A weak reference back: a dropped speaker is freed by refcounting.
        select_stale = weakref.WeakMethod(self._select_stale)
        self.loc_rib = LocRib(lambda prefixes: select_stale()(prefixes))
        self._sessions: Dict[int, PeeringSession] = {}
        self._best_route_listeners: List[Callable[[List[BestRouteChange]], None]] = []

    # -- session management -----------------------------------------------

    def add_peer(self, peer_as: int, name: Optional[str] = None) -> PeeringSession:
        """Create (and establish) a session with ``peer_as``."""
        if peer_as in self._sessions:
            raise ValueError(f"session with AS {peer_as} already exists")
        session = PeeringSession(self.local_as, peer_as, name=name)
        session.establish()
        self._sessions[peer_as] = session
        self.loc_rib.add_source(session.rib_in)
        return session

    def remove_peer(self, peer_as: int) -> None:
        """Tear down the session with ``peer_as`` and withdraw its routes."""
        session = self._sessions.pop(peer_as, None)
        if session is None:
            raise KeyError(peer_as)
        changes = session.close()
        self.loc_rib.remove_source(peer_as)
        self._reselect_now(_changed_prefixes(changes))

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
        """Register a callback invoked with the best-route changes of each batch.

        Settles the Loc-RIB first, so the listener's first changes are
        against the best routes an eagerly selecting speaker would hold.  A
        batch decides when it opens whether it reports: one opened silent
        and still open here commits unheard, and selects its prefixes at
        commit, so no prefix is stale while a listener is registered.
        """
        self.loc_rib.settle()
        self._best_route_listeners.append(callback)

    def _notify_listeners(self, best_changes: List[BestRouteChange]) -> None:
        """Fire the best-route listeners once with a non-empty change list."""
        if best_changes:
            for listener in self._best_route_listeners:
                listener(best_changes)

    # -- message handling -------------------------------------------------

    def receive(self, message: BGPMessage) -> None:
        """Process one message from the peer it names and update best routes."""
        session = self._sessions.get(message.peer_as)
        if session is None:
            raise KeyError(f"no session with AS {message.peer_as}")
        self._reselect_now(session.process(message))

    def receive_batch(self, messages: Iterable[BGPMessage]) -> None:
        """Process a batch of messages, running best-path selection per prefix.

        All Adj-RIB-In changes are applied first (in
        bulk per consecutive same-peer run); the decision process then runs
        once per *touched prefix* — once per candidate profile — rather
        than once per message, which is the difference between
        O(messages x touched) and O(touched) selection work on withdrawal
        bursts and path-exploration storms.  The
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
        batch.commit()

    def begin_batch(self) -> "SpeakerBatch":
        """Start an explicit batch; see :class:`SpeakerBatch`.

        Useful when the caller interleaves speaker updates with other
        per-message work (e.g. the SWIFTED router feeding inference engines)
        and wants a single decision pass at the end.
        """
        return SpeakerBatch(self)

    def receive_columnar(self, source, kernel=None) -> None:
        """Process a columnar trace (or an iterable of columnar runs).

        The preferred replay entry point for array-backed traces: each
        same-peer run is applied straight from its columns
        (:meth:`SpeakerBatch.add_columnar_run`), building no message
        object.  Semantics match :meth:`receive_batch` over the
        materialised message stream exactly (same final Loc-RIB and
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
        batch.commit()

    # -- queries ----------------------------------------------------------

    def best_route(self, prefix: Prefix) -> Optional[RibEntry]:
        """The current best route for ``prefix``, or ``None``."""
        return self.loc_rib.best(prefix)

    def alternate_routes(self, prefix: Prefix) -> List[RibEntry]:
        """Candidate routes other than the current best, most preferred first.

        Ranks the prefix's candidates on demand; nothing is memoised.  The
        callers — backup computations handed it as ``alternates_of`` (once
        per prefix or profile), tests — read a prefix once between changes.
        """
        ranked = self.decision_process.rank(self.loc_rib.candidates(prefix))
        best = self.loc_rib.best(prefix)
        if best is None:
            return ranked
        best_peer = best.peer_as
        return [entry for entry in ranked if entry.peer_as != best_peer]

    def routed_prefixes(self) -> frozenset:
        """Prefixes that currently have a best route."""
        return frozenset(self.loc_rib.prefixes())

    def lpm_route(self, address: int) -> Optional[RibEntry]:
        """Longest-prefix-match best route for a destination address.

        Answers through the Loc-RIB's compressed trie view, so a full DFZ
        table resolves a dataplane-style lookup without scanning prefixes.
        """
        return self.loc_rib.best_lookup(address)

    # -- internals --------------------------------------------------------

    def _other_probes(self, peer_as: Optional[int]) -> List[Callable]:
        """Route-table getters of every session but ``peer_as``, in session order."""
        return [
            routes.get for peer, routes in self.loc_rib._tables.items() if peer != peer_as
        ]

    def _reselect_now(self, prefixes: Sequence[Prefix]) -> None:
        """Re-select for one message or teardown and report, or mark it stale."""
        if self._best_route_listeners:
            self._notify_listeners(self._reselect(prefixes, True))
        else:
            self.loc_rib.mark_stale(prefixes)

    def _select_stale(self, prefixes: List[Prefix]) -> None:
        """The Loc-RIB's settle: select its stale prefixes, reporting nothing."""
        self._reselect(prefixes, False, memo=True)

    def _reselect(
        self, prefixes: Sequence[Prefix], report: bool, memo: bool = False
    ) -> List:
        """Re-select the best route of each prefix, in the order given.

        A prefix left with at most one candidate needs no decision-process
        call — under any decision process ``select([entry])`` is ``entry``
        unless its path loops.  Every route of a first table load and every
        withdrawal that leaves one other session's route is such a prefix:
        half of what a two-session failure burst touches, nothing where
        three feeds carry each prefix.  Any other prefix takes one
        ``select`` — or, for a batch (``memo``), one per distinct candidate
        profile: the tuple of its candidate routes, which the sessions share
        among every prefix with the same attributes from the same peer (so
        path-sharing prefix groups change together).  The first prefix of a
        profile calls ``select`` and every later one reuses its winner; a
        memoised ``None`` means every candidate loops.

        The best table always holds the sessions' shared routes: a route
        replaced by one of the same peer with equal attributes (interned
        anew after its last prefix left, or from an equal attribute object)
        is installed, but reports nothing.

        Returns a :class:`BestRouteChange` per installed change when
        ``report`` (else nothing), in the order given — for a batch its
        first-touch order, which is per-message emission order.  Reads and
        writes the best table raw: the Loc-RIB's settle calls it.
        """
        winners: Optional[Dict[Tuple, Optional[RibEntry]]] = {} if memo else None
        loc_rib = self.loc_rib
        probes = loc_rib._getters
        best = loc_rib._best
        best_of = best.get
        # Without a materialised best-trie, installing a best route is one
        # dict write; with one, set_best keeps the trie in sync.
        set_best = None if loc_rib._best_trie is None else loc_rib.set_best
        select = self.decision_process.select
        changes: List = []
        append_change = changes.append
        for prefix in prefixes:
            # One probe per session; a plain loop beats a comprehension here.
            found = []
            for get in probes:
                entry = get(prefix)
                if entry is not None:
                    found.append(entry)
            if not found:
                new = None
            elif len(found) == 1:
                new = found[0]
                if new.attributes.as_path.has_loop():
                    new = None
            elif winners is None:
                new = select(found)
            else:
                key = tuple(found)
                new = winners.get(key, _UNSELECTED)
                if new is _UNSELECTED:
                    new = winners[key] = select(found)
            old = best_of(prefix)
            if old is new:
                continue
            if set_best is not None:
                set_best(prefix, new)
            elif new is None:
                del best[prefix]
            else:
                best[prefix] = new
            # Peers first: spares the attribute comparison when a backup
            # replaced the primary.
            if report and not (
                old is not None
                and new is not None
                and old.peer_as == new.peer_as
                and old.attributes == new.attributes
            ):
                append_change(BestRouteChange(prefix, old, new))
        return changes


class SpeakerBatch:
    """An in-progress batch of messages on a :class:`BGPSpeaker`.

    Adj-RIB-In state, which the Loc-RIB's candidates read, is kept current as
    messages are added (it is order-sensitive), but best-path selection is
    deferred to :meth:`commit`, where it runs once per touched prefix —
    skipped for sole candidates and once per candidate profile.  Between
    those points the best table still holds the pre-batch best routes, which
    is what lets the deferred selection reconstruct the same ``old -> new``
    transitions the per-message path would have reported.

    Loss-of-reachability parity with the per-message path is preserved
    without per-message selection: the batch tracks, at message boundaries,
    whether each touched prefix still has a loop-free candidate (the same
    condition under which ``select()`` installs a route), and synthesises
    the loss / recovery events for prefixes that transiently lost every
    usable route mid-batch.

    A batch reports if and only if a best-route listener is registered when
    it opens.  A silent one keeps only the first-touch order of the prefixes
    it touched (and feeds the change observers as usual), builds no
    :class:`BestRouteChange`, and at commit hands those prefixes to the
    Loc-RIB's stale set, selecting nothing: the next read of the best table
    selects them.  A read while a silent batch is open settles earlier
    calls' prefixes against the Adj-RIB-Ins as they stand mid-batch; the
    batch's own prefixes are marked at commit, so the settled table after it
    is the same.
    """

    def __init__(self, speaker: BGPSpeaker) -> None:
        self._speaker = speaker
        self._report = bool(speaker._best_route_listeners)
        # Touched prefixes, in first-touch order (matching the per-message
        # emission order).  In a reporting batch the value doubles as the
        # candidate-set emptiness tracker: True when the prefix had at least
        # one candidate after the last message that touched it (initialised
        # from the pre-batch best on first touch).
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
        """Apply a same-peer columnar run, building no message object.

        ``run`` is a :class:`~repro.traces.columnar.ColumnarRun`, duck-typed
        (``peer_as`` and the run-column contract of
        ``src/repro/traces/README.md``).  Equivalent to ``add_run(run.peer_as,
        run.materialise())``; see :meth:`_absorb_columns`.
        """
        self._absorb_columns(self._session_for(run.peer_as), run)

    def _absorb_columns(self, session: PeeringSession, run) -> None:
        """The column walk: one pass over rows ``[start, stop)``.

        A single-prefix row runs :meth:`_absorb`'s single-change branch
        inline — Adj-RIB-In, pending
        reachability, transition — with no ``RouteChange``;
        a multi-prefix row builds its change list and takes :meth:`_absorb`.
        OPEN / NOTIFICATION rows move the session state as ``process_batch``
        does; a NOTIFICATION's withdrawal of every route the peer held takes
        :meth:`_absorb` like a multi-prefix row.  Statistics fold in, and
        change observers fire, once per run.  A silent batch does only the
        Adj-RIB-In part per row and queues the run's changed prefixes at the
        end, for :meth:`commit` to mark stale.
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
        store = rib_in._store
        drop = rib_in._drop
        speaker = self._speaker
        others = speaker._other_probes(peer_as)
        best = speaker.loc_rib._best
        pending = self._pending
        pending_get = pending.get
        report = self._report
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
                        changes = session._reset()
                        changed.extend(change.prefix for change in changes)
                        if report:
                            self._absorb(peer_as, (changes,))
                    continue
                if a_high == a + 1:
                    # One announcement.
                    prefix = prefix_at(ann_prefix[a])
                    old = store(prefix, attributes_at(ann_attr[a]))
                    a = a_high
                    add_changed(prefix)
                    if not report:
                        continue
                    entry = routes[prefix]
                    before = pending_get(prefix)
                    if before is None:
                        before = prefix in best
                    if not entry.attributes.as_path.has_loop():
                        if not before:
                            add_transition((prefix, False, entry))
                        pending[prefix] = True
                    else:
                        # A looped announcement may *replace* the prefix's
                        # only usable candidate.
                        now = _loop_free_route(others, prefix) is not None
                        if before and not now and old is not None:
                            add_transition((prefix, True, old))
                        pending[prefix] = now
                    continue
            elif w_high == w + 1 and a_high == a:
                # One withdrawal.
                prefix = prefix_at(wd_prefix[w])
                w = w_high
                old = drop(prefix)
                if old is None:
                    continue
                add_changed(prefix)
                if not report:
                    continue
                before = pending_get(prefix)
                if before is None:
                    before = prefix in best
                now = _loop_free_route(others, prefix) is not None
                if before and not now:
                    add_transition((prefix, True, old))
                pending[prefix] = now
                continue
            # Several prefixes: the per-message change list.
            changes: List[RouteChange] = []
            while w < w_high:
                changes.append(rib_in.withdraw(prefix_at(wd_prefix[w])))
                w += 1
            while a < a_high:
                changes.append(
                    rib_in.announce(prefix_at(ann_prefix[a]), attributes_at(ann_attr[a]))
                )
                a += 1
            changed.extend(
                change.prefix for change in changes if change.kind is not unchanged
            )
            if report:
                self._absorb(peer_as, (changes,))

        if stop > start:
            stats = session.stats
            stats.messages_received += stop - start
            stats.withdrawals_received += w - w_first
            stats.announcements_received += a - a_first
            stats.last_message_at = msg_time[stop - 1]
        if not report:
            pending.update(dict.fromkeys(changed))
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
        """Fold a run's per-message RIB changes into the batch state.

        The Adj-RIB-In may already hold the state at the *end* of the run
        (``process_batch`` applies a whole run first), so reachability after
        a message is read from the message's own change plus the other
        sessions' routes, which no same-peer run moves.  A silent batch only
        queues the changed prefixes.
        """
        pending = self._pending
        if not self._report:
            for changes in per_message_changes:
                pending.update(dict.fromkeys(_changed_prefixes(changes)))
            return
        speaker = self._speaker
        others = speaker._other_probes(peer_as)
        best = speaker.loc_rib._best
        transitions = self._transitions
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
                new = change.new
                before = pending.get(prefix)
                if before is None:
                    before = prefix in best
                if new is not None and not new.attributes.as_path.has_loop():
                    if not before:
                        transitions.append((prefix, False, new))
                    pending[prefix] = True
                else:
                    # A withdrawal, or a looped announcement that may
                    # *replace* the prefix's only usable candidate.
                    now = _loop_free_route(others, prefix) is not None
                    if before and not now and change.old is not None:
                        transitions.append((prefix, True, change.old))
                    pending[prefix] = now
                continue
            # Per prefix: the peer's route before the message, its last change.
            net_change: Dict[Prefix, Tuple[Optional[RibEntry], RouteChange]] = {}
            for change in changes:
                if change.kind is unchanged:
                    continue
                prefix = change.prefix
                if prefix not in pending:
                    pending[prefix] = prefix in best
                first = net_change.get(prefix)
                net_change[prefix] = (change.old if first is None else first[0], change)
            for prefix, (replaced, change) in net_change.items():
                # Multi-change messages may mix removals and (possibly
                # looped) announcements of the same prefix: the last change
                # is the peer's route after the message.
                before = pending[prefix]
                entry = change.new
                if entry is None or entry.attributes.as_path.has_loop():
                    entry = _loop_free_route(others, prefix)
                now = entry is not None
                if now and not before:
                    transitions.append((prefix, False, entry))
                elif before and not now:
                    # Only this peer's candidate moved, so the route it held
                    # before the message was the last usable one — also when
                    # that route was installed earlier in this batch and a
                    # withdrawal inside the message already took it out.
                    transitions.append((prefix, True, replaced))
                pending[prefix] = now

    def commit(self) -> None:
        """Close the batch: run the deferred selection, or mark it stale.

        A reporting batch selects its touched prefixes and fires the
        best-route listeners once with the synthesised transient loss /
        recovery events (for prefixes that flapped through unreachability
        mid-batch) followed by the coalesced ``pre-batch -> final``
        best-route changes; together they carry the same multiset of
        loss-of-reachability and recovery events as the per-message path.
        The final changes are in first-touch order — the order the
        per-message path emits them.

        A silent batch marks its touched prefixes stale and selects nothing —
        unless a listener registered while it was open: it then settles the
        Loc-RIB, unheard, so no listener ever reads a stale table.
        """
        if self._committed:
            raise RuntimeError("batch already committed")
        self._committed = True
        speaker = self._speaker
        if not self._report:
            loc_rib = speaker.loc_rib
            loc_rib.mark_stale(self._pending)
            if speaker._best_route_listeners:
                loc_rib.settle()
            return
        final_changes = speaker._reselect(list(self._pending), True, memo=True)
        changes = self._reconcile_transitions(final_changes)
        changes.extend(final_changes)
        speaker._notify_listeners(changes)

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
