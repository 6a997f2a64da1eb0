"""Withdrawal Share, Path Share and the Fit Score (§4.1, §4.2).

For a link ``l`` at time ``t``:

* ``W(l, t)`` — number of prefixes whose (pre-burst) path includes ``l`` and
  that have been withdrawn by ``t``;
* ``W(t)`` — total number of withdrawals received by ``t``;
* ``P(l, t)`` — number of prefixes whose path *still* traverses ``l`` at ``t``
  (i.e. not withdrawn nor re-routed away from ``l``);
* ``WS(l, t) = W(l, t) / W(t)`` — Withdrawal Share;
* ``PS(l, t) = W(l, t) / (W(l, t) + P(l, t))`` — Path Share;
* ``FS(l, t) = (WS^wWS * PS^wPS)^(1/(wWS + wPS))`` — weighted geometric mean.

The paper calibrates ``wWS = 3 * wPS`` (§4.2).  For sets of links sharing an
endpoint (concurrent failures), WS and PS generalise by summing the
individual ``W(l, t)`` and ``P(l, t)`` terms (§4.2).

Two classes implement the bookkeeping:

* :class:`LinkPrefixIndex` is a *persistent*, incrementally-maintained view
  of one session RIB, interned by AS path.  Every prefix on one path crosses
  the same links, so the index keeps one *group* per distinct path (the
  path, its canonical links and its member prefixes), prefix -> group,
  link -> groups and link -> routed-prefix count.  That is enough to expand
  an inferred link into its affected prefixes without scanning the RIB, and
  to answer the session RIB itself: the
  :class:`~repro.core.inference.InferenceEngine` keeps no other copy.
* :class:`FitScoreCalculator` holds the *burst-local* state (withdrawn
  prefixes, per-link withdrawal counts, routed-count deltas) as an overlay on
  top of an index.  Built via :meth:`FitScoreCalculator.from_index` it costs
  O(1) — no RIB scan — and every query it answers is proportional to the
  burst footprint (links with at least one withdrawal), not to the RIB size.

Constructing ``FitScoreCalculator(rib)`` directly still works for standalone
use (the tests score hand-built bursts so): it simply builds a private index
from the RIB first.  Every experiment scores through a router's engines.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.bgp.attributes import ASPath
from repro.bgp.prefix import Prefix

__all__ = ["FitScoreCalculator", "FitScoreConfig", "LinkPrefixIndex", "LinkScore"]

Link = Tuple[int, int]


def _canonical(link: Link) -> Link:
    """Canonical (sorted-endpoint) form of an AS link."""
    return link if link[0] <= link[1] else (link[1], link[0])


@dataclass(frozen=True)
class FitScoreConfig:
    """Weights of the Fit Score geometric mean.

    The paper's calibration sets the Withdrawal Share weight three times
    higher than the Path Share weight (§4.2): early in a burst many affected
    prefixes have not been withdrawn yet, which depresses PS for the failed
    link, while its WS is maximal from the start.
    """

    ws_weight: float = 3.0
    ps_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.ws_weight <= 0 or self.ps_weight <= 0:
            raise ValueError("fit-score weights must be positive")


@dataclass(frozen=True)
class LinkScore:
    """The metrics of one link (or one set of aggregated links) at a time t."""

    links: Tuple[Link, ...]
    withdrawal_share: float
    path_share: float
    fit_score: float
    withdrawn_count: int
    still_routed_count: int

    @property
    def link(self) -> Link:
        """The single link when the score refers to exactly one link."""
        if len(self.links) != 1:
            raise ValueError("score aggregates several links")
        return self.links[0]


class _PathGroup:
    """One distinct AS path of a session and the prefixes routed over it."""

    __slots__ = ("path", "links", "members")

    def __init__(self, path: ASPath, links: Tuple[Link, ...]) -> None:
        self.path = path
        self.links = links
        self.members: Set[Prefix] = set()


class LinkPrefixIndex:
    """Persistent view of one session's Adj-RIB-In, interned by AS path.

    Every prefix routed over one AS path crosses the same links, so the
    index stores each distinct path once, as a group: the path, its
    canonical deduplicated links and the set of its member prefixes.
    Maintained under streaming announcements and withdrawals:

    * ``group_of``: prefix -> the group of its current path (a prefix
      announced with an empty path has a group with no links);
    * ``groups_of_link``: link -> the groups whose path crosses it (the
      reverse index behind :meth:`prefixes_via`).  Four links in five carry
      one path, so such a link maps to that group itself and only a link
      shared by several paths holds a set of groups;
    * ``routed_for_link``: link -> number of prefixes currently routed over
      it (the ``P(l)`` baseline before any burst-local withdrawals).

    A group leaves the index, and every ``groups_of_link`` entry with it,
    when its last prefix leaves, so a long-lived index stays proportional to
    the live RIB rather than to every path ever announced.  The index is
    built once per session — O(RIB) — and every mutation after that costs
    O(path length).  ``local_as`` / ``peer_as`` add the implicit first link
    between the local router and the session peer to every non-empty path,
    matching the paper's Fig. 4 which scores link (1, 2).
    """

    __slots__ = ("_local_prefix_link", "group_of", "groups_of_link", "routed_for_link", "_groups")

    def __init__(
        self,
        rib: Optional[Mapping[Prefix, ASPath]] = None,
        local_as: Optional[int] = None,
        peer_as: Optional[int] = None,
    ) -> None:
        self._local_prefix_link: Optional[Link] = None
        if local_as is not None and peer_as is not None:
            self._local_prefix_link = _canonical((local_as, peer_as))
        self.group_of: Dict[Prefix, _PathGroup] = {}
        self.groups_of_link: Dict[Link, Union[_PathGroup, Set[_PathGroup]]] = {}
        self.routed_for_link: Dict[Link, int] = {}
        self._groups: Dict[Tuple[int, ...], _PathGroup] = {}
        if rib:
            for prefix, path in rib.items():
                self.set_path(prefix, path)

    # -- mutation -----------------------------------------------------------

    def set_path(self, prefix: Prefix, path: ASPath) -> None:
        """Record that ``prefix`` is now routed over ``path``."""
        group = self._groups.get(path.asns)
        old = self.group_of.get(prefix)
        if group is not None and group is old:
            # A re-announcement over the unchanged path moves nothing.
            return
        if old is not None:
            self._leave(old, prefix)
        if group is None:
            group = self._new_group(path)
        group.members.add(prefix)
        self.group_of[prefix] = group
        routed = self.routed_for_link
        for link in group.links:
            routed[link] = routed.get(link, 0) + 1

    def remove_prefix(self, prefix: Prefix) -> None:
        """Drop ``prefix`` from the index (withdrawn outside any burst)."""
        old = self.group_of.pop(prefix, None)
        if old is not None:
            self._leave(old, prefix)

    def _new_group(self, path: ASPath) -> _PathGroup:
        links = [_canonical(link) for link in path.links()]
        if self._local_prefix_link is not None and len(path) >= 1:
            links.insert(0, self._local_prefix_link)
        # Deduplicate while keeping order (paths with prepending repeat links).
        group = self._groups[path.asns] = _PathGroup(path, tuple(dict.fromkeys(links)))
        by_link = self.groups_of_link
        for link in group.links:
            held = by_link.get(link)
            if held is None:
                by_link[link] = group
            elif held.__class__ is _PathGroup:
                by_link[link] = {held, group}
            else:
                held.add(group)
        return group

    def _leave(self, group: _PathGroup, prefix: Prefix) -> None:
        """Take ``prefix`` out of ``group``; drop the group once it is empty."""
        members = group.members
        members.discard(prefix)
        routed = self.routed_for_link
        for link in group.links:
            count = routed[link] - 1
            if count:
                routed[link] = count
            else:
                del routed[link]
        if members:
            return
        del self._groups[group.path.asns]
        by_link = self.groups_of_link
        for link in group.links:
            held = by_link[link]
            if held is group:
                del by_link[link]
            else:
                held.discard(group)
                if len(held) == 1:
                    by_link[link] = held.pop()

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.group_of)

    def paths(self) -> Dict[Prefix, ASPath]:
        """The session RIB the index holds: prefix -> current AS path."""
        return {prefix: group.path for prefix, group in self.group_of.items()}

    def prefixes_via(self, links: Iterable[Link]) -> FrozenSet[Prefix]:
        """Union of the member sets of the groups crossing ``links`` —
        O(result), not O(RIB)."""
        by_link = self.groups_of_link
        groups: Set[_PathGroup] = set()
        for link in map(_canonical, links):
            held = by_link.get(link)
            if held is None:
                continue
            if held.__class__ is _PathGroup:
                groups.add(held)
            else:
                groups.update(held)
        # Groups partition the prefixes: one union pass, no duplicates.
        return frozenset().union(*[group.members for group in groups])


class FitScoreCalculator:
    """Burst-local W/P bookkeeping on top of a :class:`LinkPrefixIndex`.

    Parameters
    ----------
    rib:
        The pre-burst Adj-RIB-In of the session: prefix -> AS path.  Paths
        must include the peer AS as first hop; the link between the SWIFTED
        router and the peer itself is not part of the path and therefore not
        scored (its failure would be a *local* failure, handled by existing
        fast-reroute techniques, not by SWIFT).  Ignored when ``index`` is
        given.
    config:
        Fit-score weights.
    local_as:
        Optional AS number of the local router; when provided, the implicit
        first link (local_as, peer_as) is also tracked, matching the paper's
        Fig. 4 which scores link (1, 2).
    peer_as:
        The peer AS of the session (needed only when ``local_as`` is given).
    index:
        An existing :class:`LinkPrefixIndex` to overlay instead of building
        one from ``rib``.  The calculator *shares* (and, on announcements,
        mutates) the index; burst-local withdrawal state lives in overlay
        dictionaries that are simply dropped when the burst ends.
    """

    def __init__(
        self,
        rib: Optional[Mapping[Prefix, ASPath]] = None,
        config: Optional[FitScoreConfig] = None,
        local_as: Optional[int] = None,
        peer_as: Optional[int] = None,
        index: Optional[LinkPrefixIndex] = None,
    ) -> None:
        self.config = config or FitScoreConfig()
        if index is None:
            index = LinkPrefixIndex(rib or {}, local_as=local_as, peer_as=peer_as)
        self._index = index
        # Burst-local overlays: withdrawal counters plus the adjustment the
        # burst's withdrawals make to the index's routed counts.
        self._withdrawn_for_link: Dict[Link, int] = {}
        self._routed_delta: Dict[Link, int] = {}
        self._withdrawn_prefixes: Set[Prefix] = set()
        self._total_withdrawals = 0

    @classmethod
    def from_index(
        cls,
        index: LinkPrefixIndex,
        config: Optional[FitScoreConfig] = None,
    ) -> "FitScoreCalculator":
        """O(1) construction over an already-maintained index (no RIB scan)."""
        return cls(config=config, index=index)

    # -- feeding the stream ----------------------------------------------------

    def record_withdrawal_rows(self, pool, wd_prefix, lo: int, hi: int) -> int:
        """Record ``wd_prefix[lo:hi]``: materialise the window and delegate.

        The row-index form of :meth:`record_withdrawals` — same overlay
        mutations, same return value (entries processed, duplicates
        included) — fed pool prefix rows instead of prefixes.
        """
        return self.record_withdrawals(pool.prefixes_at(wd_prefix[lo:hi]))

    def record_withdrawal(self, prefix: Prefix) -> None:
        """Account for the withdrawal of ``prefix``.

        Withdrawals of prefixes unknown to the pre-burst RIB (noise, or
        prefixes announced after the snapshot) still increase the total
        withdrawal count ``W(t)`` — they dilute every WS equally, which is
        exactly how unrelated noise degrades the metric in the paper.
        Duplicate withdrawals of the same prefix are counted once.
        """
        self.record_withdrawals((prefix,))

    def record_withdrawals(self, prefixes: Sequence[Prefix]) -> int:
        """Batched :meth:`record_withdrawal`; returns the prefixes processed.

        One call per UPDATE message (rather than one per prefix) keeps the
        per-prefix Python overhead of the hot path down to a few dictionary
        operations: a message's handful of withdrawals takes the direct
        per-link loop, a larger batch (the burst-start replay of the
        detection window) is folded per path group (:meth:`_fold`).
        """
        seen = self._withdrawn_prefixes
        group_get = self._index.group_of.get
        if len(prefixes) > 16:
            fresh = [prefix for prefix in dict.fromkeys(prefixes) if prefix not in seen]
            seen.update(fresh)
            self._total_withdrawals += len(fresh)
            self._fold([group for group in map(group_get, fresh) if group is not None])
            return len(prefixes)
        withdrawn = self._withdrawn_for_link
        delta = self._routed_delta
        for prefix in prefixes:
            if prefix in seen:
                continue
            seen.add(prefix)
            self._total_withdrawals += 1
            group = group_get(prefix)
            if group is None:
                continue
            for link in group.links:
                withdrawn[link] = withdrawn.get(link, 0) + 1
                delta[link] = delta.get(link, 0) - 1
        return len(prefixes)

    def record_run(self, run, start: Optional[int] = None, stop: Optional[int] = None) -> int:
        """Record a columnar run (or a row window of one) straight from columns.

        The column-native equivalent of feeding every materialised message of
        ``run[start:stop]`` through :meth:`record_withdrawals` /
        :meth:`record_update` in row order: per row, the withdrawal window of
        the flat ``wd_prefix`` column is folded into the burst overlays, then
        each announcement's (prefix, AS path) pair — resolved through the
        pool's interning tables, so the objects handled here are the *same*
        objects the engine's :class:`LinkPrefixIndex` keys by — is recorded
        as an implicit withdrawal.  No :class:`~repro.bgp.messages.BGPMessage`
        (nor any ``PathAttributes``) is ever constructed.

        ``run`` is duck-typed (``trace``/``start``/``stop``, the interface
        documented in :mod:`repro.traces.columnar`); ``start``/``stop``
        default to the whole run.  Returns the number of withdrawal entries
        processed (duplicates included), matching
        :meth:`record_withdrawals`'s return-value contract.
        """
        trace = run.trace
        pool = trace.pool
        prefix_at = pool.prefix_at
        path_at = pool.path_at
        attr_path = pool.attr_path
        wd_end = trace.wd_end
        ann_end = trace.ann_end
        wd_prefix = trace.wd_prefix
        ann_prefix = trace.ann_prefix
        ann_attr = trace.ann_attr
        lo = run.start if start is None else start
        hi = run.stop if stop is None else stop
        if hi <= lo:
            return 0
        w = wd_end[lo - 1] if lo else 0
        a = ann_end[lo - 1] if lo else 0
        processed = 0
        record_update = self.record_update
        seen = self._withdrawn_prefixes
        seen_add = seen.add
        group_get = self._index.group_of.get
        fold = self._fold
        # The groups of the fresh withdrawals pile up here and are folded
        # into the overlays in one pass — before any announcement (which
        # reads the overlays through record_update) and at the end.
        pending: List[_PathGroup] = []
        pending_append = pending.append

        # Decoded-once prefix row cache: an InternPool detail, probed rather
        # than required — a contract-honoring pool without it simply takes
        # the generic row loop below (pool.prefix_at is the contract API).
        prefix_rows = getattr(pool, "_prefix_cache", None)
        if prefix_rows is not None and ann_end[hi - 1] == a:
            # No announcements anywhere in the span — the canonical failure
            # burst.  Row boundaries are then irrelevant to the calculator
            # (nothing reads the overlays mid-span), so the whole withdrawal
            # window streams straight off the flat column: one array slice,
            # C-level iteration over interned-prefix indices, one fold.
            window = wd_prefix[w : wd_end[hi - 1]]
            processed = len(window)
            fresh = 0
            for index in window:
                prefix = prefix_rows[index]
                if prefix is None:
                    prefix = prefix_at(index)
                if prefix in seen:
                    continue
                seen_add(prefix)
                fresh += 1
                group = group_get(prefix)
                if group is not None:
                    pending_append(group)
            if fresh:
                self._total_withdrawals += fresh
            fold(pending)
            return processed

        for row in range(lo, hi):
            w_high = wd_end[row]
            a_high = ann_end[row]
            if w < w_high:
                fresh = 0
                while w < w_high:
                    prefix = prefix_at(wd_prefix[w])
                    w += 1
                    processed += 1
                    if prefix in seen:
                        continue
                    seen_add(prefix)
                    fresh += 1
                    group = group_get(prefix)
                    if group is not None:
                        pending_append(group)
                if fresh:
                    # record_update below reads (and may decrement) the
                    # total, so it is synced per row, not per span.
                    self._total_withdrawals += fresh
            if a < a_high:
                if pending:
                    fold(pending)
                    pending.clear()
                while a < a_high:
                    record_update(
                        prefix_at(ann_prefix[a]), path_at(attr_path[ann_attr[a]])
                    )
                    a += 1
        fold(pending)
        return processed

    def record_update(self, prefix: Prefix, new_path: ASPath) -> None:
        """Account for a path update (implicit withdrawal of the old path).

        The prefix stops counting towards ``P(l, t)`` for the links of its old
        path and starts counting for the links of its new path.  If the prefix
        had been withdrawn earlier in the burst, the re-announcement clears
        the withdrawal (it no longer counts in ``W``).  The underlying index
        is updated in place, so an engine sharing it sees the new path too.
        """
        if prefix in self._withdrawn_prefixes:
            group = self._index.group_of.get(prefix)
            old_links = group.links if group is not None else ()
            self._withdrawn_prefixes.discard(prefix)
            self._total_withdrawals = max(0, self._total_withdrawals - 1)
            withdrawn = self._withdrawn_for_link
            delta = self._routed_delta
            for link in old_links:
                withdrawn[link] = max(0, withdrawn.get(link, 0) - 1)
                # The index is about to move the prefix off its old links;
                # cancel the withdrawal's decrement so the two do not stack.
                delta[link] = delta.get(link, 0) + 1
        self._index.set_path(prefix, new_path)

    # -- queries ----------------------------------------------------------------

    @property
    def total_withdrawals(self) -> int:
        """``W(t)``: withdrawals received so far (deduplicated)."""
        return self._total_withdrawals

    @property
    def withdrawn_prefixes(self) -> FrozenSet[Prefix]:
        """The set of currently-withdrawn prefixes."""
        return frozenset(self._withdrawn_prefixes)

    def withdrawn_within(self, prefixes) -> FrozenSet[Prefix]:
        """``withdrawn_prefixes & prefixes`` for a set-like ``prefixes``."""
        return frozenset(self._withdrawn_prefixes.intersection(prefixes))

    def tracked_links(self) -> List[Link]:
        """Every link appearing in at least one known path."""
        links: Set[Link] = set(self._index.routed_for_link) | set(self._withdrawn_for_link)
        return sorted(links)

    def withdrawal_count(self, link: Link) -> int:
        """``W(l, t)`` for one link."""
        return self._withdrawn_for_link.get(_canonical(link), 0)

    def still_routed_count(self, link: Link) -> int:
        """``P(l, t)`` for one link: the index baseline plus the burst delta."""
        canonical = _canonical(link)
        return max(
            0,
            self._index.routed_for_link.get(canonical, 0)
            + self._routed_delta.get(canonical, 0),
        )

    def withdrawal_share(self, link: Link) -> float:
        """``WS(l, t)``; 0 when no withdrawal has been received."""
        if self._total_withdrawals == 0:
            return 0.0
        return self.withdrawal_count(link) / self._total_withdrawals

    def path_share(self, link: Link) -> float:
        """``PS(l, t)``; 0 when the link carries no prefix at all."""
        withdrawn = self.withdrawal_count(link)
        routed = self.still_routed_count(link)
        if withdrawn + routed == 0:
            return 0.0
        return withdrawn / (withdrawn + routed)

    def fit_score(self, link: Link) -> float:
        """``FS(l, t)`` for a single link."""
        return self._combine(self.withdrawal_share(link), self.path_share(link))

    def score(self, link: Link) -> LinkScore:
        """All the metrics of a single link."""
        canonical = _canonical(link)
        ws = self.withdrawal_share(canonical)
        ps = self.path_share(canonical)
        return LinkScore(
            links=(canonical,),
            withdrawal_share=ws,
            path_share=ps,
            fit_score=self._combine(ws, ps),
            withdrawn_count=self.withdrawal_count(canonical),
            still_routed_count=self.still_routed_count(canonical),
        )

    def score_set(self, links: Sequence[Link]) -> LinkScore:
        """Metrics of a set of links, per the multi-link extension of §4.2.

        ``WS(S, t) = sum_l W(l, t) / W(t)`` and
        ``PS(S, t) = sum_l W(l, t) / sum_l (W(l, t) + P(l, t))``.

        The withdrawal share is capped at 1.0: when aggregated links overlap
        (they are crossed by the same prefixes, e.g. consecutive links of one
        path) the plain sum double-counts withdrawals, which would make any
        serial aggregation look better than the failed link itself.  Capping
        keeps the metric a share and preserves the intended behaviour for the
        genuinely parallel links of a router failure (disjoint prefix sets).
        """
        canonical = tuple(sorted({_canonical(link) for link in links}))
        withdrawn = sum(self.withdrawal_count(link) for link in canonical)
        routed = sum(self.still_routed_count(link) for link in canonical)
        return self.score_from_counts(canonical, withdrawn, routed)

    def score_from_counts(
        self, links: Sequence[Link], withdrawn: int, routed: int
    ) -> LinkScore:
        """Multi-link score from already-summed W/P counts.

        The incremental-aggregation path of the inference engine maintains
        running ``sum W(l, t)`` / ``sum P(l, t)`` totals while it grows a
        link aggregate; this constructor turns those running sums into a
        :class:`LinkScore` without re-querying every member link.  For
        distinct canonical ``links`` it is arithmetically identical to
        :meth:`score_set`.
        """
        ws = (
            min(1.0, withdrawn / self._total_withdrawals)
            if self._total_withdrawals
            else 0.0
        )
        ps = withdrawn / (withdrawn + routed) if (withdrawn + routed) else 0.0
        return LinkScore(
            links=tuple(sorted(links)),
            withdrawal_share=ws,
            path_share=ps,
            fit_score=self._combine(ws, ps),
            withdrawn_count=withdrawn,
            still_routed_count=routed,
        )

    def all_scores(self, min_withdrawn: int = 1) -> List[LinkScore]:
        """Scores of every link with at least ``min_withdrawn`` withdrawals.

        Sorted by decreasing fit score (ties broken by link endpoints for
        determinism).  Links with no withdrawn prefix cannot be the failure
        and are skipped, which keeps the inference cost proportional to the
        burst's footprint rather than to the RIB size.

        Computed inline rather than via :meth:`score` per link: the keys of
        the withdrawal overlay are already canonical and one inference walks
        hundreds of links, so the per-link re-canonicalisation and repeated
        dictionary lookups of the method chain would dominate the query.
        The arithmetic is identical.
        """
        total = self._total_withdrawals
        routed_base = self._index.routed_for_link.get
        delta_get = self._routed_delta.get
        combine = self._combine
        scores = []
        append = scores.append
        for link, withdrawn in self._withdrawn_for_link.items():
            if withdrawn < min_withdrawn:
                continue
            ws = withdrawn / total if total else 0.0
            routed = routed_base(link, 0) + delta_get(link, 0)
            if routed < 0:
                routed = 0
            denominator = withdrawn + routed
            ps = withdrawn / denominator if denominator else 0.0
            append(
                LinkScore(
                    links=(link,),
                    withdrawal_share=ws,
                    path_share=ps,
                    fit_score=combine(ws, ps),
                    withdrawn_count=withdrawn,
                    still_routed_count=routed,
                )
            )
        scores.sort(key=lambda item: (-item.fit_score, item.links))
        return scores

    def prefixes_via_links(self, links: Iterable[Link]) -> FrozenSet[Prefix]:
        """Prefixes whose *current* path traverses any of ``links``.

        This is the set SWIFT reroutes when those links are inferred as
        failed; it includes both already-withdrawn and not-yet-withdrawn
        prefixes whose pre-burst path crossed the links.  Answered from the
        index as a union of the member sets of the path groups crossing the
        links — O(result size).
        """
        return self._index.prefixes_via(links)

    # -- internals ----------------------------------------------------------------

    def _fold(self, groups: List[_PathGroup]) -> None:
        """Add fresh withdrawals, one entry per prefix, to the per-link overlays."""
        withdrawn = self._withdrawn_for_link
        delta = self._routed_delta
        if len(groups) > 16:
            # A burst's withdrawals share a handful of paths: one C-speed
            # count per group, then one add per link of the group.
            for group, count in Counter(groups).items():
                for link in group.links:
                    withdrawn[link] = withdrawn.get(link, 0) + count
                    delta[link] = delta.get(link, 0) - count
        else:
            for group in groups:
                for link in group.links:
                    withdrawn[link] = withdrawn.get(link, 0) + 1
                    delta[link] = delta.get(link, 0) - 1

    def _combine(self, ws: float, ps: float) -> float:
        if ws <= 0.0 or ps <= 0.0:
            return 0.0
        w_ws, w_ps = self.config.ws_weight, self.config.ps_weight
        return (ws ** w_ws * ps ** w_ps) ** (1.0 / (w_ws + w_ps))
