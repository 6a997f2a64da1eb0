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
  of one session RIB: prefix -> AS links, link -> routed-prefix count and —
  crucially — the **link -> prefix reverse index** that lets SWIFT expand an
  inferred link into its affected prefixes without scanning the RIB.  The
  :class:`~repro.core.inference.InferenceEngine` keeps one index alive across
  bursts and feeds every announcement / expired withdrawal into it.
* :class:`FitScoreCalculator` holds the *burst-local* state (withdrawn
  prefixes, per-link withdrawal counts, routed-count deltas) as an overlay on
  top of an index.  Built via :meth:`FitScoreCalculator.from_index` it costs
  O(1) — no RIB scan — and every query it answers is proportional to the
  burst footprint (links with at least one withdrawal), not to the RIB size.

Constructing ``FitScoreCalculator(rib)`` directly still works for standalone
use (e.g. the simulation-validation harness): it simply builds a private
index from the RIB first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.prefix import Prefix
from repro.core import kernels

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


class LinkPrefixIndex:
    """Persistent link <-> prefix view of one session's Adj-RIB-In.

    Maintains, under streaming announcements and withdrawals:

    * ``links_of_prefix``: prefix -> canonical AS links of its current path;
    * ``routed_for_link``: link -> number of prefixes currently routed over it
      (the ``P(l)`` baseline before any burst-local withdrawals);
    * ``prefixes_of_link``: link -> set of prefixes whose current path crosses
      it (the reverse index behind :meth:`prefixes_via`).

    The index is built once per session — O(RIB) — and every mutation after
    that costs O(path length).  ``local_as`` / ``peer_as`` add the implicit
    first link between the local router and the session peer to every path,
    matching the paper's Fig. 4 which scores link (1, 2).
    """

    __slots__ = (
        "_local_prefix_link",
        "links_of_prefix",
        "routed_for_link",
        "prefixes_of_link",
        "_links_table",
        "_links_table_pool",
        "_link_ids",
        "link_objects",
        "_id_tuple_memo",
        "_path_links_memo",
    )

    def __init__(
        self,
        rib: Optional[Mapping[Prefix, ASPath]] = None,
        local_as: Optional[int] = None,
        peer_as: Optional[int] = None,
    ) -> None:
        self._local_prefix_link: Optional[Link] = None
        if local_as is not None and peer_as is not None:
            self._local_prefix_link = _canonical((local_as, peer_as))
        self.links_of_prefix: Dict[Prefix, Tuple[Link, ...]] = {}
        self.routed_for_link: Dict[Link, int] = {}
        self.prefixes_of_link: Dict[Link, Set[Prefix]] = {}
        self._links_table: Optional[List[Optional[Tuple[int, ...]]]] = None
        self._links_table_pool = None
        # Small-int link ids for the vectorised fold: hashing and counting
        # ints is markedly cheaper than tuples, so the pool-row table stores
        # id tuples and ``link_objects`` maps them back.
        self._link_ids: Dict[Link, int] = {}
        self.link_objects: List[Link] = []
        self._id_tuple_memo: Dict[Tuple[Link, ...], Tuple[int, ...]] = {}
        self._path_links_memo: Dict[Tuple[int, ...], Tuple[Link, ...]] = {}
        if rib:
            for prefix, path in rib.items():
                self.set_path(prefix, path)

    # -- mutation -----------------------------------------------------------

    def set_path(self, prefix: Prefix, path: ASPath) -> Tuple[Link, ...]:
        """Record that ``prefix`` is now routed over ``path``.

        Returns the links of the *previous* path (empty tuple when the prefix
        was unknown), which callers overlaying burst state need to fix their
        deltas.
        """
        return self._set_links(prefix, self.links_for_path(path))

    def remove_prefix(self, prefix: Prefix) -> Tuple[Link, ...]:
        """Drop ``prefix`` from the index (withdrawn outside any burst)."""
        return self._set_links(prefix, ())

    def _set_links(self, prefix: Prefix, new_links: Tuple[Link, ...]) -> Tuple[Link, ...]:
        old_links = self.links_of_prefix.get(prefix, ())
        if new_links is old_links:
            # Same interned tuple (links_for_path memo): a re-announcement
            # over the unchanged path moves nothing.
            return old_links
        table = self._links_table
        if table is not None:
            # Keep the pool-row view in lockstep with links_of_prefix (this
            # method is the sole mutator).  A prefix the pool never interned
            # cannot appear in a withdrawal column, so it is safe to skip;
            # a pool that grew past the table forces a rebuild instead.
            row = self._links_table_pool.prefix_id(prefix)
            if row is not None:
                if row < len(table):
                    table[row] = self._link_id_tuple(new_links) if new_links else None
                else:
                    self._links_table = None
                    self._links_table_pool = None
        routed = self.routed_for_link
        by_link = self.prefixes_of_link
        for link in old_links:
            # Prune dead links so a long-lived index stays proportional to
            # the live RIB rather than to every link ever seen.
            count = routed.get(link, 0) - 1
            if count > 0:
                routed[link] = count
            else:
                routed.pop(link, None)
            members = by_link.get(link)
            if members is not None:
                members.discard(prefix)
                if not members:
                    del by_link[link]
        if new_links:
            self.links_of_prefix[prefix] = new_links
            for link in new_links:
                routed[link] = routed.get(link, 0) + 1
                members = by_link.get(link)
                if members is None:
                    by_link[link] = {prefix}
                else:
                    members.add(prefix)
        else:
            self.links_of_prefix.pop(prefix, None)
        return old_links

    # -- queries ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.links_of_prefix)

    def prefixes_via(self, links: Iterable[Link]) -> FrozenSet[Prefix]:
        """Union of the per-link prefix sets — O(result), not O(RIB)."""
        by_link = self.prefixes_of_link
        members = [by_link[c] for c in map(_canonical, links) if c in by_link]
        if not members:
            return frozenset()
        # One frozenset built in a single union pass (no mutable staging set).
        return frozenset(members[0]) if len(members) == 1 else frozenset().union(*members)

    def links_for_path(self, path: ASPath) -> Tuple[Link, ...]:
        """Canonical, deduplicated links of ``path`` (plus the local link).

        Memoised by the path's AS tuple: a burst re-announces many prefixes
        over the same handful of backup paths, and the result is a pure
        function of the AS sequence and the (fixed) local link.
        """
        memo = self._path_links_memo
        key = path.asns
        cached = memo.get(key)
        if cached is not None:
            return cached
        links = [_canonical(link) for link in path.links()]
        if self._local_prefix_link is not None and len(path) >= 1:
            links.insert(0, self._local_prefix_link)
        # Deduplicate while keeping order (paths with prepending repeat links).
        seen: Set[Link] = set()
        unique: List[Link] = []
        for link in links:
            if link not in seen:
                seen.add(link)
                unique.append(link)
        result = memo[key] = tuple(unique)
        return result

    def _link_id_tuple(self, links: Tuple[Link, ...]) -> Tuple[int, ...]:
        """Intern a links tuple as a tuple of small link ids (memoised)."""
        memo = self._id_tuple_memo
        ids = memo.get(links)
        if ids is None:
            link_ids = self._link_ids
            objects = self.link_objects
            row: List[int] = []
            for link in links:
                lid = link_ids.get(link)
                if lid is None:
                    lid = link_ids[link] = len(objects)
                    objects.append(link)
                row.append(lid)
            ids = memo[links] = tuple(row)
        return ids

    def links_table(self, pool) -> Optional[List[Optional[Tuple[int, ...]]]]:
        """Pool-row view of ``links_of_prefix``: pool prefix id -> link ids.

        Built once per (index, pool) pair and then maintained in place by
        :meth:`_set_links`, this lets the vectorised fit-score fold turn a
        batch of deduplicated withdrawal rows into per-link counts with a
        C-speed list gather instead of one Prefix-keyed dict lookup per
        prefix.  Rows hold tuples of small integer ids (``link_objects``
        maps them back to links) so the counting pass hashes ints, not
        tuples.  ``None`` when the pool offers no reverse lookup (a
        contract-honoring pool without ``prefix_id`` takes the generic
        per-prefix path).
        """
        if self._links_table_pool is not pool:
            prefix_id = getattr(pool, "prefix_id", None)
            if prefix_id is None:
                return None
            id_tuple = self._link_id_tuple
            table: List[Optional[Tuple[int, ...]]] = [None] * pool.prefix_count
            for prefix, links in self.links_of_prefix.items():
                row = prefix_id(prefix)
                if row is not None:
                    table[row] = id_tuple(links)
            self._links_table = table
            self._links_table_pool = pool
        return self._links_table


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
        kernel=None,
    ) -> None:
        self.config = config or FitScoreConfig()
        if index is None:
            index = LinkPrefixIndex(rib or {}, local_as=local_as, peer_as=peer_as)
        self._index = index
        self._kernel = kernel if kernel is not None else kernels.default_backend()
        # Burst-local overlays: withdrawal counters plus the adjustment the
        # burst's withdrawals make to the index's routed counts.
        self._withdrawn_for_link: Dict[Link, int] = {}
        self._routed_delta: Dict[Link, int] = {}
        self._withdrawn_prefixes: Set[Prefix] = set()
        self._total_withdrawals = 0
        # Seen-row mask for the vectorised fold.  While ``_mask_exact`` holds,
        # the mask's set bits are *exactly* the withdrawn prefix rows, so a
        # whole candidate batch counts as fresh with no per-prefix set
        # membership at all, and the seen set itself materialises lazily
        # (``_unsynced_rows`` -> :meth:`_sync_seen`).  Any dedup decision that
        # bypasses the mask — an object-path withdrawal, a mixed span, a
        # record_update un-withdrawal — degrades it to a plain negative
        # cache: candidates are then re-checked against the authoritative
        # seen set, which an all-clear mask always forces.
        self._seen_mask = None
        self._seen_mask_pool = None
        self._mask_exact = False
        self._unsynced_rows: List[Sequence[int]] = []
        self._synced_rows: List[int] = []

    @classmethod
    def from_index(
        cls,
        index: LinkPrefixIndex,
        config: Optional[FitScoreConfig] = None,
        kernel=None,
    ) -> "FitScoreCalculator":
        """O(1) construction over an already-maintained index (no RIB scan)."""
        return cls(config=config, index=index, kernel=kernel)

    # -- feeding the stream ----------------------------------------------------

    def _sync_counts(self) -> None:
        """Fold deferred exact-fold rows into the per-link counters.

        While the mask is exact, :meth:`_record_rows` only appends fresh row
        batches and bumps the total: the per-link counters materialise here,
        on the first counter query that actually reads them, and the counted
        rows move to ``_synced_rows`` (still row-space — the withdrawn *set*
        itself materialises even later, see :meth:`_sync_seen`).  Rows
        recorded after an accepted inference are typically never queried
        again, so their link counting never happens at all.
        """
        rows = self._unsynced_rows
        if not rows:
            return
        self._unsynced_rows = []
        pool = self._seen_mask_pool
        flat = self._kernel.flatten_rows(rows)
        self._synced_rows.extend(flat)
        table = self._index.links_table(pool)
        link_objects = self._index.link_objects
        withdrawn = self._withdrawn_for_link
        delta = self._routed_delta
        withdrawn_get = withdrawn.get
        delta_get = delta.get
        # The rows are distinct (mask-deduplicated) and their id tuples are
        # interned, so counting the (few) distinct tuples first and expanding
        # afterwards hashes each row once instead of once per link.
        counts: Dict[int, int] = {}
        for ids, repeats in Counter(map(table.__getitem__, flat)).items():
            if ids is None:
                continue
            for lid in ids:
                counts[lid] = counts.get(lid, 0) + repeats
        for lid, count in counts.items():
            link = link_objects[lid]
            withdrawn[link] = withdrawn_get(link, 0) + count
            delta[link] = delta_get(link, 0) - count

    def _sync_seen(self) -> None:
        """Materialise every deferred row into the withdrawn prefix *set*.

        The full catch-up: counters first (:meth:`_sync_counts`), then the
        interned prefixes of all counted rows join ``_withdrawn_prefixes``.
        Only mask-degrading events and whole-set readers need this; counter
        queries and :meth:`withdrawn_within` stay in row space, so a burst
        served end-to-end by the vectorised fold never builds the set.
        """
        self._sync_counts()
        rows = self._synced_rows
        if rows:
            self._synced_rows = []
            self._withdrawn_prefixes.update(self._seen_mask_pool.prefixes_at(rows))

    def record_withdrawal_rows(self, pool, wd_prefix, lo: int, hi: int) -> int:
        """Record ``wd_prefix[lo:hi]`` straight from the column.

        The row-index twin of :meth:`record_withdrawals` — same overlay
        mutations, same return value (entries processed, duplicates
        included) — but fed pool prefix rows instead of materialised
        prefixes, so a vectorised backend can dedup and count the whole
        window without per-prefix Python.  With a non-vectorised kernel it
        simply materialises the window and delegates.
        """
        if hi <= lo:
            return 0
        if not self._kernel.VECTORISED:
            return self.record_withdrawals(pool.prefixes_at(wd_prefix[lo:hi]))
        return self._record_rows(pool, wd_prefix, lo, hi)

    def _record_rows(self, pool, wd_prefix, lo: int, hi: int) -> int:
        """Vectorised fold of one withdrawal window (VECTORISED kernels only).

        Deduplicates the window against the seen-row mask at array speed,
        then — while the mask is exact — counts the fresh rows' links with
        one gather over the index's pool-row links table and defers the
        seen-set materialisation entirely.  Once exactness is lost (or the
        index cannot build a table for this pool) the candidates fall back
        to the authoritative per-prefix path.
        """
        kernel = self._kernel
        mask = self._seen_mask
        if mask is None or self._seen_mask_pool is not pool or len(
            mask
        ) < pool.prefix_count:
            # Rebuilding loses the set bits, so first materialise anything
            # deferred, then re-seed the fresh mask from the seen set: if
            # every seen prefix has a pool row the mask is exact again.
            self._sync_seen()
            mask = self._seen_mask = kernel.new_seen_mask(pool.prefix_count)
            self._seen_mask_pool = pool
            exact = True
            if self._withdrawn_prefixes:
                prefix_id = getattr(pool, "prefix_id", None)
                if prefix_id is None:
                    exact = False
                else:
                    for prefix in self._withdrawn_prefixes:
                        row = prefix_id(prefix)
                        if row is None:
                            exact = False
                            break
                        mask[row] = True
            self._mask_exact = exact
        candidates = kernel.fresh_candidate_rows(mask, wd_prefix, lo, hi)
        if len(candidates) == 0:
            return hi - lo
        if self._mask_exact:
            table = self._index.links_table(pool)
            if table is not None:
                # Fully deferred: the seen set *and* the per-link counters
                # materialise together in _sync_seen on the next query.
                self._unsynced_rows.append(candidates)
                self._total_withdrawals += len(candidates)
                return hi - lo
            self._mask_exact = False
        self._sync_seen()
        withdrawn = self._withdrawn_for_link
        delta = self._routed_delta
        withdrawn_get = withdrawn.get
        delta_get = delta.get
        seen = self._withdrawn_prefixes
        seen_add = seen.add
        links_get = self._index.links_of_prefix.get
        fresh = 0
        pending: List[Link] = []
        pending_extend = pending.extend
        for prefix in pool.prefixes_at(candidates):
            if prefix in seen:
                continue
            seen_add(prefix)
            fresh += 1
            links = links_get(prefix)
            if links:
                pending_extend(links)
        if fresh:
            self._total_withdrawals += fresh
        for link, count in Counter(pending).items():
            withdrawn[link] = withdrawn_get(link, 0) + count
            delta[link] = delta_get(link, 0) - count
        return hi - lo

    def record_withdrawal(self, prefix: Prefix) -> None:
        """Account for the withdrawal of ``prefix``.

        Withdrawals of prefixes unknown to the pre-burst RIB (noise, or
        prefixes announced after the snapshot) still increase the total
        withdrawal count ``W(t)`` — they dilute every WS equally, which is
        exactly how unrelated noise degrades the metric in the paper.
        Duplicate withdrawals of the same prefix are counted once.
        """
        self.record_withdrawals((prefix,))

    def record_withdrawals(self, prefixes: Iterable[Prefix]) -> int:
        """Batched :meth:`record_withdrawal`; returns the prefixes processed.

        One call per UPDATE message (rather than one per prefix) keeps the
        per-prefix Python overhead of the hot path down to a few dictionary
        operations.
        """
        # Object-path entries bypass the seen-row mask: catch up any deferred
        # rows (the dedup below needs the full set) and drop exactness.
        self._sync_seen()
        self._mask_exact = False
        seen = self._withdrawn_prefixes
        links_of_prefix = self._index.links_of_prefix
        withdrawn = self._withdrawn_for_link
        delta = self._routed_delta
        processed = 0
        for prefix in prefixes:
            processed += 1
            if prefix in seen:
                continue
            seen.add(prefix)
            self._total_withdrawals += 1
            links = links_of_prefix.get(prefix)
            if not links:
                continue
            for link in links:
                withdrawn[link] = withdrawn.get(link, 0) + 1
                delta[link] = delta.get(link, 0) - 1
        return processed

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
        links_of_prefix = self._index.links_of_prefix
        withdrawn = self._withdrawn_for_link
        delta = self._routed_delta
        seen_add = seen.add
        links_get = links_of_prefix.get
        withdrawn_get = withdrawn.get
        delta_get = delta.get
        # Burst withdrawals concentrate on a handful of distinct links (the
        # failed link's prefixes share their paths), so the per-link counter
        # arithmetic is deferred: the links of every fresh withdrawal pile
        # into a flat list and one C-speed Counter pass folds them into the
        # overlays per distinct link — flushed before any announcement (which
        # reads the overlays through record_update) and at the end.
        pending: List[Link] = []
        pending_extend = pending.extend

        def flush() -> None:
            if len(pending) > 16:
                # One C-speed counting pass, then one merge per distinct link.
                for link, count in Counter(pending).items():
                    withdrawn[link] = withdrawn_get(link, 0) + count
                    delta[link] = delta_get(link, 0) - count
            else:
                for link in pending:
                    withdrawn[link] = withdrawn_get(link, 0) + 1
                    delta[link] = delta_get(link, 0) - 1
            del pending[:]

        kernel = self._kernel
        if kernel.VECTORISED and ann_end[hi - 1] == a:
            # No announcements anywhere in the span, so nothing reads the
            # overlays mid-span and the whole withdrawal window folds in one
            # kernel pass (see _record_rows): mask dedup at array speed and,
            # while the mask is exact, link counting through the index's
            # pool-row table with the seen set materialised lazily.
            return self._record_rows(pool, wd_prefix, w, wd_end[hi - 1])

        # The per-prefix branches below bypass the seen-row mask: materialise
        # any deferred rows first (their dedup reads the seen set in full)
        # and degrade the mask to a plain negative cache.
        self._sync_seen()
        self._mask_exact = False

        # Decoded-once prefix row cache: an InternPool detail, probed rather
        # than required — a contract-honoring pool without it simply takes
        # the generic row loop below (pool.prefix_at is the contract API).
        prefix_rows = getattr(pool, "_prefix_cache", None)
        if prefix_rows is not None and ann_end[hi - 1] == a:
            # No announcements anywhere in the span — the canonical failure
            # burst.  Row boundaries are then irrelevant to the calculator
            # (nothing reads the overlays mid-span), so the whole withdrawal
            # window streams straight off the flat column: one array slice,
            # C-level iteration over interned-prefix indices, one flush.
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
                links = links_get(prefix)
                if links:
                    pending_extend(links)
            if fresh:
                self._total_withdrawals += fresh
            flush()
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
                    links = links_get(prefix)
                    if links:
                        pending_extend(links)
                if fresh:
                    # record_update below reads (and may decrement) the
                    # total, so it is synced per row, not per span.
                    self._total_withdrawals += fresh
            if a < a_high:
                if pending:
                    flush()
                while a < a_high:
                    record_update(
                        prefix_at(ann_prefix[a]), path_at(attr_path[ann_attr[a]])
                    )
                    a += 1
        if pending:
            flush()
        return processed

    def record_update(self, prefix: Prefix, new_path: ASPath) -> None:
        """Account for a path update (implicit withdrawal of the old path).

        The prefix stops counting towards ``P(l, t)`` for the links of its old
        path and starts counting for the links of its new path.  If the prefix
        had been withdrawn earlier in the burst, the re-announcement clears
        the withdrawal (it no longer counts in ``W``).  The underlying index
        is updated in place, so an engine sharing it sees the new path too.
        """
        self._sync_seen()
        if prefix in self._withdrawn_prefixes:
            old_links = self._index.links_of_prefix.get(prefix, ())
            self._withdrawn_prefixes.discard(prefix)
            # The prefix may be withdrawn again later in the burst; drop the
            # negative cache so the vectorised fold re-checks its row.
            self._seen_mask = None
            self._mask_exact = False
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
        self._sync_seen()
        return frozenset(self._withdrawn_prefixes)

    def withdrawn_within(self, prefixes) -> FrozenSet[Prefix]:
        """``withdrawn_prefixes & prefixes`` for a set-like ``prefixes``.

        Deliberately avoids :meth:`_sync_seen`: the materialised part is
        intersected set-to-set (iterating the smaller side) and deferred
        rows are resolved straight off the pool's decode cache and checked
        against ``prefixes``, so the full withdrawn set is never built.
        """
        self._sync_counts()
        base = self._withdrawn_prefixes
        result: Set[Prefix] = set(base.intersection(prefixes)) if base else set()
        rows = self._synced_rows
        if rows:
            result.update(
                filter(prefixes.__contains__, self._seen_mask_pool.prefixes_at(rows))
            )
        return frozenset(result)

    def tracked_links(self) -> List[Link]:
        """Every link appearing in at least one known path."""
        self._sync_counts()
        links: Set[Link] = set(self._index.routed_for_link) | set(self._withdrawn_for_link)
        return sorted(links)

    def withdrawal_count(self, link: Link) -> int:
        """``W(l, t)`` for one link."""
        self._sync_counts()
        return self._withdrawn_for_link.get(_canonical(link), 0)

    def still_routed_count(self, link: Link) -> int:
        """``P(l, t)`` for one link: the index baseline plus the burst delta."""
        self._sync_counts()
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
        self._sync_counts()
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
        reverse index as a union of per-link prefix sets — O(result size).
        """
        return self._index.prefixes_via(links)

    # -- internals ----------------------------------------------------------------

    def _combine(self, ws: float, ps: float) -> float:
        if ws <= 0.0 or ps <= 0.0:
            return 0.0
        w_ws, w_ps = self.config.ws_weight, self.config.ps_weight
        return (ws ** w_ws * ps ** w_ps) ** (1.0 / (w_ws + w_ps))
