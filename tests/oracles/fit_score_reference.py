"""Test oracle: the full-scan (pre-index) fit-score implementation.

:class:`ReferenceFitScoreCalculator` is the original full-scan implementation
of the fit-score bookkeeping: it is seeded by scanning the entire RIB at
construction time and answers :meth:`prefixes_via_links` by iterating every
known prefix.  The production path
(:class:`~repro.core.fit_score.FitScoreCalculator` overlaying a
:class:`~repro.core.fit_score.LinkPrefixIndex`) replaced it because both of
those costs are O(RIB) and sit on the inference hot path.

The scoring is kept verbatim; around it the class implements the whole
calculator protocol :class:`~repro.core.inference.InferenceEngine` calls
(``core/README.md``), so the engine never has to ask which calculator it was
given:

* the parity tests plug it in via ``calculator_factory``
  (:func:`reference_engine`) and assert that the engine emits *identical*
  :class:`~repro.core.inference.InferenceResult` sequences with either
  implementation;
* the hot-path benchmarks measure the speedup of the index-based path
  against it;
* ``tests/test_contracts.py`` holds its public signatures to
  ``FitScoreCalculator``'s.

The one duty the production calculator performs as a side effect of sharing
the engine's index — an in-burst announcement moves the prefix in the
engine's persistent :class:`~repro.core.fit_score.LinkPrefixIndex` — is
explicit here: pass that index as ``mirror`` and :meth:`record_update`
patches it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.prefix import Prefix
from repro.core.fit_score import FitScoreConfig, LinkPrefixIndex, LinkScore
from repro.core.inference import InferenceConfig, InferenceEngine

__all__ = ["ReferenceFitScoreCalculator", "reference_engine"]

Link = Tuple[int, int]


def _canonical(link: Link) -> Link:
    """Canonical (sorted-endpoint) form of an AS link."""
    return link if link[0] <= link[1] else (link[1], link[0])


class ReferenceFitScoreCalculator:
    """Full-scan W(l, t) / P(l, t) bookkeeping (the seed implementation)."""

    def __init__(
        self,
        rib: Mapping[Prefix, ASPath],
        config: Optional[FitScoreConfig] = None,
        local_as: Optional[int] = None,
        peer_as: Optional[int] = None,
        mirror: Optional[LinkPrefixIndex] = None,
    ) -> None:
        self.config = config or FitScoreConfig()
        self._mirror = mirror
        self._local_prefix_link: Optional[Link] = None
        if local_as is not None and peer_as is not None:
            self._local_prefix_link = _canonical((local_as, peer_as))

        # Static view of the pre-burst paths.
        self._links_of_prefix: Dict[Prefix, Tuple[Link, ...]] = {}
        # Current counters.
        self._withdrawn_for_link: Dict[Link, int] = {}
        self._routed_for_link: Dict[Link, int] = {}
        self._withdrawn_prefixes: Set[Prefix] = set()
        self._total_withdrawals = 0

        for prefix, path in rib.items():
            links = self._links_for_path(path)
            if not links:
                continue
            self._links_of_prefix[prefix] = links
            for link in links:
                self._routed_for_link[link] = self._routed_for_link.get(link, 0) + 1

    # -- feeding the stream ----------------------------------------------------

    def record_withdrawal(self, prefix: Prefix) -> None:
        """Account for the withdrawal of ``prefix`` (duplicates counted once)."""
        if prefix in self._withdrawn_prefixes:
            return
        self._withdrawn_prefixes.add(prefix)
        self._total_withdrawals += 1
        links = self._links_of_prefix.get(prefix)
        if not links:
            return
        for link in links:
            self._withdrawn_for_link[link] = self._withdrawn_for_link.get(link, 0) + 1
            self._routed_for_link[link] = max(0, self._routed_for_link.get(link, 0) - 1)

    def record_withdrawals(self, prefixes: Iterable[Prefix]) -> int:
        """Batched :meth:`record_withdrawal`; returns the prefixes processed."""
        processed = 0
        for prefix in prefixes:
            processed += 1
            self.record_withdrawal(prefix)
        return processed

    def record_withdrawal_rows(self, pool, wd_prefix, lo: int, hi: int) -> int:
        """Record ``wd_prefix[lo:hi]``: materialise the window and delegate."""
        return self.record_withdrawals(pool.prefixes_at(wd_prefix[lo:hi]))

    def record_run(self, run, start=None, stop=None) -> int:
        """Columnar-run shim mirroring :meth:`FitScoreCalculator.record_run`.

        Walks the run's row windows in order, feeding :meth:`record_withdrawal`
        and :meth:`record_update` — so the engine's column-native path can be
        parity-tested against this implementation without materialising
        messages either.  Returns the withdrawal entries processed.
        """
        trace = run.trace
        pool = trace.pool
        prefix_at = pool.prefix_at
        path_at = pool.path_at
        attr_path = pool.attr_path
        wd_end = trace.wd_end
        ann_end = trace.ann_end
        lo = run.start if start is None else start
        hi = run.stop if stop is None else stop
        if hi <= lo:
            return 0
        w = wd_end[lo - 1] if lo else 0
        a = ann_end[lo - 1] if lo else 0
        processed = 0
        for row in range(lo, hi):
            w_high = wd_end[row]
            a_high = ann_end[row]
            while w < w_high:
                self.record_withdrawal(prefix_at(trace.wd_prefix[w]))
                w += 1
                processed += 1
            while a < a_high:
                self.record_update(
                    prefix_at(trace.ann_prefix[a]),
                    path_at(attr_path[trace.ann_attr[a]]),
                )
                a += 1
        return processed

    def record_update(self, prefix: Prefix, new_path: ASPath) -> None:
        """Account for a path update (implicit withdrawal of the old path)."""
        old_links = self._links_of_prefix.get(prefix, ())
        if prefix in self._withdrawn_prefixes:
            self._withdrawn_prefixes.discard(prefix)
            self._total_withdrawals = max(0, self._total_withdrawals - 1)
            for link in old_links:
                self._withdrawn_for_link[link] = max(
                    0, self._withdrawn_for_link.get(link, 0) - 1
                )
        else:
            for link in old_links:
                self._routed_for_link[link] = max(0, self._routed_for_link.get(link, 0) - 1)
        new_links = self._links_for_path(new_path)
        self._links_of_prefix[prefix] = new_links
        for link in new_links:
            self._routed_for_link[link] = self._routed_for_link.get(link, 0) + 1
        if self._mirror is not None:
            self._mirror.set_path(prefix, new_path)

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
        links: Set[Link] = set(self._routed_for_link) | set(self._withdrawn_for_link)
        return sorted(links)

    def withdrawal_count(self, link: Link) -> int:
        """``W(l, t)`` for one link."""
        return self._withdrawn_for_link.get(_canonical(link), 0)

    def still_routed_count(self, link: Link) -> int:
        """``P(l, t)`` for one link."""
        return self._routed_for_link.get(_canonical(link), 0)

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
        """Metrics of a set of links, per the multi-link extension of §4.2."""
        canonical = tuple(sorted({_canonical(link) for link in links}))
        withdrawn = sum(self.withdrawal_count(link) for link in canonical)
        routed = sum(self.still_routed_count(link) for link in canonical)
        ws = (
            min(1.0, withdrawn / self._total_withdrawals)
            if self._total_withdrawals
            else 0.0
        )
        ps = withdrawn / (withdrawn + routed) if (withdrawn + routed) else 0.0
        return LinkScore(
            links=canonical,
            withdrawal_share=ws,
            path_share=ps,
            fit_score=self._combine(ws, ps),
            withdrawn_count=withdrawn,
            still_routed_count=routed,
        )

    def score_from_counts(
        self, links: Sequence[Link], withdrawn: int, routed: int
    ) -> LinkScore:
        """The engine's incremental-aggregation hook, answered the slow way.

        The running sums the engine hands over are ignored: the oracle
        re-sums every member link (:meth:`score_set`), which is what checks
        the production calculator's arithmetic shortcut.
        """
        return self.score_set(links)

    def all_scores(self, min_withdrawn: int = 1) -> List[LinkScore]:
        """Scores of every link with at least ``min_withdrawn`` withdrawals."""
        scores = [
            self.score(link)
            for link, withdrawn in self._withdrawn_for_link.items()
            if withdrawn >= min_withdrawn
        ]
        scores.sort(key=lambda item: (-item.fit_score, item.links))
        return scores

    def prefixes_via_links(self, links: Iterable[Link]) -> FrozenSet[Prefix]:
        """Prefixes whose current path traverses any of ``links`` (full scan)."""
        wanted = {_canonical(link) for link in links}
        result: Set[Prefix] = set()
        for prefix, prefix_links in self._links_of_prefix.items():
            for link in prefix_links:
                if link in wanted:
                    result.add(prefix)
                    break
        return frozenset(result)

    # -- internals ----------------------------------------------------------------

    def _links_for_path(self, path: ASPath) -> Tuple[Link, ...]:
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
        return tuple(unique)

    def _combine(self, ws: float, ps: float) -> float:
        if ws <= 0.0 or ps <= 0.0:
            return 0.0
        w_ws, w_ps = self.config.ws_weight, self.config.ps_weight
        return (ws ** w_ws * ps ** w_ps) ** (1.0 / (w_ws + w_ps))


def reference_engine(
    rib: Mapping[Prefix, ASPath],
    config: Optional[InferenceConfig] = None,
    local_as: Optional[int] = None,
    peer_as: Optional[int] = None,
) -> InferenceEngine:
    """An :class:`InferenceEngine` that scores every burst with the oracle.

    The factory closes over the engine so each burst's oracle mirrors its
    announcements into that engine's own persistent index.
    """
    config = config or InferenceConfig()

    def factory(current_rib: Mapping[Prefix, ASPath]) -> ReferenceFitScoreCalculator:
        return ReferenceFitScoreCalculator(
            current_rib,
            config=config.fit_score,
            local_as=local_as,
            peer_as=peer_as,
            mirror=engine.index,
        )

    engine = InferenceEngine(
        rib,
        config=config,
        local_as=local_as,
        peer_as=peer_as,
        calculator_factory=factory,
    )
    return engine
