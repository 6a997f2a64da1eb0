"""Synthetic BGP trace generation calibrated to the paper's measurements.

§2.2.1 of the paper characterises one month of RouteViews / RIS data (213
sessions): 3,335 bursts above 1,500 withdrawals (≈15.7 per session-month on
average), 16% above 10k withdrawals, 1.5% above 100k, the largest at ~560k;
37% of bursts last more than 10 s and 9.7% more than 30 s; a significant part
of the withdrawals arrives in the middle and tail of a burst; 84% of bursts
touch prefixes of popular organizations; background noise sits at ~9
withdrawals per 10 s at the 99.9th percentile.

:class:`SyntheticTraceGenerator` produces, per peering session, a RIB
snapshot plus a month-long message stream with those properties.  Each burst
is *internally consistent*: it corresponds to the failure of a specific AS
link in the session's AS-path structure, withdrawing (most of) the prefixes
routed across that link and re-announcing some of them over alternate paths —
which is exactly the structure the SWIFT inference algorithm exploits.

A generated trace has one form, :class:`SyntheticTrace`, returned by
:meth:`SyntheticTraceGenerator.stream`.  It is lazy per session: a cheap
planning pass fixes every burst's size, start time and private RNG seed, and
the (expensive) message lists are only built when a session is read.
:meth:`SyntheticTrace.iter_messages` merges a session's bursts and
background noise in timestamp order, materialising a burst only once the
merged clock reaches its planned start; :meth:`SyntheticTrace.messages_of`
drains that merge into one :class:`~repro.traces.columnar.ColumnarTrace`
per session (all sessions share one interning pool), and every burst's
``messages`` is a :class:`~repro.traces.columnar.ColumnarMessageView` of the
session rows it contributed.  :func:`cached_trace` persists those columns
with each burst's ground truth, so month-long traces are generated once and
reloaded in seconds, as the same type with the same contents.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import random
from array import array
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import BGPMessage, Update
from repro.bgp.prefix import Prefix
from repro.traces.collectors import CollectorPeer, build_collector_fleet
from repro.traces.columnar import (
    COLUMNAR_FORMAT_VERSION,
    TRACE_COLUMNS,
    ColumnarMessageView,
    ColumnarTrace,
    InternPool,
    decode_rib,
    encode_rib,
)
from repro.traces.columnar_store import CorruptColumnStoreError
from repro.traces.session_topology import SessionTopology, SessionTopologyConfig

__all__ = [
    "BurstPlan",
    "SyntheticBurst",
    "SyntheticTrace",
    "SyntheticTraceConfig",
    "SyntheticTraceGenerator",
    "cached_trace",
]

SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Knobs of the synthetic trace.

    The defaults are scaled down (fewer peers, smaller tables) so tests and
    examples run in seconds; :meth:`paper_scale` returns the month-long,
    213-session configuration matching §2.2.1 / §6.1.
    """

    peer_count: int = 20
    duration_days: float = 30.0
    bursts_per_session_month: float = 15.7
    burst_size_minimum: int = 1500
    burst_size_alpha: float = 0.96
    burst_size_maximum: int = 560000
    min_table_size: int = 4000
    max_table_size: int = 60000
    withdrawal_fraction: float = 0.8
    throughput_median: float = 500.0
    throughput_sigma: float = 1.2
    head_skew: float = 2.2
    noise_rate_per_second: float = 0.05
    flapping_peers: int = 0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.peer_count <= 0:
            raise ValueError("peer_count must be positive")
        if self.duration_days <= 0:
            raise ValueError("duration_days must be positive")
        if self.burst_size_minimum < 1:
            raise ValueError("burst_size_minimum must be at least 1")
        if not 0.0 < self.withdrawal_fraction <= 1.0:
            raise ValueError("withdrawal_fraction must be in (0, 1]")

    @classmethod
    def paper_scale(cls) -> "SyntheticTraceConfig":
        """The full-scale configuration of the paper (213 peers, big tables).

        Generating it takes minutes and several GB of memory; use it only for
        full reproduction runs, not in unit tests.
        """
        return cls(
            peer_count=213,
            duration_days=30.0,
            min_table_size=10000,
            max_table_size=600000,
            flapping_peers=5,
        )

    @property
    def duration_seconds(self) -> float:
        """Trace duration in seconds."""
        return self.duration_days * SECONDS_PER_DAY


@dataclass
class SyntheticBurst:
    """One generated burst with its ground truth.

    ``messages`` is a :class:`~repro.traces.columnar.ColumnarMessageView` of
    the session rows the burst contributed when it belongs to a
    :class:`SyntheticTrace`, and the built message list when it comes from
    :meth:`SyntheticTraceGenerator.generate_burst`.
    """

    peer: CollectorPeer
    start_time: float
    failed_link: Tuple[int, int]
    messages: Sequence[BGPMessage]
    withdrawn_prefixes: FrozenSet[Prefix]
    updated_prefixes: FrozenSet[Prefix]
    noise_prefixes: FrozenSet[Prefix]
    popular: bool

    @property
    def withdrawal_count(self) -> int:
        """Number of withdrawn prefixes (including noise withdrawals).

        A burst of a trace answers from the withdrawal bounds without
        materialising a single message object.
        """
        counter = getattr(self.messages, "withdrawal_count", None)
        if counter is not None:
            return counter()
        return sum(
            len(m.withdrawals) for m in self.messages if isinstance(m, Update)
        )

    @property
    def size(self) -> int:
        """Burst size as the paper counts it: withdrawn prefixes."""
        return self.withdrawal_count

    @property
    def duration(self) -> float:
        """Burst duration in seconds."""
        if len(self.messages) < 2:
            return 0.0
        last = getattr(self.messages, "last_timestamp", None)
        if last is not None:
            return last - self.messages.first_timestamp
        return self.messages[-1].timestamp - self.messages[0].timestamp

    @property
    def end_time(self) -> float:
        """Timestamp of the last message of the burst."""
        if not len(self.messages):
            return self.start_time
        last = getattr(self.messages, "last_timestamp", None)
        return last if last is not None else self.messages[-1].timestamp


@dataclass(frozen=True)
class BurstPlan:
    """The cheap, pre-drawn parameters of one burst.

    The planning pass fixes everything that determines a burst — its target
    size, start time and a private RNG seed for the message materialisation —
    without building a single message object.  Streaming replay materialises
    a plan only when the session clock reaches ``start_time``.
    """

    peer: CollectorPeer
    number: int
    target_size: int
    start_time: float
    seed: int


class SyntheticTraceGenerator:
    """Generates :class:`SyntheticTrace` objects and single bursts."""

    def __init__(self, config: Optional[SyntheticTraceConfig] = None) -> None:
        self.config = config or SyntheticTraceConfig()
        self._rng = random.Random(self.config.seed)

    # -- public API ----------------------------------------------------------

    def stream(self) -> "SyntheticTrace":
        """Return the trace; every session is built on first access."""
        config = self.config
        collectors = build_collector_fleet(
            peer_count=config.peer_count,
            seed=config.seed,
            min_table_size=config.min_table_size,
            max_table_size=config.max_table_size,
            flapping_peers=config.flapping_peers,
        )
        peers = [peer for collector in collectors for peer in collector.peers]
        return SyntheticTrace(self, peers)

    def generate_burst(
        self,
        topology: SessionTopology,
        target_size: int,
        start_time: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> Optional[SyntheticBurst]:
        """Generate a single burst of roughly ``target_size`` withdrawals.

        Exposed publicly so experiments can create individual bursts with a
        controlled size without generating a whole month of trace.
        Returns ``None`` when the session has no link carrying enough
        prefixes to host the requested burst size.
        """
        rng = rng or self._rng
        peer = CollectorPeer(
            collector="adhoc", peer_as=topology.peer_as, table_size=topology.prefix_count
        )
        return self._build_burst(peer, topology, target_size, start_time, rng)

    # -- internals -------------------------------------------------------------

    def _session_topology(self, peer: CollectorPeer, index: int) -> SessionTopology:
        """Build the AS-path topology of one session (O(table size))."""
        config = self.config
        return SessionTopology(
            SessionTopologyConfig(
                peer_as=peer.peer_as,
                total_prefixes=peer.table_size,
                seed=config.seed * 1009 + index,
                prefix_base_octet=20 + (index % 60),
                base_asn=10000 + index * 500,
            )
        )

    def _session_plans(self, peer: CollectorPeer, index: int) -> List[BurstPlan]:
        """Draw the burst plans of one session, sorted by start time.

        This is the cheap part of generation — a handful of RNG draws per
        burst.  Each plan carries its own materialisation seed so bursts can
        be built lazily, in any order, and still be deterministic.
        """
        config = self.config
        rng = random.Random(config.seed * 7919 + index)
        expected = (
            config.bursts_per_session_month
            * peer.activity_multiplier
            * (config.duration_days / 30.0)
        )
        count = _poisson(expected, rng)
        plans: List[BurstPlan] = []
        for number in range(count):
            target = self._draw_burst_size(rng)
            start = rng.uniform(0.0, config.duration_seconds)
            seed = rng.getrandbits(61)
            plans.append(
                BurstPlan(
                    peer=peer,
                    number=number,
                    target_size=target,
                    start_time=start,
                    seed=seed,
                )
            )
        plans.sort(key=lambda plan: plan.start_time)
        return plans

    def _materialise_burst(
        self, plan: BurstPlan, topology: SessionTopology
    ) -> Optional[SyntheticBurst]:
        """Build the messages of one planned burst (the expensive part)."""
        return self._build_burst(
            plan.peer,
            topology,
            plan.target_size,
            plan.start_time,
            random.Random(plan.seed),
        )

    def _draw_burst_size(self, rng: random.Random) -> int:
        """Draw a burst size from the calibrated Pareto distribution."""
        config = self.config
        size = config.burst_size_minimum * rng.paretovariate(config.burst_size_alpha)
        return int(min(size, config.burst_size_maximum))

    def _build_burst(
        self,
        peer: CollectorPeer,
        topology: SessionTopology,
        target_size: int,
        start_time: float,
        rng: random.Random,
    ) -> Optional[SyntheticBurst]:
        config = self.config
        link_counts = topology.link_prefix_counts()
        if not link_counts:
            return None
        # Pick the link whose prefix count best accommodates the target size;
        # prefer links at least as large as the target, fall back to the largest.
        candidates = [
            (link, count)
            for link, count in link_counts.items()
            if count >= max(target_size, config.burst_size_minimum)
        ]
        if candidates:
            # Among links big enough, prefer the smallest (tightest fit), with
            # randomisation among near-ties so different bursts hit different links.
            candidates.sort(key=lambda item: item[1])
            pool = candidates[: max(1, len(candidates) // 4)]
            link, available = pool[rng.randrange(len(pool))]
        else:
            link, available = max(link_counts.items(), key=lambda item: item[1])
        target_size = min(target_size, available)
        if target_size < config.burst_size_minimum:
            return None

        child = topology.child_of_link(link)
        failed_subtree = topology.subtree(child)
        affected = topology.prefixes_via_link(link)
        rng.shuffle(affected)

        withdrawn: List[Prefix] = []
        updated: List[Tuple[Prefix, ASPath]] = []
        for prefix in affected:
            if len(withdrawn) >= target_size and rng.random() < 0.8:
                break
            if rng.random() < config.withdrawal_fraction:
                withdrawn.append(prefix)
            else:
                origin = topology.origin_of(prefix)
                reroute = topology.reroute_path(origin, child, failed_subtree)
                if reroute is not None:
                    updated.append((prefix, reroute))
                else:
                    withdrawn.append(prefix)
        if len(withdrawn) < config.burst_size_minimum:
            return None

        # Noise: a handful of unrelated withdrawals mixed into the burst.
        affected_set = set(affected)
        unrelated = [prefix for prefix in topology.rib if prefix not in affected_set]
        rng.shuffle(unrelated)
        noise_count = _poisson(len(withdrawn) * 0.0005 + 1.0, rng)
        noise = unrelated[:noise_count]

        duration = self._draw_duration(len(withdrawn) + len(updated), rng)
        messages = self._pace_burst(
            peer.peer_as, withdrawn, updated, noise, start_time, duration, rng
        )
        popular = any(
            topology.origin_of(prefix) in topology.popular_asns
            for prefix in withdrawn[: min(len(withdrawn), 2000)]
        )
        return SyntheticBurst(
            peer=peer,
            start_time=start_time,
            failed_link=link,
            messages=messages,
            withdrawn_prefixes=frozenset(withdrawn),
            updated_prefixes=frozenset(prefix for prefix, _ in updated),
            noise_prefixes=frozenset(noise),
            popular=popular,
        )

    def _draw_duration(self, message_count: int, rng: random.Random) -> float:
        """Burst duration: size / throughput with log-normal throughput."""
        config = self.config
        throughput = math.exp(
            rng.gauss(math.log(config.throughput_median), config.throughput_sigma)
        )
        throughput = max(50.0, min(throughput, 50000.0))
        return max(0.5, message_count / throughput)

    def _pace_burst(
        self,
        peer_as: int,
        withdrawn: Sequence[Prefix],
        updated: Sequence[Tuple[Prefix, ASPath]],
        noise: Sequence[Prefix],
        start_time: float,
        duration: float,
        rng: random.Random,
    ) -> List[BGPMessage]:
        """Interleave withdrawals, updates and noise over the burst duration."""
        config = self.config
        events: List[Tuple[str, object]] = [("withdraw", p) for p in withdrawn]
        events.extend(("update", item) for item in updated)
        events.extend(("withdraw", p) for p in noise)
        rng.shuffle(events)
        messages: List[BGPMessage] = []
        for kind, payload in events:
            position = rng.random() ** config.head_skew
            timestamp = start_time + position * duration
            if kind == "withdraw":
                messages.append(Update.withdraw(timestamp, peer_as, payload))  # type: ignore[arg-type]
            else:
                prefix, path = payload  # type: ignore[misc]
                attributes = PathAttributes(as_path=path, next_hop=peer_as)
                messages.append(Update.announce(timestamp, peer_as, prefix, attributes))
        messages.sort(key=lambda m: m.timestamp)
        return messages

    def _background_stream(
        self, peer: CollectorPeer, topology: SessionTopology, index: int
    ) -> Iterator[BGPMessage]:
        """Low-rate unrelated withdrawals/announcements across the whole trace.

        Generated lazily as a Poisson process (exponential inter-arrivals),
        so the messages come out in timestamp order without ever holding the
        whole month in memory.  The rate is chosen so that quiet 10 s windows
        carry well under the paper's 1,500-withdrawal burst-start threshold
        (the observed noise floor is ~9 withdrawals per 10 s at the 90th
        percentile).
        """
        config = self.config
        rng = random.Random(config.seed * 104729 + index)
        if config.noise_rate_per_second <= 0:
            return
        prefixes = list(topology.rib)
        if not prefixes:
            return
        clock = 0.0
        emitted = 0
        # Cap the background volume so month-long traces stay tractable.
        while emitted < 200000:
            clock += rng.expovariate(config.noise_rate_per_second)
            if clock >= config.duration_seconds:
                return
            prefix = prefixes[rng.randrange(len(prefixes))]
            if rng.random() < 0.5:
                yield Update.withdraw(clock, peer.peer_as, prefix)
            else:
                path = topology.rib[prefix]
                attributes = PathAttributes(as_path=path, next_hop=peer.peer_as)
                yield Update.announce(clock, peer.peer_as, prefix, attributes)
            emitted += 1


class SyntheticTrace:
    """A generated multi-session trace: one columnar stream per session.

    Built by :meth:`SyntheticTraceGenerator.stream` and lazy per session:
    a session's topology, burst plans and rows are built on first access.
    :meth:`iter_messages` is the object merge of the session's bursts and
    background noise in timestamp order; :meth:`messages_of` drains it once
    into a :class:`~repro.traces.columnar.ColumnarTrace` over the pool every
    session shares, and each burst of :meth:`bursts_of` keeps its ground
    truth with a view of the rows it contributed.  :meth:`to_payload` /
    :meth:`from_payload` carry the drained form through the trace cache
    (:func:`cached_trace`).
    """

    def __init__(
        self, generator: SyntheticTraceGenerator, peers: List[CollectorPeer]
    ) -> None:
        self._generator = generator
        self.config = generator.config
        self.peers = peers
        self._index_of = {peer.peer_as: index for index, peer in enumerate(peers)}
        self._pool = InternPool()
        self._topologies: Dict[int, SessionTopology] = {}
        self._plans: Dict[int, List[BurstPlan]] = {}
        self._ribs: Dict[int, Dict[Prefix, ASPath]] = {}
        #: RIB columns of a reloaded trace, decoded by :meth:`rib_of`.
        self._rib_columns: Dict[int, Tuple[array, array]] = {}
        self._sessions: Dict[int, Tuple[ColumnarTrace, List[SyntheticBurst]]] = {}

    # -- per-session state ---------------------------------------------------

    def topology_of(self, peer_as: int) -> SessionTopology:
        """The session's AS-path topology (built on first access)."""
        topology = self._topologies.get(peer_as)
        if topology is None:
            index = self._index_of[peer_as]
            topology = self._generator._session_topology(self.peers[index], index)
            self._topologies[peer_as] = topology
        return topology

    def rib_of(self, peer_as: int) -> Dict[Prefix, ASPath]:
        """Pre-trace RIB snapshot of a session (one dict per session)."""
        rib = self._ribs.get(peer_as)
        if rib is None:
            columns = self._rib_columns.pop(peer_as, None)
            if columns is None:
                rib = self.topology_of(peer_as).rib
            else:
                rib = decode_rib(columns[0], columns[1], self._pool)
            self._ribs[peer_as] = rib
        return rib

    def plans_of(self, peer_as: int) -> List[BurstPlan]:
        """The session's burst plans, sorted by start time (cheap to draw)."""
        plans = self._plans.get(peer_as)
        if plans is None:
            index = self._index_of[peer_as]
            plans = self._generator._session_plans(self.peers[index], index)
            self._plans[peer_as] = plans
        return plans

    def messages_of(self, peer_as: int) -> ColumnarTrace:
        """The session's full message stream (bursts + noise) as columns."""
        return self._session(peer_as)[0]

    def bursts_of(self, peer_as: int) -> List[SyntheticBurst]:
        """All bursts generated on one session, in start order."""
        return list(self._session(peer_as)[1])

    @property
    def bursts(self) -> List[SyntheticBurst]:
        """Every session's bursts, in start order."""
        bursts = [
            burst for peer in self.peers for burst in self._session(peer.peer_as)[1]
        ]
        bursts.sort(key=lambda burst: burst.start_time)
        return bursts

    # -- the merge -------------------------------------------------------------

    def iter_messages(self, peer_as: int) -> Iterator[BGPMessage]:
        """The session's full message stream (bursts + noise), lazily merged.

        Messages come out in timestamp order.  A burst is only materialised
        when the merged clock reaches its planned start time, so consuming
        the head of a month-long stream does not pay for its tail.
        """
        for message, _ in self._merge(peer_as):
            yield message

    def _merge(
        self, peer_as: int
    ) -> Iterator[Tuple[BGPMessage, Optional[SyntheticBurst]]]:
        """:meth:`iter_messages`, each message with its burst (``None`` for noise)."""
        index = self._index_of[peer_as]
        topology = self.topology_of(peer_as)
        generator = self._generator
        pending = deque(self.plans_of(peer_as))
        heap: List[
            Tuple[float, int, BGPMessage, Iterator[BGPMessage], Optional[SyntheticBurst]]
        ] = []
        counter = itertools.count()

        def push(iterator: Iterator[BGPMessage], burst: Optional[SyntheticBurst]) -> None:
            for message in iterator:
                heapq.heappush(
                    heap, (message.timestamp, next(counter), message, iterator, burst)
                )
                return

        push(generator._background_stream(self.peers[index], topology, index), None)
        while heap or pending:
            # Materialise every burst that could out-date the earliest
            # queued message (burst messages never precede their start).
            while pending and (not heap or pending[0].start_time <= heap[0][0]):
                burst = generator._materialise_burst(pending.popleft(), topology)
                if burst is not None:
                    push(iter(burst.messages), burst)
            if not heap:
                continue
            _, _, message, iterator, burst = heapq.heappop(heap)
            yield message, burst
            push(iterator, burst)

    def _session(self, peer_as: int) -> Tuple[ColumnarTrace, List[SyntheticBurst]]:
        """Drain the session's merge into columns, once.

        A burst's message list lives only in the merge: the burst itself
        holds a view of the rows it contributed from its first message on,
        a range when no other message came between them.
        """
        session = self._sessions.get(peer_as)
        if session is not None:
            return session
        columns = ColumnarTrace(pool=self._pool)
        append = columns.append
        rows_of: Dict[int, array] = {}
        bursts: List[SyntheticBurst] = []
        for message, burst in self._merge(peer_as):
            if burst is not None:
                rows = rows_of.get(id(burst))
                if rows is None:
                    rows = rows_of[id(burst)] = array("I")
                    burst.messages = ColumnarMessageView(columns, rows)
                    bursts.append(burst)
                rows.append(len(columns))
            append(message)
        for burst in bursts:
            rows = burst.messages.indices
            if rows[-1] - rows[0] + 1 == len(rows):
                burst.messages = ColumnarMessageView(columns, range(rows[0], rows[-1] + 1))
        bursts.sort(key=lambda burst: burst.start_time)
        session = self._sessions[peer_as] = (columns, bursts)
        return session

    # -- the cache entry -------------------------------------------------------

    def to_payload(self) -> dict:
        """Drain every session and export it as plain buffers.

        One pool for all sessions; per session its column buffers, its RIB
        as (prefix, path) index columns and each burst's ground truth with
        its rows (a ``range``, or an index array when noise or another
        burst came between them).
        """
        pool = self._pool
        intern_prefix = pool.intern_prefix

        def prefixes(values: FrozenSet[Prefix]) -> bytes:
            return array("I", map(intern_prefix, values)).tobytes()

        drained = [self._session(peer.peer_as) for peer in self.peers]
        sessions = []
        for peer, (columns, bursts) in zip(self.peers, drained):
            rib_prefixes, rib_paths = encode_rib(self.rib_of(peer.peer_as), pool)
            sessions.append(
                (
                    {name: getattr(columns, name).tobytes() for name, _ in TRACE_COLUMNS},
                    dict(columns.extras),
                    rib_prefixes.tobytes(),
                    rib_paths.tobytes(),
                    [
                        (
                            burst.start_time,
                            burst.failed_link,
                            burst.messages.indices,
                            prefixes(burst.withdrawn_prefixes),
                            prefixes(burst.updated_prefixes),
                            prefixes(burst.noise_prefixes),
                            burst.popular,
                        )
                        for burst in bursts
                    ],
                )
            )
        return {
            "config": self.config,
            "peers": self.peers,
            "pool": pool.to_payload(),
            "sessions": sessions,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SyntheticTrace":
        """Rebuild a drained trace from :meth:`to_payload` buffers.

        Raises :class:`~repro.traces.columnar_store.CorruptColumnStoreError`
        for a payload whose bursts do not fit their session
        (:func:`_check_burst_rows`), so the cache quarantines the entry and
        rebuilds it.
        """
        pool = InternPool.from_payload(payload["pool"])
        prefix_at = pool.prefix_at

        def column(buffer: bytes, typecode: str = "I") -> array:
            values = array(typecode)
            values.frombytes(buffer)
            return values

        def prefixes(buffer: bytes) -> FrozenSet[Prefix]:
            return frozenset(map(prefix_at, column(buffer)))

        trace = cls(SyntheticTraceGenerator(payload["config"]), payload["peers"])
        trace._pool = pool
        for peer, (buffers, extras, rib_prefixes, rib_paths, bursts) in zip(
            trace.peers, payload["sessions"]
        ):
            columns = ColumnarTrace(pool=pool)
            for name, typecode in TRACE_COLUMNS:
                setattr(columns, name, column(buffers[name], typecode))
            columns.extras = extras
            for number, (_, _, rows, withdrawn, _, noise, _) in enumerate(bursts):
                _check_burst_rows(
                    columns, rows, column(withdrawn) + column(noise), f"{peer.peer_as}/{number}"
                )
            trace._rib_columns[peer.peer_as] = (column(rib_prefixes), column(rib_paths))
            trace._sessions[peer.peer_as] = (
                columns,
                [
                    SyntheticBurst(
                        peer=peer,
                        start_time=start_time,
                        failed_link=failed_link,
                        messages=ColumnarMessageView(columns, rows),
                        withdrawn_prefixes=prefixes(withdrawn),
                        updated_prefixes=prefixes(updated),
                        noise_prefixes=prefixes(noise),
                        popular=popular,
                    )
                    for start_time, failed_link, rows, withdrawn, updated, noise, popular in bursts
                ],
            )
        return trace


def _check_burst_rows(
    columns: ColumnarTrace, rows: Sequence[int], withdrawn: array, name: str
) -> None:
    """Refuse a burst whose rows are not an increasing run of its session's
    rows, or whose withdrawal rows withdraw other prefixes than its
    withdrawn and noise prefixes (``withdrawn``, as pool indices)."""
    if not rows or rows[0] < 0 or rows[-1] >= len(columns):
        raise CorruptColumnStoreError(f"burst {name}: rows outside its session")
    # Row i withdraws wd_prefix[wd_end[i - 1]:wd_end[i]].
    wd_end, wd_prefix = columns.wd_end, columns.wd_prefix
    if type(rows) is range and rows.step == 1:
        # Contiguous rows (every burst no other row interleaved): one slice.
        first = rows[0]
        seen = set(wd_prefix[wd_end[first - 1] if first else 0 : wd_end[rows[-1]]])
    else:
        if not all(map(operator.lt, rows, itertools.islice(rows, 1, None))):
            raise CorruptColumnStoreError(f"burst {name}: rows not increasing")
        seen = set()
        for row in rows:
            seen.update(wd_prefix[wd_end[row - 1] if row else 0 : wd_end[row]])
    if seen != set(withdrawn):
        raise CorruptColumnStoreError(f"burst {name}: withdrawals differ from its prefixes")


def cached_trace(config: Optional[SyntheticTraceConfig] = None) -> SyntheticTrace:
    """Generate (or reload from the on-disk cache) a multi-session trace.

    The trace is a pure function of its configuration, so the entry under
    ``.trace_cache/`` — keyed by the config's full fingerprint plus the
    cache and columnar format versions — is always valid for the running
    code; see :mod:`repro.traces.trace_cache`.  The entry is
    :meth:`SyntheticTrace.to_payload`: a miss drains every session to write
    it, a hit restores the columns at memcpy cost.  Both return a
    :class:`SyntheticTrace` with the same contents.
    """
    from repro.traces.trace_cache import fingerprint, load_or_build

    config = config or SyntheticTraceConfig()
    return load_or_build(
        "trace",
        fingerprint(config),
        SyntheticTraceGenerator(config).stream,
        format_version=COLUMNAR_FORMAT_VERSION,
        encode=SyntheticTrace.to_payload,
        decode=SyntheticTrace.from_payload,
    )


def _poisson(mean: float, rng: random.Random) -> int:
    """Draw a Poisson variate (Knuth for small means, normal approx for large)."""
    if mean <= 0:
        return 0
    if mean > 50:
        return max(0, int(round(rng.gauss(mean, math.sqrt(mean)))))
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count
