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

Generation is *streaming-first*: :meth:`SyntheticTraceGenerator.stream`
returns a :class:`SyntheticTraceStream` whose per-session message iterators
materialise bursts and background noise lazily, in timestamp order — a cheap
planning pass fixes every burst's size, start time and private RNG seed, and
the (expensive) message lists are only built when the replay clock reaches
each burst.  The eager API is a thin wrapper: ``generate()`` simply drains
the stream (:meth:`SyntheticTraceStream.materialise`) into a
:class:`SyntheticTrace`, so the two paths produce identical traces.  For the
benchmark corpus, :mod:`repro.traces.trace_cache` adds an on-disk
memoisation layer so month-long traces are generated once and reloaded in
seconds.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import BGPMessage, Update
from repro.bgp.prefix import Prefix
from repro.traces.collectors import Collector, CollectorPeer, build_collector_fleet
from repro.traces.columnar import (
    COLUMNAR_FORMAT_VERSION,
    ColumnarMessageView,
    ColumnarTrace,
    InternPool,
    decode_rib,
    encode_rib,
)
from repro.traces.session_topology import SessionTopology, SessionTopologyConfig

__all__ = [
    "BurstPlan",
    "ColumnarSyntheticTrace",
    "SyntheticBurst",
    "SyntheticTrace",
    "SyntheticTraceConfig",
    "SyntheticTraceGenerator",
    "SyntheticTraceStream",
    "cached_columnar_stream",
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
    reannounce_delay: float = 300.0
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
    """One generated burst with its ground truth."""

    peer: CollectorPeer
    start_time: float
    failed_link: Tuple[int, int]
    messages: List[BGPMessage]
    withdrawn_prefixes: FrozenSet[Prefix]
    updated_prefixes: FrozenSet[Prefix]
    noise_prefixes: FrozenSet[Prefix]
    popular: bool

    @property
    def withdrawal_count(self) -> int:
        """Number of withdrawn prefixes (including noise withdrawals).

        Column-backed bursts (cache reloads) answer from the withdrawal
        bounds without materialising a single message object.
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


@dataclass
class SyntheticTrace:
    """A generated multi-session trace."""

    config: SyntheticTraceConfig
    peers: List[CollectorPeer]
    topologies: Dict[int, SessionTopology]
    bursts: List[SyntheticBurst]
    background: Dict[int, List[BGPMessage]] = field(default_factory=dict)

    def rib_of(self, peer_as: int) -> Dict[Prefix, ASPath]:
        """Pre-trace RIB snapshot of a session."""
        return self.topologies[peer_as].rib

    def bursts_of(self, peer_as: int) -> List[SyntheticBurst]:
        """All bursts generated on one session, in time order."""
        return sorted(
            (burst for burst in self.bursts if burst.peer.peer_as == peer_as),
            key=lambda burst: burst.start_time,
        )

    def messages_of(self, peer_as: int) -> List[BGPMessage]:
        """The full message stream of one session (bursts + noise), sorted."""
        messages: List[BGPMessage] = list(self.background.get(peer_as, []))
        for burst in self.bursts_of(peer_as):
            messages.extend(burst.messages)
        messages.sort(key=lambda m: m.timestamp)
        return messages

    @property
    def burst_count(self) -> int:
        """Total number of generated bursts."""
        return len(self.bursts)


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
    """Generates :class:`SyntheticTrace` / :class:`SyntheticTraceStream` objects."""

    def __init__(self, config: Optional[SyntheticTraceConfig] = None) -> None:
        self.config = config or SyntheticTraceConfig()
        self._rng = random.Random(self.config.seed)

    # -- public API ----------------------------------------------------------

    def stream(self) -> "SyntheticTraceStream":
        """Return a lazy, per-session view of the trace (streaming-first API)."""
        config = self.config
        collectors = build_collector_fleet(
            peer_count=config.peer_count,
            seed=config.seed,
            min_table_size=config.min_table_size,
            max_table_size=config.max_table_size,
            flapping_peers=config.flapping_peers,
        )
        peers = [peer for collector in collectors for peer in collector.peers]
        return SyntheticTraceStream(self, peers)

    def generate(self) -> SyntheticTrace:
        """Generate the full multi-session trace eagerly.

        Thin wrapper over the streaming path: equivalent to
        ``self.stream().materialise()``, kept as the convenient API for
        callers that want every burst and message in memory.
        """
        return self.stream().materialise()

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


class SyntheticTraceStream:
    """A lazy, per-session view of a synthetic trace.

    Topologies and burst plans are built per session on first access; the
    message iterators merge each session's bursts and background noise in
    timestamp order, materialising a burst's messages only once the replay
    clock reaches its planned start.  Replaying a month of one session
    therefore starts yielding messages immediately and keeps at most a few
    in-flight bursts in memory, instead of paying the full eager generation
    (~minutes for the benchmark corpus) upfront.

    :meth:`materialise` drains the stream into the eager
    :class:`SyntheticTrace`; both paths draw from the same per-burst RNG
    seeds, so they produce identical traces.
    """

    def __init__(
        self, generator: SyntheticTraceGenerator, peers: List[CollectorPeer]
    ) -> None:
        self._generator = generator
        self.config = generator.config
        self.peers = peers
        self._index_of = {peer.peer_as: index for index, peer in enumerate(peers)}
        self._topologies: Dict[int, SessionTopology] = {}
        self._plans: Dict[int, List[BurstPlan]] = {}

    # -- lazy per-session state ----------------------------------------------

    def topology_of(self, peer_as: int) -> SessionTopology:
        """The session's AS-path topology (built on first access)."""
        topology = self._topologies.get(peer_as)
        if topology is None:
            index = self._index_of[peer_as]
            topology = self._generator._session_topology(self.peers[index], index)
            self._topologies[peer_as] = topology
        return topology

    def rib_of(self, peer_as: int) -> Dict[Prefix, ASPath]:
        """Pre-trace RIB snapshot of a session."""
        return self.topology_of(peer_as).rib

    def plans_of(self, peer_as: int) -> List[BurstPlan]:
        """The session's burst plans, sorted by start time (cheap to draw)."""
        plans = self._plans.get(peer_as)
        if plans is None:
            index = self._index_of[peer_as]
            plans = self._generator._session_plans(self.peers[index], index)
            self._plans[peer_as] = plans
        return plans

    # -- streaming ------------------------------------------------------------

    def iter_bursts(self, peer_as: int) -> Iterator[SyntheticBurst]:
        """Materialise the session's bursts one at a time, in start order."""
        topology = self.topology_of(peer_as)
        for plan in self.plans_of(peer_as):
            burst = self._generator._materialise_burst(plan, topology)
            if burst is not None:
                yield burst

    def iter_messages(self, peer_as: int) -> Iterator[BGPMessage]:
        """The session's full message stream (bursts + noise), lazily merged.

        Messages come out in timestamp order.  A burst is only materialised
        when the merged clock reaches its planned start time, so consuming
        the head of a month-long stream does not pay for its tail.
        """
        index = self._index_of[peer_as]
        peer = self.peers[index]
        topology = self.topology_of(peer_as)
        pending = deque(self.plans_of(peer_as))
        heap: List[Tuple[float, int, BGPMessage, Iterator[BGPMessage]]] = []
        counter = itertools.count()

        def push(iterator: Iterator[BGPMessage]) -> None:
            for message in iterator:
                heapq.heappush(
                    heap, (message.timestamp, next(counter), message, iterator)
                )
                return

        push(self._generator._background_stream(peer, topology, index))
        while heap or pending:
            # Materialise every burst that could out-date the earliest
            # queued message (burst messages never precede their start).
            while pending and (not heap or pending[0].start_time <= heap[0][0]):
                burst = self._generator._materialise_burst(
                    pending.popleft(), topology
                )
                if burst is not None and burst.messages:
                    push(iter(burst.messages))
            if not heap:
                continue
            _, _, message, iterator = heapq.heappop(heap)
            yield message
            push(iterator)

    def columnar_messages(
        self, peer_as: int, pool: Optional[InternPool] = None
    ) -> ColumnarTrace:
        """Drain one session's full stream straight into a columnar writer.

        The per-burst message lists are materialised one at a time by
        :meth:`iter_messages` and appended to the columns immediately, so at
        no point does the month-long object stream exist in memory — this is
        the builder behind :func:`cached_columnar_stream`.
        """
        trace = ColumnarTrace(pool=pool)
        append = trace.append
        for message in self.iter_messages(peer_as):
            append(message)
        return trace

    # -- eager drain -----------------------------------------------------------

    def materialise(self) -> SyntheticTrace:
        """Drain the whole stream into an eager :class:`SyntheticTrace`."""
        topologies: Dict[int, SessionTopology] = {}
        bursts: List[SyntheticBurst] = []
        background: Dict[int, List[BGPMessage]] = {}
        for index, peer in enumerate(self.peers):
            topology = self.topology_of(peer.peer_as)
            topologies[peer.peer_as] = topology
            bursts.extend(self.iter_bursts(peer.peer_as))
            background[peer.peer_as] = list(
                self._generator._background_stream(peer, topology, index)
            )
        bursts.sort(key=lambda burst: burst.start_time)
        return SyntheticTrace(
            config=self.config,
            peers=self.peers,
            topologies=topologies,
            bursts=bursts,
            background=background,
        )


class ColumnarSyntheticTrace(SyntheticTrace):
    """A cache-reloaded trace whose heavy state lives in columns.

    Behaves like :class:`SyntheticTrace` — same bursts, RIBs and message
    streams — but burst/background message lists are lazy
    :class:`~repro.traces.columnar.ColumnarMessageView`\\ s over shared
    columns and per-session RIBs decode on first access.  ``topologies`` is
    intentionally empty: the cache stores RIB columns, not the generator's
    internal tree structures.
    """

    def __init__(
        self,
        config: SyntheticTraceConfig,
        peers: List[CollectorPeer],
        bursts: List[SyntheticBurst],
        background: Dict[int, List[BGPMessage]],
        pool: InternPool,
        rib_columns: Dict[int, Tuple],
    ) -> None:
        super().__init__(
            config=config,
            peers=peers,
            topologies={},
            bursts=bursts,
            background=background,
        )
        self._pool = pool
        self._rib_columns = rib_columns
        self._rib_cache: Dict[int, Dict[Prefix, ASPath]] = {}

    def rib_of(self, peer_as: int) -> Dict[Prefix, ASPath]:
        """Pre-trace RIB snapshot of a session (decoded once, then memoised)."""
        rib = self._rib_cache.get(peer_as)
        if rib is None:
            prefix_column, path_column = self._rib_columns[peer_as]
            rib = self._rib_cache[peer_as] = decode_rib(
                prefix_column, path_column, self._pool
            )
        return rib


def _encode_trace(trace: SyntheticTrace) -> dict:
    """Encode an eager trace as a columnar payload (see ``cached_trace``).

    Bursts and every session's background stream share one
    :class:`ColumnarTrace` (and so one pool, which also interns the RIBs);
    the payload holds its :meth:`~ColumnarTrace.to_payload` buffers plus
    row ranges into it.
    """
    columns = ColumnarTrace()
    intern_prefix = columns.pool.intern_prefix
    burst_rows = []
    for burst in trace.bursts:
        start = columns.message_count
        columns.extend(burst.messages)
        burst_rows.append(
            (
                burst.peer,
                burst.start_time,
                burst.failed_link,
                start,
                columns.message_count,
                array("I", map(intern_prefix, burst.withdrawn_prefixes)),
                array("I", map(intern_prefix, burst.updated_prefixes)),
                array("I", map(intern_prefix, burst.noise_prefixes)),
                burst.popular,
            )
        )
    background = {}
    for peer_as, messages in trace.background.items():
        if messages:
            start = columns.message_count
            columns.extend(messages)
            background[peer_as] = (start, columns.message_count)
    ribs = {
        peer.peer_as: encode_rib(trace.rib_of(peer.peer_as), columns.pool)
        for peer in trace.peers
    }
    return {
        "config": trace.config,
        "peers": trace.peers,
        "columns": columns.to_payload(),
        "bursts": burst_rows,
        "background": background,
        "ribs": ribs,
    }


def _decode_trace(payload: dict) -> ColumnarSyntheticTrace:
    """Rebuild a (lazy) trace from its columnar payload."""
    columns = ColumnarTrace.from_payload(payload["columns"])
    prefix_at = columns.pool.prefix_at
    bursts: List[SyntheticBurst] = []
    for (
        peer,
        start_time,
        failed_link,
        message_start,
        message_stop,
        withdrawn,
        updated,
        noise,
        popular,
    ) in payload["bursts"]:
        bursts.append(
            SyntheticBurst(
                peer=peer,
                start_time=start_time,
                failed_link=failed_link,
                messages=ColumnarMessageView(
                    columns, range(message_start, message_stop)
                ),
                withdrawn_prefixes=frozenset(map(prefix_at, withdrawn)),
                updated_prefixes=frozenset(map(prefix_at, updated)),
                noise_prefixes=frozenset(map(prefix_at, noise)),
                popular=popular,
            )
        )
    background = {
        peer_as: columns.view(range(start, stop))
        for peer_as, (start, stop) in payload["background"].items()
    }
    return ColumnarSyntheticTrace(
        config=payload["config"],
        peers=payload["peers"],
        bursts=bursts,
        background=background,
        pool=columns.pool,
        rib_columns=payload["ribs"],
    )


def cached_trace(config: Optional[SyntheticTraceConfig] = None) -> SyntheticTrace:
    """Generate (or reload from the on-disk cache) a multi-session trace.

    The trace is a pure function of its configuration, so the entry under
    ``.trace_cache/`` — keyed by the config's full fingerprint plus the
    cache and columnar format versions — is always valid for the running
    code; see :mod:`repro.traces.trace_cache`.  The persisted form is a
    columnar payload (arrays of primitives restoring at memcpy speed), so a
    reload costs array restores plus lazy decoding instead of unpickling
    millions of message objects; the first call pays the full generation
    and returns the eager trace, later sessions get an equivalent
    :class:`ColumnarSyntheticTrace`.
    """
    from repro.traces.trace_cache import fingerprint, load_or_build

    config = config or SyntheticTraceConfig()
    return load_or_build(
        "trace",
        fingerprint(config),
        lambda: SyntheticTraceGenerator(config).generate(),
        format_version=COLUMNAR_FORMAT_VERSION,
        encode=_encode_trace,
        decode=_decode_trace,
    )


def cached_columnar_stream(
    config: SyntheticTraceConfig, peer_as: int
) -> ColumnarTrace:
    """The full columnar message stream of one session, memoised on disk.

    The natural input of the month-replay drivers.  The entry is the
    stream's :meth:`~repro.traces.columnar.ColumnarTrace.to_payload`
    buffers, so a reload is one ``frombytes`` per column and replay
    consumes :meth:`~repro.traces.columnar.ColumnarTrace.iter_batches`
    without ever materialising the object stream.
    """
    from repro.traces.trace_cache import fingerprint, load_or_build

    return load_or_build(
        "stream",
        f"{fingerprint(config)}|peer={peer_as}",
        lambda: SyntheticTraceGenerator(config).stream().columnar_messages(peer_as),
        format_version=COLUMNAR_FORMAT_VERSION,
        encode=ColumnarTrace.to_payload,
        decode=ColumnarTrace.from_payload,
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
