"""The burst corpus shared by ``burst_replay``, ``relay_per_message`` and
``live_ingest``: sessions that fail, reroute and heal.

Built from the program's own generator entry points —
:class:`~repro.traces.synthetic.SyntheticTraceGenerator` for the session's
AS topology and :meth:`~SyntheticTraceGenerator.generate_burst` for every
burst — but *not* from its month-long stream: that stream draws the burst
count from a Poisson law scaled by a per-seed activity multiplier (9 to 66
bursts a month over three seeds) and never re-announces a withdrawn prefix,
so neither its size nor what a late burst does to the table is comparable
from one seed to the next.  Here:

* the **topology is a workload constant** (``topology_seed`` in the sizes):
  how many prefixes share a link decides how large a reroute is, link sizes
  differ several-fold between topologies, and a latency percentile over a
  dozen reroutes on one topology cannot be compared with another's;
* the **bursts are a fixed catalogue**: log-spaced size targets (small and
  large reroutes are both present in every run), and each burst's content —
  which link fails, which of its prefixes are withdrawn and which re-routed,
  in what order and how fast — is drawn from the topology seed and the
  burst's place in the ladder, not from ``--seed``.  A run has some fifteen
  reroutes; which links an inference names (one, or an aggregate of four)
  changes a reroute's cost two-fold, and with freshly drawn bursts the p90
  over those fifteen ranged over 52% across ten seeds of the same code;
* ``--seed`` draws the order in which the catalogue is played, the start
  times and the quiet-time flaps between bursts;
* after each burst BGP *converges*: every touched prefix is re-announced on
  its original path, so each burst hits a full table.

A corpus is a list of steps: ``("rows", chunk)`` hands the program a
columnar chunk of at most ``chunk_rows`` rows, ``("converged", None)`` marks
the point where a deployment withdraws its SWIFT rules
(:meth:`SwiftedRouter.clear_reroutes`).  Chunks never straddle that point,
nor the start of a burst.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.prefix import Prefix
from repro.experiments.month_replay import backup_alternates
from repro.traces.columnar import ColumnarTrace, InternPool
from repro.traces.synthetic import SyntheticTraceConfig, SyntheticTraceGenerator

__all__ = ["BURST_MINIMUM", "Session", "build_sessions", "burst_ladder"]

#: Smallest burst generated.  The inference's first trigger is at 2,500
#: withdrawals (the paper's schedule), so a smaller burst never reroutes.
BURST_MINIMUM = 2600

Step = Tuple[str, Optional[ColumnarTrace]]


@dataclass
class Session:
    """One peering session's tables and its step list."""

    peer_as: int
    rib: Dict[Prefix, ASPath]
    #: The surviving two-hop alternates announced by the backup session.
    backup_rib: Dict[Prefix, ASPath]
    steps: List[Step]
    rows: int


def burst_ladder(count: int, low: int, high: int) -> List[int]:
    """``count`` log-spaced burst-size targets from ``low`` to ``high``."""
    if count == 1:
        return [low]
    ratio = high / low
    return [int(round(low * ratio ** (index / (count - 1)))) for index in range(count)]


def _chunks(trace: ColumnarTrace, chunk_rows: int) -> List[Step]:
    return [
        ("rows", trace.slice(start, min(start + chunk_rows, len(trace))))
        for start in range(0, len(trace), chunk_rows)
    ]


def build_sessions(seed: int, sizes: Mapping[str, object]) -> List[Session]:
    """The sessions of one corpus (``sizes['ladders']`` has one ladder each).

    ``sizes`` keys: ``table`` (prefixes per session), ``topology_seed``,
    ``ladders`` (one list of burst-size targets per session; an empty list
    gives a session that only carries noise), ``chunk_rows``, ``noise_pairs``
    (quiet withdraw / re-announce pairs before the first burst and after
    each one) and ``heal`` (re-announce after a burst, default true).
    """
    ladders: List[List[int]] = sizes["ladders"]  # type: ignore[assignment]
    table = int(sizes["table"])  # type: ignore[arg-type]
    config = SyntheticTraceConfig(
        peer_count=len(ladders),
        min_table_size=table,
        max_table_size=table,
        burst_size_minimum=BURST_MINIMUM,
        seed=int(sizes["topology_seed"]),  # type: ignore[arg-type]
    )
    generator = SyntheticTraceGenerator(config)
    stream = generator.stream()
    sessions = []
    for index, (peer, ladder) in enumerate(zip(stream.peers, ladders)):
        rng = random.Random(seed * 7919 + index)
        sessions.append(
            _build_session(generator, stream.topology_of(peer.peer_as), ladder, rng, sizes)
        )
    return sessions


def _build_session(generator, topology, ladder, rng, sizes) -> Session:
    """One session: ``rng`` (from ``--seed``) orders and spaces the catalogue."""
    peer_as = topology.peer_as
    rib = topology.rib
    prefixes = list(rib)
    chunk_rows = int(sizes["chunk_rows"])
    noise_pairs = int(sizes["noise_pairs"])
    heal = bool(sizes.get("heal", True))
    pool = InternPool()
    attributes_of: Dict[Tuple[int, ...], PathAttributes] = {}

    def original(prefix: Prefix) -> PathAttributes:
        path = rib[prefix]
        attributes = attributes_of.get(path.asns)
        if attributes is None:
            attributes = attributes_of[path.asns] = PathAttributes(
                as_path=path, next_hop=peer_as
            )
        return attributes

    def quiet(trace: ColumnarTrace, clock: float) -> float:
        """Unrelated flaps at a rate far below the detector's threshold."""
        for _ in range(noise_pairs):
            prefix = prefixes[rng.randrange(len(prefixes))]
            trace.withdraw(clock, peer_as, prefix)
            trace.announce(clock + 4.0, peer_as, prefix, original(prefix))
            clock += 9.0 + rng.random()
        return clock

    steps: List[Step] = []
    rows = 0

    def hand_over(trace: ColumnarTrace) -> None:
        nonlocal rows
        rows += len(trace)
        steps.extend(_chunks(trace, chunk_rows))

    between = ColumnarTrace(pool=pool)
    clock = quiet(between, 100.0) + 60.0
    order = list(enumerate(ladder))
    rng.shuffle(order)
    for place, target in order:
        content = random.Random(int(sizes["topology_seed"]) * 1_000_003 + place)
        burst = generator.generate_burst(topology, target, clock, content)
        if burst is None:
            raise RuntimeError(
                f"topology has no link carrying a {target}-withdrawal burst"
            )
        # A burst always starts a chunk of its own, so that it is cut into
        # the same chunks whatever was played before it.
        hand_over(between)
        hand_over(ColumnarTrace.from_messages(burst.messages, pool=pool))
        steps.append(("converged", None))
        clock = burst.end_time + 120.0
        between = ColumnarTrace(pool=pool)
        if heal:
            touched = burst.withdrawn_prefixes | burst.updated_prefixes | burst.noise_prefixes
            for prefix in sorted(touched):
                between.announce(clock, peer_as, prefix, original(prefix))
                clock += 0.002
            clock += 60.0
        clock = quiet(between, clock) + 60.0 * (1.0 + rng.random())
    hand_over(between)
    return Session(
        peer_as=peer_as,
        rib=rib,
        backup_rib=backup_alternates(rib),
        steps=steps,
        rows=rows,
    )
