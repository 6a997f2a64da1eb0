"""``table_churn``: a DFZ-shaped table under steady churn, lookups beside updates."""

from __future__ import annotations

import random
import time
from typing import Dict, List, Tuple

from repro.bgp.attributes import ASPath, PathAttributes
from repro.core import kernels
from repro.core.inference import InferenceConfig
from repro.core.swifted_router import SwiftConfig, SwiftedRouter
from repro.traces.columnar import ColumnarTrace
from repro.traces.fulltable import FullTableConfig, FullTableGenerator

from bench import layers
from bench.harness import PassResult, PhaseClock, Workload

__all__ = ["TableChurn"]

LOCAL_AS = 65000
#: Detour transits sit above every origin AS the table generator can draw
#: (3,000 + 65,000), so a detoured path never loops through its own origin.
DETOUR_BASE_AS = 100_000


class TableChurn(Workload):
    """A :class:`FullTableGenerator` table (three full feeds) loaded with
    ``speaker.receive_columnar`` and cold-``provision()``ed as set-up, then
    rounds of: a 300-prefix batch (cycling withdraw / re-announce /
    path-change, rotating over the peers) into ``receive_columnar``, a warm
    ``provision()``, and 200 ``forward()`` lookups that include the churned
    prefixes.

    Speaker bulk load, the RIBs and tries, backup computation, tag encoding
    and the FIB dominate; inference idles.  One round is one reaction event.
    """

    name = "table_churn"
    why = (
        "speaker bulk load, RIB/trie, backup, encoding and FIB dominate while inference "
        "idles; lookups beside warm provisions expose work deferred into lazy rebuilds"
    )
    FULL = {"prefixes": 16000, "peers": 3, "rounds": 93, "batch": 300, "lookups": 200}
    SMOKE = {"prefixes": 3000, "peers": 3, "rounds": 6, "batch": 100, "lookups": 50}

    def generate(self) -> None:
        sizes = self.sizes
        rng = random.Random(self.seed)
        table = FullTableGenerator(
            FullTableConfig(
                prefix_count=sizes["prefixes"], peer_count=sizes["peers"], seed=self.seed
            )
        ).generate()
        self.table = table
        self.initial = table.columnar_table()
        self.kernel = kernels.get_backend(self.backend)
        prefixes, origins, peers = table.prefixes, table.origins, table.peers
        count = len(prefixes)
        # forward() is a longest-prefix match: only a prefix with nothing
        # more specific under it is sure to answer for its own network
        # address, so lookups (and the prefixes churned for them) are leaves.
        leaves = [
            index
            for index in range(count)
            if index + 1 == count or not prefixes[index].contains(prefixes[index + 1])
        ]
        changed: Dict[Tuple[int, Tuple[int, ...]], PathAttributes] = {}

        def detour(peer_as: int, origin: int, round_number: int) -> PathAttributes:
            """The peer's route to ``origin`` through a different transit."""
            base = table.attributes_for(peer_as, origin).as_path.asns
            path = (base[0], DETOUR_BASE_AS + round_number % 64) + base[2:]
            attributes = changed.get((peer_as, path))
            if attributes is None:
                attributes = changed[(peer_as, path)] = PathAttributes(
                    as_path=ASPath(path), next_hop=peer_as
                )
            return attributes

        self.rounds: List[Tuple[ColumnarTrace, List[Tuple[int, object]]]] = []
        clock = 10.0
        withdrawn: List[int] = []
        for number in range(sizes["rounds"]):
            peer_as = peers[(number // 3) % len(peers)]
            action = number % 3
            batch = ColumnarTrace()
            if action == 1:
                members = withdrawn  # re-announce what the last round withdrew
            else:
                members = rng.sample(leaves, sizes["batch"])
            for index in members:
                if action == 0:
                    batch.withdraw(clock, peer_as, prefixes[index])
                elif action == 1:
                    batch.announce(
                        clock, peer_as, prefixes[index],
                        table.attributes_for(peer_as, origins[index]),
                    )
                else:
                    batch.announce(
                        clock, peer_as, prefixes[index],
                        detour(peer_as, origins[index], number),
                    )
                clock += 0.001
            withdrawn = members if action == 0 else []
            half = sizes["lookups"] // 2
            looked = members[:half] + rng.sample(leaves, sizes["lookups"] - min(half, len(members)))
            self.rounds.append(
                (batch, [(prefixes[index].network, prefixes[index]) for index in looked])
            )
            clock += 30.0
        self.rows = sum(len(batch) for batch, _ in self.rounds)

    # -- passes --------------------------------------------------------------

    def setup(self) -> SwiftedRouter:
        config = SwiftConfig(inference=InferenceConfig(kernel_backend=self.backend))
        router = SwiftedRouter(LOCAL_AS, config=config)
        for peer_as in self.table.peers:
            router.add_peer(peer_as)
            router.speaker.session(peer_as).record_stream = False
        router.speaker.receive_columnar(self.initial, kernel=self.kernel)
        router.provision()
        return router

    def drive(self, state: SwiftedRouter, clock: PhaseClock, tracer=None) -> PassResult:
        router = state
        forward = router.forward
        best_route = router.speaker.best_route
        events: Dict[object, float] = {}
        problems: List[str] = []
        failed = 0
        attempted = 0
        answered: List[Tuple[int, ...]] = []
        for number, (batch, lookups) in enumerate(self.rounds):
            if tracer is not None:
                tracer.group = number
            with clock:
                started = time.perf_counter()
                router.receive_columnar(batch, kernel=self.kernel)
                router.provision()
                answers = [forward(address) for address, _ in lookups]
                events[number] = (time.perf_counter() - started) * 1e3
            # Untimed: the FIB must answer with the control plane's current
            # best next hop (a withdrawn feed's next hop would be stale).
            attempted += 2 + len(lookups)
            for (address, prefix), answer in zip(lookups, answers):
                best = best_route(prefix)
                if best is not None and answer != best.next_hop:
                    failed += 1
                    if len(problems) < 5:
                        problems.append(
                            f"round {number}: forward({prefix}) answered {answer}, "
                            f"best route is via {best.next_hop}"
                        )
            answered.append(tuple(answers))
        return PassResult(
            rows=self.rows,
            events=events,
            attempted=attempted,
            failed=failed,
            signature=tuple(answered),
            problems=problems,
        )

    # -- traced pass ---------------------------------------------------------

    def instrument(self, tracer) -> None:
        layers.apply_wraps(tracer, layers.router_wraps())

    def layer_metrics(self, tracer, state, result, wall) -> Dict[str, float]:
        index = layers.SpanIndex(tracer)
        metrics = layers.router_metrics(
            index,
            rows=result.rows,
            wall=wall,
            loaded_rows=len(self.initial),
            table_prefixes=len(self.table),
            engines=[state.engine_for(peer_as) for peer_as in self.table.peers],
            reroutes=0,
        )
        # The Loc-RIB's LPM view is only built on demand; drive it on the
        # state the traced pass left behind.
        speaker = state.speaker
        started = time.perf_counter()
        trie = speaker.loc_rib.best_trie()
        metrics["bgp.trie.build_s"] = time.perf_counter() - started
        metrics["bgp.trie.nodes"] = float(trie.node_count())
        addresses = [address for _, lookups in self.rounds for address, _ in lookups]
        started = time.perf_counter()
        for address in addresses:
            speaker.lpm_route(address)
        metrics["bgp.trie.lpm_us"] = (time.perf_counter() - started) / len(addresses) * 1e6
        return metrics
