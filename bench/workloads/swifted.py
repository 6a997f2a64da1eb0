"""What ``burst_replay`` and ``relay_per_message`` share: one SWIFTED router
with a primary and a backup session, fed the burst corpus step by step.

The two workloads differ only in the entry-point family that takes the rows
— :meth:`SwiftedRouter.receive_columnar` per chunk or
:meth:`SwiftedRouter.receive` per message — and each uses the *other* family
for its untimed reference pass, so an expected reroute is never computed by
the code being measured.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core import kernels
from repro.core.inference import InferenceConfig
from repro.core.swifted_router import RerouteAction, SwiftConfig, SwiftedRouter
from repro.experiments.month_replay import BACKUP_PEER_AS

from bench import layers
from bench.harness import PassResult, PhaseClock, Workload
from bench.workloads.corpus import Session, build_sessions, burst_ladder

__all__ = ["LOCAL_AS", "LOOKUPS_PER_REROUTE", "SwiftedBurstWorkload", "build_router"]

LOCAL_AS = 1
#: ``forward()`` lookups on rerouted prefixes that close each reaction event.
LOOKUPS_PER_REROUTE = 32


def build_router(session: Session, backend: str) -> SwiftedRouter:
    """Cold start: construct, load both tables, provision."""
    config = SwiftConfig(inference=InferenceConfig(kernel_backend=backend))
    router = SwiftedRouter(LOCAL_AS, config=config)
    for peer_as, routes, local_pref in (
        (session.peer_as, session.rib, 100),
        (BACKUP_PEER_AS, session.backup_rib, 50),
    ):
        router.add_peer(peer_as)
        # A replayed session must not accumulate its messages in memory.
        router.speaker.session(peer_as).record_stream = False
        router.load_initial_routes(peer_as, routes, local_pref=local_pref)
    router.provision()
    return router


def reroute_key(action: RerouteAction) -> tuple:
    """What identifies a reroute across entry-point families."""
    return (
        action.timestamp,
        action.peer_as,
        action.inferred_links,
        len(action.rerouted_prefixes),
        len(action.rules),
    )


class SwiftedBurstWorkload(Workload):
    """Base of the two burst workloads; subclasses set :attr:`per_message`."""

    #: True: rows are materialised and handed to ``receive`` one at a time.
    per_message = False

    FULL = {
        "table": 16000,
        # This 16k-prefix topology has five links carrying 3.6k-8.0k
        # prefixes, all within the four AS hops the router protects, so
        # reroutes span a 2.2x range of sizes and every one of them moves
        # traffic.  A burst withdraws >= 80% of its link (the rest is
        # re-routed), which keeps the smallest above the inference's first
        # trigger of 2,500 withdrawals.
        "topology_seed": 52,
        "bursts": 15,
        "burst_low": 3300,
        "burst_high": 6500,
        "chunk_rows": 1000,
        "noise_pairs": 40,
    }
    SMOKE = {
        "table": 5000,
        "topology_seed": 10,
        "bursts": 2,
        "burst_low": 3300,
        "burst_high": 3400,
        "chunk_rows": 1000,
        "noise_pairs": 10,
    }

    def generate(self) -> None:
        sizes = dict(self.sizes)
        sizes["ladders"] = [
            burst_ladder(sizes["bursts"], sizes["burst_low"], sizes["burst_high"])
        ]
        (self.session,) = build_sessions(self.seed, sizes)
        self.kernel = kernels.get_backend(self.backend)
        #: Steps as this workload's entry point takes them.
        self.steps = list(self._steps_for(self.per_message))
        self.expected: Counter = Counter()

    def _steps_for(self, per_message: bool) -> Iterator[Tuple[str, object]]:
        """The corpus steps, materialised to message lists for ``receive``."""
        for kind, chunk in self.session.steps:
            if per_message and chunk is not None:
                yield kind, chunk.to_messages()
            else:
                yield kind, chunk

    # -- feeding -------------------------------------------------------------

    def _feed(
        self,
        router: SwiftedRouter,
        steps: Iterable[Tuple[str, object]],
        per_message: bool,
        tracer=None,
    ) -> Tuple[Dict[object, float], List[Tuple[RerouteAction, List[Optional[int]]]], int]:
        """Drive ``steps`` through ``router``; time every rerouting call.

        Returns the reaction latencies (ms) by event id, every reroute with
        the ``forward()`` answers taken right after it, and the number of
        input operations handed over.
        """
        events: Dict[object, float] = {}
        observed: List[Tuple[RerouteAction, List[Optional[int]]]] = []
        operations = 0
        forward = router.forward
        clock = time.perf_counter

        def answers_for(action: RerouteAction) -> List[Optional[int]]:
            return [
                forward(prefix.network)
                for prefix in itertools.islice(
                    action.rerouted_prefixes, LOOKUPS_PER_REROUTE
                )
            ]

        for index, (kind, payload) in enumerate(steps):
            if tracer is not None:
                tracer.group = index
            if kind == "converged":
                router.clear_reroutes()
                continue
            if per_message:
                receive = router.receive
                for offset, message in enumerate(payload):
                    started = clock()
                    action = receive(message)
                    if action is not None:
                        answers = answers_for(action)
                        events[(index, offset)] = (clock() - started) * 1e3
                        observed.append((action, answers))
                operations += len(payload)
            else:
                started = clock()
                actions = router.receive_columnar(payload, kernel=self.kernel)
                if actions:
                    answers = [answers_for(action) for action in actions]
                    events[index] = (clock() - started) * 1e3
                    observed.extend(zip(actions, answers))
                operations += 1
        return events, observed, operations

    def reference(self) -> None:
        router = build_router(self.session, self.backend)
        _, observed, _ = self._feed(
            router, self._steps_for(not self.per_message), not self.per_message
        )
        self.expected = Counter(reroute_key(action) for action, _ in observed)
        if not self.expected:
            raise RuntimeError("the reference pass saw no reroute; nothing to time")

    # -- passes --------------------------------------------------------------

    def setup(self) -> SwiftedRouter:
        return build_router(self.session, self.backend)

    def drive(self, state: SwiftedRouter, clock: PhaseClock, tracer=None) -> PassResult:
        with clock:
            events, observed, operations = self._feed(
                state, self.steps, self.per_message, tracer
            )
        seen = Counter(reroute_key(action) for action, _ in observed)
        problems = []
        for key, count in ((seen - self.expected) + (self.expected - seen)).items():
            problems.append(f"reroute {key} x{count} differs from the reference pass")
        lookups = 0
        for action, answers in observed:
            lookups += len(answers)
            # Tag bits are finite, so a predicted prefix may legitimately
            # keep its primary; a reroute after which *no* looked-up prefix
            # left the failed next hop, or one that blackholes, is wrong.
            if None in answers or all(answer == action.peer_as for answer in answers):
                problems.append(
                    f"after rerouting away from AS {action.peer_as} at "
                    f"t={action.timestamp:.3f} forward() answered {sorted(set(map(str, answers)))}"
                )
        return PassResult(
            rows=self.session.rows,
            events=events,
            attempted=operations + lookups + sum(self.expected.values()),
            failed=len(problems),
            signature=tuple(sorted(seen.items())),
            problems=problems[:5],
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
            loaded_rows=len(self.session.rib) + len(self.session.backup_rib),
            table_prefixes=len(self.session.rib),
            engines=[state.engine_for(self.session.peer_as)],
            reroutes=sum(count for _, count in result.signature),
        )
        if not self.per_message:
            metrics.update(self._standalone_metrics())
        return metrics

    def _standalone_metrics(self) -> Dict[str, float]:
        """Layers the router only calls internally, driven on the same corpus."""
        from repro.core.burst_detection import BurstDetector

        chunks = [chunk for kind, chunk in self.session.steps if kind == "rows"]
        started = time.perf_counter()
        runs = [run for chunk in chunks for run in chunk.iter_batches(kernel=self.kernel)]
        segment_s = time.perf_counter() - started
        detector = BurstDetector(kernel=self.kernel)
        started = time.perf_counter()
        starts = sum(
            1
            for run in runs
            for _, event in detector.observe_run(run)
            if event.kind == "start"
        )
        observe_s = time.perf_counter() - started
        rows = self.session.rows
        return {
            "traces.columnar.segment_us_per_row": segment_s / rows * 1e6,
            "traces.columnar.rows_per_run": rows / len(runs),
            "core.burst_detection.observe_us_per_row": observe_s / rows * 1e6,
            "core.burst_detection.bursts_started": float(starts),
        }
