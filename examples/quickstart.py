#!/usr/bin/env python3
"""Quickstart: SWIFT a border router and fast-reroute around a remote outage.

This example rebuilds the paper's running example (Fig. 1) at router level:
the AS 1 border router peers with AS 2, AS 3 and AS 4 and prefers AS 2 to
reach the prefixes of AS 6, 7 and 8.  The remote link (5, 6) then fails and a
burst of withdrawals arrives on the AS 2 session.  A vanilla router would
lose traffic until it has processed every withdrawal; the SWIFTED router
infers the failure from the first few thousand messages and reroutes all the
affected prefixes to AS 3 with a couple of wildcard rules.

Run with:  python examples/quickstart.py [prefix_count]

``prefix_count`` (default 10000) is the total table size; the detection and
triggering thresholds scale with it, so tiny runs (e.g. the smoke test's
``python examples/quickstart.py 600``) exercise the same pipeline.
"""

import random
import sys

sys.path.insert(0, "src")

from repro.bgp.attributes import ASPath
from repro.bgp.messages import Update
from repro.bgp.prefix import prefix_block
from repro.core import EncoderConfig, InferenceConfig, SwiftConfig, SwiftedRouter
from repro.core.burst_detection import BurstDetectorConfig
from repro.core.history import TriggeringSchedule
from repro.dataplane.timing import FibUpdateTimingModel


def main() -> None:
    total = int(sys.argv[1]) if len(sys.argv) > 1 else 10000
    # --- the routes the router learned before the outage -------------------
    s6 = prefix_block("60.0.0.0/24", (total * 6) // 10)  # originated by AS 6
    s7 = prefix_block("70.0.0.0/24", (total * 3) // 10)  # originated by AS 7
    s8 = prefix_block("80.0.0.0/24", total // 10)        # originated by AS 8
    all_prefixes = s6 + s7 + s8

    # Paper thresholds at full scale (1,500-withdrawal detection, 2,500
    # trigger), scaled down proportionally for smaller tables.
    trigger = max(50, total // 4)
    router = SwiftedRouter(
        local_as=1,
        config=SwiftConfig(
            inference=InferenceConfig(
                detector=BurstDetectorConfig(
                    start_threshold=max(10, (total * 3) // 20)
                ),
                schedule=TriggeringSchedule(
                    steps=((trigger, max(10 * trigger, 10000)),),
                    unconditional_after=2 * trigger,
                ),
            ),
            encoder=EncoderConfig(prefix_threshold=max(50, total // 20)),
        ),
    )
    for peer in (2, 3, 4):
        router.add_peer(peer)

    def routes(first_hops):
        table = {}
        for prefix in s6:
            table[prefix] = ASPath(first_hops + [6])
        for prefix in s7:
            table[prefix] = ASPath(first_hops + [6, 7])
        for prefix in s8:
            table[prefix] = ASPath(first_hops + [6, 8])
        return table

    router.load_initial_routes(2, routes([2, 5]), local_pref=200)  # preferred
    router.load_initial_routes(3, routes([3]), local_pref=100)
    router.load_initial_routes(4, routes([4, 5]), local_pref=150)

    # --- provision SWIFT: backups, tags, default rules ----------------------
    encoded = router.provision()
    print(f"provisioned {len(encoded.tags)} tags, "
          f"{len(encoded.encoded_links)} (link, position) identifiers")
    print(f"pre-failure next-hop for {s6[0]}: AS {router.forward(s6[0].network)}")

    # --- the remote outage: link (5, 6) fails --------------------------------
    rng = random.Random(1)
    affected = list(all_prefixes)
    rng.shuffle(affected)
    burst = [
        Update.withdraw(100.0 + index / 5000.0, 2, prefix)
        for index, prefix in enumerate(affected)
    ]

    actions = router.receive_batch(burst)
    action = actions[0]
    timing = FibUpdateTimingModel()
    print("\n--- SWIFT fast-reroute fired ---")
    print(f"inferred failed links : {action.inferred_links}")
    print(f"rules installed       : {action.rule_count}")
    print(f"prefixes rerouted     : {len(action.rerouted_prefixes)}")
    print(f"data-plane update     : {1000 * action.dataplane_update_seconds:.1f} ms")
    print(f"post-reroute next-hop for {s6[0]}: AS {router.forward(s6[0].network)}")
    vanilla_seconds = timing.per_prefix_convergence_time(len(all_prefixes))
    swift_seconds = action.timestamp - 100.0 + action.dataplane_update_seconds
    print(f"\nvanilla convergence for {len(all_prefixes)} prefixes: "
          f"~{vanilla_seconds:.1f} s")
    print(f"SWIFT convergence: ~{swift_seconds:.2f} s "
          f"({100 * (1 - swift_seconds / vanilla_seconds):.0f}% faster)")

    # --- BGP eventually reconverges: fall back to the BGP state --------------
    router.clear_reroutes()
    print(f"\nafter BGP reconvergence, next-hop for {s6[0]}: "
          f"AS {router.forward(s6[0].network)} (BGP state restored)")


if __name__ == "__main__":
    main()
