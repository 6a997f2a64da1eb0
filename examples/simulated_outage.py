#!/usr/bin/env python3
"""Simulated Internet outage: generate an AS-level topology, fail links and
watch a SWIFTED router at a vantage AS localise each failure and reroute
around it — the §6.1/§6.2.2 C-BGP-style pipeline.

The script builds a tiered, power-law AS topology (the paper uses 1,000 ASes
with 20 prefixes each) and runs the simulation validation over it
(:mod:`repro.experiments.simulation_validation`): for each random link
failure it replays the vantage session's burst through a router peering
with every neighbour, then prints whether the end-of-burst inference
contains (or neighbours) the failed link and where the router moved the
prefixes it forwarded through the failing peer.

Run with:  python examples/simulated_outage.py [as_count]

``as_count`` (default 300) sizes the topology; the failure filter scales
with it so tiny runs (e.g. ``python examples/simulated_outage.py 80``)
still find analysable bursts.
"""

import sys

sys.path.insert(0, "src")

from repro.experiments import simulation_validation
from repro.topology.generator import TopologyConfig, generate_topology


def main() -> None:
    as_count = int(sys.argv[1]) if len(sys.argv) > 1 else 300
    graph = generate_topology(TopologyConfig(as_count=as_count, prefixes_per_as=10, seed=42))
    print(f"generated topology: {graph.as_count} ASes, {graph.link_count} links, "
          f"average degree {graph.average_degree:.1f}, "
          f"{graph.total_prefix_count()} prefixes")

    result = simulation_validation.run(
        failures=5, min_burst=40 if as_count >= 200 else 10, seed=42, graph=graph
    )
    vantage = result.vantage
    print(f"vantage point: AS {vantage.local_as} observing its peer AS {vantage.peer_as}\n")
    for outcome in result.outcomes:
        links = outcome.inferred_links or ()
        print(f"failure of link {outcome.failed_link}: {outcome.withdrawals} withdrawals")
        print(f"    end-of-burst inference: {list(links[:4])}"
              f"{' ...' if len(links) > 4 else ''} -> {outcome.verdict}")
        print(f"    prefixes forwarded through AS {vantage.peer_as}: "
              f"{outcome.touched} affected, {outcome.moved_safe} moved safely, "
              f"{outcome.moved_unsafe} moved unsafely, {outcome.stranded} withdrawn "
              "and left in place with a safe alternate\n")
    print(simulation_validation.format_result(result))


if __name__ == "__main__":
    main()
