#!/usr/bin/env python3
"""Fleet-parallel month replay (§6 at corpus scale).

Replays every session of a synthetic corpus concurrently — one worker
process per session, streams shipped as raw columnar buffers — and checks
the aggregate against the sequential baseline, the determinism property the
fleet driver guarantees.  Also demonstrates a partial (time-window) load of
a cached month stream straight off the mmap-backed column store, and the
driver's self-healing: a seeded fault plan crashes one worker's first
attempt, the retry heals it, and the result stays byte-identical.

Run with:  python examples/fleet_replay.py [workers] [duration_days] [table_size]

Defaults replay the 4-session, 4-day corpus of the fleet parity suite; the
smoke test's ``python examples/fleet_replay.py 2 0.5 400`` variant shrinks
both the streams and the per-session tables.
"""

import pickle
import sys

sys.path.insert(0, "src")

from repro.replay import build_session_jobs, format_fleet_result, replay_jobs
from repro.testing.faults import FaultPlan, FaultSpec
from repro.traces.synthetic import SyntheticTraceConfig


def main() -> None:
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    duration_days = float(sys.argv[2]) if len(sys.argv) > 2 else 4.0
    table_size = int(sys.argv[3]) if len(sys.argv) > 3 else 1500
    config = SyntheticTraceConfig(
        peer_count=4,
        duration_days=duration_days,
        min_table_size=table_size,
        max_table_size=max(table_size + 1, int(table_size * 8 / 3)),
        burst_size_minimum=400,
        noise_rate_per_second=0.01,
        seed=17,
    )
    print(f"packaging {config.peer_count} sessions ({config.duration_days:g} days each)...")
    jobs = build_session_jobs(config)

    fleet = replay_jobs(jobs, workers=workers, swifted=False)
    print(format_fleet_result(fleet))

    sequential = replay_jobs(jobs, workers=1, swifted=False)
    identical = pickle.dumps(fleet.signature()) == pickle.dumps(sequential.signature())
    print(f"byte-identical to sequential replay: {identical}")
    print(f"sequential {sequential.wall_seconds:.2f} s -> "
          f"{workers} workers {fleet.wall_seconds:.2f} s")

    # Self-healing: crash the first session's first attempt; the retry
    # recovers and the signature still matches the fault-free run.
    plan = FaultPlan(
        specs=(
            FaultSpec("crash", "fleet.worker", times=1, match=f"session:{jobs[0].peer_as}"),
        )
    )
    healed = replay_jobs(jobs, workers=workers, swifted=False, fault_plan=plan)
    healed_identical = (
        pickle.dumps(healed.signature()) == pickle.dumps(sequential.signature())
    )
    print(f"injected 1 worker crash: {healed.retries} retry(s), "
          f"degraded={healed.degraded}, still byte-identical: {healed_identical}")


if __name__ == "__main__":
    main()
