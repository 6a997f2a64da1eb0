#!/usr/bin/env python3
"""The pipeline benchmark: one command, four workloads, six end-to-end
metrics, and a per-layer traced pass.

    python3 bench/run.py [--trace]             every workload, human-readable
    python3 bench/run.py --workload NAME       one workload; the last line of
        [--seed N] [--seconds S] [--passes N]  output is the result as JSON
        [--trace [0|1]]                        1: the per-layer pass instead
    python3 bench/run.py --check               <20 s smoke at reduced sizes
    python3 bench/run.py --aa [--runs N]       whole benchmark twice, compared
                                               against BENCHMARK.json's bounds

Metric and workload definitions are in ``bench/README.md``; the names, units
and regression bounds are in ``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(
        f"bench: no program to measure: {os.path.join(ROOT, 'src', 'repro')} is "
        "missing (run from a full checkout)"
    )
# ``bench`` is imported as a package from the checkout root; the script's own
# directory must not shadow top-level modules (``trace`` is also a stdlib name).
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:] = [ROOT, os.path.join(ROOT, "src")] + [
    entry for entry in sys.path if os.path.abspath(entry or ".") != _HERE
]

from bench import harness, stats  # noqa: E402
from bench.layers import PER_LAYER  # noqa: E402

DEFAULT_SEED = 20170821
#: Untraced passes a traced run takes first, as the baseline of
#: ``trace.overhead_share``.
TRACE_BASELINE_PASSES = 3


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def resolve_backend() -> str:
    """The kernel backend auto-selection picks here, pinned for the run."""
    from repro.core import kernels

    return kernels.default_backend().NAME


def say(text: str = "") -> None:
    print(text, flush=True)


def describe(name: str, stamp: dict, gen_s: float, records) -> None:
    say(f"== {name} ==")
    say("env: " + " ".join(f"{key}={value}" for key, value in stamp.items()))
    phases = [record.phase_s for record in records]
    say(
        f"gen_s={gen_s:.3f} passes={len(records)} rows/pass={records[0].result.rows} "
        f"phase_s median={stats.median(phases):.3f} min={min(phases):.3f} max={max(phases):.3f}"
    )


def check_passes(records) -> "tuple[int, int, list]":
    """Attempted / failed operations over the passes, with determinism."""
    attempted = sum(record.result.attempted for record in records)
    failed = sum(record.result.failed for record in records)
    problems = [problem for record in records for problem in record.result.problems]
    first = records[0].result.signature
    for number, record in enumerate(records[1:], start=2):
        attempted += 1
        if record.result.signature != first:
            failed += 1
            problems.append(f"pass {number}: outcome differs from pass 1")
    return attempted, failed, problems


def run_end_to_end(workload, seconds: float, passes) -> dict:
    records, gen_s = harness.measure(workload, seconds, passes)
    describe(workload.name, harness.environment_stamp(workload.seed, workload.backend), gen_s, records)
    metrics, latency = harness.end_to_end_metrics(records)
    for name, entry in metrics.items():
        note = f"n={len(records)} passes"
        if name.startswith("react_ms"):
            note = f"n={latency.samples} ({latency.events} events x passes)"
            if name == "react_ms_p90" and not latency.p90_supported:
                note += f"; fewer than {stats.MIN_SAMPLES_FOR_P90}: not a supported p90"
        elif name == "peak_rss_mb":
            note = "ru_maxrss at the end of the run"
        say(f"{workload.name}/{name} = {entry['value']:.6g} {entry['unit']}  [{note}]")
    attempted, failed, problems = check_passes(records)
    for problem in problems[:10]:
        say(f"FAILED: {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def traced_pass(workload) -> "tuple[dict, object, object]":
    """One instrumented pass; returns its layer metrics, tracer and record."""
    from bench.trace import Tracer

    tracer = Tracer()
    workload.instrument(tracer)
    tracer.watch_gc()
    try:
        record, state = harness.run_pass(workload, tracer)
    finally:
        tracer.close()
    metrics = workload.layer_metrics(tracer, state, record.result, record.phase_s)
    workload.teardown(state)
    return metrics, tracer, record


def run_traced(workload, passes) -> dict:
    """The per-layer run: untraced baseline passes, then one traced pass.

    Layers this workload never calls are filled in from a smoke-sized traced
    pass of the workloads that do, so the result always carries every
    per-layer metric as a measurement; the printout marks those with ``~``.
    """
    from bench.layers import trace_metrics
    from bench.workloads import WORKLOADS

    baseline = passes if passes is not None else TRACE_BASELINE_PASSES
    records, gen_s = harness.measure(workload, 0.0, baseline)
    describe(workload.name, harness.environment_stamp(workload.seed, workload.backend), gen_s, records)
    metrics, tracer, record = traced_pass(workload)
    untraced_wall = stats.median([item.phase_s for item in records])
    metrics.update(trace_metrics(tracer, untraced_wall))
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    spans_path = os.path.join(harness.OUT_DIR, f"{workload.name}.spans.jsonl")
    written = tracer.write_jsonl(spans_path)
    say(f"{written} spans -> {os.path.relpath(spans_path, ROOT)}")

    borrowed = {}
    for other in WORKLOADS.values():
        if other.name == workload.name or all(name in metrics for name, _, _ in PER_LAYER):
            continue
        probe = other(workload.seed, other.SMOKE, workload.backend)
        probe.generate()
        probe.reference()
        for name, value in traced_pass(probe)[0].items():
            if name not in metrics:
                metrics[name] = value
                borrowed[name] = other.name
    missing = [name for name, _, _ in PER_LAYER if name not in metrics]
    if missing:
        raise RuntimeError(f"no workload produced {missing}")

    result = {}
    for name, unit, _ in PER_LAYER:
        source = f"  [~ smoke-sized {borrowed[name]}]" if name in borrowed else ""
        say(f"{workload.name}/{name} = {metrics[name]:.6g} {unit}{source}")
        result[name] = {"value": metrics[name], "unit": unit}
    all_records = records + [record]
    attempted, failed, problems = check_passes(all_records)
    for problem in problems[:10]:
        say(f"FAILED: {problem}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }


def run_one(args) -> int:
    from bench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    backend = resolve_backend()
    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, cls.FULL, backend)
    if args.trace:
        result = run_traced(workload, args.passes)
    else:
        result = run_end_to_end(workload, args.seconds, args.passes)
    say(json.dumps(result))
    return 0


# -- every workload, each in a process of its own ----------------------------


def child(workload: str, seed: int, seconds: float, passes, trace: int) -> dict:
    """Run one workload in a fresh interpreter (peak RSS is per process)."""
    command = [
        sys.executable, os.path.abspath(__file__), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if passes is not None:
        command += ["--passes", str(passes)]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stdout.write(completed.stdout)
        sys.exit(f"bench: {workload} exited with code {completed.returncode}")
    for line in lines[:-1]:
        say(line)
    return json.loads(lines[-1])


def run_all(args) -> int:
    from bench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            result = child(name, args.seed, args.seconds, args.passes, trace)
            say(
                f"{name}: attempted={result['attempted']} failed={result['failed']} "
                f"correct={result['correct']}"
            )
            if not result["correct"]:
                status = 1
        say()
    return status


# -- --check -----------------------------------------------------------------


def run_check(args) -> int:
    """Smoke: every workload at reduced size, 2 passes, schema against the
    contract.  Runs in one process (peak RSS is not what is being checked)."""
    from bench.workloads import GATED, WORKLOADS

    started = time.perf_counter()
    contract = load_contract()
    backend = resolve_backend()
    expected = {entry["name"]: entry["unit"] for entry in contract["end_to_end"]}
    problems = []
    if [entry["name"] for entry in contract["workloads"]] != list(GATED):
        problems.append("BENCHMARK.json workloads differ from bench.workloads.GATED")
    if [(e["name"], e["unit"], e["better"]) for e in contract["per_layer"]] != list(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from bench.layers.PER_LAYER")
    for cls in WORKLOADS.values():
        workload = cls(args.seed, cls.SMOKE, backend)
        result = run_end_to_end(workload, 0.0, 2)
        printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
        if printed != expected:
            problems.append(f"{cls.name}: printed {printed}, BENCHMARK.json has {expected}")
        if not result["correct"]:
            problems.append(f"{cls.name}: {result['failed']} of {result['attempted']} operations failed")
        say(json.dumps(result))
        say()
    for problem in problems:
        say(f"CHECK FAILED: {problem}")
    say(f"check: {'FAILED' if problems else 'ok'} in {time.perf_counter() - started:.1f}s")
    return 1 if problems else 0


# -- --aa --------------------------------------------------------------------


def run_aa(args) -> int:
    """Same code, measured twice: does the benchmark agree with itself?

    Each side is ``--runs`` runs of every workload ``BENCHMARK.json`` lists
    (seeds ``--seed`` upward, the same on both sides), A completely before
    B, as the driver does it.
    Fails when a side's own spread (inter-quartile range over median) or the
    worsening from A's median to B's exceeds the metric's bound.
    """
    contract = load_contract()
    bounds = {entry["name"]: entry for entry in contract["end_to_end"]}
    sides = {"A": {}, "B": {}}
    for side in sides:
        for entry in contract["workloads"]:
            for run in range(args.runs):
                say(f"-- side {side}: {entry['name']} run {run + 1}/{args.runs}")
                result = child(entry["name"], args.seed + run, args.seconds, args.passes, 0)
                if not result["correct"]:
                    sys.exit(f"bench: {entry['name']} failed {result['failed']} operations")
                for name, metric in result["metrics"].items():
                    sides[side].setdefault((entry["name"], name), []).append(metric["value"])
    say()
    say(f"{'workload/metric':<34}{'A median [Q1..Q3]':>32}{'B median [Q1..Q3]':>32}"
        f"{'B worse':>9}{'spread':>8}{'bound':>7}")
    status = 0
    for key in sides["A"]:
        bound = bounds[key[1]]
        a, b = sides["A"][key], sides["B"][key]
        qa, qb = stats.quartiles(a), stats.quartiles(b)
        worse = stats.worsening(qa[1], qb[1], bound["better"])
        spread = max(stats.spread(a), stats.spread(b))
        # The driver does not hold set-up time to the spread rule.
        over = worse > bound["bound"] or (key[1] != "setup_s" and spread > bound["bound"])
        status |= int(over)
        say(
            f"{key[0] + '/' + key[1]:<34}"
            f"{f'{qa[1]:.5g} [{qa[0]:.5g}..{qa[2]:.5g}]':>32}"
            f"{f'{qb[1]:.5g} [{qb[0]:.5g}..{qb[2]:.5g}]':>32}"
            f"{worse:>+9.1%}{spread:>8.1%}{bound['bound']:>7.0%}"
            f"{'  OVER' if over else ''}"
        )
    say(f"aa: {'FAILED' if status else 'ok'}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only; last output line is JSON")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring budget of a run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--passes", type=int, default=None,
                        help="fixed number of passes instead of the time budget")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="1: per-layer traced pass (bare --trace means 1)")
    parser.add_argument("--check", action="store_true", help="smoke run at reduced sizes")
    parser.add_argument("--aa", action="store_true", help="run everything twice and compare")
    parser.add_argument("--runs", type=int, default=3, help="--aa: runs per workload and side")
    args = parser.parse_args()
    if args.passes is not None and args.passes < 1:
        parser.error("--passes must be at least 1")
    harness.guard_environment()
    if args.seconds is None:
        args.seconds = float(load_contract()["run_seconds"])
    if args.check:
        return run_check(args)
    if args.aa:
        return run_aa(args)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
