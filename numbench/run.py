#!/usr/bin/env python3
"""Numeric-plane benchmark: four engines, three workloads, every layer timed.

    python3 numbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds numbench/ (and the libraries it
links) into .bench_build/numbench, runs the workload in its own process
and prints one line per metric, then a JSON summary as the last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(numbench/README.md defines both).  The full record -- raw samples, host
facts, failures -- goes to .bench_build/results/, and a traced run also
writes its spans there as a Chrome trace.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "numbench"
WORK = ROOT / ".bench_build" / "work"
RESULTS = ROOT / ".bench_build" / "results"

# The only SENKF_* knobs the workload process sees; every other one is
# removed from its environment (and numbench refuses to run if one leaks).
PINNED_ENV = {"SENKF_KERNEL": "auto", "SENKF_LOG": "error"}

ENGINES = ("serial", "lenkf", "penkf", "senkf")

END_TO_END = [
    ("serial_s", "s"),
    ("lenkf_s", "s"),
    ("penkf_s", "s"),
    ("senkf_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("analysis_rmse", "1"),
]

# (metric, unit, key in numbench's per-repetition layer record)
REP_LAYERS = [
    ("enkf.store.read_bar.calls", "count", "enkf.store.read_bar.calls"),
    ("enkf.store.read_block.calls", "count", "enkf.store.read_block.calls"),
    ("enkf.store.load_member.calls", "count", "enkf.store.load_member.calls"),
    ("enkf.store.read_s", "s", "enkf.store.read_s"),
    ("enkf.store.bytes", "B", "enkf.store.bytes"),
    ("enkf.store.segments", "count", "enkf.store.segments"),
    ("enkf.kernel.patches", "count", "registry.analysis.patches"),
    ("parcomm.messages", "count", "registry.parcomm.messages"),
    ("parcomm.bytes", "B", "registry.parcomm.bytes"),
    ("parcomm.payload_copies", "count", "registry.parcomm.payload_copies"),
    ("senkf.io_read_s", "s", "senkf.io_read_s"),
    ("senkf.io_send_s", "s", "senkf.io_send_s"),
    ("senkf.comp_wait_s", "s", "senkf.comp_wait_s"),
    ("senkf.comp_update_s", "s", "senkf.comp_update_s"),
    ("senkf.read_skew", "ratio", "senkf.read_skew"),
    ("penkf.read_s", "s", "penkf.read_s"),
    ("penkf.update_s", "s", "penkf.update_s"),
    ("lenkf.read_s", "s", "lenkf.read_s"),
    ("lenkf.send_s", "s", "lenkf.send_s"),
    ("lenkf.update_s", "s", "lenkf.update_s"),
    ("serial.read_s", "s", "serial.read_s"),
    ("serial.update_s", "s", "serial.update_s"),
] + [(f"{e}.{part}", "s", f"{e}.{part}")
     for e in ENGINES for part in ("wall_s", "unattributed_s")]

PROBE_LAYERS = [
    ("enkf.kernel.patch_s", "s"),
    ("enkf.kernel.gflop", "GFLOP"),
    ("enkf.kernel.allocs", "count"),
    ("obs.localize.cold_s", "s"),
    ("obs.localize.warm_s", "s"),
    ("obs.localize.bytes", "B"),
    ("obs.localize.entries", "count"),
]

# Ratios and the base each is taken over.
RATIO_LAYERS = [
    ("obs.localize.hit_ratio", "obs.localize.lookups",
     "registry.analysis.localization.hits",
     "registry.analysis.localization.misses"),
    ("parcomm.pool.hit_ratio", "parcomm.pool.requests",
     "registry.parcomm.pool.hit", "registry.parcomm.pool.miss"),
]

# The parts of each engine's traced wall time; with unattributed_s they sum
# to wall_s.
ATTRIBUTED = {
    "serial": ("read_s", "update_s"),
    "lenkf": ("read_s", "send_s", "update_s"),
    "penkf": ("read_s", "update_s"),
    "senkf": ("comp_wait_s", "comp_update_s"),
}


def fail(message):
    print(f"numbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not (BUILD / "CMakeCache.txt").exists():
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            cwd=ROOT, capture_output=True, text=True)
        if configure.returncode != 0:
            sys.stderr.write(configure.stdout[-4000:] + configure.stderr[-4000:])
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "numbench", "-j", jobs],
        cwd=ROOT, capture_output=True, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stdout[-4000:] + result.stderr[-4000:])
        fail("build failed")
    return BUILD / "numbench"


def supported_percentile(samples):
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None, None
    ordered = sorted(samples)
    return round(100.0 * (n - 10) / n), ordered[n - 11]


def layer_metrics(record):
    reps = record["layer_reps"]
    values = {}
    for name, _, key in REP_LAYERS:
        values[name] = statistics.median(r.get(key, 0.0) for r in reps)
    values["parcomm.recv_wait_s"] = statistics.median(
        r["registry.parcomm.recv_wait_ns"] * 1e-9 for r in reps)
    for ratio, base, hits, misses in RATIO_LAYERS:
        lookups = [r[hits] + r[misses] for r in reps]
        values[base] = statistics.median(lookups)
        values[ratio] = statistics.median(
            r[hits] / n if n else 0.0 for r, n in zip(reps, lookups))
    for name, _ in PROBE_LAYERS:
        values[name] = record["probes"][name]
    traced = sum(statistics.median(record["traced"][e]) for e in ENGINES)
    untraced = sum(statistics.median(record["samples"][e]) for e in ENGINES)
    values["telemetry.trace_overhead"] = traced / untraced - 1.0
    values["telemetry.untraced_wall_s"] = untraced
    return values


def attribution_errors(record):
    """Per repetition and engine: parts + unattributed must equal wall."""
    errors = []
    for i, rep in enumerate(record["layer_reps"]):
        for engine, parts in ATTRIBUTED.items():
            total = sum(rep[f"{engine}.{p}"] for p in parts)
            total += rep[f"{engine}.unattributed_s"]
            wall = rep[f"{engine}.wall_s"]
            if abs(total - wall) > 1e-9 * max(1.0, wall):
                errors.append(f"rep {i} {engine}: parts {total} != wall {wall}")
    return errors


def units():
    table = dict(END_TO_END)
    table.update({name: unit for name, unit, _ in REP_LAYERS})
    table.update(dict(PROBE_LAYERS))
    table["parcomm.recv_wait_s"] = "s"
    for ratio, base, _, _ in RATIO_LAYERS:
        table[ratio] = "ratio"
        table[base] = "count"
    table["telemetry.trace_overhead"] = "ratio"
    table["telemetry.untraced_wall_s"] = "s"
    return table


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    trace_file = RESULTS / f"{args.workload}-seed{args.seed}.trace.json"

    env = {k: v for k, v in os.environ.items() if not k.startswith("SENKF_")}
    env.update(PINNED_ENV)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(WORK)]
    if args.trace:
        command += ["--trace-out", str(trace_file)]
    try:
        child = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                               text=True, timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("workload process timed out")
    sys.stderr.write(child.stderr)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        fail(f"workload process exited with {child.returncode}")
    record = json.loads(lines[-1])

    metrics = {}
    notes = {}
    if args.trace:
        metrics = layer_metrics(record)
    else:
        for engine in ENGINES:
            samples = record["samples"][engine]
            metrics[f"{engine}_s"] = statistics.median(samples)
            notes[f"{engine}_s"] = ((len(samples),)
                                    + supported_percentile(samples))
        metrics["setup_s"] = statistics.median(record["setup_s"])
        notes["setup_s"] = (len(record["setup_s"]), None, None)
        metrics["peak_rss_mb"] = record["peak_rss_mb"]
        metrics["analysis_rmse"] = record["analysis_rmse"]

    problems = [f"failed call: {f}" for f in record["failures"]]
    if args.trace:
        problems += attribution_errors(record)
    problems += [f"{k} is not finite" for k, v in metrics.items()
                 if not math.isfinite(v)]
    correct = not problems and record["attempted"] > 0

    unit_of = units()
    host = record["host"]
    print(f"workload {record['workload']} seed {record['seed']} "
          f"trace {args.trace}: {record['why']}")
    print(f"host: nproc {host['nproc']}, build {host['build_type']}, "
          f"kernel table {host['kernel_table']}, load average "
          f"{' '.join(f'{x:.2f}' for x in host['loadavg'])}; "
          f"{host['env_check']}")
    print(f"config: {json.dumps(record['config'], sort_keys=True)}")
    print(f"engine calls: {record['attempted']} attempted, "
          f"{record['failed']} failed; {record['repetitions']} repetitions")
    for name in sorted(metrics):
        line = f"  {name:32s} {metrics[name]:.6g} {unit_of[name]}"
        if name in notes:
            n, q, value = notes[name]
            line += f"  (median of n={n}"
            line += (f", p{q}={value:.6g})" if q is not None
                     else "; no percentile has 10 samples beyond it)")
        print(line)
    for problem in problems[:20]:
        print(f"  PROBLEM: {problem}")

    full = dict(record, metrics=metrics, correct=correct, problems=problems,
                percentiles={k: {"n": v[0], "percentile": v[1], "value": v[2]}
                             for k, v in notes.items()})
    (RESULTS / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")

    summary = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": unit_of[k]}
                    for k, v in sorted(metrics.items())},
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
