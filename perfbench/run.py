#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload storm|mobility-failover|codec \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/ (a CMake package
that compiles the library sources under src/) into .bench_build/ on first
use. It then runs repetitions of the workload, each in a fresh perfbench
process, until the next one would overrun S seconds, and prints the
medians. The last output line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes the spans of every repetition to
.bench_build/spans/<workload>-seed<N>.jsonl. Lines before the result
(prefixed "# ") give the cost table hash, the simulated fingerprint and
the simulated results. See perfbench/README.md for the definitions.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
TABLE = HERE / "cost_table.tsv"
GOLDEN = ROOT / "tests" / "golden"

SIM_WORKLOADS = ("storm", "mobility-failover")
WORKLOADS = SIM_WORKLOADS + ("codec",)
FORMATS = ("asn1per", "flatbuf", "flatbuf_opt", "protobuf", "fastcdr", "lcm",
           "flexbuf")
PAPER_FORMATS = ("asn1per", "flatbuf", "flatbuf_opt")  # Fig. 19
CODEC_REPETITION_S = 2.5

# (name, unit, better). Host clock unless the unit says sim_ms; counts and
# ratios of core.* are simulated and exact.
END_TO_END = [
    ("ops_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]
PER_LAYER = [
    ("traffic.generate_s", "s", "lower"),
    ("traffic.records", "count", "lower"),
    ("core.build_s", "s", "lower"),
    ("core.preattach_s", "s", "lower"),
    ("core.replay_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("sim.events_per_proc", "ratio", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.dispatch_s", "s", "lower"),
    ("sim.parallel.windows", "count", "lower"),
    ("sim.parallel.events_per_window", "count", "higher"),
    ("sim.parallel.cross_messages", "count", "lower"),
    ("sim.parallel.shard_imbalance", "ratio", "lower"),
    ("sim.parallel.schedule_s", "s", "lower"),
    ("sim.parallel.barrier_wait_s", "s", "lower"),
    ("sim.parallel.barrier_share", "ratio", "lower"),
    ("sim.parallel.channel_drain_s", "s", "lower"),
    ("sim.parallel.dispatch_inflation", "ratio", "lower"),
    ("sim.parallel.speedup", "ratio", "higher"),
    ("core.log_appends", "count", "lower"),
    ("core.log_prunes", "count", "lower"),
    ("core.replays", "count", "lower"),
    ("core.cta_log_peak_bytes", "bytes", "lower"),
    ("core.checkpoints_sent", "count", "lower"),
    ("core.checkpoint_ack_share", "ratio", "higher"),
    ("core.state_fetches", "count", "lower"),
    ("core.fast_handovers", "count", "higher"),
    ("core.fast_handover_share", "ratio", "higher"),
    ("core.reattaches", "count", "lower"),
    ("core.outdated_notifies", "count", "lower"),
    ("core.cpf_busy_ms", "sim_ms", "lower"),
    ("core.cpf_peak_depth", "count", "lower"),
    ("core.attach_pct_p50_ms", "sim_ms", "lower"),
    ("core.attach_pct_p99.99_ms", "sim_ms", "lower"),
    ("core.handover_pct_p50_ms", "sim_ms", "lower"),
    ("core.handover_pct_p99.9_ms", "sim_ms", "lower"),
    ("core.reattach_share", "ratio", "lower"),
    ("obs.telemetry_overhead", "ratio", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
] + [(f"serialize.{f}.{what}", "bytes" if what == "bytes" else "ns", "lower")
     for f in FORMATS for what in ("encode_ns", "decode_ns", "bytes")]


def build():
    """Configure (once) and build the benchmark; progress goes to stderr."""
    if not (ROOT / "src").is_dir():
        sys.exit("perfbench: no library sources under src/; run from the "
                 "root of a full checkout")
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), "-G",
                        "Ninja", "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)


def repetition(workload, seed, trace, variant=0, seconds=None):
    """One repetition in a fresh process; its measurements as a dict."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--table", str(TABLE), "--golden", str(GOLDEN), "--trace",
           "1" if trace else "0", "--variant", str(variant)]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def repeat(seconds, cycle):
    """Run cycle(k) for k = 0, 1, ... until the next would overrun."""
    start = time.monotonic()
    results, durations = [], []
    while True:
        began = time.monotonic()
        results.append(cycle(len(results)))
        durations.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if elapsed + statistics.median(durations) > seconds:
            return results


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den > 0 else 0.0


def spans_of(rep, run):
    """The repetition's spans with their run id and self time."""
    spans = rep.get("spans", [])
    child = [0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return [{"run": run, "id": i, "parent": parent, "name": name,
             "start_ns": start, "end_ns": end,
             "self_ns": end - start - child[i]}
            for i, (name, parent, start, end) in enumerate(spans)]


def run_sim(args, notes, spans):
    variants = (0, 1, 2) if args.trace else (0,)
    cycles = repeat(args.seconds, lambda k: [
        repetition(args.workload, args.seed, args.trace, v)
        for v in variants])
    reps = [[c[i] for c in cycles] for i in range(len(variants))]
    attempted = failed = 0
    reference = {}
    for k, cycle in enumerate(cycles):
        for rep in cycle:
            attempted += rep["started"]
            failed += abs(rep["started"] - rep["completed"])
            failed += rep["ryw_violations"]
            # Threads and profiling must not change the simulated outcome;
            # telemetry adds its own sampling events.
            ref = reference.setdefault(rep["telemetry"], rep["fingerprint"])
            if ref != rep["fingerprint"]:
                failed += 1
                notes.append(f"fingerprint mismatch: {rep['variant']} "
                             f"repetition {k}")
            spans += spans_of(rep, f"{args.workload}/seed{args.seed}/"
                                   f"{rep['variant']}/rep{k}")

    base, first = reps[0], reps[0][0]
    core = first["core"]
    notes.append(f"cost_table_hash={first['cost_table_hash']}")
    notes.append(f"sim_fingerprint={first['fingerprint']}")
    notes.append(f"simulated: {first['completed']}/{first['started']} "
                 f"procedures completed, ryw_violations "
                 f"{first['ryw_violations']}, attach samples "
                 f"{first['attach_samples']}, handover samples "
                 f"{first['handover_samples']}")
    for name in ("attach_pct_p50_ms", "attach_pct_p99.99_ms",
                 "handover_pct_p50_ms", "handover_pct_p99.9_ms"):
        notes.append(f"{name}={core['core.' + name]!r} sim_ms")
    notes.append(f"reattach_share={core['core.reattach_share']!r} ratio")
    notes.append(f"events={first['events']} windows={first['windows']} "
                 f"cross_messages={first['cross_messages']}")
    setup = [r["generate_s"] + r["build_s"] + r["preattach_s"] + r["replay_s"]
             for r in base]
    notes.append("host seconds per repetition (setup/run): " + " ".join(
        f"{s:.3f}/{r['run_s']:.3f}" for s, r in zip(setup, base)))
    # Every repetition of a seed splits run_until into the same simulated
    # slices, each doing identical work. Timing each slice by its fastest
    # repetition filters out load from other tenants of a shared host,
    # which comes and goes within milliseconds.
    if len({len(r["slice_s"]) for r in base}) != 1:
        failed += 1
        notes.append("repetitions disagree on the number of slices")
    fastest_run_s = sum(map(min, zip(*(r["slice_s"] for r in base))))
    notes.append(f"fastest-slice run time {fastest_run_s:.3f} s over "
                 f"{len(base[0]['slice_s'])} slices")

    if not args.trace:
        return attempted, failed, {
            "ops_per_s": first["completed"] / fastest_run_s,
            "setup_s": median(setup),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in base]),
        }

    every = [r for v in reps for r in v]
    traced, third = reps[1], reps[2]

    def med(rows, key):
        return median([r[key] for r in rows])

    run_untraced, run_traced = med(base, "run_s"), med(traced, "run_s")
    run_third = med(third, "run_s")
    dispatch = med(traced, "phase.dispatch_s")
    events = first["events"]
    values = {
        "traffic.generate_s": med(every, "generate_s"),
        "traffic.records": first["records"],
        "core.build_s": med(every, "build_s"),
        "core.preattach_s": med(every, "preattach_s"),
        "core.replay_s": med(every, "replay_s"),
        "sim.events": events,
        "sim.events_per_proc": ratio(events, first["completed"]),
        "sim.events_per_s": ratio(events, run_untraced),
        "sim.dispatch_s": dispatch,
        "sim.parallel.windows": first["windows"],
        "sim.parallel.events_per_window": ratio(events, first["windows"]),
        "sim.parallel.cross_messages": first["cross_messages"],
        "sim.parallel.shard_imbalance": first["shard_imbalance"],
        "sim.parallel.schedule_s": med(traced, "phase.schedule_s"),
        "sim.parallel.barrier_wait_s": med(traced, "phase.barrier_wait_s"),
        "sim.parallel.barrier_share": median(
            [ratio(r["phase.barrier_wait_s"], r["phase.lanes_s"])
             for r in traced]),
        "sim.parallel.channel_drain_s": med(traced, "phase.channel_drain_s"),
        "obs.trace_overhead": ratio(run_traced, run_untraced) - 1.0,
    }
    if args.workload == "storm":
        # The third variant is the same run at one worker thread: the
        # parallel speedup, and how much slower the same events dispatch
        # when threads share the machine.
        values["sim.parallel.dispatch_inflation"] = ratio(
            dispatch, med(third, "phase.dispatch_s"))
        values["sim.parallel.speedup"] = ratio(run_third, run_traced)
    else:
        # Both traced; the third variant only drops telemetry.
        values["obs.telemetry_overhead"] = ratio(run_traced, run_third) - 1.0
    values.update(core)
    return attempted, failed, values


def run_codec(args, notes, spans):
    reps = repeat(args.seconds, lambda k: repetition(
        "codec", args.seed, args.trace,
        seconds=min(CODEC_REPETITION_S, args.seconds)))
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for k, rep in enumerate(reps):
        notes.extend(f"repetition {k}: {m}" for m in rep["mismatches"])
        spans += spans_of(rep, f"codec/seed{args.seed}/rep{k}")

    def per_format(rep, key):
        """Mean over the five messages, per format."""
        sums = {f: [] for f in FORMATS}
        for p in rep["pairs"]:
            sums[p["format"]].append(p[key])
        return {f: statistics.fmean(v) for f, v in sums.items()}

    notes.append(f"cost_table_hash={reps[0]['cost_table_hash']}")
    encode = [per_format(r, "encode_ns") for r in reps]
    decode = [per_format(r, "decode_ns") for r in reps]
    for f in PAPER_FORMATS:
        ns = median([e[f] + d[f] for e, d in zip(encode, decode)])
        notes.append(f"codec_{f}_ns={ns!r} ns (host clock, mean "
                     f"encode+decode over the five messages)")
    notes.append(f"repetitions={len(reps)} rounds="
                 f"{sum(r['rounds'] for r in reps)}")

    if not args.trace:
        # Encode+decode round trips per host second at the geometric-mean
        # cost of the fifteen Fig. 19 (format, message) pairs.
        def rate(rep):
            costs = [p["encode_ns"] + p["decode_ns"] for p in rep["pairs"]
                     if p["format"] in PAPER_FORMATS]
            return 1e9 / math.exp(statistics.fmean(map(math.log, costs)))
        return attempted, failed, {
            "ops_per_s": median([rate(r) for r in reps]),
            "setup_s": median([r["setup_s"] for r in reps]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        }
    values = {"obs.trace_overhead": median(
        [ratio(r["traced_round_s"], r["untraced_round_s"]) - 1.0
         for r in reps])}
    size = per_format(reps[0], "bytes")
    for f in FORMATS:
        values[f"serialize.{f}.encode_ns"] = median([e[f] for e in encode])
        values[f"serialize.{f}.decode_ns"] = median([d[f] for d in decode])
        values[f"serialize.{f}.bytes"] = size[f]
    return attempted, failed, values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not TABLE.exists():
        sys.exit(f"perfbench: pinned cost table {TABLE} is missing")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")

    notes, spans = [], []
    try:
        run = run_sim if args.workload in SIM_WORKLOADS else run_codec
        attempted, failed, values = run(args, notes, spans)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as err:
        sys.exit(f"perfbench: {err}")
    unknown = set(values) - {m[0] for m in END_TO_END + PER_LAYER}
    if unknown:
        sys.exit(f"perfbench: internal error: unknown metrics {unknown}")
    if args.trace:
        out = BUILD / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
        out.parent.mkdir(exist_ok=True)
        out.write_text("".join(json.dumps(s) + "\n" for s in spans))
        notes.append(f"spans: {len(spans)} written to "
                     f"{out.relative_to(ROOT)}")

    # A per-layer metric whose layer does no work on this workload reads 0.
    schema = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit, _ in schema}
    for note in notes:
        print(f"# {note}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
