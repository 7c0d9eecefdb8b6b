#!/usr/bin/env bash
# Full local gate: sanitized build, tests, bench smoke runs, and JSON
# report validation. Run from the repo root:
#
#   scripts/check.sh            # everything (Debug + ASan/UBSan)
#   FAST=1 scripts/check.sh     # reuse an existing build/ instead
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${FAST:-0}" == "1" ]]; then
  BUILD=build
  EXCLUDE=()
  cmake -B "$BUILD" -S . >/dev/null
else
  BUILD=build-asan
  # Wall-clock-anchored calibration tests measure the *real* codecs;
  # sanitizer instrumentation skews the measurement, not the code under
  # test, so they only run in the un-instrumented configuration.
  EXCLUDE=(-E "MeasuredCostModel.AttachBudgetAnchored")
  cmake -B "$BUILD" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all" \
    >/dev/null
fi
echo "== build ($BUILD)"
cmake --build "$BUILD" -j

echo "== ctest"
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)" "${EXCLUDE[@]}"

echo "== bench smoke + report validation"
REPORTS=()
for bench in fig07_service_request_pct fig08_attach_pct_uniform \
             fig_saturation; do
  out="$BUILD/bench/$bench.smoke-report.json"
  "$BUILD/bench/$bench" --smoke --report="$out" >/dev/null
  REPORTS+=("$out")
done
# fig17 with telemetry armed: its time view comes from the windowed
# series, the only time-indexed instrument.
out="$BUILD/bench/fig17_log_size.smoke-report.json"
"$BUILD/bench/fig17_log_size" --smoke --telemetry --report="$out" >/dev/null
REPORTS+=("$out")
python3 scripts/validate_report.py "${REPORTS[@]}"
# A typo'd or removed flag must fail loudly, never run the default config.
rc=0
"$BUILD/bench/fig07_service_request_pct" --smoke --thread=4 \
  >/dev/null 2>&1 || rc=$?
[[ "$rc" == 2 ]] || { echo "unknown bench flag exited $rc, want 2"; exit 1; }

# Extended structure-aware codec fuzz under the sanitized build: ctest
# already ran the suite at its default iteration count; this pass widens
# the corpus so memory bugs in the decoders meet ASan, not production.
echo "== codec fuzz (extended, $BUILD)"
NEUTRINO_FUZZ_ITERS=1200 "$BUILD/tests/codec_fuzz_test" >/dev/null

echo "== trace demo"
"$BUILD/examples/trace_explore" >/dev/null

# Chaos smoke under the sanitized build: a handful of randomized failure
# schedules with the online invariant checker armed, elastic churn
# (drain/scale-out pairs) included so the handoff path runs under ASan.
# Seed count is small here (sanitizers are ~10x); the release stage below
# runs the wide sweep.
echo "== chaos smoke ($BUILD)"
cmake --build "$BUILD" -j --target chaos_campaign
out="$BUILD/bench/chaos_campaign.smoke-report.json"
"$BUILD/bench/chaos_campaign" --smoke --seeds=10 --churn=3 \
  --repro-dir="$BUILD/bench" --report="$out" >/dev/null
python3 scripts/validate_report.py "$out"

# ThreadSanitizer pass over the multi-threaded sharded runtime (and the
# event-loop/determinism suites it builds on): lanes hand shards' outboxes
# to each other at every barrier, including uneven shard-to-lane splits
# (parallel_stress_test). golden_vector_test encodes on four threads at
# once, each through its own reused FlatBuffers builder. elastic_test
# changes every shard's placement rings at one simulated time while two
# shards run on 1/2/4/8 threads: no lane may read another shard's rings.
# UE state snapshots are shared across lanes through core::StateRef:
# parallel_determinism_test releases them on whichever lane holds the
# last handle, and state_ref_test releases one box on four threads.
# TSan and ASan cannot share a build; this is a separate configuration so
# both always run.
if [[ "${FAST:-0}" != "1" ]]; then
  echo "== build-tsan + parallel runtime tests"
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all" \
    >/dev/null
  TSAN_TESTS=(sim_core_test parallel_runtime_test parallel_stress_test
              parallel_determinism_test golden_vector_test elastic_test
              state_ref_test)
  cmake --build build-tsan -j --target "${TSAN_TESTS[@]}"
  for t in "${TSAN_TESTS[@]}"; do
    echo "-- tsan: $t"
    "build-tsan/tests/$t"
  done
fi

# Throughput gate: the 100k-UE storm must complete every procedure with
# zero RYW violations (scale_throughput exits non-zero otherwise), at
# release optimization levels — sanitized builds measure the sanitizer.
# The sharded rows re-run the storm over the partitioned topology on two
# worker threads, exercising the cross-shard path at full optimization.
# -Werror: the Release build is the warning gate (-Wall -Wextra), so a
# new warning fails here instead of scrolling past.
echo "== release build + scale smoke (build-release)"
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS_RELEASE="-O2 -DNDEBUG" -DCMAKE_CXX_FLAGS=-Werror \
  >/dev/null
cmake --build build-release -j --target scale_throughput sim_core_gbench \
  parallel_runtime_test parallel_determinism_test determinism_test \
  core_procedures_test state_ref_test
# The window-causality check, the cross-shard UE<->CTA guard, the
# event-stream key order, the watched-outage contract and snapshot
# immutability must survive -DNDEBUG: a message landing inside its
# destination's window, an inter-shard handover, a stream whose keys go
# backwards, an outage query for a UE nobody watched, or a write through
# a shared UE state snapshot aborts the run in Release too.
build-release/tests/parallel_runtime_test \
  --gtest_filter='ShardedRuntime.CausalityViolationAbortsInEveryBuild'
build-release/tests/parallel_determinism_test \
  --gtest_filter='ParallelDeterminism.CrossShardHandoverAbortsInEveryBuild'
build-release/tests/determinism_test \
  --gtest_filter='DeterminismStreams.DecreasingKeysAbortInEveryBuild'
build-release/tests/core_procedures_test \
  --gtest_filter='Frontend.OutagesOfUnwatchedUeAbortInEveryBuild'
build-release/tests/state_ref_test \
  --gtest_filter='StateRef.MutateOfASharedSnapshotAbortsInEveryBuild'
out=build-release/bench/scale_throughput.smoke-report.json
build-release/bench/scale_throughput --smoke --threads=1,2 --shards=2 \
  --report="$out"
python3 scripts/validate_report.py "$out"
python3 scripts/summarize_bench.py "$out"

# Deep telemetry (DESIGN.md §15): the same storm with windowed series,
# SLO burn tracking and the phase profiler armed, the last sharded row
# exporting a Perfetto trace. validate_report.py checks the v3 report
# sections and the trace-event JSON.
echo "== telemetry sections + trace export (build-release)"
tout=build-release/bench/scale_throughput.telemetry-report.json
trace=build-release/bench/scale_throughput.trace.json
build-release/bench/scale_throughput --smoke --threads=1,2 --shards=2 \
  --telemetry --trace-out="$trace" --report="$tout" >/dev/null
python3 scripts/validate_report.py "$tout" "$trace"
python3 - "$tout" <<'PY'
import json, sys
rows = json.load(open(sys.argv[1]))["rows"]
for section in ("timeseries", "slo", "profiler"):
    assert any(section in r for r in rows), f"no {section} section in any row"
print("telemetry sections present:", sys.argv[1])
PY

# Telemetry overhead gate: enabled (--telemetry) must cost <=10% over
# disabled — the default-off path stays effectively free. Wall-clock
# on a shared runner is noisy in one direction only (co-tenant
# contention inflates samples), so the gate compares the MINIMUM wall
# per side over >=3 interleaved runs — the same estimator as the
# shard-sync gate below. The disabled best-two drift is a loose
# sanity bound (<=10%), not the old 2% reproducibility bar: one
# extra-quiet sample lowers the min and *widens* the best-two gap, so
# a tight drift bar is anti-robust exactly when the estimate improves.
# Each batch of three off and three on runs is judged on its own: a
# batch over either bound is replaced by a fresh one, not pooled with
# it, so one outlier-fast off run fails at most its own batch.
echo "== telemetry overhead gate (build-release)"
tele_ok=0
for batch in 1 2 3; do
  OFF_OUTS=()
  ON_OUTS=()
  for attempt in 1 2 3; do
    off="build-release/bench/scale-overhead-off$batch$attempt.json"
    on="build-release/bench/scale-overhead-on$batch$attempt.json"
    build-release/bench/scale_throughput --smoke --report="$off" >/dev/null
    build-release/bench/scale_throughput --smoke --telemetry \
      --report="$on" >/dev/null
    OFF_OUTS+=("$off")
    ON_OUTS+=("$on")
  done
  if python3 - "${OFF_OUTS[@]}" -- "${ON_OUTS[@]}" <<'PY'
import json, sys
def wall(path):
    return sum(r["wall_seconds"] for r in json.load(open(path))["rows"])
sep = sys.argv.index("--")
offs = sorted(wall(p) for p in sys.argv[1:sep])
ons = sorted(wall(p) for p in sys.argv[sep + 1:])
drift = (offs[1] - offs[0]) / offs[0]
overhead = (ons[0] - offs[0]) / offs[0]
print(f"telemetry overhead: disabled best-two drift {drift:.1%}, "
      f"enabled {overhead:+.1%} (min over {len(offs)} off / {len(ons)} on "
      f"runs; gate: 10% / 10%)")
sys.exit(0 if drift <= 0.10 and overhead <= 0.10 else 1)
PY
  then
    tele_ok=1
    break
  fi
  [[ "$batch" == 3 ]] || echo "-- batch $batch over the gate; running a fresh batch"
done
[[ "$tele_ok" == 1 ]] || { echo "telemetry overhead gate failed"; exit 1; }

# Shard-sync overhead gate (DESIGN.md §16): the storm partitioned over 8
# shards on ONE worker thread must cost <=15% over the same-topology
# one-shard run — this prices the window machinery itself
# (scheduling scans, barriers skipped at threads=1, boundary drains),
# not parallel speedup. Each report carries its in-process ratio
# (config.sync_overhead_threads1, from the "sharded_baseline": true row);
# the gate compares the MINIMUM wall per side over 3 fresh runs, because
# co-tenant CPU contention only ever inflates a sample — the min is the
# robust estimator of the true cost on a shared runner.
echo "== shard-sync overhead gate (build-release)"
SYNC_OUTS=()
sync_ok=0
for batch in 1 2 3; do
  for attempt in 1 2 3; do
    out="build-release/bench/scale-sync-overhead$batch$attempt.json"
    build-release/bench/scale_throughput --smoke --threads=1 --shards=8 \
      --report="$out" >/dev/null
    SYNC_OUTS+=("$out")
  done
  if python3 - "${SYNC_OUTS[@]}" <<'PY'
import json, sys
one_shard, sharded = [], []
for path in sys.argv[1:]:
    text = open(path).read()
    doc = json.loads(text[text.find("{"):])
    for r in doc["rows"]:
        if r.get("sharded_baseline"):
            one_shard.append(r["wall_seconds"])
        elif r.get("mode") == "sharded" and r.get("threads") == 1:
            sharded.append(r["wall_seconds"])
    print(f"  {path}: in-process ratio "
          f"{doc['config']['sync_overhead_threads1']:+.1%}")
assert one_shard and sharded, "gate rows missing from the reports"
overhead = min(sharded) / min(one_shard) - 1
print(f"shard-sync overhead at threads=1: {overhead:+.1%} "
      f"(min over {len(sharded)} runs per side; gate: 15%)")
sys.exit(0 if overhead <= 0.15 else 1)
PY
  then
    sync_ok=1
    break
  fi
  # A busy co-tenant window can inflate a whole batch, sharded side
  # hardest (it touches more memory). Pool another batch of samples —
  # the minima only ever improve — before calling it a real regression.
  [[ "$batch" == 3 ]] || echo "-- batch $batch over the gate; pooling another batch"
done
[[ "$sync_ok" == 1 ]] || { echo "shard-sync overhead gate failed"; exit 1; }
# Live-heap check on the same reports: cross-shard outboxes grow only with the
# traffic each shard pair carries, so in every report the 8-shard
# threads=1 row ends within 10% of the same-topology one-shard row's live
# heap (heap_in_use_bytes, deterministic for a given build). Buffers
# preallocated per shard pair would grow with shards² and fail it.
python3 - "${SYNC_OUTS[@]}" <<'PY' || { echo "shard live-heap check failed"; exit 1; }
import json, sys
ok = True
for path in sys.argv[1:]:
    text = open(path).read()
    doc = json.loads(text[text.find("{"):])
    one_shard = [r["heap_in_use_bytes"] for r in doc["rows"]
                 if r.get("sharded_baseline")]
    sharded = [r["heap_in_use_bytes"] for r in doc["rows"]
               if r.get("mode") == "sharded" and r.get("threads") == 1]
    assert len(one_shard) == 1 and len(sharded) == 1, f"{path}: rows missing"
    growth = sharded[0] / one_shard[0] - 1
    print(f"  {path}: live heap {sharded[0] / 2**20:.1f} MiB at 8 shards vs "
          f"{one_shard[0] / 2**20:.1f} MiB at one ({growth:+.1%}; gate: 10%)")
    ok &= abs(growth) <= 0.10
sys.exit(0 if ok else 1)
PY

# Parallel speedup floor (ROADMAP item 1): the storm over 4 shards must
# run at least 1.5x faster on 4 worker threads than on 1. Same estimator
# as the shard-sync gate: both rows execute identical events, so the best
# events/s per side over up to 3 batches of 3 runs compares each side's
# least-contended sample. Four threads need four cores to mean anything.
echo "== parallel speedup floor (build-release)"
if [[ "$(nproc)" -lt 4 ]]; then
  echo "-- skipped: nproc=$(nproc) < 4, so threads=4 cannot run in parallel"
else
  SPEED_OUTS=()
  speed_ok=0
  for batch in 1 2 3; do
    for attempt in 1 2 3; do
      out="build-release/bench/scale-speedup$batch$attempt.json"
      build-release/bench/scale_throughput --smoke --shards=4 --threads=1,4 \
        --report="$out" >/dev/null
      SPEED_OUTS+=("$out")
    done
    if python3 - "${SPEED_OUTS[@]}" <<'PY'
import json, sys
eps = {1: [], 4: []}
for path in sys.argv[1:]:
    text = open(path).read()
    doc = json.loads(text[text.find("{"):])
    for r in doc["rows"]:
        if r.get("mode") == "sharded" and r.get("threads") in eps:
            eps[r["threads"]].append(r["events_per_sec"])
assert eps[1] and eps[4], "speedup rows missing from the reports"
speedup = max(eps[4]) / max(eps[1])
print(f"parallel speedup, shards=4 threads=4 vs 1: {speedup:.2f}x "
      f"(best of {len(eps[1])} runs per side; floor: 1.50x)")
sys.exit(0 if speedup >= 1.5 else 1)
PY
    then
      speed_ok=1
      break
    fi
    [[ "$batch" == 3 ]] || echo "-- batch $batch under the floor; pooling another batch"
  done
  [[ "$speed_ok" == 1 ]] || { echo "parallel speedup floor failed"; exit 1; }
fi

# Saturation sweep at release optimization: the full offered-load knee
# sweep with overload control armed; validate_report.py enforces the
# bounded-depth / zero-RYW / >=99%-completion acceptance surface.
echo "== saturation sweep (build-release)"
cmake --build build-release -j --target fig_saturation
out=build-release/bench/fig_saturation.report.json
trace=build-release/bench/fig_saturation.trace.json
build-release/bench/fig_saturation --telemetry --trace-out="$trace" \
  --report="$out" >/dev/null
python3 scripts/validate_report.py "$out" "$trace"

# Traffic scenarios (DESIGN.md §17): the per-scenario saturation sweep
# with its calibrated acceptance gate (fig_scenarios exits non-zero when
# any scenario misses zero-RYW / >=99%-completion at its knee), then every
# named scenario through scale_throughput's one-shard AND two-shard rows
# with a bit-identical cross-thread-count comparison, and finally a chaos
# campaign with a scenario overlaid on the generated failure schedules.
echo "== traffic scenarios (build-release)"
cmake --build build-release -j --target fig_scenarios scale_throughput \
  chaos_campaign
out=build-release/bench/fig_scenarios.smoke-report.json
build-release/bench/fig_scenarios --smoke --report="$out" >/dev/null
python3 scripts/validate_report.py "$out"
python3 scripts/summarize_bench.py "$out"
rm -f build-release/bench/scale-scenario-*.json
for sc in legacy-uniform legacy-bursty commuter-morning stadium-egress \
          iot-firmware-push region-blackout-reconnect; do
  out="build-release/bench/scale-scenario-$sc.json"
  build-release/bench/scale_throughput --smoke --ues=2000 --scenario="$sc" \
    --threads=1,2 --shards=2 --report="$out" >/dev/null
  python3 scripts/validate_report.py "$out"
done
python3 - build-release/bench/scale-scenario-*.json <<'PY'
import json, sys
# Bit-identical outcomes across worker threads for every scenario: the
# threads=1 and threads=2 sharded rows must agree on everything the run
# computes (counters, windows, cross-shard traffic, per-shard events).
for path in sys.argv[1:]:
    text = open(path).read()
    doc = json.loads(text[text.find("{"):])
    sharded = {r["threads"]: r for r in doc["rows"]
               if r.get("mode") == "sharded"}
    a, b = sharded[1], sharded[2]
    for k in ("counters", "windows", "cross_shard_messages", "shard_events",
              "dispatches_skipped", "arrivals"):
        assert a[k] == b[k], f"{path}: {k} differs across thread counts"
    print(f"  deterministic across threads: {path}")
PY
out=build-release/bench/chaos_campaign.scenario-report.json
build-release/bench/chaos_campaign --smoke --seeds=10 \
  --scenario=iot-firmware-push --shards=4 --threads=2 \
  --repro-dir=build-release/bench --report="$out" >/dev/null
python3 scripts/validate_report.py "$out"

# City-scale mobility (DESIGN.md §18): the commuter-crossing handover
# sweep with CPF crash windows colliding with the commute wave, plus the
# edge-pingpong oscillator run. fig_mobility exits non-zero itself when
# any acceptance gate misses (zero RYW under mobility+chaos, slow-path
# coverage, the corrected closed-form crossing rate within tolerance,
# bit-identical outcomes across worker-thread counts); the validator then
# re-checks the report's v5 surface independently of the bench's own gate.
echo "== mobility (build-release)"
cmake --build build-release -j --target fig_mobility
out=build-release/bench/fig_mobility.smoke-report.json
build-release/bench/fig_mobility --smoke --report="$out" >/dev/null
python3 scripts/validate_report.py "$out"
python3 scripts/summarize_bench.py "$out"

# Elasticity (DESIGN.md §19): live scale-out/in against the diurnal
# envelope, a rolling upgrade one replica at a time, and a permanently
# lost region. fig_elastic exits non-zero itself when any acceptance
# gate misses (zero RYW across every churn, >=99% completion, planned
# drain/scale-out counts matched exactly, lost-region UEs re-homed,
# bit-identical outcomes across worker-thread counts); the validator
# then re-checks the report's v6 surface independently.
echo "== elastic (build-release)"
cmake --build build-release -j --target fig_elastic
out=build-release/bench/fig_elastic.smoke-report.json
build-release/bench/fig_elastic --smoke --report="$out" >/dev/null
python3 scripts/validate_report.py "$out"
python3 scripts/summarize_bench.py "$out"

# Release chaos campaign: 50 seeds on the 1-shard and the 4-shard runtime,
# with elastic churn in the schedule grammar; any invariant violation
# shrinks to a replayable reproducer and fails the gate, and so does any
# seed whose 1-shard and 4-shard outcomes differ (the report's
# "mismatches": partitioning may change where work ran, never what
# happened).
echo "== chaos campaign (build-release)"
cmake --build build-release -j --target chaos_campaign
out=build-release/bench/chaos_campaign.smoke-report.json
build-release/bench/chaos_campaign --seeds=50 --shards=4 --threads=2 \
  --churn=2 --repro-dir=build-release/bench --report="$out"
python3 scripts/validate_report.py "$out"
# Teeth through the binary: each planted bug must be caught and shrunk to
# <= 10 events (--inject exits non-zero otherwise), and the reproducer it
# wrote must read back from disk and still fail (--replay exits 0 then).
for inject in stale prune; do
  line=$(build-release/bench/chaos_campaign --inject="$inject" \
    --repro-dir=build-release/bench)
  echo "$line"
  repro=$(grep -o 'reproducer=[^[:space:]]*' <<<"$line" | cut -d= -f2-) ||
    { echo "--inject=$inject printed no reproducer="; exit 1; }
  build-release/bench/chaos_campaign --replay="$repro" >/dev/null
done

# Repo benchmark (perfbench/): its self-tests (which build it into
# .bench_build/ as perfbench/run.py does), then the simulated fingerprints
# every change must keep, each read from one run.py repetition, and the
# codec workload's golden checks (every encoding against tests/golden, and
# decode(encode(m)) == m) from one short repetition.
echo "== perfbench self-test + fingerprints + codec goldens (.bench_build)"
python3 perfbench/selftest.py
python3 - <<'PY'
import sys
sys.path.insert(0, "perfbench")
import run
PINS = [("storm", 1, "a80f037c71c26b21"), ("storm", 5, "96e5854e8c7a5e39"),
        ("mobility-failover", 1, "8d6b79b8c541e8fd")]
wrong = 0
for workload, seed, want in PINS:
    got = run.repetition(workload, seed, False)["fingerprint"]
    print(f"-- {workload} seed {seed}: fingerprint {got}")
    if got != want:
        print(f"{workload} seed {seed}: fingerprint {got}, want {want}")
        wrong += 1
codec = run.repetition("codec", 1, False, seconds=0.5)
print(f"-- codec: failed={codec['failed']} "
      f"mismatches={len(codec['mismatches'])}")
for m in codec["mismatches"]:
    print(f"codec: {m}")
if codec["failed"] != 0 or codec["mismatches"]:
    wrong += 1
sys.exit(1 if wrong else 0)
PY

echo "check.sh: all green"
