#!/usr/bin/env python3
"""Validate a neutrino bench or chaos-campaign JSON document.

Usage:  python3 scripts/validate_report.py REPORT.json [REPORT2.json ...]

A report may be a bare JSON file (--report=PATH) or a bench's stdout with
the TSV rows still in front (the JSON document starts at the first line
that is exactly "{"). The document's "schema" key selects the checks.

neutrino.bench-report:
  * schema/version envelope and required keys;
  * every row has a system name; percentile summaries are internally
    consistent (count > 0 implies p50 <= p99 <= max);
  * counters are non-negative integers;
  * when a row carries decomposition_ms, each procedure's component means
    (propagation + queueing + service + serialization + other) sum to the
    "total" mean within 1% — the tracer's tiling guarantee;
  * version >= 2: every row carries "mode"; "sharded" rows carry
    shards/threads/windows/cross_shard_messages and a shard_events list
    with one non-negative entry per shard summing to events_executed;
    window-policy keys, when present (DESIGN.md §16): row
    adaptive_lookahead / sharded_baseline are booleans,
    adaptive_extensions / dispatches_skipped are non-negative integers,
    and config adaptive_lookahead is typed the same way;
    config sync_overhead_threads1 (the threads=1 shard-sync overhead
    ratio the perf gate reads) is a number > -1 — negative when the
    sharded sample happened to beat the legacy baseline;
  * version >= 3 (deep telemetry, DESIGN.md §15): a row's "timeseries"
    section has a positive window, strictly monotone per-series
    timestamps and point-list lengths consistent with the exporter's
    shared subsampling stride; an "slo" section has monotone targets,
    violation counts bounded by the sample count and burn rates matching
    (violations/count)/(1-q); a "profiler" section has non-negative
    ns/calls, shares in [0,1] summing to 1, and lane totals matching the
    per-phase totals;
  * version >= 4 (traffic scenarios, DESIGN.md §17): a config "scenario"
    object names a valid generation request (non-empty name, bool
    preattach, numeric rate/duration/population/regions/seed); every row
    carrying "scenario" also carries "arrivals" (per-class counts summing
    to the total) and an "arrival_series" whose windowed counts are
    non-negative, strictly monotone in time and sum to the total;
  * figure "fig_saturation" additionally: a calibrated knee and queue
    capacity in config; every overload-control row has zero RYW
    violations, >= 99% completion and a peak queue depth within 2x the
    configured capacity; the 2x-knee row actually shed attaches; and the
    unbounded baseline's peak depth exceeds that bound (the backlog the
    controller is there to prevent). Scenario-mode sweeps (config carries
    "scenario") skip these gates: the calibrated acceptance story for
    named scenarios lives in fig_scenarios.
  * figure "fig_scenarios" additionally: config.scenarios is a non-empty
    string list with a positive calibrated knee per scenario; every row
    names a scenario from that list with offered_pps/knee_pps > 0, a
    completion_rate in [0,1] and a pct_ms summary; each scenario's
    x=1.0 (knee) row shows zero RYW violations and >= 99% completion.
  * figure "fig_mobility" additionally (schema v5, DESIGN.md §18): a
    config "mobility" object with grid geometry (positive pitch,
    hysteresis, ping-pong window, expected leg), a block correction in
    (0, 1], non-negative crossing/ping-pong counters, a per-class list
    (non-negative measured/predicted rates, bool validate) and, when any
    class validates, worst_rate_deviation within rate_tolerance; every
    row carries a handover_pct_ms summary and zero RYW violations; all
    commuter-crossing rows (one per worker-thread count) are bit-identical
    in events, counters and handover PCT; edge-pingpong rows carry
    positive pingpong_pairs and non-negative suppressed_excursions.
  * figure "fig_elastic" additionally (schema v6, DESIGN.md §19): a
    config "elastic" object with a positive drain grace and autoscale
    levels, an envelope-derived autoscale plan (drain before restore,
    positive drained replica count), a rolling-upgrade cadence
    (positive step/hold/replicas) and a lost region (non-negative
    region, positive instant) plus a non-empty [frac, level] envelope;
    every row names a known scenario and carries completion_rate
    >= 0.99, a handoff_ms summary, non-negative ring_epoch /
    migrated_ues and zero RYW violations; churn scenarios
    (diurnal-autoscale, rolling-upgrade) show positive drains,
    scale-outs and migrated UEs with migrated_ues equal to the
    core.handoff_ues counter and a positive ring_epoch; region-loss
    rows show positive rehomed_ues; and each scenario's thread sweep
    (>= 2 rows) is bit-identical in counters, events, handoff PCT,
    windows, ring_epoch and migrated_ues.

Chrome/Perfetto trace-event JSON (a document with "traceEvents" and no
"schema" key, as written by --trace-out=):
  * traceEvents is a list; every event has a name, a phase in {M, X, C}
    and integer pid/tid; "X" complete events carry non-negative ts and
    dur; "C" counter events carry ts and args.

neutrino.chaos-campaign:
  * envelope, config, seeds_run and mismatch counters;
  * one per_runtime row per runtime with non-negative integer
    violations/started/completed/lost/unquiesced and a recovery-outcome
    histogram of non-negative integers;
  * every failing_seeds entry names its seed and runtime, and any
    reproducer path is a non-empty string.

Exit code 0 when every file passes. No third-party dependencies.
"""
import json
import sys

COMPONENTS = ("propagation", "queueing", "service", "serialization", "other")
SCHEMA = "neutrino.bench-report"
CAMPAIGN_SCHEMA = "neutrino.chaos-campaign"
MODES = ("single-thread", "sharded")


def extract_json(text):
    """Return the JSON document embedded in bench stdout (or the whole file)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(stripped)
    for i, line in enumerate(text.splitlines(keepends=True)):
        if line.rstrip("\n") == "{":
            return json.loads("".join(text.splitlines(keepends=True)[i:]))
    raise ValueError("no JSON document found")


def check_summary(path, where, s, errors):
    for k in ("n", "mean", "p50", "p99", "max"):
        if k not in s:
            errors.append(f"{path}: {where}: summary missing '{k}'")
            return
    if s["n"] > 0 and not (s["p50"] <= s["p99"] <= s["max"]):
        errors.append(f"{path}: {where}: percentiles not monotone: {s}")


def check_decomposition(path, where, decomp, errors):
    for proc, comps in decomp.items():
        if "total" not in comps:
            errors.append(f"{path}: {where}: {proc}: no 'total' component")
            continue
        total = comps["total"]["mean"]
        parts = [c for c in COMPONENTS if c in comps]
        missing = [c for c in COMPONENTS if c not in comps]
        if missing:
            errors.append(f"{path}: {where}: {proc}: missing {missing}")
        s = sum(comps[c]["mean"] for c in parts)
        tol = max(abs(total) * 0.01, 1e-9)
        if abs(s - total) > tol:
            errors.append(
                f"{path}: {where}: {proc}: components sum to {s:.6f} "
                f"but total is {total:.6f} (>1% off)")


def check_sharded(path, where, row, errors):
    for k in ("shards", "threads", "windows", "cross_shard_messages",
              "shard_events"):
        if k not in row:
            errors.append(f"{path}: {where}: sharded row missing '{k}'")
            return
    per_shard = row["shard_events"]
    if (not isinstance(per_shard, list) or
            any(not isinstance(e, int) or e < 0 for e in per_shard)):
        errors.append(f"{path}: {where}: shard_events must be a list of "
                      f"non-negative integers: {per_shard!r}")
        return
    if len(per_shard) != row["shards"]:
        errors.append(f"{path}: {where}: {len(per_shard)} shard_events "
                      f"entries for shards={row['shards']}")
    if row["threads"] < 1:
        errors.append(f"{path}: {where}: threads = {row['threads']!r}")
    if "events_executed" in row and sum(per_shard) != row["events_executed"]:
        errors.append(
            f"{path}: {where}: shard_events sum to {sum(per_shard)} but "
            f"events_executed is {row['events_executed']}")
    # Window-policy keys (adaptive lookahead) are optional but strictly
    # typed when present.
    for k in ("adaptive_lookahead", "sharded_baseline"):
        if k in row and not isinstance(row[k], bool):
            errors.append(f"{path}: {where}: {k} = {row[k]!r}, want bool")
    for k in ("adaptive_extensions", "dispatches_skipped"):
        if k in row and not nonneg_int(row[k]):
            errors.append(f"{path}: {where}: {k} = {row[k]!r}")


# Mirrors obs::windowed_series_json's max_points: the exporter derives one
# subsampling stride from the longest series and applies it to every
# series in the row, so point-list lengths are a pure function of "n".
MAX_TS_POINTS = 256
WINDOW_AGGS = ("sum", "max", "last")
QUANTILES = (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))


def check_timeseries(path, where, ts, errors):
    window_ms = ts.get("window_ms")
    if not isinstance(window_ms, (int, float)) or window_ms <= 0:
        errors.append(f"{path}: {where}: window_ms = {window_ms!r}")
        return
    series = ts.get("series")
    if not isinstance(series, dict) or not series:
        errors.append(f"{path}: {where}: no series")
        return
    longest = max((s.get("n", 0) for s in series.values()
                   if isinstance(s, dict)), default=0)
    stride = (longest + MAX_TS_POINTS - 1) // MAX_TS_POINTS \
        if longest > MAX_TS_POINTS else 1
    for key, s in series.items():
        w = f"{where}.series[{key}]"
        if s.get("agg") not in WINDOW_AGGS:
            errors.append(f"{path}: {w}: agg = {s.get('agg')!r}")
        n = s.get("n")
        if not nonneg_int(n) or n == 0:
            errors.append(f"{path}: {w}: n = {n!r}")
            continue
        points = s.get("points")
        if not isinstance(points, list) or not points:
            errors.append(f"{path}: {w}: no points")
            continue
        expected = (n + stride - 1) // stride
        if len(points) != expected:
            errors.append(f"{path}: {w}: {len(points)} points for n={n} "
                          f"with stride {stride} (want {expected})")
        prev = None
        for p in points:
            if (not isinstance(p, list) or len(p) != 2 or
                    not all(isinstance(v, (int, float)) for v in p)):
                errors.append(f"{path}: {w}: malformed point {p!r}")
                break
            if p[0] < 0 or (prev is not None and p[0] <= prev):
                errors.append(f"{path}: {w}: timestamps not strictly "
                              f"monotone at t={p[0]!r}")
                break
            prev = p[0]


def check_slo(path, where, slo, errors):
    window_ms = slo.get("window_ms")
    if not isinstance(window_ms, (int, float)) or window_ms <= 0:
        errors.append(f"{path}: {where}: window_ms = {window_ms!r}")
        return
    for proc, entry in slo.get("procs", {}).items():
        w = f"{where}.procs[{proc}]"
        targets = entry.get("targets_ms", {})
        bounds = [targets.get(q) for q, _ in QUANTILES]
        if (any(not isinstance(b, (int, float)) or b <= 0 for b in bounds)
                or not bounds[0] <= bounds[1] <= bounds[2]):
            errors.append(f"{path}: {w}: targets not monotone positive: "
                          f"{targets!r}")
            continue
        count = entry.get("count")
        if not nonneg_int(count) or count == 0:
            errors.append(f"{path}: {w}: count = {count!r}")
            continue
        viol = entry.get("violations", {})
        burn = entry.get("burn", {})
        prev_v = None
        for q, frac in QUANTILES:
            v = viol.get(q)
            if not nonneg_int(v) or v > count:
                errors.append(f"{path}: {w}: violations.{q} = {v!r} "
                              f"(count {count})")
                break
            # Bounds rise with the quantile, so violation counts fall.
            if prev_v is not None and v > prev_v:
                errors.append(f"{path}: {w}: violations.{q} = {v} exceeds "
                              f"the lower quantile's {prev_v}")
            prev_v = v
            want = (v / count) / (1.0 - frac)
            got = burn.get(q)
            if (not isinstance(got, (int, float)) or
                    abs(got - want) > max(abs(want) * 1e-6, 1e-9)):
                errors.append(f"{path}: {w}: burn.{q} = {got!r}, "
                              f"want {want:.9g}")
        windows = entry.get("windows")
        if not isinstance(windows, list) or not windows:
            errors.append(f"{path}: {w}: no windows")
            continue
        prev_t = None
        win_count = 0
        win_p99 = 0
        bad = False
        for row in windows:
            if (not isinstance(row, list) or len(row) != 4 or
                    not all(isinstance(v, (int, float)) for v in row)):
                errors.append(f"{path}: {w}: malformed window {row!r}")
                bad = True
                break
            if prev_t is not None and row[0] <= prev_t:
                errors.append(f"{path}: {w}: window timestamps not "
                              f"strictly monotone at t={row[0]!r}")
                bad = True
                break
            prev_t = row[0]
            win_count += row[1]
            win_p99 += row[2]
        if not bad:
            if win_count != count:
                errors.append(f"{path}: {w}: window counts sum to "
                              f"{win_count}, total is {count}")
            if win_p99 != viol.get("p99"):
                errors.append(f"{path}: {w}: window p99 violations sum to "
                              f"{win_p99}, total is {viol.get('p99')!r}")


def check_profiler(path, where, prof, errors):
    phases = prof.get("phases")
    if not isinstance(phases, dict):
        errors.append(f"{path}: {where}: missing phases")
        return
    share_sum = 0.0
    ns_sum = 0
    for name, entry in phases.items():
        w = f"{where}.phases[{name}]"
        for k in ("ns", "calls"):
            if not nonneg_int(entry.get(k)):
                errors.append(f"{path}: {w}: {k} = {entry.get(k)!r}")
                return
        share = entry.get("share")
        if not isinstance(share, (int, float)) or not 0.0 <= share <= 1.0:
            errors.append(f"{path}: {w}: share = {share!r}")
            return
        share_sum += share
        ns_sum += entry["ns"]
    if phases and ns_sum > 0 and abs(share_sum - 1.0) > 1e-6:
        errors.append(f"{path}: {where}: shares sum to {share_sum:.9g}")
    lanes = prof.get("lane_ns")
    if not isinstance(lanes, list):
        errors.append(f"{path}: {where}: missing lane_ns")
        return
    lane_total = 0
    for i, lane in enumerate(lanes):
        if (not isinstance(lane, list) or
                any(not nonneg_int(v) for v in lane)):
            errors.append(f"{path}: {where}: lane_ns[{i}] = {lane!r}")
            return
        lane_total += sum(lane)
    if lane_total != ns_sum:
        errors.append(f"{path}: {where}: lane_ns sums to {lane_total}, "
                      f"phase totals to {ns_sum}")


def check_trace(path, doc, errors):
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        errors.append(f"{path}: traceEvents is {type(events).__name__}")
        return
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{path}: {where}: not an object")
            return
        if not isinstance(ev.get("name"), str) or not ev.get("name"):
            errors.append(f"{path}: {where}: missing name")
        ph = ev.get("ph")
        if ph not in ("M", "X", "C"):
            errors.append(f"{path}: {where}: ph = {ph!r}")
            continue
        for k in ("pid", "tid"):
            if not isinstance(ev.get(k), int):
                errors.append(f"{path}: {where}: {k} = {ev.get(k)!r}")
        if ph in ("X", "C"):
            ts = ev.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                errors.append(f"{path}: {where}: ts = {ts!r}")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"{path}: {where}: dur = {dur!r}")
        if ph in ("M", "C") and not isinstance(ev.get("args"), dict):
            errors.append(f"{path}: {where}: {ph} event without args")


def check_rows(path, rows, errors, version):
    decomposed = 0
    for i, row in enumerate(rows):
        where = f"rows[{i}]"
        if "system" not in row:
            errors.append(f"{path}: {where}: missing 'system'")
        if version >= 2:
            mode = row.get("mode")
            if mode not in MODES:
                errors.append(f"{path}: {where}: mode is {mode!r}, "
                              f"want one of {MODES}")
            elif mode == "sharded":
                check_sharded(path, where, row, errors)
        for key, val in row.items():
            if isinstance(val, dict) and "p50" in val and "n" in val:
                check_summary(path, f"{where}.{key}", val, errors)
        counters = row.get("counters", {})
        for name, v in counters.items():
            if not isinstance(v, int) or v < 0:
                errors.append(f"{path}: {where}: counter {name} = {v!r}")
        if "peak_rss_delta_bytes" in row and \
                not nonneg_int(row["peak_rss_delta_bytes"]):
            errors.append(f"{path}: {where}: peak_rss_delta_bytes = "
                          f"{row['peak_rss_delta_bytes']!r}")
        if "timeseries" in row:
            check_timeseries(path, f"{where}.timeseries", row["timeseries"],
                             errors)
        if "slo" in row:
            check_slo(path, f"{where}.slo", row["slo"], errors)
        if "profiler" in row:
            check_profiler(path, f"{where}.profiler", row["profiler"], errors)
        if version >= 4 and "scenario" in row:
            check_scenario_row(path, where, row, errors)
        if "decomposition_ms" in row:
            decomposed += 1
            check_decomposition(path, where, row["decomposition_ms"], errors)
        # Nested results (ablations attach clean/under_failure sub-objects).
        for key in ("clean", "under_failure"):
            if key in row and "decomposition_ms" in row[key]:
                decomposed += 1
                check_decomposition(path, f"{where}.{key}",
                                    row[key]["decomposition_ms"], errors)
    return decomposed


def check_scenario_config(path, scenario, errors):
    """Schema v4: the config 'scenario' object echoed by --scenario= runs."""
    where = "config.scenario"
    name = scenario.get("name")
    if not isinstance(name, str) or not name:
        errors.append(f"{path}: {where}: name = {name!r}")
    if not isinstance(scenario.get("preattach"), bool):
        errors.append(f"{path}: {where}: preattach = "
                      f"{scenario.get('preattach')!r}, want bool")
    for k in ("target_pps", "duration_ms", "population", "regions", "seed"):
        v = scenario.get(k)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
            errors.append(f"{path}: {where}: {k} = {v!r}")


def check_scenario_row(path, where, row, errors):
    """Schema v4: rows carrying 'scenario' must account for their offered
    arrivals: per-class counts and a windowed series both summing to the
    total."""
    if not isinstance(row.get("scenario"), str) or not row["scenario"]:
        errors.append(f"{path}: {where}: scenario = {row.get('scenario')!r}")
    arrivals = row.get("arrivals")
    if not isinstance(arrivals, dict):
        errors.append(f"{path}: {where}: scenario row without 'arrivals'")
        return
    total = arrivals.get("total")
    if not nonneg_int(total):
        errors.append(f"{path}: {where}: arrivals.total = {total!r}")
        return
    per_class = arrivals.get("per_class")
    if not isinstance(per_class, dict) or not per_class:
        errors.append(f"{path}: {where}: arrivals.per_class = {per_class!r}")
    else:
        bad = [k for k, v in per_class.items() if not nonneg_int(v)]
        if bad:
            errors.append(f"{path}: {where}: non-integer class counts {bad}")
        elif sum(per_class.values()) != total:
            errors.append(
                f"{path}: {where}: per-class counts sum to "
                f"{sum(per_class.values())}, total is {total}")
    series = row.get("arrival_series")
    if not isinstance(series, dict):
        errors.append(f"{path}: {where}: scenario row without "
                      f"'arrival_series'")
        return
    window_ms = series.get("window_ms")
    if not isinstance(window_ms, (int, float)) or window_ms <= 0:
        errors.append(f"{path}: {where}: arrival_series.window_ms = "
                      f"{window_ms!r}")
    points = series.get("points")
    if not isinstance(points, list) or not points:
        errors.append(f"{path}: {where}: arrival_series without points")
        return
    prev_t = None
    count_sum = 0
    for p in points:
        if (not isinstance(p, list) or len(p) != 2 or
                not isinstance(p[0], (int, float)) or not nonneg_int(p[1])):
            errors.append(f"{path}: {where}: malformed arrival point {p!r}")
            return
        if p[0] < 0 or (prev_t is not None and p[0] <= prev_t):
            errors.append(f"{path}: {where}: arrival timestamps not "
                          f"strictly monotone at t={p[0]!r}")
            return
        prev_t = p[0]
        count_sum += p[1]
    if count_sum != total:
        errors.append(f"{path}: {where}: arrival_series sums to "
                      f"{count_sum}, arrivals.total is {total}")


def check_scenarios_figure(path, doc, errors):
    """fig_scenarios: per-scenario knee calibration + the ISSUE acceptance
    gate (zero RYW, >= 99% completion at every scenario's 1x-knee row)."""
    config = doc.get("config", {})
    names = config.get("scenarios")
    if (not isinstance(names, list) or not names or
            any(not isinstance(n, str) or not n for n in names)):
        errors.append(f"{path}: config.scenarios = {names!r}")
        return
    knees = config.get("knees", {})
    for name in names:
        knee = knees.get(name) if isinstance(knees, dict) else None
        if not isinstance(knee, (int, float)) or isinstance(knee, bool) or \
                knee <= 0:
            errors.append(f"{path}: config.knees[{name}] = {knee!r}")
    at_knee = {}
    for i, row in enumerate(doc.get("rows", [])):
        where = f"rows[{i}]"
        name = row.get("scenario")
        if name not in names:
            errors.append(f"{path}: {where}: scenario {name!r} not in "
                          f"config.scenarios")
            continue
        for k in ("offered_pps", "knee_pps"):
            v = row.get(k)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or \
                    v <= 0:
                errors.append(f"{path}: {where}: {k} = {v!r}")
        completion = row.get("completion_rate")
        if not isinstance(completion, (int, float)) or \
                not 0.0 <= completion <= 1.0:
            errors.append(f"{path}: {where}: completion_rate = "
                          f"{completion!r}")
            continue
        if "pct_ms" not in row:
            errors.append(f"{path}: {where}: missing pct_ms")
        if row.get("x") == 1.0:
            at_knee[name] = True
            if row.get("counters", {}).get("core.ryw_violations", 0) != 0:
                errors.append(f"{path}: {where}: {name}: RYW violations at "
                              f"the knee")
            if completion < 0.99:
                errors.append(f"{path}: {where}: {name}: knee completion "
                              f"{completion!r} < 0.99")
    for name in names:
        if name not in at_knee:
            errors.append(f"{path}: scenario {name} has no x=1.0 (knee) row")


def check_mobility_figure(path, doc, errors):
    """fig_mobility (schema v5): the mobility config block, the closed-form
    rate gate, zero RYW, and cross-thread bit-identity of the chaos runs."""
    config = doc.get("config", {})
    mob = config.get("mobility")
    if not isinstance(mob, dict):
        errors.append(f"{path}: config.mobility = {mob!r}, want object")
        return
    where = "config.mobility"
    for k in ("moving_ues", "crossings", "pingpong_pairs",
              "suppressed_excursions"):
        if not nonneg_int(mob.get(k)):
            errors.append(f"{path}: {where}: {k} = {mob.get(k)!r}")
    for k in ("cell_pitch_m", "hysteresis_m", "pingpong_window_s",
              "expected_leg_m", "rate_tolerance"):
        v = mob.get(k)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v <= 0:
            errors.append(f"{path}: {where}: {k} = {v!r}")
    kappa = mob.get("block_correction")
    if not isinstance(kappa, (int, float)) or isinstance(kappa, bool) or \
            not 0.0 < kappa <= 1.0:
        errors.append(f"{path}: {where}: block_correction = {kappa!r}, "
                      f"want a finite-block factor in (0, 1]")
    dev = mob.get("worst_rate_deviation")
    if not isinstance(dev, (int, float)) or isinstance(dev, bool) or dev < 0:
        errors.append(f"{path}: {where}: worst_rate_deviation = {dev!r}")
    if not isinstance(mob.get("rate_validated"), bool):
        errors.append(f"{path}: {where}: rate_validated = "
                      f"{mob.get('rate_validated')!r}, want bool")
    classes = mob.get("classes")
    if not isinstance(classes, list) or not classes:
        errors.append(f"{path}: {where}: classes = {classes!r}")
    else:
        for i, c in enumerate(classes):
            w = f"{where}.classes[{i}]"
            if not isinstance(c.get("name"), str) or not c["name"]:
                errors.append(f"{path}: {w}: name = {c.get('name')!r}")
            for k in ("ues", "crossings"):
                if not nonneg_int(c.get(k)):
                    errors.append(f"{path}: {w}: {k} = {c.get(k)!r}")
            for k in ("measured_rate_hz", "predicted_rate_hz", "mean_leg_m"):
                v = c.get(k)
                if not isinstance(v, (int, float)) or isinstance(v, bool) \
                        or v < 0:
                    errors.append(f"{path}: {w}: {k} = {v!r}")
            if not isinstance(c.get("validate"), bool):
                errors.append(f"{path}: {w}: validate = "
                              f"{c.get('validate')!r}, want bool")
    if mob.get("rate_validated") is True and \
            isinstance(dev, (int, float)) and \
            isinstance(mob.get("rate_tolerance"), (int, float)) and \
            dev > mob["rate_tolerance"]:
        errors.append(f"{path}: {where}: worst_rate_deviation {dev!r} "
                      f"exceeds rate_tolerance {mob['rate_tolerance']!r}")
    sweep = []
    for i, row in enumerate(doc.get("rows", [])):
        where = f"rows[{i}]"
        if "handover_pct_ms" not in row:
            errors.append(f"{path}: {where}: missing handover_pct_ms")
        if row.get("counters", {}).get("core.ryw_violations", 0) != 0:
            errors.append(f"{path}: {where}: RYW violations under "
                          f"mobility+chaos")
        if row.get("system") == "commuter-crossing":
            sweep.append((i, row))
        elif row.get("system") == "edge-pingpong":
            pairs = row.get("pingpong_pairs")
            if not nonneg_int(pairs) or pairs == 0:
                errors.append(f"{path}: {where}: pingpong_pairs = {pairs!r}")
            if not nonneg_int(row.get("suppressed_excursions")):
                errors.append(f"{path}: {where}: suppressed_excursions = "
                              f"{row.get('suppressed_excursions')!r}")
    if len(sweep) < 2:
        errors.append(f"{path}: fewer than two commuter-crossing rows — "
                      f"no cross-thread determinism evidence")
        return
    ref_i, ref = sweep[0]
    for i, row in sweep[1:]:
        for key in ("counters", "events_executed", "handover_pct_ms",
                    "windows"):
            if row.get(key) != ref.get(key):
                errors.append(
                    f"{path}: rows[{i}].{key} (threads="
                    f"{row.get('threads')!r}) differs from rows[{ref_i}] "
                    f"(threads={ref.get('threads')!r}) — thread sweep not "
                    f"bit-identical")


ELASTIC_CHURN_SCENARIOS = ("diurnal-autoscale", "rolling-upgrade")
ELASTIC_SCENARIOS = ELASTIC_CHURN_SCENARIOS + ("region-loss",)


def check_elastic_figure(path, doc, errors):
    """fig_elastic (schema v6): the elastic config block, zero RYW under
    churn, handoff accounting, and cross-thread bit-identity per scenario."""
    config = doc.get("config", {})
    ela = config.get("elastic")
    if not isinstance(ela, dict):
        errors.append(f"{path}: config.elastic = {ela!r}, want object")
        return
    where = "config.elastic"

    def positive_num(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool) \
            and v > 0

    for k in ("drain_grace_ms", "scale_in_level", "scale_out_level"):
        if not positive_num(ela.get(k)):
            errors.append(f"{path}: {where}: {k} = {ela.get(k)!r}")
    auto_cfg = ela.get("autoscale")
    if not isinstance(auto_cfg, dict):
        errors.append(f"{path}: {where}: autoscale = {auto_cfg!r}")
    else:
        w = f"{where}.autoscale"
        for k in ("drain_at_ms", "restore_at_ms", "drained_cpf_seconds"):
            if not positive_num(auto_cfg.get(k)):
                errors.append(f"{path}: {w}: {k} = {auto_cfg.get(k)!r}")
        if not nonneg_int(auto_cfg.get("drained_replicas")) or \
                auto_cfg.get("drained_replicas") == 0:
            errors.append(f"{path}: {w}: drained_replicas = "
                          f"{auto_cfg.get('drained_replicas')!r}")
        if positive_num(auto_cfg.get("drain_at_ms")) and \
                positive_num(auto_cfg.get("restore_at_ms")) and \
                auto_cfg["drain_at_ms"] >= auto_cfg["restore_at_ms"]:
            errors.append(f"{path}: {w}: drain_at_ms "
                          f"{auto_cfg['drain_at_ms']!r} not before "
                          f"restore_at_ms {auto_cfg['restore_at_ms']!r}")
    roll_cfg = ela.get("rolling")
    if not isinstance(roll_cfg, dict):
        errors.append(f"{path}: {where}: rolling = {roll_cfg!r}")
    else:
        w = f"{where}.rolling"
        for k in ("step_ms", "hold_ms"):
            if not positive_num(roll_cfg.get(k)):
                errors.append(f"{path}: {w}: {k} = {roll_cfg.get(k)!r}")
        if not nonneg_int(roll_cfg.get("replicas")) or \
                roll_cfg.get("replicas") == 0:
            errors.append(f"{path}: {w}: replicas = "
                          f"{roll_cfg.get('replicas')!r}")
    loss_cfg = ela.get("region_loss")
    if not isinstance(loss_cfg, dict):
        errors.append(f"{path}: {where}: region_loss = {loss_cfg!r}")
    else:
        w = f"{where}.region_loss"
        if not nonneg_int(loss_cfg.get("region")):
            errors.append(f"{path}: {w}: region = {loss_cfg.get('region')!r}")
        if not positive_num(loss_cfg.get("at_ms")):
            errors.append(f"{path}: {w}: at_ms = {loss_cfg.get('at_ms')!r}")
    env = ela.get("envelope")
    if not isinstance(env, list) or not env:
        errors.append(f"{path}: {where}: envelope = {env!r}")
    else:
        for i, p in enumerate(env):
            if not isinstance(p, list) or len(p) != 2 or \
                    not all(isinstance(v, (int, float)) and
                            not isinstance(v, bool) for v in p):
                errors.append(f"{path}: {where}: envelope[{i}] = {p!r}, "
                              f"want [frac, level]")

    sweeps = {}
    for i, row in enumerate(doc.get("rows", [])):
        where = f"rows[{i}]"
        scenario = row.get("scenario")
        if scenario not in ELASTIC_SCENARIOS:
            errors.append(f"{path}: {where}: scenario = {scenario!r}, want "
                          f"one of {ELASTIC_SCENARIOS}")
            continue
        counters = row.get("counters", {})
        if counters.get("core.ryw_violations", 0) != 0:
            errors.append(f"{path}: {where}: RYW violations under churn")
        if row.get("completion_rate", 0) < 0.99:
            errors.append(f"{path}: {where}: completion "
                          f"{row.get('completion_rate')!r} < 0.99")
        if "handoff_ms" not in row:
            errors.append(f"{path}: {where}: missing handoff_ms")
        for k in ("ring_epoch", "migrated_ues"):
            if not nonneg_int(row.get(k)):
                errors.append(f"{path}: {where}: {k} = {row.get(k)!r}")
        if scenario in ELASTIC_CHURN_SCENARIOS:
            for k in ("core.drains", "core.scale_outs"):
                if not nonneg_int(counters.get(k)) or counters.get(k) == 0:
                    errors.append(f"{path}: {where}: counters[{k!r}] = "
                                  f"{counters.get(k)!r} under churn")
            if row.get("migrated_ues") in (0, None):
                errors.append(f"{path}: {where}: churn moved no UEs")
            if row.get("migrated_ues") != counters.get("core.handoff_ues"):
                errors.append(
                    f"{path}: {where}: migrated_ues "
                    f"{row.get('migrated_ues')!r} != core.handoff_ues "
                    f"{counters.get('core.handoff_ues')!r}")
            if not nonneg_int(row.get("ring_epoch")) or \
                    row.get("ring_epoch") == 0:
                errors.append(f"{path}: {where}: ring_epoch = "
                              f"{row.get('ring_epoch')!r} after churn")
        else:  # region-loss
            rehomed = row.get("rehomed_ues")
            if not nonneg_int(rehomed) or rehomed == 0:
                errors.append(f"{path}: {where}: rehomed_ues = {rehomed!r} "
                              f"— the lost region's UEs never re-homed")
        sweeps.setdefault(scenario, []).append((i, row))

    for scenario in ELASTIC_SCENARIOS:
        sweep = sweeps.get(scenario, [])
        if len(sweep) < 2:
            errors.append(f"{path}: fewer than two {scenario} rows — "
                          f"no cross-thread determinism evidence")
            continue
        ref_i, ref = sweep[0]
        for i, row in sweep[1:]:
            for key in ("counters", "events_executed", "handoff_ms",
                        "windows", "ring_epoch", "migrated_ues"):
                if row.get(key) != ref.get(key):
                    errors.append(
                        f"{path}: rows[{i}].{key} (threads="
                        f"{row.get('x')!r}) differs from rows[{ref_i}] "
                        f"(threads={ref.get('x')!r}) — thread sweep not "
                        f"bit-identical")


def check_saturation(path, doc, errors):
    config = doc.get("config", {})
    if not isinstance(config.get("knee_pps"), (int, float)) or \
            config.get("knee_pps", 0) <= 0:
        errors.append(f"{path}: config.knee_pps = {config.get('knee_pps')!r}")
    capacity = config.get("queue_capacity")
    if not nonneg_int(capacity) or capacity == 0:
        errors.append(f"{path}: config.queue_capacity = {capacity!r}")
        return
    bound = 2 * capacity  # non-UE-control traffic is never shed
    controlled = [r for r in doc.get("rows", [])
                  if r.get("system") == "overload-control"]
    baseline = [r for r in doc.get("rows", [])
                if r.get("system") == "baseline-unbounded"]
    if not controlled:
        errors.append(f"{path}: no overload-control rows")
        return
    for row in controlled:
        where = f"overload-control x={row.get('x')!r}"
        for k in ("offered_pps", "completion_rate", "attach_shed_rate",
                  "peak_cta_depth", "peak_cpf_depth", "peak_rss_bytes"):
            if k not in row:
                errors.append(f"{path}: {where}: missing '{k}'")
        if row.get("counters", {}).get("core.ryw_violations", 0) != 0:
            errors.append(f"{path}: {where}: RYW violations under overload")
        if row.get("completion_rate", 0) < 0.99:
            errors.append(f"{path}: {where}: completion "
                          f"{row.get('completion_rate')!r} < 0.99")
        peak = max(row.get("peak_cta_depth", 0), row.get("peak_cpf_depth", 0))
        if peak > bound:
            errors.append(f"{path}: {where}: peak depth {peak} exceeds "
                          f"2x capacity ({bound}) — queues not bounded")
        if not nonneg_int(row.get("peak_rss_bytes")) or \
                row.get("peak_rss_bytes") == 0:
            errors.append(f"{path}: {where}: peak_rss_bytes = "
                          f"{row.get('peak_rss_bytes')!r}")
    top = max(controlled, key=lambda r: r.get("x", 0))
    if top.get("counters", {}).get("core.attach_sheds", 0) == 0:
        errors.append(f"{path}: 2x-knee row shed no attaches — the sweep "
                      f"never crossed the knee")
    if not baseline:
        errors.append(f"{path}: no baseline-unbounded row")
    for row in baseline:
        peak = max(row.get("peak_cta_depth", 0), row.get("peak_cpf_depth", 0))
        if peak <= bound:
            errors.append(f"{path}: baseline peak depth {peak} within the "
                          f"controlled bound — contrast lost")


def nonneg_int(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def check_campaign(path, doc, errors):
    for k in ("figure", "title", "config", "per_runtime"):
        if k not in doc:
            errors.append(f"{path}: missing '{k}'")
    for k in ("seeds_run", "mismatches"):
        if not nonneg_int(doc.get(k)):
            errors.append(f"{path}: '{k}' must be a non-negative integer, "
                          f"got {doc.get(k)!r}")
    config = doc.get("config", {})
    for k in ("seeds", "regions", "cpfs_per_region", "ues", "shards",
              "threads"):
        if not nonneg_int(config.get(k)):
            errors.append(f"{path}: config.{k} = {config.get(k)!r}")
    rows = doc.get("per_runtime", [])
    if not rows:
        errors.append(f"{path}: no per_runtime rows")
    for i, row in enumerate(rows):
        where = f"per_runtime[{i}]"
        if not row.get("system"):
            errors.append(f"{path}: {where}: missing 'system'")
        for k in ("violations", "started", "completed", "lost", "unquiesced"):
            if not nonneg_int(row.get(k)):
                errors.append(f"{path}: {where}: {k} = {row.get(k)!r}")
        for k in ("attach_sheds", "overload_drops", "nas_retransmissions",
                  "retx_exhausted"):
            if k in row and not nonneg_int(row[k]):
                errors.append(f"{path}: {where}: {k} = {row[k]!r}")
        for name, v in row.get("recoveries", {}).items():
            if not nonneg_int(v):
                errors.append(f"{path}: {where}: recoveries[{name}] = {v!r}")
    for i, row in enumerate(doc.get("failing_seeds", [])):
        where = f"failing_seeds[{i}]"
        if not nonneg_int(row.get("seed")):
            errors.append(f"{path}: {where}: seed = {row.get('seed')!r}")
        if not row.get("runtime"):
            errors.append(f"{path}: {where}: missing 'runtime'")
        if "reproducer" in row and (
                not isinstance(row["reproducer"], str) or not row["reproducer"]):
            errors.append(f"{path}: {where}: reproducer = "
                          f"{row.get('reproducer')!r}")


def validate(path):
    errors = []
    try:
        doc = extract_json(open(path).read())
    except (ValueError, json.JSONDecodeError) as e:
        return [f"{path}: cannot parse: {e}"], 0
    if "schema" not in doc and "traceEvents" in doc:
        check_trace(path, doc, errors)
        return errors, 0
    if doc.get("schema") == CAMPAIGN_SCHEMA:
        if not isinstance(doc.get("version"), int):
            errors.append(f"{path}: missing integer 'version'")
        check_campaign(path, doc, errors)
        return errors, 0
    if doc.get("schema") != SCHEMA:
        errors.append(f"{path}: schema is {doc.get('schema')!r}, want {SCHEMA!r}")
    if not isinstance(doc.get("version"), int):
        errors.append(f"{path}: missing integer 'version'")
    for k in ("figure", "title", "config", "rows"):
        if k not in doc:
            errors.append(f"{path}: missing '{k}'")
    if not doc.get("rows"):
        errors.append(f"{path}: no rows")
    version = doc.get("version") if isinstance(doc.get("version"), int) else 1
    config = doc.get("config", {})
    if isinstance(config, dict):
        if "adaptive_lookahead" in config and \
                not isinstance(config["adaptive_lookahead"], bool):
            errors.append(f"{path}: config.adaptive_lookahead = "
                          f"{config['adaptive_lookahead']!r}, want bool")
        # Ratio minus one: negative is legal (the sharded run beat the
        # legacy baseline on that sample); only <= -1 is impossible.
        overhead = config.get("sync_overhead_threads1")
        if overhead is not None and (
                not isinstance(overhead, (int, float)) or
                isinstance(overhead, bool) or overhead <= -1):
            errors.append(f"{path}: config.sync_overhead_threads1 = "
                          f"{overhead!r}")
    decomposed = check_rows(path, doc.get("rows", []), errors, version)
    scenario_mode = isinstance(config, dict) and "scenario" in config
    if scenario_mode:
        if isinstance(config["scenario"], dict):
            check_scenario_config(path, config["scenario"], errors)
        else:
            errors.append(f"{path}: config.scenario = "
                          f"{config['scenario']!r}, want object")
    if doc.get("figure") == "fig_saturation" and not scenario_mode:
        check_saturation(path, doc, errors)
    if doc.get("figure") == "fig_scenarios":
        check_scenarios_figure(path, doc, errors)
    if doc.get("figure") == "fig_mobility":
        check_mobility_figure(path, doc, errors)
    if doc.get("figure") == "fig_elastic":
        check_elastic_figure(path, doc, errors)
    return errors, decomposed


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    failed = False
    for path in argv[1:]:
        errors, decomposed = validate(path)
        for e in errors:
            print(f"FAIL {e}")
        if errors:
            failed = True
        else:
            extra = f", {decomposed} decomposed rows" if decomposed else ""
            print(f"OK   {path}{extra}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
