#!/usr/bin/env python3
"""Render bench output into per-figure comparison tables.

Usage:  python3 scripts/summarize_bench.py [FILE ...]

Each FILE is either a bench's TSV stdout (default: bench_output.txt) or a
neutrino.bench-report JSON document (e.g. BENCH_scale.json). For the PCT
figures it pivots median PCT into an x-by-system table and appends the
best-vs-EPC ratio, which is the number the paper quotes. For JSON reports
with sharded-runtime rows it prints a thread-scaling table: events/s,
events/s per thread, speedup relative to the threads=1 row of the same
shard count, and each row's live heap at the end of its run. Rows that
carry a "timeseries" section (benches run with --telemetry) additionally
render each windowed series as a text sparkline over sim-time.

When a committed BENCH_scale.json exists (or --baseline=PATH names any
other bench-report), every sharded row additionally gets a "vs previous"
delta pair — events/s change and barrier_wait-share change against the
baseline row with the same (system, shards, threads) — so
a perf regression shows up in the table, not in a diff of raw JSON. A
baseline run at a different UE count, smoke setting or host core count
is refused: the table prints "baseline mismatch: ..." and no delta
column. No third-party dependencies.
"""
import json
import os
import sys
from collections import defaultdict


def parse(path):
    rows = defaultdict(list)  # figure -> [line fields]
    for line in open(path):
        line = line.strip()
        if not line or line.startswith("#") or "\t" not in line:
            continue
        fields = line.split("\t")
        rows[fields[0]].append(fields[1:])
    return rows


def medians_table(fig, rows):
    # rows: [system, x, n=..., p25=..., p50=..., ...]
    table = defaultdict(dict)  # x -> system -> p50
    systems = []
    for fields in rows:
        system, x = fields[0], fields[1]
        p50 = next((f.split("=")[1] for f in fields if f.startswith("p50=")),
                   None)
        if p50 is None:
            continue
        if system not in systems:
            systems.append(system)
        table[float(x)][system] = float(p50)
    if not table:
        return
    print(f"\n== {fig}: median PCT (ms) ==")
    print("{:>10} ".format("x") + " ".join(f"{s:>18}" for s in systems) +
          "  best/EPC-like")
    baseline = systems[0]
    for x in sorted(table):
        cells = table[x]
        line = f"{x:>10.0f} " + " ".join(
            f"{cells.get(s, float('nan')):>18.3f}" for s in systems)
        if baseline in cells:
            best = min(v for v in cells.values())
            if best > 0:
                line += f"  {cells[baseline] / best:>8.1f}x"
        print(line)


def passthrough_table(fig, rows):
    print(f"\n== {fig} ==")
    for fields in rows:
        print("  " + "  ".join(fields))


def load_json_report(text):
    """Parse a bench-report document (possibly with TSV rows in front)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(stripped)
    else:
        lines = text.splitlines(keepends=True)
        start = next((i for i, ln in enumerate(lines)
                      if ln.rstrip("\n") == "{"), None)
        if start is None:
            return None
        doc = json.loads("".join(lines[start:]))
    if doc.get("schema") != "neutrino.bench-report":
        return None
    return doc


def row_key(row):
    """Identity of a row for cross-report comparison: same system and
    shard geometry."""
    return (row.get("system"), row.get("mode"), row.get("shards"),
            row.get("threads"), bool(row.get("sharded_baseline", False)))


def barrier_share(row):
    """barrier_wait share of total profiled time, or None."""
    prof = row.get("profiler")
    if isinstance(prof, dict):
        entry = prof.get("phases", {}).get("barrier_wait")
        if isinstance(entry, dict) and \
                isinstance(entry.get("share"), (int, float)):
            return entry["share"]
    return None


def delta_cells(row, prev_rows):
    """'vs previous' cells: events/s delta and barrier_wait-share delta
    against the matching row of the baseline report."""
    prev = prev_rows.get(row_key(row)) if prev_rows else None
    if prev is None:
        return f"{'--':>8} {'--':>8}"
    eps, prev_eps = row.get("events_per_sec"), prev.get("events_per_sec")
    if isinstance(eps, (int, float)) and isinstance(prev_eps, (int, float)) \
            and prev_eps > 0:
        ev = f"{(eps - prev_eps) / prev_eps:+7.1%}"
    else:
        ev = "--"
    share, prev_share = barrier_share(row), barrier_share(prev)
    if share is not None and prev_share is not None:
        bw = f"{(share - prev_share) * 100:+6.1f}pp"
    else:
        bw = "--"
    return f"{ev:>8} {bw:>8}"


def heap_mb(row):
    """A row's live heap at the end of its run, in MB ('--' when the
    report predates the field)."""
    heap = row.get("heap_in_use_bytes")
    return f"{heap / 1e6:.1f}" if isinstance(heap, int) else "--"


def scaling_table(doc, prev_rows=None):
    """events/s-per-thread scaling of a report's sharded rows."""
    fig = doc.get("figure", "?")
    single = [r for r in doc.get("rows", [])
              if r.get("mode") != "sharded" and "events_per_sec" in r]
    sharded = [r for r in doc.get("rows", []) if r.get("mode") == "sharded"]
    for row in single:
        line = (f"  {row.get('system', '?'):>12}  single-thread baseline: "
                f"{row['events_per_sec'] / 1e6:6.2f}M events/s, "
                f"live heap {heap_mb(row)} MB")
        if prev_rows:
            line += f"   vs prev: {delta_cells(row, prev_rows)}"
        print(line)
    if not sharded:
        print(f"  (no sharded rows in {fig})")
        return
    by_shards = defaultdict(list)
    for row in sharded:
        by_shards[row.get("shards", 0)].append(row)
    for shards in sorted(by_shards):
        rows = sorted(by_shards[shards], key=lambda r: r.get("threads", 0))
        base = next((r["events_per_sec"] for r in rows
                     if r.get("threads") == 1), None)
        print(f"\n  shards={shards}")
        header = (f"  {'threads':>8} {'events/s':>12} {'per-thread':>12} "
                  f"{'speedup':>8} {'windows':>10} {'cross-msgs':>12} "
                  f"{'heap MB':>8}")
        if prev_rows:
            header += f" {'Δev/s':>8} {'Δbarrier':>8}"
        print(header)
        for r in rows:
            threads = r.get("threads", 0)
            eps = r.get("events_per_sec", 0.0)
            per_thread = eps / threads if threads else 0.0
            speedup = f"{eps / base:7.2f}x" if base else "      ?"
            line = (f"  {threads:>8} {eps:>12.0f} {per_thread:>12.0f} "
                    f"{speedup:>8} {r.get('windows', 0):>10} "
                    f"{r.get('cross_shard_messages', 0):>12} "
                    f"{heap_mb(r):>8}")
            if prev_rows:
                line += f" {delta_cells(r, prev_rows)}"
            print(line)


TABLE_OWNERS = ("frontend", "cta", "cpf", "upf")


def table_census(doc):
    """Bytes per UE of each owner's hash tables, for rows that carry a
    table_bytes census and a UE count."""
    rows = [r for r in doc.get("rows", [])
            if isinstance(r.get("table_bytes"), dict) and r.get("ues")]
    if not rows:
        return
    print(f"\n  {'table bytes per UE':>21} "
          + " ".join(f"{o:>9}" for o in TABLE_OWNERS) + f" {'total':>9}")
    for r in rows:
        label = r.get("system", "?")
        if r.get("mode") == "sharded":
            label += f" s={r.get('shards', '?')} t={r.get('threads', '?')}"
        elif r.get("sharded_baseline"):
            label += " sharded-topo"
        census = r["table_bytes"]
        cells = [census.get(o, 0) / r["ues"] for o in TABLE_OWNERS]
        print(f"  {label:>21} "
              + " ".join(f"{c:>9.1f}" for c in cells)
              + f" {sum(cells):>9.1f}")


SPARK = "▁▂▃▄▅▆▇█"  # ▁▂▃▄▅▆▇█


def sparkline(values, width=64):
    """Render values as one sparkline row, max-pooled down to `width`."""
    if not values:
        return ""
    if len(values) > width:
        stride = (len(values) + width - 1) // width
        values = [max(values[i:i + stride])
                  for i in range(0, len(values), stride)]
    top = max(values)
    if top <= 0:
        return SPARK[0] * len(values)
    return "".join(SPARK[min(7, int(v / top * 8))] for v in values)


def timeseries_view(doc):
    """Sparklines for every windowed series of every --telemetry row."""
    for row in doc.get("rows", []):
        ts = row.get("timeseries")
        if not isinstance(ts, dict) or not ts.get("series"):
            continue
        label = row.get("system", "?")
        if "threads" in row:
            label += (f" shards={row.get('shards', '?')}"
                      f" threads={row['threads']}")
        print(f"\n  {label}  (window {ts.get('window_ms')} ms)")
        for key in sorted(ts["series"]):
            s = ts["series"][key]
            vals = [p[1] for p in s.get("points", [])
                    if isinstance(p, list) and len(p) == 2]
            print(f"    {key:<40} {sparkline(vals)}  "
                  f"max={s.get('max', 0):g}")


def scenario_table(doc):
    """fig_scenarios: per-scenario knee sweep — completion, merged PCT and
    overload counters per offered multiple, plus the offered-arrival shape
    as a sparkline (the scenario's envelope/spike structure)."""
    config = doc.get("config", {})
    knees = config.get("knees", {})
    by_scenario = defaultdict(list)
    for row in doc.get("rows", []):
        if row.get("scenario"):
            by_scenario[row["scenario"]].append(row)
    for name in config.get("scenarios", sorted(by_scenario)):
        rows = sorted(by_scenario.get(name, []), key=lambda r: r.get("x", 0))
        if not rows:
            continue
        knee = knees.get(name)
        knee_str = f"{knee / 1e3:.0f}k pps" if isinstance(
            knee, (int, float)) else "?"
        print(f"\n  {name}  (knee {knee_str})")
        print(f"  {'x':>5} {'offered':>10} {'compl':>7} {'p50ms':>8} "
              f"{'p95ms':>9} {'p99ms':>9} {'sheds':>7} {'retx':>7} "
              f"{'exhaust':>7}")
        for r in rows:
            pct = r.get("pct_ms", {})
            counters = r.get("counters", {})
            print(f"  {r.get('x', 0):>5.2f} "
                  f"{r.get('offered_pps', 0):>10.0f} "
                  f"{r.get('completion_rate', 0):>7.4f} "
                  f"{pct.get('p50', 0):>8.3f} {pct.get('p95', 0):>9.3f} "
                  f"{pct.get('p99', 0):>9.3f} "
                  f"{counters.get('core.attach_sheds', 0):>7} "
                  f"{counters.get('core.nas_retransmissions', 0):>7} "
                  f"{counters.get('core.retx_exhausted', 0):>7}")
        series = rows[-1].get("arrival_series", {})
        vals = [p[1] for p in series.get("points", [])
                if isinstance(p, list) and len(p) == 2]
        if vals:
            print(f"  arrivals {sparkline(vals)}  "
                  f"(window {series.get('window_ms', 0):g} ms, "
                  f"peak {max(vals)})")


def mobility_table(doc):
    """fig_mobility: the closed-form rate validation, then handover PCT
    tails and fast/slow path split per worker-thread count (schema v5)."""
    mob = doc.get("config", {}).get("mobility", {})
    if mob:
        kappa = mob.get("block_correction", 0)
        print(f"  moving UEs {mob.get('moving_ues', '?')}, "
              f"crossings {mob.get('crossings', '?')}, "
              f"kappa={kappa:.4f}, worst rate deviation "
              f"{mob.get('worst_rate_deviation', 0):.4f} "
              f"(tolerance {mob.get('rate_tolerance', 0):g})")
        for c in mob.get("classes", []):
            mark = "  [validated]" if c.get("validate") else ""
            print(f"    {c.get('name', '?'):<16} "
                  f"ues={c.get('ues', 0):<8} "
                  f"crossings={c.get('crossings', 0):<8} "
                  f"measured={c.get('measured_rate_hz', 0):.6f}Hz "
                  f"predicted={c.get('predicted_rate_hz', 0) * kappa:.6f}Hz"
                  f"{mark}")
    print(f"\n  {'system':>18} {'threads':>8} {'n':>8} {'p50ms':>8} "
          f"{'p95ms':>8} {'p99ms':>8} {'fast':>8} {'fetch':>8} "
          f"{'pingpong':>9} {'ryw':>5}")
    for r in doc.get("rows", []):
        pct = r.get("handover_pct_ms", {})
        counters = r.get("counters", {})
        pingpong = r.get("pingpong_pairs", "-")
        print(f"  {r.get('system', '?'):>18} {r.get('threads', 0):>8} "
              f"{pct.get('n', 0):>8} {pct.get('p50', 0):>8.3f} "
              f"{pct.get('p95', 0):>8.3f} {pct.get('p99', 0):>8.3f} "
              f"{counters.get('core.fast_handovers', 0):>8} "
              f"{counters.get('core.state_fetches', 0):>8} "
              f"{pingpong:>9} "
              f"{counters.get('core.ryw_violations', 0):>5}")
    rows = doc.get("rows", [])
    series = rows[0].get("arrival_series", {}) if rows else {}
    vals = [p[1] for p in series.get("points", [])
            if isinstance(p, list) and len(p) == 2]
    if vals:
        print(f"  arrivals {sparkline(vals)}  "
              f"(window {series.get('window_ms', 0):g} ms, "
              f"peak {max(vals)})")


def elastic_table(doc):
    """fig_elastic: the churn plan, then per-scenario completion, handoff
    migration volume and handoff PCT tails per worker-thread count
    (schema v6)."""
    ela = doc.get("config", {}).get("elastic", {})
    if ela:
        auto_cfg = ela.get("autoscale", {})
        roll_cfg = ela.get("rolling", {})
        loss_cfg = ela.get("region_loss", {})
        print(f"  drain grace {ela.get('drain_grace_ms', 0):g} ms; "
              f"autoscale drains {auto_cfg.get('drained_replicas', '?')} "
              f"replicas at {auto_cfg.get('drain_at_ms', 0) / 1e3:.1f}s, "
              f"restores at {auto_cfg.get('restore_at_ms', 0) / 1e3:.1f}s "
              f"({auto_cfg.get('drained_cpf_seconds', 0):.0f} "
              f"CPF-seconds saved); rolling upgrade steps "
              f"{roll_cfg.get('replicas', '?')} replicas every "
              f"{roll_cfg.get('step_ms', 0) / 1e3:.1f}s; region "
              f"{loss_cfg.get('region', '?')} lost at "
              f"{loss_cfg.get('at_ms', 0) / 1e3:.1f}s")
    print(f"\n  {'scenario':>18} {'threads':>8} {'compl':>7} {'epoch':>6} "
          f"{'migrated':>9} {'p50ms':>8} {'p95ms':>8} {'p99ms':>8} "
          f"{'rehomed':>8} {'ryw':>5}")
    for r in doc.get("rows", []):
        pct = r.get("handoff_ms", {})
        counters = r.get("counters", {})
        print(f"  {r.get('scenario', '?'):>18} {r.get('x', 0):>8} "
              f"{r.get('completion_rate', 0):>7.4f} "
              f"{r.get('ring_epoch', 0):>6} {r.get('migrated_ues', 0):>9} "
              f"{pct.get('p50', 0):>8.3f} {pct.get('p95', 0):>8.3f} "
              f"{pct.get('p99', 0):>8.3f} "
              f"{r.get('rehomed_ues', '-'):>8} "
              f"{counters.get('core.ryw_violations', 0):>5}")


def summarize_tsv(path):
    rows = parse(path)
    for fig in sorted(rows):
        if any(any(f.startswith("p50=") for f in r) for r in rows[fig]):
            medians_table(fig, rows[fig])
        else:
            passthrough_table(fig, rows[fig])


DEFAULT_BASELINE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_scale.json")


def run_settings(doc):
    """What a baseline must share before any of its rows is comparable:
    row_key() matches the runtime geometry, these the workload and host."""
    config = doc.get("config", {})
    return {"ues": config.get("ues"), "smoke": doc.get("smoke"),
            "hardware_threads": config.get("hardware_threads")}


def load_baseline_rows(doc, path):
    """Index a baseline report's rows by comparison key, or None when it
    is missing, unreadable, or was run with different settings."""
    try:
        base = load_json_report(open(path).read())
    except (OSError, json.JSONDecodeError):
        return None
    if base is None:
        return None
    mine, theirs = run_settings(doc), run_settings(base)
    diffs = [f"{k} {mine[k]!r} vs {theirs[k]!r}"
             for k in mine if mine[k] != theirs[k]]
    if diffs:
        print(f"  baseline mismatch: {', '.join(diffs)} in {path}; "
              f"no delta column")
        return None
    return {row_key(r): r for r in base.get("rows", [])}


def main():
    args = sys.argv[1:]
    baseline_path = DEFAULT_BASELINE
    paths = []
    for a in args:
        if a.startswith("--baseline="):
            baseline_path = a[len("--baseline="):]
        else:
            paths.append(a)
    if not paths:
        paths = ["bench_output.txt"]
    for path in paths:
        doc = None
        try:
            doc = load_json_report(open(path).read())
        except (OSError, json.JSONDecodeError):
            doc = None
        if doc is not None:
            if doc.get("figure") == "fig_scenarios":
                print(f"\n== fig_scenarios: per-scenario saturation "
                      f"({path}) ==")
                scenario_table(doc)
                timeseries_view(doc)
                continue
            if doc.get("figure") == "fig_mobility":
                print(f"\n== fig_mobility: handover tails under mobility "
                      f"({path}) ==")
                mobility_table(doc)
                timeseries_view(doc)
                continue
            if doc.get("figure") == "fig_elastic":
                print(f"\n== fig_elastic: scale-out/in, rolling upgrade, "
                      f"region loss ({path}) ==")
                elastic_table(doc)
                timeseries_view(doc)
                continue
            print(f"\n== {doc.get('figure', path)}: sharded-runtime "
                  f"scaling ({path}) ==")
            # Don't diff the committed baseline against itself.
            prev_rows = None
            if baseline_path and \
                    os.path.realpath(path) != os.path.realpath(baseline_path):
                prev_rows = load_baseline_rows(doc, baseline_path)
            if prev_rows:
                print(f"  (vs previous: {baseline_path})")
            scenario = doc.get("config", {}).get("scenario")
            if isinstance(scenario, dict) and scenario.get("name"):
                print(f"  (scenario: {scenario['name']})")
            scaling_table(doc, prev_rows)
            table_census(doc)
            timeseries_view(doc)
        else:
            summarize_tsv(path)


if __name__ == "__main__":
    main()
