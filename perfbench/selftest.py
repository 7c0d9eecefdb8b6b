#!/usr/bin/env python3
"""Self-tests of the repo benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout (it builds the benchmark like run.py).
Checks that:
  * storm's simulated fingerprint is identical across two runs and at 1
    and 4 worker threads;
  * mobility-failover's fingerprint is identical across two runs;
  * the pinned cost table round-trips;
  * every metric name matches [A-Za-z0-9_.-]+, carries a unit and a
    better-direction, and BENCHMARK.json lists exactly run.py's metrics.
Exits non-zero on any failure. Takes about half a minute.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SEED = 7
failures = 0


def check(ok, what):
    global failures
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    failures += 0 if ok else 1


def clean(rep):
    return rep["started"] == rep["completed"] and rep["ryw_violations"] == 0


def main():
    run.build()

    names = set()
    schema_ok = True
    for name, unit, better in run.END_TO_END + run.PER_LAYER:
        ok = (re.fullmatch(r"[A-Za-z0-9_.-]+", name) is not None
              and re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit) is not None
              and better in ("higher", "lower") and name not in names)
        if not ok:
            print(f"  bad metric {name!r} ({unit!r}, {better!r})")
        schema_ok = schema_ok and ok
        names.add(name)
    check(schema_ok, "every metric name matches [A-Za-z0-9_.-]+, is unique, "
                     "and has a unit and a better-direction")
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, metrics in (("end_to_end", run.END_TO_END),
                         ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in bench[key]]
        check(listed == list(metrics),
              f"BENCHMARK.json {key} matches run.py's metrics")

    table = subprocess.run([str(run.BINARY), "--check-table", str(run.TABLE)],
                           capture_output=True, text=True)
    print(table.stdout, end="")
    check(table.returncode == 0, "pinned cost table round-trips")

    storm = [run.repetition("storm", SEED, False, 0) for _ in range(2)]
    storm_1 = run.repetition("storm", SEED, False, 2)  # one worker thread
    check(all(clean(r) for r in storm + [storm_1]),
          "storm completes every procedure with no RYW violation")
    check(storm[0]["fingerprint"] == storm[1]["fingerprint"],
          "storm fingerprint identical across two runs")
    check(storm_1["threads"] == 1 and storm[0]["threads"] == 4 and
          storm_1["fingerprint"] == storm[0]["fingerprint"],
          "storm fingerprint identical at 1 and 4 worker threads")

    mobility = [run.repetition("mobility-failover", SEED, False, 0)
                for _ in range(2)]
    check(all(clean(r) for r in mobility),
          "mobility-failover completes every procedure with no RYW "
          "violation")
    check(mobility[0]["fingerprint"] == mobility[1]["fingerprint"],
          "mobility-failover fingerprint identical across two runs")

    print(f"selftest: {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
