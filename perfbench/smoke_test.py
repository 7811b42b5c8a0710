"""Smoke test of the benchmark runner (dune runtest).

Runs every workload once untraced and once traced at the tiny scale
(100 motes, one pass of a 5-image program table, 64 jobs) and checks that
every output check passes, that every metric BENCHMARK.json declares is
produced with the unit its name implies, and that the whole test stays
under 15 s.
"""

import json
import os
import sys
import time

import run

BUDGET_S = 15


def main():
    start = time.monotonic()
    with open(os.path.join("..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    exe = os.path.abspath("sensbench.exe")
    problems, produced = [], set()
    with run.scratch_dir() as tmp:
        for w in run.WORKLOADS:
            s = run.run_workload(exe, tmp, w, seed=1, seconds=0, trace=True, scale="tiny")
            if not s["correct"]:
                problems += ["%s: %s" % (w, e) for e in s["errors"]]
            missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in s["end_to_end"]]
            problems += ["%s: no end-to-end metric %s" % (w, n) for n in missing]
            produced |= s["produced"]
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["unit"] != run.unit_of(m["name"]):
            problems.append("%s declared in %s, measured in %s"
                            % (m["name"], m["unit"], run.unit_of(m["name"])))
    problems += ["no workload produced per-layer metric %s" % m["name"]
                 for m in spec["per_layer"] if m["name"] not in produced]
    elapsed = time.monotonic() - start
    if elapsed >= BUDGET_S:
        problems.append("smoke took %.1f s (budget %d s)" % (elapsed, BUDGET_S))
    for p in problems:
        print("FAIL " + p)
    print("perfbench smoke: %d workloads, %.1f s, %s"
          % (len(run.WORKLOADS), elapsed, "ok" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
