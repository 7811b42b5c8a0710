#!/usr/bin/env python3
"""SenSmart benchmark: one command, end to end and per layer.

Run from the root of a checkout:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --report NAME [--runs N] [--seed S] [--workload W]

The first form builds perfbench/sensbench.exe (dune, release profile) and
runs workload W for S seconds as a loop of iterations, each one a fresh
sensbench process with an empty tier-2 artifact cache.  It prints a short
summary on stderr and, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, measured on untraced
iterations; with --trace 1, traced and untraced iterations alternate and
the metrics are the per-layer ones.  It exits nonzero when any output
check fails.

The second form runs every workload (or the given one) in two independent
sets of N untraced runs plus one traced run, and writes
perfbench/results/NAME.json: median, quartiles and every sample of each
end-to-end metric per set, whether the two sets' medians agree within the
declared bounds, and the traced per-layer breakdown.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ["fleet", "fleet_t2", "programs", "programs_t2", "serve"]
EXE = os.path.join("_build", "default", "perfbench", "sensbench.exe")
ITERATION_TIMEOUT_S = 150
# calibrate() on the 2-vCPU reference host when nothing else runs there.
CALIBRATION_REF_S = 0.06

# Units follow from metric names; tests check BENCHMARK.json against this.
SPECIAL_UNITS = {
    "machine.minsns_per_s": "Minsn/s",
    "net.mcycles_per_s": "Mcycle/s",
    "service.jobs_per_s_1w": "jobs/s",
    "snapshot.bytes_per_mote": "bytes",
    "peak_rss_mb": "MiB",
    "gc.top_heap_mb": "MiB",
}
SUFFIX_UNITS = [("_pct", "%"), ("_ms", "ms"), ("_s", "s"),
                ("_permille", "permille"), ("_mwords", "Mwords")]


def unit_of(name):
    if name in SPECIAL_UNITS:
        return SPECIAL_UNITS[name]
    for suffix, unit in SUFFIX_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


class BenchError(Exception):
    pass


def build():
    """Build the iteration runner from source; returns its path."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        raise BenchError("run from the root of a SenSmart checkout "
                         "(no dune-project or lib/ here)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "./perfbench/sensbench.exe"],
        stdout=sys.stderr, env=env)
    if proc.returncode != 0:
        raise BenchError("dune build failed (exit %d)" % proc.returncode)
    return os.path.abspath(EXE)


@contextlib.contextmanager
def scratch_dir():
    """A temporary directory in the current directory, removed afterwards."""
    path = tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=".")
    try:
        yield os.path.abspath(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)


def calibrate():
    """Time a fixed pure-Python loop, which slows down with the simulator
    when other tenants load the shared host (see README, "Spread and
    bounds")."""
    start = time.monotonic()
    x = 0
    for i in range(600_000):
        x = (x * 31 + i) & 0xFFFFFFFF
    return time.monotonic() - start


def iterate(exe, tmp, workload, seed, scale, trace=False, reference=False):
    """One sensbench process; returns its parsed JSON line, plus the
    factor that scales its host times to the reference host's speed."""
    speed = CALIBRATION_REF_S / calibrate()
    cache = tempfile.mkdtemp(prefix="aot-", dir=tmp)
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SENSMART_") and k != "OCAMLRUNPARAM"}
    # An empty artifact cache per process, temp files and the runtime
    # events ring inside the checkout, and a ring large enough that
    # draining at span boundaries loses no events.
    env.update(SENSMART_AOT_CACHE=cache, TMPDIR=tmp,
               OCAML_RUNTIME_EVENTS_DIR=tmp, OCAMLRUNPARAM="e=18")
    args = [exe, "--workload", workload, "--seed", str(seed), "--scale", scale]
    if trace:
        args.append("--trace")
    if reference:
        args.append("--reference")
    try:
        proc = subprocess.run(args, capture_output=True, text=True,
                              errors="replace", env=env,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s iteration exceeded %d s" % (workload, ITERATION_TIMEOUT_S))
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("%s iteration exited %d: %s" % (
            workload, proc.returncode, proc.stderr.strip()[-2000:]))
    result = json.loads(lines[-1])
    result["traced"] = trace
    result["speed"] = speed
    return result


def run_workload(exe, tmp, workload, seed, seconds, trace, scale="default"):
    """Iterate [workload] for [seconds] and summarize the iterations."""
    reference = (iterate(exe, tmp, workload, seed, scale, reference=True)
                 if workload == "serve" else None)
    iterations = []
    start = time.monotonic()
    while True:
        traced = trace and len(iterations) % 2 == 1
        iterations.append(iterate(exe, tmp, workload, seed, scale, trace=traced))
        enough = not trace or len(iterations) >= 2
        if enough and time.monotonic() - start >= seconds:
            break
    return summarize(iterations, reference)


def host_times(runs, scaled):
    """Median set-up and main-phase times of the iterations [runs], at the
    reference host's speed when [scaled]."""
    def f(r):
        return r["speed"] if scaled else 1.0
    return {
        "setup_s": statistics.median([s * f(r) for r in runs for s in r["setup_s"]]),
        "wall_s": statistics.median([r["wall_s"] * f(r) for r in runs]),
    }


def summarize(iterations, reference):
    plain = [r for r in iterations if not r["traced"]]
    traced = [r for r in iterations if r["traced"]]
    errors = [e for r in iterations for e in r["errors"]]
    attempted = sum(r["attempted"] for r in iterations)
    failed = sum(r["failed"] for r in iterations)
    if reference is not None:
        # Every served mix must hash like the one-worker serve of it.
        attempted += reference["attempted"] + len(iterations)
        failed += reference["failed"]
        errors += reference["errors"]
        for r in iterations:
            if r["digest"] != reference["digest"]:
                failed += 1
                errors.append("serve digest %s != 1-worker digest %s"
                              % (r["digest"], reference["digest"]))
    e2e = dict(host_times(plain, scaled=True),
               peak_rss_mb=statistics.median([r["peak_rss_kb"] for r in plain]) / 1024)
    layers, produced, breakdown = {}, set(), None
    if traced:
        produced = {k for r in traced for k in r["layers"]}
        layers = {k: statistics.median([r["layers"].get(k, 0.0) for r in traced])
                  for k in produced}
        traced_wall = statistics.median([r["wall_s"] * r["speed"] for r in traced])
        layers["trace_overhead_pct"] = 100 * (traced_wall / e2e["wall_s"] - 1)
        layers["unattributed_s"] = e2e["wall_s"] - statistics.median(
            [r["main_covered_s"] * r["speed"] for r in traced])
        if reference is not None:
            layers["service.jobs_per_s_1w"] = reference["jobs_per_s"] / reference["speed"]
            layers["service.scaling_pct"] = 100 * statistics.median(
                [r["jobs_per_s"] / r["speed"] for r in plain]) / layers["service.jobs_per_s_1w"]
        produced |= set(layers)
        breakdown = {"spans": traced[0]["breakdown"],
                     "job_kinds": traced[0].get("job_kinds")}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "iterations": len(iterations),
        "end_to_end": e2e,
        "unscaled": host_times(plain, scaled=False),
        "per_layer": layers,
        "produced": produced,
        "breakdown": breakdown,
        "ocaml": iterations[0]["ocaml"],
    }


def contract_line(spec, summary, trace):
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = summary["per_layer"] if trace else summary["end_to_end"]
    return json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    })


def print_summary(workload, summary):
    out = sys.stderr
    print("%s: %d iterations, %d/%d checks failed" % (
        workload, summary["iterations"], summary["failed"], summary["attempted"]), file=out)
    for e in summary["errors"][:10]:
        print("  FAILED " + e, file=out)
    for k, v in summary["end_to_end"].items():
        unscaled = summary["unscaled"].get(k)
        print("  %-22s %14.6g %-4s%s" % (
            k, v, unit_of(k), "" if unscaled is None else "  (unscaled %.6g)" % unscaled),
            file=out)
    if summary["breakdown"]:
        print("  traced spans (self s, GC pause ms):", file=out)
        for s in summary["breakdown"]["spans"]:
            print("    %-20s x%-5d %10.4f %10.2f" % (
                s["span"], s["count"], s["self_s"], s["gc_pause_ms"]), file=out)
        for k in sorted(summary["per_layer"]):
            print("  %-30s %14.6g %s" % (k, summary["per_layer"][k], unit_of(k)), file=out)


def describe(values, unit, better):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    median = statistics.median(values)
    return {"unit": unit, "better": better, "n": len(values), "median": median,
            "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median if median else None,
            "samples": values}


def report(spec, exe, args):
    workloads = [args.workload] if args.workload else WORKLOADS
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    command = spec["command"] + ["--report", args.report, "--runs", str(args.runs),
                                 "--seed", str(args.seed)]
    if args.workload:
        command += ["--workload", args.workload]
    toolchain = any(shutil.which(c) for c in ("ocamlfind", "ocamlopt.opt", "ocamlopt"))
    try:
        commit = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True,
                                text=True).stdout.strip() or None
    except OSError:
        commit = None
    result = {"command": command, "commit": commit, "nproc": os.cpu_count(),
              "run_seconds": seconds, "runs_per_set": args.runs,
              "aot_toolchain_found": toolchain, "claim": None, "workloads": {}}
    ok = True
    with scratch_dir() as tmp:
        for w in workloads:
            sets = []
            for s in range(2):
                runs = []
                for i in range(args.runs):
                    seed = args.seed + s * args.runs + i
                    summary = run_workload(exe, tmp, w, seed, seconds, trace=False)
                    print_summary("%s set %d seed %d" % (w, s + 1, seed), summary)
                    ok = ok and summary["correct"]
                    runs.append(summary)
                sets.append(runs)
            traced = run_workload(exe, tmp, w, args.seed, seconds, trace=True)
            print_summary("%s traced" % w, traced)
            ok = ok and traced["correct"]
            result["ocaml"] = traced["ocaml"]
            entry = {"sets": [], "agreement": {}, "traced": {
                "per_layer": {m["name"]: {"value": traced["per_layer"].get(m["name"], 0.0),
                                          "unit": m["unit"]} for m in spec["per_layer"]},
                "breakdown": traced["breakdown"]}}
            for runs in sets:
                entry["sets"].append({
                    "attempted": sum(r["attempted"] for r in runs),
                    "failed": sum(r["failed"] for r in runs),
                    "metrics": {m["name"]: describe([r["end_to_end"][m["name"]] for r in runs],
                                                    m["unit"], m["better"])
                                for m in spec["end_to_end"]},
                    "unscaled": {k: describe([r["unscaled"][k] for r in runs], unit_of(k), "lower")
                                 for k in runs[0]["unscaled"]}})
            for m in spec["end_to_end"]:
                a, b = (st["metrics"][m["name"]]["median"] for st in entry["sets"])
                entry["agreement"][m["name"]] = {
                    "median_set1": a, "median_set2": b, "diff_share": abs(b - a) / a,
                    "bound": m["bound"], "within_bound": abs(b - a) <= m["bound"] * a}
            result["workloads"][w] = entry
    os.makedirs(os.path.join("perfbench", "results"), exist_ok=True)
    path = os.path.join("perfbench", "results", args.report + ".json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    print("wrote " + path)
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--report", metavar="NAME")
    p.add_argument("--runs", type=int, default=5)
    args = p.parse_args()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
        exe = build()
        if args.report:
            return 0 if report(spec, exe, args) else 1
        if not args.workload:
            p.error("--workload is required without --report")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        with scratch_dir() as tmp:
            summary = run_workload(exe, tmp, args.workload, args.seed, seconds,
                                   trace=bool(args.trace))
        print_summary(args.workload, summary)
        print(contract_line(spec, summary, args.trace))
        return 0 if summary["correct"] else 1
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
