#!/usr/bin/env python3
"""Host-speed benchmark of the PUBS simulator.

Builds perfbench_harness (perfbench/CMakeLists.txt) into .bench_build,
runs one workload for a fixed time, checks the guest outputs against the
digests pinned in perfbench/pins.json, and prints the metrics named in
BENCHMARK.json. The last line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):

    python3 perfbench/run.py --workload dbp_compute --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --pin            # re-pin digests and counters
    python3 perfbench/run.py --compare A.json B.json

--trace 0 reports the end-to-end metrics from untraced repetitions;
--trace 1 reports the per-layer metrics from a separate traced run. See
perfbench/README.md for what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")

# Workload seeds with pinned guest outputs; --seed n runs seed
# 1 + n mod PINNED_SEEDS, so every run is checked against a pin.
PINNED_SEEDS = 5

# The D-BP workloads, whose PUBS speedup is set beside the paper's
# Fig. 8 "GM diff" of +7.8%.
DBP_WORKLOADS = ("dbp_compute", "mem_bound")
PAPER_GM_DIFF_PCT = 7.8

HARNESS_TIMEOUT_S = 170


def fail(message, code=2):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build the harness; return its path."""
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("simulator sources not found next to perfbench/ "
                 "(missing %s)" % needed)
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_harness",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(cmd), 3)
    return os.path.join(out, "perfbench_harness")


def run_harness(exe, workload, seed, seconds, trace):
    scratch = os.path.join(build_dir(), "run-%d" % os.getpid())
    env = {k: v for k, v in os.environ.items() if not k.startswith("PUBS_")}
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=HARNESS_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s" % HARNESS_TIMEOUT_S, 4)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail("harness exited with %d" % proc.returncode, 4)
    return json.loads(proc.stdout)


def row_digests(stats_json):
    """sha256 of each run row of a SweepResult::statsJson() document."""
    runs = json.loads(stats_json)["runs"]
    return [hashlib.sha256(json.dumps(r, sort_keys=True).encode())
            .hexdigest()[:16] for r in runs]


def guest_outputs(workload, stats_json):
    """Checked, unranked guest figures of the run (from the digests'
    source document): IPC geomeans and the PUBS speedup."""
    runs = json.loads(stats_json)["runs"]
    ipc = {}
    for r in runs:
        if r["ok"]:
            ipc.setdefault(r["machine"], {})[r["workload"]] = r["ipc"]
    base, pubs = ipc.get("base", {}), ipc.get("pubs", {})
    names = sorted(set(base) & set(pubs))
    if not names:
        return {}
    gm = lambda xs: statistics.geometric_mean(xs)
    speedup = (gm([pubs[n] / base[n] for n in names]) - 1.0) * 100.0
    out = {"guest.ipc_gm.base": gm([base[n] for n in names]),
           "guest.ipc_gm.pubs": gm([pubs[n] for n in names]),
           "guest.pubs_speedup_gm_pct": speedup}
    if workload in DBP_WORKLOADS:
        out["guest.paper_gap_pp"] = speedup - PAPER_GM_DIFF_PCT
    return out


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint(result):
    return {"cpu": cpu_model(), "nproc": os.cpu_count(),
            "build": result["build"], "jobs": result["jobs"],
            "procs": result["procs"]}


def load_pins():
    if not os.path.isfile(PINS):
        return {}
    with open(PINS) as f:
        return json.load(f)


def check(workload, wseed, result, pins):
    """Compare guest outputs and work counters with the pins and between
    the traced and untraced runs. Returns (failed runs, problems)."""
    problems = []
    pin = pins.get("workloads", {}).get(workload, {}).get(str(wseed))
    if pin is None:
        problems.append("no pinned digest for %s seed %d" % (workload, wseed))
    failed = result["failed"]
    for doc in result["stats"]:
        rows = row_digests(doc["json"])
        if pin is not None:
            if len(rows) != len(pin["rows"]):
                bad = len(rows)
            else:
                bad = sum(a != b for a, b in zip(rows, pin["rows"]))
            # Skip rows are already in the harness's failed count.
            skips = sum(not r["ok"] for r in json.loads(doc["json"])["runs"])
            failed += (bad - skips) * doc["count"]
            if bad:
                problems.append("%d of %d runs differ from the pinned "
                                "guest output" % (bad, len(rows)))
    if len(result["stats"]) != 1:
        problems.append("guest output differs between repetitions")
    if not result["counters_repeat"]:
        problems.append("work counters differ between repetitions")

    counters = result["untraced_counters"]
    if result["trace"]:
        if result["traced_stats"] != result["stats"][0]["json"]:
            problems.append("traced run's guest output differs from the "
                            "untraced run's")
            failed += 1
        traced = result["traced_counters"]
        diff = [k for k in counters if traced.get(k) != counters[k]]
        if diff:
            problems.append("traced work counters differ: " + ", ".join(diff))
        counters = traced
    if pin is not None:
        diff = [k for k in counters if pin["counters"].get(k) != counters[k]]
        if diff:
            problems.append("work counters differ from the pinned table: "
                            + ", ".join(diff))
    return failed, problems


def save_record(record):
    out = os.path.join(build_dir(), "results")
    os.makedirs(out, exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (
        record["workload"], record["seed"], record["trace"],
        time.time_ns())
    with open(os.path.join(out, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)


def bench(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail("unknown workload %r (have %s)" % (args.workload,
                                                ", ".join(workloads)))
    exe = build()
    wseed = 1 + args.seed % PINNED_SEEDS
    result = run_harness(exe, args.workload, wseed, args.seconds,
                         args.trace)
    failed, problems = check(args.workload, wseed, result, load_pins())
    for problem in problems:
        print("check failed: " + problem, file=sys.stderr)

    attempted = result["attempted"]
    metrics = dict(result["metrics"])
    metrics["success_rate"] = (attempted - failed) / attempted
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("harness did not report " + ", ".join(missing), 4)
    guest = guest_outputs(args.workload, result["stats"][0]["json"])
    record = {"workload": args.workload, "seed": args.seed,
              "workload_seed": wseed, "trace": args.trace,
              "seconds": args.seconds, "reps": result["reps"],
              "fingerprint": fingerprint(result), "guest": guest,
              "metrics": metrics, "problems": problems,
              "reps_sweep_s": result["sweep_s_reps"],
              "reps_setup_s": result["setup_s_reps"],
              "reps_kips": result["kips_reps"],
              "counters": result.get("traced_counters",
                                     result["untraced_counters"])}
    save_record(record)
    print(json.dumps({"fingerprint": record["fingerprint"]}))
    print(json.dumps({"guest": guest, "checked": not problems}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }))


def pin(args):
    """Re-pin guest digests and work counters for every workload and
    pinned seed. Only for a change that means to alter guest behaviour
    or the counters; say so where the change is described."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    exe = build()
    pins = {"pinned_seeds": PINNED_SEEDS, "workloads": {}}
    for w in spec["workloads"]:
        for wseed in range(1, PINNED_SEEDS + 1):
            result = run_harness(exe, w["name"], wseed, 0.1, 1)
            if result["failed"] or len(result["stats"]) != 1:
                fail("%s seed %d did not run clean" % (w["name"], wseed))
            if result["traced_stats"] != result["stats"][0]["json"]:
                fail("%s seed %d: traced output differs" % (w["name"], wseed))
            pins["workloads"].setdefault(w["name"], {})[str(wseed)] = {
                "rows": row_digests(result["stats"][0]["json"]),
                "guest": guest_outputs(w["name"],
                                       result["stats"][0]["json"]),
                "counters": result["traced_counters"],
            }
            print("pinned %s seed %d" % (w["name"], wseed), file=sys.stderr)
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def compare(paths):
    """Per-metric ratio of two saved result records; refuses records
    whose host fingerprints differ."""
    a, b = [json.load(open(p)) for p in paths]
    if a["fingerprint"] != b["fingerprint"]:
        print(json.dumps({"a": a["fingerprint"], "b": b["fingerprint"]},
                         indent=1), file=sys.stderr)
        fail("fingerprints differ; results from different hosts or builds "
             "are not comparable", 5)
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        fail("records are of different workloads or trace modes", 5)
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        x, y = a["metrics"][name], b["metrics"][name]
        ratio = "%+.1f%%" % ((y / x - 1) * 100) if x else "n/a"
        print("%-32s %14.6g %14.6g %9s" % (name, x, y, ratio))


def main():
    # Exit through Python on SIGTERM, so subprocess.run kills and reaps
    # the harness instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    args = parser.parse_args()
    if args.compare:
        compare(args.compare)
    elif args.pin:
        pin(args)
    elif not args.workload:
        fail("--workload is required")
    elif args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    else:
        bench(args)


if __name__ == "__main__":
    main()
