#!/usr/bin/env python3
"""perfbench: the NetBatchSim benchmark.

One workload, as BENCHMARK.json's command is run (from the repository root):

    python3 perfbench/run.py --workload sim-paper --seed 1 --seconds 45 --trace 0

builds the library, netbatchd, netbatch_cli and the nbbench binary from
source (CMake, into $CARGO_TARGET_DIR or .bench_build/), runs the workload
for --seconds, checks its outputs, and prints one JSON result as the last
line of stdout. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer metrics of a traced run. A human-readable table goes to stderr;
the full record (provenance, every sample, medians and quartiles) is
written to <build dir>/results/.

Every workload, untraced then traced, with one summary table:

    python3 perfbench/run.py --all --seed 1

The exit status is 0 only when every output check passed. See
perfbench/README.md for what each metric measures and which layer change
should move it.
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
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

# Every run must finish within 180 s (900 s when it builds).
RUN_DEADLINE_S = 170
BUILD_DEADLINE_S = 840

# Every workload run.py can run. BENCHMARK.json lists the ones that gate a
# change; sim-bigpool is left out of it (README: not steady on a shared
# host) but still runs here and under --all.
WORKLOADS = {
    "sim-paper": {
        "command": ["sim", "--presets=normal,high,highsusp",
                    "--policy=ResSusWaitUtil"],
        "pinned": ["normal", "high", "highsusp"],
    },
    "sim-bigpool": {
        "command": ["sim", "--presets=bigpool", "--policy=ResSusUtil"],
        "pinned": ["bigpool"],
    },
    "serve-firehose": {
        "command": ["serve", "--mode=firehose"],
        "pinned": [],
    },
    "serve-paced": {
        "command": ["serve", "--mode=paced"],
        "pinned": [],
    },
}

# Per-layer metrics a workload does not exercise: reported as 0, and the
# README's prediction for them is "no change".
SIM_ONLY = {"sim.events", "metrics.observer.ns_per_event",
            "metrics.on_sample.ns_per_call", "sim.engine_self_ns_per_event"}
SERVE_ONLY = {"service.codec.encode_ns", "service.codec.decode_ns",
              "net.frames_per_recv", "net.recv_block_share",
              "service.forwarded_share", "service.rtt_local_p50_us",
              "service.rtt_forwarded_p50_us", "service.decisions_per_s_q1",
              "service.decisions_per_s_q4", "service.admit_to_place_p50_us",
              "persist.wal_bytes_per_decision", "persist.recovery_ms",
              "persist.plan_s", "persist.plan_records"}
NOT_EXERCISED = {
    "sim-paper": SERVE_ONLY,
    "sim-bigpool": SERVE_ONLY,
    "serve-firehose": SIM_ONLY,
    "serve-paced": SIM_ONLY | {"persist.wal_bytes_per_decision",
                               "persist.recovery_ms", "persist.plan_s",
                               "persist.plan_records"},
}

# The preset sweep digests pinned in BENCH_memory.json: the behaviour
# contract of the simulator. Scale 0.25 (the CLI default), seeds 42,43.
PINNED_SWEEPS = {
    "normal": {"policies": None,
               "csv": "40cad917a29ff0120f824c6ea8f2bb0a5b08543d5efab1744a48e0845489d856",
               "json": "07b0ae7fcc08ec1feb9016765503b908e50fe9ccc5a807a812e4a72a32428776"},
    "high": {"policies": None,
             "csv": "dc407ee894d2ef8ae5336176e7dae22934d27efd48ee1bc77340d3e5ea24eda7",
             "json": "ea849820888140349230e70dce47056c01164375d10452aa2a534ee719412f1e"},
    "highsusp": {"policies": None,
                 "csv": "6eca94d525fb3388af1d1f84b270c753790be046bedf9de44f0fca01a9df69d7",
                 "json": "32e58fc8f1b295807271bb6c1a7b46161cc5d1057cd6d3da2cb1a9b66f354666"},
    "bigpool": {"policies": "ResSusUtil,ResSusWaitUtil",
                "csv": "02e4bebb7c5450d9664402a25653683defb8f931d53197f535905ecbfb2ab451",
                "json": "81180390db5a3f0a03d7703534af0fe5eb171d9abd6d9bc0e125731dc88ad7eb"},
}

TARGETS = ["nbbench", "netbatchd", "netbatch_cli"]


def log(message):
    print(message, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark could not run (no sources, build failure, crash)."""


def load_definition():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


def build_dir():
    return os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))


def build():
    """Configures and builds the benchmark's targets; returns the bin dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no NetBatchSim sources next to perfbench/ "
                         "(expected src/CMakeLists.txt)")
    out = os.path.join(build_dir(), "perfbench")
    os.makedirs(out, exist_ok=True)
    deadline = time.monotonic() + BUILD_DEADLINE_S
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1),
                  "--target"] + TARGETS)
    for step in steps:
        remaining = max(1, deadline - time.monotonic())
        try:
            proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("build timed out")
        if proc.returncode != 0:
            raise BenchError("build failed: " + " ".join(step))
    return out


def run_group(argv, cwd, timeout):
    """Runs argv in its own process group; kills the group on timeout so no
    daemon outlives the run. Returns (returncode, stdout)."""
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        reap_group(proc.pid)
        proc.communicate()
        raise BenchError("%s timed out after %.0fs" % (argv[1], timeout))
    finally:
        reap_group(proc.pid)
    return proc.returncode, stdout


def reap_group(pgid):
    """SIGKILLs whatever is left in the process group (a daemon orphaned by
    a crashed nbbench) and waits until the group is empty."""
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def check_pinned_sweeps(bin_dir, presets, run_dir, deadline):
    """Re-runs each preset's pinned sweep with netbatch_cli and compares the
    SHA-256 of its CSV and JSON output. Returns check records."""
    checks = []
    for preset in presets:
        pinned = PINNED_SWEEPS[preset]
        csv_out = os.path.join(run_dir, preset + ".sweep.csv")
        json_out = os.path.join(run_dir, preset + ".sweep.json")
        argv = [os.path.join(bin_dir, "netbatch_cli"), "sweep",
                "--scenario=" + preset, "--seeds=42,43", "--jobs=4",
                "--csv-out=" + csv_out, "--json-out=" + json_out]
        if pinned["policies"]:
            argv.append("--policies=" + pinned["policies"])
        code, _ = run_group(argv, run_dir, max(1, deadline - time.monotonic()))
        ok = (code == 0 and os.path.isfile(csv_out) and os.path.isfile(json_out)
              and sha256(csv_out) == pinned["csv"]
              and sha256(json_out) == pinned["json"])
        checks.append({"name": "pinned-sweep-sha256/" + preset, "ok": ok,
                       "detail": "" if ok else "sweep output no longer "
                                 "matches the digests pinned in "
                                 "BENCH_memory.json"})
    return checks


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(values):
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values),
            "spread": (q3 - q1) / median if median else None}


def provenance(nbbench_params, args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "kernel": platform.release(), "python": platform.python_version(),
            "git_commit": commit, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "build": {k: nbbench_params.get(k) for k in
                      ("compiler", "build_type", "cxx_flags")},
            "parameters": {k: v for k, v in nbbench_params.items() if k not in
                           ("compiler", "build_type", "cxx_flags")}}


def run_workload(args, definition, bin_dir):
    """Runs one workload once; returns (result line, full record)."""
    spec = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_DEADLINE_S
    run_dir = os.path.join(build_dir(), "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        argv = [os.path.join(bin_dir, "nbbench")] + spec["command"] + [
            "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
            "--trace=%d" % args.trace]
        if spec["command"][0] == "serve":
            argv.append("--netbatchd=" + os.path.join(bin_dir, "netbatchd"))
        if args.smoke:
            argv.append("--scale=0.05")
        code, stdout = run_group(argv, run_dir,
                                 max(1, deadline - time.monotonic()))
        lines = stdout.strip().splitlines()
        if not lines:
            raise BenchError("nbbench printed nothing (exit %d)" % code)
        raw = json.loads(lines[-1])
        checks = list(raw["checks"])
        attempted, failed = raw["attempted"], raw["failed"]
        if spec["pinned"]:
            pinned = check_pinned_sweeps(bin_dir, spec["pinned"], run_dir,
                                         deadline)
            checks += pinned
            attempted += len(pinned)
            failed += sum(1 for c in pinned if not c["ok"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    wanted = definition["per_layer" if args.trace else "end_to_end"]
    series = raw["layers" if args.trace else "samples"]
    metrics, stats = {}, {}
    for metric in wanted:
        name = metric["name"]
        values = series.get(name)
        if not values:
            if args.trace and name in NOT_EXERCISED[args.workload]:
                values = [0.0]
            else:
                raise BenchError("nbbench reported no %s" % name)
        stats[name] = dict(summarize(values), unit=metric["unit"])
        metrics[name] = {"value": stats[name]["median"], "unit": metric["unit"]}
    correct = code == 0 and all(c["ok"] for c in checks) and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    # Every series nbbench reported, metric or not (e.g. the wall-clock
    # setup_s_wall / recovery_s_wall beside the gated CPU-time figures).
    raw_series = {name: summarize(values)
                  for name, values in {**raw["samples"], **raw["layers"]}.items()
                  if values}
    record = {"provenance": provenance(raw["params"], args),
              "checks": checks, "failed_share": failed / max(attempted, 1),
              "metrics": stats, "series": raw_series, "result": result}
    return result, record


def print_table(workload, trace, record):
    log("%s (%s, seed %s):" % (workload, "traced" if trace else "untraced",
                               record["provenance"]["seed"]))
    for name, s in record["metrics"].items():
        log("  %-32s %14.6g %-6s  n=%-4d q1=%.6g q3=%.6g" % (
            name, s["median"], s["unit"], s["n"], s["q1"], s["q3"]))
    bad = [c for c in record["checks"] if not c["ok"]]
    log("  checks: %d run, %d failed; failed_share %.6g" % (
        len(record["checks"]), len(bad), record["failed_share"]))
    for c in bad:
        log("  FAILED %s: %s" % (c["name"], c["detail"]))


def save(record, name):
    out = os.path.join(build_dir(), "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, name + ".json")
    with open(path, "w") as f:
        json.dump(record, f, indent=2)
    return path


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: checks plumbing, not performance")
    args = parser.parse_args()
    if not args.all and not args.workload:
        parser.error("--workload or --all is required")

    try:
        definition = load_definition()
        if args.seconds is None:
            args.seconds = definition["run_seconds"]
        bin_dir = build()
        if not args.all:
            result, record = run_workload(args, definition, bin_dir)
            print_table(args.workload, args.trace, record)
            save(record, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                args.trace))
            print(json.dumps({"provenance": record["provenance"]}))
            print(json.dumps(result))
            return 0 if result["correct"] else 1

        summary = {}
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                args.workload, args.trace = workload, trace
                result, record = run_workload(args, definition, bin_dir)
                print_table(workload, trace, record)
                summary["%s/trace%d" % (workload, trace)] = record
                ok = ok and result["correct"]
        path = save(summary, "all-seed%d" % args.seed)
        for key, record in summary.items():
            for name, s in record["metrics"].items():
                print("%s %s %.6g %s" % (key, name, s["median"], s["unit"]))
        log("wrote %s" % path)
        return 0 if ok else 1
    except (BenchError, OSError, ValueError, KeyError) as error:
        log("perfbench: %s" % error)
        return 2


if __name__ == "__main__":
    sys.exit(main())
