#!/usr/bin/env python3
"""Builds and runs the file-system benchmark for one workload.

Run from the root of a checkout:

    python3 fsbench/run.py --workload meta_private --seed 1 --seconds 20 --trace 0

It builds fsbench (fsbench/CMakeLists.txt) from the checkout's sources into
.bench_build/fsbench, runs one workload, prints every metric with its unit,
its sample count or ratio base and (for per-layer metrics) the end-to-end
metric it should move, and the git commit, nproc and flush policy. The last
line of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list. It exits non-zero without a result line if the
benchmark cannot be built or run, or prints a metric list that does not match
BENCHMARK.json.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fsbench")
RUN_TIMEOUT_S = 170
MAX_BUILD_JOBS = 4  # each compiler takes a few hundred MB


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def configured_here():
    """The build tree exists and was configured from this checkout's fsbench/."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    home = line.split("=", 1)[1].strip()
                    return os.path.realpath(home) == os.path.realpath(HERE)
    except OSError:
        pass
    return False


def build_steps(jobs):
    steps = []
    if not configured_here():
        # A tree configured elsewhere (a moved or copied checkout) cannot be
        # reused: cmake refuses a cache made for another source directory.
        shutil.rmtree(BUILD, ignore_errors=True)
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "fsbench", "-j", str(jobs)])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("fsbench/run.py: build step failed: " + " ".join(cmd))
            return False
    return True


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no file-system sources under %s/src" % ROOT)
    jobs = max(1, min(len(os.sched_getaffinity(0)), MAX_BUILD_JOBS))
    if not build_steps(jobs):
        # One more try from a clean tree, one compiler at a time: a compiler
        # killed for memory on a busy host, or a half-written tree, fails the
        # first try but not this one. A real compile error fails both.
        shutil.rmtree(BUILD, ignore_errors=True)
        if not build_steps(1):
            raise RuntimeError("build failed")
    return os.path.join(BUILD, "fsbench")


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def run_fsbench(exe, args, extra):
    out_dir = os.path.join(BUILD, "out")
    os.makedirs(out_dir, exist_ok=True)
    # fsbench takes the seed as an unsigned 64-bit number.
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed % (1 << 64)), "--seconds",
           str(args.seconds), "--trace", str(args.trace)] + extra
    # The trace digest lands in out_dir/bench_results/.
    proc = subprocess.run(cmd, cwd=out_dir, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        # Its progress lines say which round got how far.
        sys.stderr.write("".join(line + "\n" for line in lines[-20:]))
        raise RuntimeError("fsbench exited with %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"], [w["name"] for w in spec["workloads"]]


def check(record, spec_metrics):
    """The run printed every listed metric, with the listed unit and a finite value."""
    got = {m["name"]: m for m in record["metrics"]}
    for m in spec_metrics:
        if m["name"] not in got:
            raise RuntimeError("metric %s not printed" % m["name"])
        if got[m["name"]]["unit"] != m["unit"]:
            raise RuntimeError("metric %s printed in %s, BENCHMARK.json says %s"
                               % (m["name"], got[m["name"]]["unit"], m["unit"]))
        v = got[m["name"]]["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise RuntimeError("metric %s has no finite value" % m["name"])
    return got


def print_table(record, spec_metrics, got):
    print("%-34s %14s  %-10s %s" % ("metric", "value", "unit", "base"))
    for m in spec_metrics:
        r = got[m["name"]]
        line = "%-34s %14.6g  %-10s %s" % (r["name"], r["value"], r["unit"], r["base"])
        if r["moves"]:
            line += "  -> " + r["moves"]
        print(line)
    for p in record["problems"]:
        print("PROBLEM: " + p)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-readback", action="store_true",
                        help="self-test: flip a byte of every read-back buffer")
    args = parser.parse_args()

    try:
        spec_metrics, workloads = expected_metrics(args.trace)
        if args.workload not in workloads:
            raise RuntimeError("unknown workload %s (BENCHMARK.json lists %s)"
                               % (args.workload, ", ".join(workloads)))
        exe = build()
        extra = ["--corrupt-readback"] if args.corrupt_readback else []
        t0 = time.monotonic()
        record = run_fsbench(exe, args, extra)
        got = check(record, spec_metrics)
    except (OSError, ValueError, KeyError, RuntimeError, subprocess.SubprocessError) as e:
        log("fsbench/run.py: " + str(e))
        return 1

    print("seed %d, commit %s, nproc %s, flush policy: sync_log %s, %.1f s"
          % (args.seed, git_commit(), os.cpu_count(), "on" if record["sync_log"] else "off",
             time.monotonic() - t0))
    print_table(record, spec_metrics, got)

    result = {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {m["name"]: {"value": got[m["name"]]["value"], "unit": m["unit"]}
                    for m in spec_metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
