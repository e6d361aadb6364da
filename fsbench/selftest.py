#!/usr/bin/env python3
"""Smoke-length self-test of the benchmark runner.

Run from the root of a checkout:

    python3 fsbench/selftest.py

Checks that BENCHMARK.json parses and has the expected shape; that a short
run of every workload, untraced and traced, prints every listed metric by
name with its unit, ends fsck-clean with no failed call, and prints a result
line whose metrics are exactly the listed ones; and that the correctness gate
fires when every read-back buffer is corrupted. Exits 0 when all pass.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = "3"  # one round of one cluster per untraced run
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def expect(cond, what):
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        failures.append(what)


def check_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    expect(set(spec) == keys, "BENCHMARK.json has exactly the contract's keys")
    names = [w["name"] for w in spec["workloads"]]
    expect(names == ["meta_private", "meta_shared", "stream_rw"], "three workloads listed")
    expect(all(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"]), "every workload has a one-line why")
    metrics = spec["end_to_end"] + spec["per_layer"]
    expect(len({m["name"] for m in metrics}) == len(metrics), "metric names are unique")
    expect(all(NAME.match(m["name"]) and UNIT.match(m["unit"]) and
               m["better"] in ("lower", "higher") for m in metrics),
           "metric names, units and directions are valid")
    expect(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in spec["end_to_end"]), "every end-to-end metric has a bound of at most 0.25")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower" and
           setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is listed in seconds, lower is better, with the largest bound")
    return spec


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", SMOKE_SECONDS, "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        return None, lines
    return json.loads(lines[-1]), lines


def check_run(spec, workload, trace):
    listed = spec["per_layer" if trace else "end_to_end"]
    what = "%s --trace %d" % (workload, trace)
    result, lines = run(workload, trace)
    expect(result is not None, what + ": exits 0 with a result line")
    if result is None:
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           what + ": result line has exactly the contract's keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
           what + ": correct, no failed call")
    expect(set(result["metrics"]) == {m["name"] for m in listed},
           what + ": result metrics are exactly the listed ones")
    expect(all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in listed
               if m["name"] in result["metrics"]), what + ": result units match BENCHMARK.json")
    table = lines[:-1]
    pattern = r"%s\s+\S+\s+%s(\s|$)"
    printed = all(any(re.match(pattern % (re.escape(m["name"]), re.escape(m["unit"])), line)
                      for line in table) for m in listed)
    expect(printed, what + ": every metric printed by name with its unit")
    if not trace:
        expect(all(result["metrics"][m["name"]]["value"] > 0 for m in listed),
               what + ": no end-to-end metric is 0")


def check_gate(workload):
    result, _ = run(workload, 0, "--corrupt-readback")
    expect(result is not None and result["correct"] is False,
           workload + ": a corrupted read-back buffer makes the run incorrect")


def main():
    spec = check_spec()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    for workload in ("meta_private", "stream_rw"):
        check_gate(workload)
    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
