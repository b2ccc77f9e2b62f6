#!/usr/bin/env python3
"""Smoke test of the pipeline cost ledger.

    python3 perfbench/smoke_test.py

Run from the root of a checkout. For every workload it runs the tiny
--smoke size twice untraced and once traced with one seed, and checks that:
BENCHMARK.json is well formed; the last line is the JSON result with
exactly the result keys; every output check passed and nothing failed;
the printed metric names and units are exactly BENCHMARK.json's end-to-end
list (untraced) or per-layer list (traced); and the per-round counts repeat
exactly across the three runs. Exits 1 on the first mismatch.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(ok, what):
    if not ok:
        print("FAIL " + what)
        sys.exit(1)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    check(2 <= len(names) <= 8, "2 to 8 workloads")
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200 and
              "\n" not in w["why"], "workload %s: name and a short why"
              % w["name"])
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and
              0 < m["bound"] <= 0.25, "end-to-end metric %s" % m["name"])
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and
              m["better"] == "lower" for m in spec["end_to_end"]),
          "setup_s is an end-to-end metric")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, "per-layer metric %s"
              % m["name"])
    everything = names + [m["name"] for m in spec["end_to_end"]] + [
        m["name"] for m in spec["per_layer"]]
    check(len(everything) == len(set(everything)), "names are used once")
    for m in spec["end_to_end"] + spec["per_layer"]:
        check(NAME.match(m["name"]) and UNIT.match(m["unit"]),
              "name and unit syntax of %s" % m["name"])


def run(workload, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "5", "--seconds", "1",
               "--trace", str(trace), "--smoke"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    check(out.returncode == 0, "%s trace %d exits 0: %s" %
          (workload, trace, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counts = [line for line in lines if line.startswith("count ")]
    return result, counts, lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in [w["name"] for w in spec["workloads"]]:
        seen_counts = []
        for trace in (0, 0, 1):
            result, counts, lines = run(workload, trace)
            label = "%s trace %d" % (workload, trace)
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, label + ": result keys")
            failures = [l for l in lines if l.startswith("check FAILED")]
            check(result["correct"] and not failures,
                  label + ": output checks pass " + str(failures))
            check(result["failed"] == 0 and result["attempted"] >= 1,
                  label + ": nothing failed")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected[trace], label + ": metric names and units "
                  "match BENCHMARK.json")
            for name, m in result["metrics"].items():
                check(isinstance(m["value"], (int, float)),
                      label + ": %s is a number" % name)
            if trace == 0:
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      label + ": end-to-end metrics are never 0")
            check(counts, label + ": per-round counts printed")
            seen_counts.append(counts)
        check(seen_counts[0] == seen_counts[1] == seen_counts[2],
              workload + ": counts repeat exactly for one seed")
        print("ok " + workload)
    print("PASS")


if __name__ == "__main__":
    main()
