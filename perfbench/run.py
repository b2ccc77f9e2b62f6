#!/usr/bin/env python3
"""Build and run the MPROS pipeline cost ledger.

    python3 perfbench/run.py --workload voyage --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the library sources under src/) into
.bench_build/perfbench; later runs rebuild incrementally. The script prints
the host stamp, then hands over to the benchmark binary, whose last line of
standard output is the JSON result. Scratch files (WAL directories, span
files) go to .bench_run/. Add --smoke for the tiny sizes the smoke test
uses.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
BINARY = os.path.join(BUILD, "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no MPROS sources under %s/src; run from a full checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def cache_value(key):
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return "unknown"


def filesystem_of(path):
    """fstype and device of the mount holding `path` (longest prefix)."""
    path = os.path.realpath(path)
    best = ("", "unknown", "unknown")
    with open("/proc/mounts") as mounts:
        for line in mounts:
            device, mount_point, fstype = line.split()[:3]
            inside = path == mount_point or path.startswith(
                mount_point.rstrip("/") + "/")
            if inside and len(mount_point) > len(best[0]):
                best = (mount_point, fstype, device)
    return "%s on %s (%s)" % (best[1], best[0], best[2])


def stamp():
    compiler = cache_value("CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    print("stamp nproc %d" % len(os.sched_getaffinity(0)))
    print("stamp build_type %s" % cache_value("CMAKE_BUILD_TYPE"))
    print("stamp compiler %s" % (version[0] if version else compiler))
    print("stamp git_commit %s" % (commit.stdout.strip()
                                   if commit.returncode == 0 else
                                   "unknown (not a git checkout)"))
    print("stamp wal_filesystem %s" % filesystem_of(RUN_DIR))
    sys.stdout.flush()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["voyage", "pdme_ingest", "fleet_shore"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    stamp()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--run-dir", RUN_DIR]
    if args.smoke:
        command.append("--smoke")
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
