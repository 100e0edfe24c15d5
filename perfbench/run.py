#!/usr/bin/env python3
"""Build and run the ccd repo benchmark.

    python3 perfbench/run.py --workload consensus|multihop|report|fleet \\
        --seed N --seconds S --trace 0|1 [--tiny] [--corrupt-report]

Run from the root of a checkout.  The first call configures and builds
perfbench/ (the ccd library, the ccd_sweep worker and the ccd_perfbench
program) into .bench_build/; later calls only rebuild what changed.  The
program's stdout is passed through: its last line is the JSON result.  At
the pinned seed the report hashes in perfbench/golden.json must match.
Exit status: ccd_perfbench's (0 ok, 1 a check failed), 2 when the build or the
arguments fail.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("consensus", "multihop", "report", "fleet")
# A run measures for --seconds, plus set-up, a warm-up and the reference.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    os.makedirs(BUILD, exist_ok=True)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        def step(cmd):
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode == 0

        ok = True
        if not os.path.exists(cache):
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            ok = step(configure)
            if not ok and os.path.exists(cache):
                os.remove(cache)  # so the next call configures again
        ok = ok and step(["cmake", "--build", BUILD, "-j", str(min(4, os.cpu_count() or 1))])
    if not ok:
        with open(log_path) as f:
            sys.stderr.write(f.read()[-4000:])
        fail("build failed (log: %s)" % log_path)


def pinned_hashes(args):
    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    entry = golden["tiny" if args.tiny else "full"].get(args.workload)
    if entry is None or args.seed != golden["seed"]:
        return None
    return ",".join((entry["json"], entry["csv"], entry["dist"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken grids (the self-test)")
    parser.add_argument("--corrupt-report", action="store_true",
                        help="flip one report byte; the hash gate must trip")
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 0 < args.seconds <= 60:
        fail("--seconds must be in (0, 60]")

    build()
    cmd = [
        os.path.join(BUILD, "ccd_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(BUILD, "out"),
        "--worker-bin", os.path.join(BUILD, "ccd_sweep"),
    ]
    expect = pinned_hashes(args)
    if expect:
        cmd += ["--expect", expect]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_report:
        cmd.append("--corrupt-report")
    sys.stdout.flush()
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("ccd_perfbench timed out after %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
