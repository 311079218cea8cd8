#!/usr/bin/env python3
"""The psn benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
psn library, psn_serve and the benchmark driver (Release) into
.bench_build; later calls rebuild only what changed. Build output goes to
stderr, so the last line of stdout is the driver's JSON result. Result
files and traces are written to .bench_out. NOTES.md describes the
workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# Relative on purpose: serve_mix puts its AF_UNIX socket here, and socket
# paths are limited to 107 bytes, which a deep checkout path can exceed.
OUT = ".bench_out"
DRIVER_TIMEOUT_S = 170


def build(targets):
    """Configures (once) and builds `targets` in Release; exits on failure."""
    if not os.path.isdir(os.path.join(ROOT, "src", "psn")):
        sys.exit("perfbench: no psn sources next to perfbench/; "
                 "run from the root of a checkout")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"]
                   + targets, check=True, stdout=sys.stderr)


def expected_digest(workload, seed):
    """The digest recorded for this workload at its recorded seed, if any."""
    with open(os.path.join(HERE, "expected_digests.json")) as f:
        recorded = json.load(f).get(workload)
    if recorded and recorded["seed"] == seed:
        return recorded["digest"]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        try:
            build(["psn_perfbench_selftest"])
        except (OSError, subprocess.CalledProcessError) as e:
            sys.exit(f"perfbench: build failed: {e}")
        return subprocess.run(
            [os.path.join(BUILD, "psn_perfbench_selftest")]).returncode
    if not args.workload:
        parser.error("--workload is required")

    try:
        build(["psn_perfbench"])
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    os.chdir(ROOT)
    os.makedirs(OUT, exist_ok=True)
    command = [os.path.join(BUILD, "psn_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT]
    digest = expected_digest(args.workload, args.seed)
    if digest:
        command += ["--expect-digest", digest]
    # A session of its own, so a timeout also kills the psn_serve child.
    driver = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                              start_new_session=True)
    try:
        stdout, _ = driver.communicate(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(driver.pid, signal.SIGKILL)
        driver.communicate()
        sys.exit(f"perfbench: {args.workload} exceeded {DRIVER_TIMEOUT_S} s")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return driver.returncode


if __name__ == "__main__":
    sys.exit(main())
