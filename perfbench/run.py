#!/usr/bin/env python3
"""Builds perfbench from this checkout and runs one workload.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload table_cold|explore_warm|serve_mixed \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build); build output goes
to stderr, so the last line of stdout is perfbench's JSON result.  Exits
non-zero without a result when the build or any check of the run fails to
complete.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("table_cold", "explore_warm", "serve_mixed")


def build(root, build_dir):
    """Configures (once) and builds perfbench; returns the binary path."""
    source = os.path.join(root, "perfbench")
    binary_dir = os.path.join(build_dir, "perfbench")
    if not os.path.exists(os.path.join(binary_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source, "-B", binary_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    subprocess.run(["cmake", "--build", binary_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(binary_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(root, os.path.abspath(build_dir))
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    # Sockets and span files live under the build directory, named relative to
    # the checkout so UNIX socket paths stay short.
    rundir = os.path.relpath(os.path.join(os.path.abspath(build_dir), "run"))
    os.makedirs(rundir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace), "--rundir", rundir]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
