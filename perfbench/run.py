#!/usr/bin/env python3
"""Builds and runs the sdm repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload m1_cached --seed 1 --seconds 5 --trace 0

Run from the repository root. The benchmark binary is built from source
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first
use; later runs only re-check the build. Build output goes to stderr, so
the last line of stdout is always the benchmark's JSON result.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ["m1_cached", "m2_io_bound", "disagg16_sharded", "m1_refresh_faults"]
RUN_TIMEOUT_S = 175


def configured_for(build_dir, source_dir):
    """Whether build_dir holds a CMake cache made for source_dir."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip() == source_dir
    except OSError:
        pass
    return False


def build(source_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        # Concurrent first runs must not configure one build tree twice.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not configured_for(build_dir, source_dir):
            # A tree configured for another checkout cannot be reused.
            for name in os.listdir(build_dir):
                if name != ".lock":
                    path = os.path.join(build_dir, name)
                    if os.path.isdir(path) and not os.path.islink(path):
                        shutil.rmtree(path)
                    else:
                        os.remove(path)
            cmd = ["cmake", "-S", source_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                       stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    try:
        exe = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(build_dir, f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
