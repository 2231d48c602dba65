#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload storm|protocols|faults \
        --seed N --seconds S --trace 0|1 [extra perfbench flags]

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), configured once and rebuilt incrementally; its
output goes to stderr so the last line of stdout stays the benchmark's
JSON result. Exits non-zero without a result when the simulator sources
are missing or the build fails. See perfbench/README.md.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {' '.join(step)} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step)} exited {done.returncode}")


def main(argv):
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sim", "network.h")):
        fail("run from the repository root: simulator sources (src/) "
             "not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    build(root, build_dir)

    args = list(argv)
    if "--workload" in args and "--report" not in args:
        workload = args[args.index("--workload") + 1] \
            if args.index("--workload") + 1 < len(args) else "unknown"
        trace = args[args.index("--trace") + 1] \
            if "--trace" in args and args.index("--trace") + 1 < len(args) \
            else "0"
        args += ["--report", os.path.join(
            build_dir, f"report_{workload}_trace{trace}.json")]
    binary = os.path.join(build_dir, "perfbench")
    try:
        done = subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot start {binary}: {e}")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
