#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The benchmark is configured and built from source on first use, into
<build root>/perfbench, where the build root is $CARGO_TARGET_DIR when
set and .bench_build otherwise. Build output goes to standard error, so
the last line of standard output is the benchmark's JSON result. The
exit code is the benchmark's: 0 when every output check passed, 1 when
one failed, 2 when the benchmark could not be built or run.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    """Configure (once) and build `target`; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", build_dir, "--target", target, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    path = os.path.join(build_dir, target)
    return path if os.path.exists(path) else None


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 2


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the self-tests of the benchmark's helpers")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "perfbench")
    target = "perfbench_tests" if args.self_test else "perfbench"
    binary = build(build_dir, target)
    if binary is None:
        print(f"could not build {target}", file=sys.stderr)
        return 2
    if args.self_test:
        return run([binary])
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
                "--out-dir", build_dir])


if __name__ == "__main__":
    sys.exit(main())
