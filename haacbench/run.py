#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 haacbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark (haacbench/CMakeLists.txt)
is configured and built on first use, together with the library it
measures, into $CARGO_TARGET_DIR (default .bench_build) under the checkout;
later runs only rebuild what changed. Build output goes to stderr, so the
last stdout line is the benchmark's JSON result. A traced run (--trace 1)
also writes its spans, as Chrome trace-event JSON, into the build directory.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configure once, then bring the haacbench target up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "haacbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "haacbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "haacbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"haacbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
