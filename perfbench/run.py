#!/usr/bin/env python3
"""Build and run the simulator's end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
the simulator libraries from src/ plus the `svbench` program into the build
directory ($CARGO_TARGET_DIR if set, else .bench_build); later runs reuse
it. Build output goes to stderr. svbench's report goes to stdout, and
its last line is the JSON result. Exits nonzero, without a result line,
when the tree cannot be built or svbench fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources at {os.path.join(ROOT, 'src')}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_step(configure)
    run_step(["cmake", "--build", build_dir, "--target", "svbench",
              "-j", jobs])
    exe = os.path.join(build_dir, "svbench")
    if not os.access(exe, os.X_OK):
        fail(f"build produced no {exe}")
    return exe


def run_step(cmd):
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail(f"'{' '.join(cmd)}' exited with {r.returncode}")


def main():
    # svbench validates the values.
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        ap.add_argument(flag, required=True)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    exe = build(build_dir)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}.seed{args.seed}"
                        f".trace{args.trace}")
    cmd = [exe, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--spans", stem + ".spans.jsonl",
           "--trace-file", stem + ".trace.json"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(r.stdout)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines or not lines[-1].startswith("{"):
        fail(f"svbench exited with {r.returncode}")


if __name__ == "__main__":
    main()
