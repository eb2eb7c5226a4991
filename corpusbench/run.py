#!/usr/bin/env python3
"""Build and run the COMPACT corpus benchmark from the root of a checkout.

    python3 corpusbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the libraries, compact-serve and the benchmark binary in Release
mode under .bench_build/cmake (incremental after the first run), then
replaces itself with that binary. Its last stdout line is the JSON
result. Exits non-zero without a result when the checkout cannot be built.
"""
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "cmake")
SCRATCH_DIR = os.path.join(".bench_build", "run")
RESULTS_DIR = os.path.join(".bench_build", "results")
HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(".bench_build", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "corpusbench",
         "compact-serve", "-j", jobs],
        check=True, stdout=sys.stderr, env=env)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"corpusbench: build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "corpusbench")
    argv = [binary] + sys.argv[1:] + [
        "--corpus", "benchmarks",
        "--serve", os.path.join(BUILD_DIR, "compact-serve"),
        "--scratch", SCRATCH_DIR,
        "--results", RESULTS_DIR,
    ]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, argv)


if __name__ == "__main__":
    sys.exit(main())
