#!/usr/bin/env python3
"""Build bench_pipeline and the qirkit CLI from this checkout, then run it.

    python3 bench/pipeline/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under pipeline/, is reused by later runs and only
rebuilt when sources change. Build output goes to stderr, so the last line
of stdout is bench_pipeline's JSON result. Any build failure, such as a
directory holding only the benchmark and not the repository, exits
non-zero without printing a result.
"""
import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "pipeline")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [["cmake", "--build", build, "-j", jobs, "--target", "bench_pipeline"]]
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"])
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.abspath(os.path.join(build, "tmp")))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            return 1
    binary = os.path.join(build, "bench_pipeline")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
