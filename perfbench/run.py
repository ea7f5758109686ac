#!/usr/bin/env python3
"""Build and run the layered sweep benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload queue_trace --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe with dune (build output goes to stderr), then
runs it with the same arguments; its last stdout line is the JSON
result. Exits 2 without a result when the directory holds no buildable
source tree.
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write(
            "perfbench: no dune-project and lib/ here; run from the root of "
            "a source checkout\n"
        )
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    build_dir = os.environ.get("DUNE_BUILD_DIR", "_build")
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
