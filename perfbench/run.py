#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload fleet_steady|gateheavy|campaign \
        --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe from source with dune, then runs it with the
same arguments.  The benchmark's last line of standard output is the
JSON result; build output goes to standard error.  Exits non-zero, and
prints no result, when the checkout cannot be built or the benchmark
finds a wrong output.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fleet_steady", "gateheavy", "campaign")
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    # the benchmark links the repository's own libraries, so it needs
    # the whole source tree, not only its own directory
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("run.py: no dune-project and lib/ here; run from the root "
              "of a full source checkout", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    # keep every build artefact inside the checkout: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
