#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload feed-4k --seed 1 --seconds 10 --trace 0

Run from the root of a checkout of the repository.  The build goes to
_perfbench_build/ and shared-memory mappings and Chrome traces to
_perfbench_tmp/, both in the checkout.  The benchmark's output is
passed through; its last line is the JSON result object.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = "_perfbench_build"
TMP_DIR = "_perfbench_tmp"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "src", "main.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("perfbench: dune not found on PATH")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("perfbench: not a checkout of the repository (no dune-project or lib/)")

    # The dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune_command()
        + ["build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
           "./perfbench/src/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    os.makedirs(TMP_DIR, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp-dir", TMP_DIR]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(TMP_DIR, "trace-%s-%d.json" % (args.workload, args.seed))]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        sys.exit(run.returncode)
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: the benchmark printed no result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result")


if __name__ == "__main__":
    main()
