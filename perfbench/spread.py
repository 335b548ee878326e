#!/usr/bin/env python3
"""Run every workload under several seeds and report the spread of each
end-to-end metric: the distance between the first and third quartile of
its per-run values (statistics.quantiles, n=4) as a share of their
median.  Metrics in BENCHMARK.json are compared with a third of their
bound; the others are only printed by the benchmark.

    python3 perfbench/spread.py --seeds 10 [--workload NAME ...] [--seconds S]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def printed_e2e(out):
    """Values of the end-to-end table printed above the result line."""
    values, inside = {}, False
    for line in out.splitlines():
        if line.startswith("# end-to-end"):
            inside = True
        elif inside and line.startswith("#   "):
            parts = line[4:].split()
            if parts[1] == "*":
                del parts[1]
            values[parts[0]] = float(parts[1])
        else:
            inside = False
    return values


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print("%s seed %d: incorrect result" % (w, seed))
            if set(result["metrics"]) != set(bounds):
                print("%s seed %d: result metrics differ from BENCHMARK.json" % (w, seed))
            for name, v in printed_e2e(out).items():
                if name in result["metrics"]:
                    v = result["metrics"][name]["value"]
                values.setdefault(name, []).append(v)
        print("workload %s (%d seeds)" % (w, args.seeds))
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            if med == 0:
                print("  %-18s always 0" % name)
                continue
            spread = (q3 - q1) / med
            if name in bounds:
                b = bounds[name]
                if name != "setup_s":
                    worst = max(worst, spread / b)
                note = "bound %.2f%s" % (b, "" if spread < b / 3 else "  <-- above bound/3")
            else:
                note = "printed only"
            print("  %-18s median %14.4f  spread %6.3f  %s" % (name, med, spread, note))
        sys.stdout.flush()
    print("worst spread / bound over BENCHMARK.json metrics (setup_s excluded): %.3f" % worst)


if __name__ == "__main__":
    main()
