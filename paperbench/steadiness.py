#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 paperbench/steadiness.py --workload paper-uk --runs 10

Each run uses its own seed (first seed, first seed + 1, ...). For every
end-to-end metric this prints the median of the per-run values and the
spread (Q3 - Q1) / median, quartiles as statistics.quantiles(n=4),
next to the metric's bound from BENCHMARK.json; a spread above a third
of its bound is flagged. The summary is written as JSON with --out.
"""

import argparse
import json
import os
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=lambda s: int(s, 0), default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.append({"seed": seed, "rc": proc.returncode,
                     "correct": result["correct"], "metrics": values})
        print("seed %d rc=%d correct=%s" % (seed, proc.returncode,
                                            result["correct"]),
              file=sys.stderr, flush=True)

    summary = {}
    print("%-18s %14s %8s %8s" % ("metric", "median", "spread", "bound"))
    for name in sorted(runs[0]["metrics"]):
        vals = [r["metrics"][name] for r in runs]
        med = metrics.median(vals)
        spread = metrics.quartile_spread(vals) if med and len(vals) > 1 \
            else 0.0
        bound = bounds.get(name)
        flag = " <-- above bound/3" if bound and spread > bound / 3 else ""
        print("%-18s %14.6g %8.4f %8s%s" % (name, med, spread,
                                            bound if bound else "-", flag))
        summary[name] = {"median": med, "spread": spread, "values": vals}
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "runs": runs, "summary": summary}, f, indent=1)
    return 0 if all(r["rc"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
