#!/usr/bin/env python3
"""paperbench — the simulator's benchmark on the paper workload.

Run from the repository root:

    python3 paperbench/run.py --workload paper-uk --seed 24301 \\
        --seconds 35 --trace 0

Workloads: paper-uk, paper-pdom, serve-sweep (see paperbench/README.md).
The first run builds the simulator and the runner from source into
.bench_build/paperbench (a minute or two); later runs rebuild only what
changed. With --trace 0 the last line of stdout is one JSON object with
every end-to-end metric; with --trace 1 it carries every per-layer
metric, and the per-layer span table and the Chrome trace of the traced
leg are written under .bench_build/paperbench/out/.

Exit status: 0 when every output check passed, 1 when a check failed
(the result line is still printed, with "correct": false), 2 when the
benchmark could not build or run (no result line), 3 when a counter
broke an invariant in the traced run (no result line).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "paperbench")
OUT = os.path.join(BUILD, "out")
BINARY = os.path.join(BUILD, "paperbench")
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("paper-uk", "paper-pdom", "serve-sweep")
# One run must end within this many seconds, build excluded.
RUN_TIMEOUT_S = 170


def host_threads():
    """N: the host cores this process may run on."""
    return max(1, len(os.sched_getaffinity(0)))


def parse_seed(text):
    """A non-negative integer, decimal or 0x-prefixed hex."""
    hex_ = text.lower().startswith("0x")
    seed = int(text[2:], 16) if hex_ else int(text, 10)
    if seed < 0 or seed >= 2 ** 64:
        raise argparse.ArgumentTypeError("seed out of range: " + text)
    return seed


def log(msg):
    print("paperbench: " + msg, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found next to "
                           "paperbench/; run from a full checkout")
    jobs = str(host_threads())
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)


def run_binary(workload, seed, seconds, trace, smoke):
    """Run the C++ runner once; returns its raw JSON document."""
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-%d%s" % (workload, seed, "-smoke" if smoke else "")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--threads", str(host_threads()), "--work", work]
    if trace:
        cmd += ["--trace-out", os.path.join(OUT, "trace-%s.json" % tag)]
    if smoke:
        cmd.append("--smoke")
    # No ambient UKSIM_* override may reach the measured program (the
    # runner clears them again itself and sets UKSIM_THREADS per leg).
    env = {k: v for k, v in os.environ.items() if not k.startswith("UKSIM_")}
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=True)
        doc = json.loads(proc.stdout)
        return doc, tag, work
    except BaseException:
        shutil.rmtree(work, ignore_errors=True)
        raise


def evaluate(doc, pins, trace):
    """Checks and metrics of one runner document -> (result, failures)."""
    attempted, failures = metrics.check_outputs(doc, pins)
    attempted += doc["attempted"]
    failures = doc["failures"] + failures
    failed = len(failures)
    if trace:
        metrics.check_invariants(doc)
        values = metrics.per_layer(doc, failed, attempted)
    else:
        values = metrics.end_to_end(doc, failed, attempted)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics.with_units(values)}
    return result, failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=parse_seed, default=metrics.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny scaled points: the whole pipeline in seconds")
    args = ap.parse_args(argv)

    try:
        build()
        doc, tag, work = run_binary(args.workload, args.seed, args.seconds,
                                    args.trace, args.smoke)
    except (OSError, RuntimeError, ValueError,
            subprocess.SubprocessError) as e:
        log("cannot run: %s" % e)
        return 2
    try:
        with open(PINS) as f:
            pins = json.load(f)
        result, failures = evaluate(doc, pins, args.trace)
    except metrics.InvariantError as e:
        log("COUNTER INVARIANT BROKEN: %s" % e)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = {k: doc[k] for k in ("workload", "seed", "host_cores",
                               "threads_n", "build_type", "compiler",
                               "run_id")}
    print("paperbench: env " + json.dumps(env, sort_keys=True))
    with open(os.path.join(OUT, "raw-%s-trace%d.json"
                           % (tag, args.trace)), "w") as f:
        json.dump({"env": env, "raw": doc, "result": result}, f)
    if args.trace:
        table = metrics.span_table(doc)
        path = os.path.join(OUT, "layers-%s.txt" % tag)
        with open(path, "w") as f:
            f.write(table + "\n")
        print(table)
        print("paperbench: per-layer table %s, Chrome trace %s" % (
            os.path.relpath(path, ROOT),
            os.path.relpath(os.path.join(OUT, "trace-%s.json" % tag), ROOT)))
    for msg in failures:
        log("FAILED: " + msg)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
