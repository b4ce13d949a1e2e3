"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s paperbench/tests -v

The smoke tests build the runner on first use (a minute or two) and then
run every workload, untraced and traced, on tiny scaled points.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import metrics  # noqa: E402

WORKLOADS = ("paper-uk", "paper-pdom", "serve-sweep")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "paperbench", "run.py")] +
        list(args), cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=900)


class QuantileTest(unittest.TestCase):
    def test_percentile_known_samples(self):
        self.assertEqual(metrics.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(metrics.percentile(list(range(1, 12)), 90), 10)
        self.assertEqual(metrics.percentile([7], 90), 7)
        self.assertEqual(metrics.percentile([4, 1, 3, 2], 0), 1)
        self.assertEqual(metrics.percentile([4, 1, 3, 2], 100), 4)
        self.assertAlmostEqual(metrics.percentile([0, 10], 90), 9.0)

    def test_median_and_spread(self):
        self.assertEqual(metrics.median([3, 1, 2]), 2)
        # statistics.quantiles(1..9, n=4) == [2.5, 5.0, 7.5]
        self.assertEqual(metrics.quartile_spread(list(range(1, 10))), 1.0)
        self.assertEqual(metrics.quartile_spread([5.0] * 10), 0.0)


class DigestCheckTest(unittest.TestCase):
    def setUp(self):
        self.dir = os.path.join(ROOT, ".bench_build", "test-digest")
        os.makedirs(self.dir, exist_ok=True)
        self.payload = bytes(range(256)) * 8
        self.digest = hashlib.sha256(self.payload).hexdigest()

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def doc(self, payload):
        path = os.path.join(self.dir, "payload.bin")
        with open(path, "wb") as f:
            f.write(payload)
        leg = {"point": "p", "digest": self.digest, "threads": 1}
        return {"seed": metrics.DEFAULT_SEED, "payloads": {"p": path},
                "legs": [leg, dict(leg, threads=4)]}

    def test_intact_payload_passes(self):
        self.assertTrue(metrics.digest_matches(self.payload, self.digest))
        attempted, failures = metrics.check_outputs(
            self.doc(self.payload), {"p": self.digest})
        self.assertEqual(attempted, 3)
        self.assertEqual(failures, [])

    def test_flipped_byte_is_caught(self):
        flipped = bytearray(self.payload)
        flipped[1000] ^= 0x01
        self.assertFalse(metrics.digest_matches(bytes(flipped), self.digest))
        _, failures = metrics.check_outputs(self.doc(bytes(flipped)),
                                            {"p": self.digest})
        self.assertEqual(len(failures), 1)
        self.assertIn("does not hash", failures[0])

    def test_thread_legs_and_pin_disagreement_are_caught(self):
        doc = self.doc(self.payload)
        doc["legs"][1]["digest"] = "0" * 64
        _, failures = metrics.check_outputs(doc, {"p": "1" * 64})
        self.assertEqual(len(failures), 2)


class SmokeTest(unittest.TestCase):
    """Every workload, untraced and traced, on tiny points."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        cls.results = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                proc = run_bench("--workload", workload, "--seconds", "1",
                                 "--trace", str(trace), "--smoke")
                cls.results[workload, trace] = proc

    def result(self, workload, trace):
        proc = self.results[workload, trace]
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_result_line_shape(self):
        for (workload, trace) in self.results:
            r = self.result(workload, trace)
            self.assertEqual(set(r), {"correct", "attempted", "failed",
                                      "metrics"})
            self.assertTrue(r["correct"], (workload, trace))
            self.assertEqual(r["failed"], 0)
            self.assertGreaterEqual(r["attempted"], 1)

    def test_every_metric_printed_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in self.bench[key]}
            for workload in WORKLOADS:
                got = self.result(workload, trace)["metrics"]
                self.assertEqual(set(got), set(want), (workload, trace))
                for name, unit in want.items():
                    self.assertEqual(got[name]["unit"], unit, name)
                    self.assertIsInstance(got[name]["value"], (int, float))

    def test_catalogue_matches_benchmark_json(self):
        self.assertEqual([m["name"] for m in self.bench["end_to_end"]],
                         [m[0] for m in metrics.END_TO_END])
        self.assertEqual([m["name"] for m in self.bench["per_layer"]],
                         [m[0] for m in metrics.PER_LAYER])
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         list(WORKLOADS))

    def test_traced_run_writes_table_and_chrome_trace(self):
        out = os.path.join(ROOT, ".bench_build", "paperbench", "out")
        for workload in WORKLOADS:
            self.result(workload, 1)
            tag = "%s-%d-smoke" % (workload, metrics.DEFAULT_SEED)
            with open(os.path.join(out, "trace-%s.json" % tag)) as f:
                trace = json.load(f)
            events = trace["traceEvents"]
            self.assertTrue(events)
            run = {e["args"]["run"] for e in events}
            self.assertEqual(len(run), 1)
            names = {e["name"] for e in events}
            for call in ("rt.makeSceneByName", "rt.KdTree::build",
                         "kernels.build", "kernels.uploadScene",
                         "simt.loadProgram", "simt.launch", "simt.runUntil",
                         "kernels.downloadHits", "harness.serializeResult"):
                self.assertIn(call, names, workload)
            if workload == "serve-sweep":
                self.assertIn("serve.runBatch.cold", names)
            with open(os.path.join(out, "layers-%s.txt" % tag)) as f:
                self.assertIn("self_s", f.read())

    def raw_legs(self, workload, trace):
        self.result(workload, trace)
        out = os.path.join(ROOT, ".bench_build", "paperbench", "out")
        tag = "%s-%d-smoke" % (workload, metrics.DEFAULT_SEED)
        with open(os.path.join(out, "raw-%s-trace%d.json"
                               % (tag, trace))) as f:
            raw = json.load(f)["raw"]
        return raw, [l for l in raw["legs"] if l["mode"] == "plain"]

    def test_deterministic_counts_repeat_across_thread_legs(self):
        raw, legs = self.raw_legs("paper-uk", 1)
        threads_n = raw["threads_n"]
        self.assertEqual(threads_n, len(os.sched_getaffinity(0)))
        # Both thread counts ran, so the comparison below spans them.
        self.assertEqual({l["threads"] for l in legs}, {1, threads_n})
        for leg in legs[1:]:
            self.assertEqual(leg["c"], legs[0]["c"])
            self.assertEqual(leg["digest"], legs[0]["digest"])

    def test_timed_runs_use_one_thread(self):
        for workload in WORKLOADS:
            _, legs = self.raw_legs(workload, 0)
            self.assertTrue(legs, workload)
            self.assertEqual({l["threads"] for l in legs}, {1}, workload)


class BareDirectoryTest(unittest.TestCase):
    """Without the simulator sources the benchmark fails, printing no
    result."""

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "paperbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "paper-uk", "--seconds", "1",
                             "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
