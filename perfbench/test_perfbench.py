#!/usr/bin/env python3
"""Self-tests of the repo benchmark, on small passes of every workload.

    python3 perfbench/test_perfbench.py

Checks that each workload's run is correct and reports every metric that
BENCHMARK.json names with its unit; that the host-time layers plus the event
loop's residual sum to the measured wall; that queue wait + host service
equals the outcome latency on every single-attempt request; that the traced
run replays the untraced digests; that a seed replays bit for bit; and that
the benchmark refuses to run without the simulator sources.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.dont_write_bytecode = True  # Keep perfbench/ free of build products.
import run  # noqa: E402  (perfbench/run.py: build + result parsing)

# Small passes: the checks, not the statistics, are under test.
SMALL = {"fleet-steady": 20000, "full-fidelity": 1000, "elastic-churn": 20000}


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    binary = None

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("perfbench build failed")

    def fwperf(self, workload, trace, seed=1, replicas=1, spans=None):
        cmd = [self.binary, "--workload", workload, "--seed", str(seed), "--seconds", "0.01",
               "--trace", str(trace), "--replicas", str(replicas), "--invocations",
               str(SMALL[workload])]
        if spans:
            cmd += ["--spans", spans]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=170)
        lines = proc.stdout.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertTrue(result["correct"], proc.stdout)
        return proc.stdout, result

    def assert_metrics(self, result, expected):
        names = [m["name"] for m in expected]
        self.assertEqual(sorted(result["metrics"]), sorted(names))
        for m in expected:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])

    def test_end_to_end_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                _, result = self.fwperf(workload, trace=0)
                self.assert_metrics(result, spec()["end_to_end"])
                self.assertEqual(result["attempted"], SMALL[workload])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_decomposes(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                spans = os.path.join(run.build_dir(), "test-%s.tsv" % workload)
                out, result = self.fwperf(workload, trace=1, spans=spans)
                self.assert_metrics(result, spec()["per_layer"])
                # A traced run is one untraced and one traced pass; correct
                # means their digests matched.
                self.assertIn("2 passes (1 untraced, 1 traced)", out)
                # Host time: timed layers + event-loop residual == wall (the
                # printed rows are rounded to 0.1 ns per request).
                rows = dict(re.findall(r"^  (\S[^\n]*?)\s{2,}(-?[\d.]+) ns/req", out, re.M))
                parts = sum(float(rows[k]) for k in rows if k != "measured wall")
                self.assertEqual(len(rows), 5, rows)
                self.assertAlmostEqual(parts, float(rows["measured wall"]), delta=0.3)
                layers = ("loadgen.next_ns", "frontend.submit_ns", "host.sync_ns",
                          "simcore.loop_ns")
                total = sum(result["metrics"][k]["value"] for k in layers)
                self.assertAlmostEqual(total, float(rows["measured wall"]), delta=0.1)
                # Latency: queue wait + host service == latency, checked on every
                # single-attempt request (a mismatch makes the run incorrect).
                checked = int(re.search(r"latency decomposition exact on (\d+)", out).group(1))
                self.assertGreater(checked, 0)
                with open(spans) as f:
                    header = f.readline().split()
                    first = f.readline().split("\t")
                self.assertEqual(header, ["index", "name", "wall_start_ns", "wall_end_ns",
                                          "sim_start_ns", "sim_end_ns", "parent", "request"])
                self.assertEqual(first[1], "host.install")
                os.remove(spans)

    def test_seed_replays(self):
        _, a = self.fwperf("elastic-churn", trace=0, seed=7)
        _, b = self.fwperf("elastic-churn", trace=0, seed=7)
        _, c = self.fwperf("elastic-churn", trace=0, seed=8)
        sim = [k for k in a["metrics"] if k.startswith("sim_") or k == "slo_attainment"]
        self.assertEqual([a["metrics"][k] for k in sim], [b["metrics"][k] for k in sim])
        self.assertNotEqual(a["metrics"]["sim_host_hours"], c["metrics"]["sim_host_hours"])

    def test_repeated_replica_must_match(self):
        # Two replicas, budget for more than one cycle: the repeats are
        # checked against each replica's first pass.
        proc = subprocess.run(
            [self.binary, "--workload", "fleet-steady", "--seed", "3", "--seconds", "0.5",
             "--trace", "0", "--replicas", "2", "--invocations", "5000"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        passes = int(re.search(r"^(\d+) passes", proc.stdout, re.M).group(1))
        self.assertGreater(passes, 2)

    def test_rejects_bad_arguments(self):
        for args in (["--workload", "nope"], ["--workload", "fleet-steady", "--trace", "2"],
                     ["--workload", "fleet-steady", "--seed", "x"]):
            with self.subTest(args=args):
                proc = subprocess.run([self.binary] + args, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, timeout=30)
                self.assertEqual(proc.returncode, 2)
                self.assertEqual(proc.stdout, b"")

    def test_fails_without_simulator_sources(self):
        # Only BENCHMARK.json and the benchmark's own files: the build must
        # fail and no result may be printed.
        bare = os.path.join(run.build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fleet-steady",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
