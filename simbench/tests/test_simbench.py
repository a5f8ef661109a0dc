"""Tests of the simbench benchmark itself.

Run from the repository root:

    python3 -m unittest discover -s simbench/tests -v

Every test drives the benchmark through simbench/run.py in its short
mode (shrunken job sets), so the whole file finishes in about a minute.
"""

import json
import os
import subprocess
import sys
import time
import unittest
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "simbench", "run.py")
BINARY = os.path.join(ROOT, ".bench_build", "simbench", "simbench")
SPANS = os.path.join(ROOT, ".bench_build", "simbench-test-spans.jsonl")
EPS = 1e-6


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, *extra, seed=1, seconds=1):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--short"]
    cmd += list(extra)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise AssertionError("benchmark failed (%d):\n%s\n%s" % (
            done.returncode, done.stdout[-3000:], done.stderr[-3000:]))
    lines = done.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digest_of(lines):
    for line in lines:
        if line.startswith("sim_digest "):
            return line.split()[1]
    raise AssertionError("no sim_digest line")


def union_length(intervals, lo, hi):
    covered, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is not None and a <= cur_hi:
            cur_hi = max(cur_hi, b)
            continue
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        cur_lo, cur_hi = a, b
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


class SimbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        cls.contract = load_contract()
        cls.workloads = [w["name"] for w in cls.contract["workloads"]]

    def test_every_metric_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in self.contract[key]}
            for workload in self.workloads:
                with self.subTest(workload=workload, trace=trace):
                    lines, result = run_bench(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), set(declared))
                    for name, unit in declared.items():
                        self.assertEqual(metrics[name]["unit"], unit, name)
                        self.assertIsInstance(metrics[name]["value"],
                                              (int, float))
                    if trace == 0:
                        for name in declared:
                            self.assertGreater(metrics[name]["value"], 0,
                                               name)

    def test_spans_nest_and_self_times_fit_the_wall(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                run_bench(workload, 1, "--spans-out", SPANS)
                roots, spans = [], {}
                with open(SPANS) as f:
                    for line in f:
                        rec = json.loads(line)
                        if "root" in rec:
                            roots.append(rec["root"])
                        else:
                            spans[rec["id"]] = rec
                os.remove(SPANS)
                children = defaultdict(list)
                for s in spans.values():
                    children[s["parent"]].append(s)
                self.assertTrue(roots)
                for root_id in roots:
                    root = spans[root_id]
                    wall = root["t1"] - root["t0"]
                    lane_self = defaultdict(float)
                    stack = [root]
                    while stack:
                        s = stack.pop()
                        kids = children[s["id"]]
                        for c in kids:
                            self.assertGreaterEqual(c["t0"], s["t0"] - EPS)
                            self.assertLessEqual(c["t1"], s["t1"] + EPS)
                        stack.extend(kids)
                        self_time = (s["t1"] - s["t0"]) - union_length(
                            [(c["t0"], c["t1"]) for c in kids],
                            s["t0"], s["t1"])
                        self.assertGreaterEqual(self_time, -EPS, s["name"])
                        lane_self[s["lane"]] += self_time
                    for lane, total in lane_self.items():
                        self.assertLessEqual(total, wall + EPS,
                                             "lane %d" % lane)

    def test_digest_is_thread_count_invariant(self):
        threads = str(min(4, os.cpu_count() or 1))
        for workload in self.workloads:
            with self.subTest(workload=workload):
                one, _ = run_bench(workload, 0, "--threads", "1")
                many, _ = run_bench(workload, 0, "--threads", threads)
                self.assertEqual(digest_of(one), digest_of(many))

    def test_digest_depends_on_the_seed(self):
        a, _ = run_bench("emi_churn", 0, seed=1)
        b, _ = run_bench("emi_churn", 0, seed=2)
        self.assertNotEqual(digest_of(a), digest_of(b))

    def test_short_mode_finishes_in_seconds(self):
        run_bench("emi_churn", 0)  # build outside the timed run
        start = time.monotonic()
        run_bench("emi_churn", 0)
        self.assertLess(time.monotonic() - start, 30.0)

    def test_pinned_environment_is_refused(self):
        run_bench("emi_churn", 0)  # ensure the binary is built
        env = dict(os.environ, GECKO_EXEC="step")
        done = subprocess.run(
            [BINARY, "--workload", "emi_churn", "--seed", "1", "--seconds",
             "1", "--trace", "0", "--short"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        self.assertEqual(done.returncode, 2)
        self.assertIn("GECKO_EXEC", done.stderr)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
