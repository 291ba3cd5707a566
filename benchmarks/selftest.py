"""Self-tests of the benchmark itself.  Run from the repository root:

    python3 benchmarks/selftest.py

They check that a seed fixes the inputs byte for byte, that a planted wrong
answer is counted as a failure by each workload's checks, that a run
issues at least 200 queries, so ``latency_p95_ms`` has ten samples beyond it,
that the named conjugacy stress queries go over the cap, and that a
query over the cap counts as failed, and that the host-speed gauge
scales each query by the speed measured around it.  The stress queries
run only here.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as B  # noqa: E402
import workloads as W  # noqa: E402


def _plant(workload: str, answers: dict, inputs: dict) -> str:
    """Corrupt one answer the way a defect would; return its query id."""
    pool = inputs["pool"]
    if workload == "reduce":
        qid = next(q["id"] for q in pool if q["op"] == "wp" and q["id"] in answers)
        answers[qid] = not answers[qid]
    elif workload == "conjugacy":
        qid = next(q["id"] for q in pool if q["expect"] and q["id"] in answers)
        answers[qid] = None
    else:
        qid = next(q["id"] for q in pool if q["op"] == "cli" and q["args"][1] == "wp"
                   and q["id"] in answers)
        rc, out, err = answers[qid]
        data = json.loads(out)
        data["trivial"] = not data["trivial"]
        answers[qid] = (rc, json.dumps(data), err)
    return qid


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {}
        for workload in W.WORKLOADS:
            inputs = W.generate(workload, 7)
            lib = B.import_package(workload)
            records, answers, wall = B.run_loop(workload, lib, inputs, seconds=0.1)
            cls.runs[workload] = (inputs, lib, records, answers, wall)

    def test_same_seed_same_bytes(self):
        for workload in W.WORKLOADS:
            first = W.inputs_bytes(W.generate(workload, 3))
            self.assertEqual(first, W.inputs_bytes(W.generate(workload, 3)), workload)
            self.assertNotEqual(first, W.inputs_bytes(W.generate(workload, 4)), workload)

    def test_planted_wrong_answer_raises_failed_frac(self):
        for workload, (inputs, lib, records, answers, wall) in self.runs.items():
            check = W.CHECKERS[workload]
            clean = B.summarize(records, wall, check(lib, inputs, answers))
            planted = dict(answers)
            qid = _plant(workload, planted, inputs)
            wrong = check(lib, inputs, planted)
            dirty = B.summarize(records, wall, wrong)
            self.assertIn(qid, wrong, workload)
            self.assertGreater(dirty["failed"], clean["failed"], workload)

    def test_runs_issue_enough_queries_for_p95(self):
        for workload, (inputs, lib, records, answers, wall) in self.runs.items():
            s = B.summarize(records, wall, W.CHECKERS[workload](lib, inputs, answers))
            self.assertGreaterEqual(s["distinct"], B.MIN_QUERIES, workload)
            self.assertGreaterEqual(s["beyond_p95"], 10, workload)
            self.assertFalse(s["errors"], workload)

    def test_stress_queries_are_recorded_over_cap(self):
        inputs, lib, records, answers, wall = self.runs["conjugacy"]
        stress = {q["id"] for q in inputs["fixed"].values()}
        s = B.summarize(records, wall, W.check_conjugacy(lib, inputs, answers))
        self.assertEqual(set(s["timeouts"]), stress)
        self.assertEqual(s["failed"], len(stress))

    def test_other_queries_over_cap_fail(self):
        inputs, lib, records, answers, wall = self.runs["reduce"]
        qid = inputs["pool"][0]["id"]
        late = list(records) + [(qid, "timeout", 300.0)]
        s = B.summarize(late, wall, {})
        self.assertEqual(s["timeouts"], [qid])
        self.assertEqual(s["failed"], 1)

    def test_gauge_scales_each_query_by_the_speed_around_it(self):
        gauge = B.Gauge()
        nominal = int(B.GAUGE_KERNEL_MS * 1e6)
        long_ms = 10 * B.GAUGE_REACH_MS
        # a short query q0 (0 to 1 ms of query CPU time) at nominal speed,
        # a long one q1 (1 ms to 1 + long_ms) with its second half at half
        # speed, and a sample far after both
        gauge.marks = [0.0, 1.0, 1.0 + long_ms / 2, 1.0 + long_ms, 10 * long_ms]
        gauge.kernel_ns = [nominal, nominal, 2 * nominal, 2 * nominal, nominal]
        scaled = gauge.rescale([("q0", "ok", 1.0), ("q1", "ok", long_ms)])
        self.assertAlmostEqual(scaled[0][2], 1.0)  # the samples at 0 and 1 ms
        # the four samples within long_ms of q1: 1.5 times the nominal time
        self.assertAlmostEqual(scaled[1][2], long_ms / 1.5)

if __name__ == "__main__":
    unittest.main()
