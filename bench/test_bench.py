"""Tests of the benchmark's harness: the metric names it prints match
BENCHMARK.json, and the tracer's self times add up."""

import json
import os
import time
import unittest

import run
from tracing import Tracer

BENCHMARK_JSON = os.path.join(os.path.dirname(run.BENCH_DIR), "BENCHMARK.json")


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(BENCHMARK_JSON) as fh:
            self.spec = json.load(fh)

    def test_end_to_end(self):
        metrics, _ = run.end_to_end({"latencies": [0.5] * 100, "setup_runs_s": [1.0]})
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         {name: unit for name, (_, unit) in metrics.items()})

    def test_per_layer(self):
        metrics = run.per_layer(Tracer(), {"latencies": [0.5]}, 1.0)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         {name: unit for name, (_, unit) in metrics.items()})

    def test_workloads(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOAD_NAMES))


class SelfTimes(unittest.TestCase):
    def test_nested_spans(self):
        tracer = Tracer(max_spans=2)

        def busy(seconds):
            end = time.perf_counter() + seconds
            while time.perf_counter() < end:
                pass

        inner = tracer.wrap("poly.inner", lambda: busy(0.01))

        def outer_body():
            busy(0.01)
            inner()
            inner()

        outer = tracer.wrap("solver.outer", outer_body)
        outer()
        self.assertEqual(tracer.calls("poly.inner"), 2)
        self.assertEqual(tracer.calls("solver.outer"), 1)
        self.assertAlmostEqual(tracer.self_s("poly.inner"), tracer.total_s("poly.inner"))
        self.assertAlmostEqual(tracer.self_s("solver.outer") + tracer.self_s("poly."),
                               tracer.total_s("solver.outer"))
        self.assertGreaterEqual(tracer.self_s("solver.outer"), 0.01)
        self.assertEqual((tracer.spans_kept, tracer.spans_dropped), (2, 1))


if __name__ == "__main__":
    unittest.main()
