"""The benchmark's own tests: trace arithmetic on hand-built traces, and a
tiny-size run of every workload that checks each metric is emitted with its
unit, the trace parses, every output check passes and counts repeat.

    python3 vxbench/run.py --smoke      # builds first, then runs these
    python3 vxbench/test_vxbench.py     # needs the binary built
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import vxtrace  # noqa: E402

# The workloads' named metrics, with their units (fail_frac is in every
# workload's record; run.py --workload all also totals it).
NAMED = {
    "pr-dense": {"pr_vertex_s": "s", "pr_sql_s": "s"},
    "sssp-tail": {"sssp_tail_s": "s", "sssp_chain_s": "s"},
    "serve-mix": {"serve_p50_ms": "ms", "serve_p90_ms": "ms",
                  "serve_goodput_rps": "req/s", "update_s": "s"},
    "pipe-hybrid": {"scan_query_ms": "ms", "hybrid_query_s": "s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "fail_frac": "ratio"}

# Per-layer counts that must repeat exactly between runs of one seed.
COUNTS = {
    "pr-dense": ["vertexica.supersteps", "vertexica.input_rows",
                 "vertexica.messages", "storage.encoded_bytes",
                 "storage.decoded_bytes", "exec.bytes_materialized",
                 "sqlgraph.hash_joins", "sqlgraph.batch_hash_rows",
                 "sqlgraph.bytes_materialized"],
    "sssp-tail": ["vertexica.supersteps", "vertexica.input_rows",
                  "vertexica.messages", "vertexica.frontier_ratio"],
}

SECONDS = 1.0


def span(sid, parent, name, start, end, counters=None):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "request": 0, "counters": counters or {},
            "attrs": {}}


class TraceArithmetic(unittest.TestCase):
    def test_self_time_subtracts_child_coverage(self):
        spans = [
            span(1, 0, "root", 0.0, 10.0),
            span(2, 1, "a", 1.0, 4.0),
            span(3, 1, "b", 3.0, 6.0),     # overlaps a: [1, 6] covered once
            span(4, 1, "c", 8.0, 12.0),    # clipped to the parent's end
            span(5, 2, "a.child", 2.0, 3.0),
        ]
        selfs = vxtrace.self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - (5.0 + 2.0))
        self.assertAlmostEqual(selfs[2], 3.0 - 1.0)
        self.assertAlmostEqual(selfs[3], 3.0)
        self.assertAlmostEqual(selfs[5], 1.0)

    def test_phase_accounting(self):
        run_span = span(1, 0, "api.run", 0.0, 1.0,
                        {"vertexica.input_s": 0.3,
                         "api.run_overhead_ms": 100.0})
        spans = [run_span,
                 span(2, 1, "vertexica.superstep", 0.0, 0.5),
                 span(3, 2, "vertexica.input", 0.0, 0.2),
                 span(4, 2, "vertexica.worker", 0.2, 0.45),
                 span(5, 1, "vertexica.superstep", 0.5, 0.9),
                 span(6, 5, "vertexica.input", 0.5, 0.9)]
        [(phases, engine)] = vxtrace.phase_accounting(spans)
        self.assertAlmostEqual(phases, 0.9)
        self.assertAlmostEqual(engine, 0.9)

    def test_layer_metrics_default_to_zero(self):
        metrics = vxtrace.layer_metrics([span(1, 0, "x", 0.0, 1.0)])
        self.assertEqual(len(metrics), len(vxtrace.LAYER_METRICS))
        self.assertTrue(all(m["value"] == 0.0 for m in metrics.values()))

    def test_load_rejects_a_dangling_parent(self):
        path = os.path.join(run.RESULTS_DIR, "bad.trace.json")
        os.makedirs(run.RESULTS_DIR, exist_ok=True)
        with open(path, "w") as f:
            f.write('{"spans":[{"id":1,"parent":7,"name":"x","start":0,'
                    '"end":1,"request":0,"counters":{},"attrs":{}}]}')
        with self.assertRaises(ValueError):
            vxtrace.load(path)
        os.remove(path)


class BenchmarkSpec(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         [(n, u) for n, u, _ in vxtrace.LAYER_METRICS])
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.E2E_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         run.WORKLOADS)


class TinyRuns(unittest.TestCase):
    def check_units(self, metrics, expected):
        for name, unit in expected.items():
            self.assertIn(name, metrics)
            self.assertEqual(metrics[name]["unit"], unit, name)

    def test_every_workload_on_both_seeds(self):
        for workload in run.WORKLOADS:
            for seed in (run.DEFAULT_SEED, run.HELD_OUT_SEED):
                with self.subTest(workload=workload, seed=seed):
                    self.check_run(workload, seed)

    def check_run(self, workload, seed):
        record = run.run_workload(workload, seed, SECONDS, trace=False,
                                  tiny=True)
        self.assertTrue(run.correct(record), record)
        self.assertEqual(record["failed"], 0)
        self.check_units(record["metrics"],
                         {**NAMED[workload], **COMMON})
        e2e = run.end_to_end(record)
        self.assertEqual(set(e2e), set(run.E2E_UNITS))
        for name, m in e2e.items():
            self.assertEqual(m["unit"], run.E2E_UNITS[name])
            self.assertGreater(m["value"], 0, name)

    def test_traced_runs_parse_and_counts_repeat(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = run.run_workload(workload, 3, SECONDS, trace=True,
                                         tiny=True)
                self.assertTrue(run.correct(first))
                layers = first["layers"]
                self.check_units(layers, {n: u for n, u, _ in
                                          vxtrace.LAYER_METRICS})
                spans = vxtrace.load(os.path.join(run.ROOT,
                                                  first["trace_file"]))
                self.assertTrue(spans)
                if workload == "pr-dense":
                    rows = vxtrace.phase_accounting(spans)
                    self.assertTrue(rows)
                    for phases, engine in rows:
                        self.assertLessEqual(phases, engine * 1.0001)
                        self.assertGreater(phases, 0.5 * engine)
                if workload not in COUNTS:
                    continue
                second = run.run_workload(workload, 3, SECONDS, trace=True,
                                          tiny=True)
                for name in COUNTS[workload]:
                    self.assertEqual(layers[name]["value"],
                                     second["layers"][name]["value"], name)
                    self.assertGreater(layers[name]["value"], 0, name)


def main():
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
