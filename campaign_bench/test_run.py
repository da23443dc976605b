"""The campaign benchmark's own test.

Runs every workload once at the `tiny` size, on a seed other than the
default, with and without tracing, and checks the output contract:

    python3 -m unittest discover -s campaign_bench -p 'test_*.py'

Run from the repository root; it builds the worker like `run.py` does.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

ROOT = os.path.dirname(bench.BENCH_DIR)
SEED = 3
assert SEED != bench.DEFAULT_SEED


def run_bench(workload, trace, env=None):
    cmd = [
        sys.executable, os.path.join(bench.BENCH_DIR, "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=env)


class BenchmarkTest(unittest.TestCase):
    def test_benchmark_json_declares_what_run_py_emits(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(bench.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, bench.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, bench.PER_LAYER)

    def test_every_workload_meets_the_output_contract(self):
        for workload in bench.WORKLOADS:
            for trace, units in ((0, bench.END_TO_END), (1, bench.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    done = run_bench(workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    lines = done.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], done.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], bench.SIZES["tiny"][workload]["plans"])
                    self.assertEqual(
                        {name: m["unit"] for name, m in result["metrics"].items()}, units
                    )
                    rows = [json.loads(line[4:]) for line in lines if line.startswith("row ")]
                    self.assertEqual(len(rows), result["attempted"])
                    for row in rows:
                        for key in ("git_rev", "nproc", "workers", "batch", "seed", "size"):
                            self.assertIn(key, row)
                        self.assertEqual(row["seed"], SEED)
                    if trace:
                        self.check_layers_add_up(workload, rows)
                    else:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def check_layers_add_up(self, workload, rows):
        for row in rows:
            m = row["metrics"]
            busy = sum(m[name] for name in bench.LAYER_BUSY)
            self.assertAlmostEqual(busy + m["trace.unaccounted_s"], m["trace.wall_s"], places=9)
            self.assertGreaterEqual(m["trace.unaccounted_s"], 0)
            self.assertGreater(m["sim.jobs"], 0)
            self.assertGreater(m["sim.scaling_2w"], 0)
            if workload == "mine_pipeline":
                self.assertGreater(m["miner.score_to_inject"], 0)
            if workload == "adaptive_rounds":
                self.assertGreater(m["acq.rounds"], 0)

    def test_refuses_to_measure_with_observability_on(self):
        for var in ("DRIVEFI_OBS", "DRIVEFI_PROFILE"):
            with self.subTest(var=var):
                done = run_bench("random_sweep", 0, env=dict(os.environ, **{var: "1"}))
                self.assertNotEqual(done.returncode, 0)
                self.assertNotIn('"metrics"', done.stdout)


if __name__ == "__main__":
    unittest.main()
