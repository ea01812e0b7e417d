"""End-to-end tests of the benchmark driver: seed determinism of the
generated inputs, failure counting through a whole run, and the nproc
budget guard. Builds the driver on first use (run from the checkout
root):

    python3 -m unittest discover -s perfbench/tests
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import stats  # noqa: E402


def setUpModule():
    global DRIVER
    DRIVER, _ = run.build(ROOT)


class SeedDeterminismTest(unittest.TestCase):
    def write(self, workload, seed):
        d = tempfile.mkdtemp(dir=os.path.join(ROOT, run.WORK_DIR))
        self.addCleanup(shutil.rmtree, d, True)
        out = subprocess.run(
            [DRIVER, "--write-inputs", workload, "--seed", str(seed),
             "--work-dir", d],
            stdout=subprocess.PIPE, check=True)
        return out.stdout.decode().split()

    def test_same_seed_gives_byte_identical_gds(self):
        os.makedirs(os.path.join(ROOT, run.WORK_DIR), exist_ok=True)
        for workload in stats.WORKLOADS:
            a = self.write(workload, 42)
            b = self.write(workload, 42)
            c = self.write(workload, 43)
            self.assertTrue(a, workload)
            for pa, pb, pc in zip(a, b, c):
                self.assertTrue(filecmp.cmp(pa, pb, shallow=False), pa)
                self.assertFalse(filecmp.cmp(pa, pc, shallow=False), pa)


class RunTest(unittest.TestCase):
    def run_bench(self, *extra, **kw):
        return subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"),
             "--workload", "fix_loop", "--seed", "3", "--seconds", "2"]
            + list(extra),
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kw)

    def test_failed_checks_are_counted_and_the_run_continues(self):
        # Every op fails its check; each of the run's driver processes
        # keeps going until its time is up, and every failure is counted.
        out = self.run_bench("--trace", "0", "--inject-failures", "1")
        self.assertEqual(out.returncode, 0, out.stderr.decode())
        result = json.loads(out.stdout.decode().strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertGreaterEqual(result["attempted"], run.PROCESSES)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertFalse(result["correct"])
        self.assertIn(b"injected failure", out.stderr)

    def test_a_clean_run_passes_every_check(self):
        out = self.run_bench("--trace", "1")
        self.assertEqual(out.returncode, 0, out.stderr.decode())
        lines = out.stdout.decode().strip().splitlines()
        result = json.loads(lines[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        env = json.loads(lines[-2])["env"]
        for key in ("nproc", "load_start", "load_end", "revision"):
            self.assertIn(key, env)
        m = result["metrics"]
        self.assertGreater(m["fix.loop_ms"]["value"], 0)
        self.assertEqual(m["fix.proposed"]["value"], 19)

    def test_budget_over_nproc_refuses_to_start(self):
        # Pinned to one CPU, nproc is 1: fix_loop's two compute threads
        # exceed it.
        out = self.run_bench("--trace", "0",
                             preexec_fn=lambda: os.sched_setaffinity(0, {0}))
        self.assertEqual(out.returncode, 3)
        self.assertIn(b"nproc is 1", out.stderr)
        self.assertNotIn(b'"correct"', out.stdout)


if __name__ == "__main__":
    unittest.main()
