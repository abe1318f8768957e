#!/usr/bin/env python3
"""Tests of tools/check_bench.py, the gate CI runs over the bench JSON.

The committed bench files must pass, and a missing, truncated, row-less or
inconsistent file must be refused with exit 1 and exactly one `FAIL:`
line, never a traceback. Each test is one ctest case (tests/CMakeLists.txt);
run one by hand with

    python3 tests/check_bench_test.py CheckBenchTest.test_truncated_file
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GATE = os.path.join(ROOT, "tools", "check_bench.py")


def run_gate(path):
    proc = subprocess.run([sys.executable, GATE, path], capture_output=True,
                          text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


def join_file(tree_pairs, pretti_pairs):
    return json.dumps({"scale_factor": 0.02, "sharded_matches": True,
                       "rows": [
                           {"algo": "tree", "pairs": tree_pairs,
                            "pairs_per_sec": 7.0e6},
                           {"algo": "pretti", "pairs": pretti_pairs,
                            "pairs_per_sec": 60.0e6},
                       ]})


class CheckBenchTest(unittest.TestCase):

    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.dir = tmp.name

    def write(self, name, text):
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def assert_passes(self, path):
        code, out = run_gate(path)
        self.assertEqual(code, 0, out)
        self.assertNotIn("FAIL:", out)

    def assert_refused(self, path, reason):
        code, out = run_gate(path)
        self.assertEqual(code, 1, out)
        fails = [line for line in out.splitlines() if line.startswith("FAIL:")]
        self.assertEqual(len(fails), 1, out)
        self.assertIn(reason, fails[0])
        self.assertNotIn("Traceback", out)

    def test_committed_shard_passes(self):
        self.assert_passes(os.path.join(ROOT, "BENCH_shard.json"))

    def test_committed_serve_passes(self):
        self.assert_passes(os.path.join(ROOT, "BENCH_serve.json"))

    def test_missing_file(self):
        self.assert_refused(os.path.join(self.dir, "BENCH_shard.json"),
                            "did bench_shard_scaling run")

    def test_truncated_file(self):
        with open(os.path.join(ROOT, "BENCH_shard.json")) as fh:
            text = fh.read()
        self.assert_refused(self.write("BENCH_shard.json",
                                       text[:len(text) // 2]),
                            "is not valid JSON")

    def test_file_without_rows(self):
        self.assert_refused(
            self.write("BENCH_serve.json", '{"closed_loop": {"qps": 1}}'),
            "has no 'rows'")

    def test_join_rows_that_agree_pass(self):
        self.assert_passes(self.write("BENCH_join.json", join_file(120, 120)))

    def test_join_pair_counts_disagree(self):
        self.assert_refused(self.write("BENCH_join.json", join_file(120, 119)),
                            "algorithms disagree on the pair count")


if __name__ == "__main__":
    unittest.main()
