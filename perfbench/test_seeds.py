"""Seed coverage of the benchmark: a second seed changes every
workload's output fingerprint, every check still passes, and one seed
repeats its fingerprint exactly.

    python3 perfbench/test_seeds.py

Run from the repository root; takes about three minutes on two cores
(the first call also builds).
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("dse-web", "verify-sim", "fleet-sweep", "serve-load")


def run(workload, seed):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    fingerprint = next(l.split()[1] for l in lines if l.startswith("fingerprint "))
    return json.loads(lines[-1]), fingerprint


class SeedCoverage(unittest.TestCase):
    def test_second_seed_changes_every_fingerprint(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                (a, fa), (b, fb) = run(workload, 1), run(workload, 2)
                for result in (a, b):
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                self.assertNotEqual(fa, fb)

    def test_one_seed_repeats_its_fingerprint(self):
        self.assertEqual(run("serve-load", 3)[1], run("serve-load", 3)[1])


if __name__ == "__main__":
    unittest.main()
