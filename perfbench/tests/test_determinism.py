#!/usr/bin/env python3
"""Determinism self-test of lao's benchmark.

  python3 perfbench/tests/test_determinism.py

Builds lao_perfbench (as run.py does) and runs every workload traced, for
one measured pass, three times: seed 7 twice and seed 8 once. It checks:

  * the same seed twice gives identical per-request answers, per-pass
    sums, programs, request order and replay counters;
  * on the service workloads, two seeds send the same programs in a
    different order and get identical answers, sums and counters;
  * on the ladder, two seeds generate different programs.
"""

import json
import os
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402


def digest(workload, seed):
    os.makedirs(os.path.join(run.BUILD, "traces"), exist_ok=True)
    trace = os.path.join(run.BUILD, "traces",
                         "selftest-%s-%d.json" % (workload, seed))
    proc = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1", "--trace-file", trace],
        stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0 and result["correct"], result
    return result["digest"]


class DeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.runs = {w: (digest(w, 7), digest(w, 7), digest(w, 8))
                    for w in run.WORKLOADS}

    def test_same_seed_gives_identical_digests(self):
        for w, (a, b, _) in self.runs.items():
            with self.subTest(workload=w):
                self.assertEqual(a, b)
                self.assertTrue(a["counters"])

    def test_service_seeds_reorder_same_work(self):
        for w in ("suite_service", "regalloc_batch"):
            a, _, c = self.runs[w]
            with self.subTest(workload=w):
                self.assertNotEqual(a["order"], c["order"])
                for key in ("programs", "records", "counters", "moves",
                            "weighted_moves", "spill_accesses", "dyn_moves"):
                    self.assertEqual(a[key], c[key], key)

    def test_ladder_seeds_draw_different_programs(self):
        a, _, c = self.runs["size_ladder"]
        self.assertNotEqual(a["programs"], c["programs"])
        self.assertNotEqual(a["records"], c["records"])


if __name__ == "__main__":
    unittest.main()
