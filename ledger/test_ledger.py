#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the root of a checkout:  python3 ledger/test_ledger.py
(builds the benchmark first, like run.py; the native cases need `cc`
and take about a minute each because their set-up builds 12 modules).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

EXE = None
OUT_DIR = None
SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
COUNTS = ("code_words", "vm_instructions", "vm_cycles", "heap_words")


def ledger(*args):
    proc = subprocess.run([EXE, "--out-dir", OUT_DIR] + list(args),
                          capture_output=True, text=True, cwd=run.ROOT)
    return proc.returncode, proc.stdout


def result(workload, seed=1, seconds=2, trace=0):
    rc, out = ledger("--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", str(trace))
    if rc != 0:
        raise AssertionError("%s exited %d" % (workload, rc))
    return json.loads(out.strip().splitlines()[-1])


class LedgerTest(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for workload in ("compile", "run"):
            a = result(workload, seed=3, seconds=1)["metrics"]
            b = result(workload, seed=4, seconds=1)["metrics"]
            for name in COUNTS:
                self.assertEqual(a[name]["value"], b[name]["value"],
                                 "%s/%s" % (workload, name))
                self.assertGreater(a[name]["value"], 0)

    def test_seed_fixes_job_order_and_farm_stream(self):
        def digest(seed):
            rc, out = ledger("--plan", str(seed))
            self.assertEqual(rc, 0)
            return out.split("digest=")[1].strip()
        self.assertEqual(digest(7), digest(7))
        self.assertNotEqual(digest(7), digest(8))

    def test_replica_byte_identical_on_all_jobs(self):
        rc, out = ledger("--check-replica")
        self.assertEqual(rc, 0, out)
        self.assertIn("identical on 72 of 72 jobs", out)

    def test_metric_names_match_benchmark_json(self):
        spec = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                res = result(w["name"], trace=trace)
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                self.assertTrue(res["correct"], w["name"])
                self.assertGreaterEqual(res["attempted"], 1)
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, spec[trace],
                                 "%s trace=%d" % (w["name"], trace))

    def test_rejects_bad_arguments(self):
        self.assertEqual(ledger("--workload", "bogus", "--seed", "1")[0], 64)
        self.assertEqual(ledger("--workload", "run", "--trace", "2")[0], 64)


if __name__ == "__main__":
    EXE = run.build()
    if EXE is None:
        sys.exit(2)
    OUT_DIR = os.path.join(os.path.dirname(run.build_dir()), "ledger-out")
    os.makedirs(OUT_DIR, exist_ok=True)
    unittest.main()
