#!/usr/bin/env python3
"""Seed determinism of the benchmark's inputs.

    python3 perfbench/test_inputs.py      (from the root of the checkout)

The same seed must give byte-identical corpora, query streams and write
schedules; a different seed must give different ones.  xrbench
--dump-inputs prints one digest line per input of the workload (base
corpus; the documents ingest writes or the first 4096 cold queries).
"""
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("ingest", "serve_cold")


def dump(workload, seed):
    out = subprocess.run([run.BINARY, "--dump-inputs", "--workload", workload,
                          "--seed", str(seed)],
                         stdout=subprocess.PIPE, text=True, check=True).stdout
    return dict(line.split(" ", 1) for line in out.splitlines())


class SeedDeterminism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_same_seed_same_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(dump(w, 7), dump(w, 7))

    def test_different_seed_different_inputs(self):
        for w in WORKLOADS:
            a, b = dump(w, 7), dump(w, 8)
            self.assertEqual(a.keys(), b.keys())
            for key in a:
                with self.subTest(workload=w, input=key):
                    self.assertNotEqual(a[key], b[key])

    def test_inputs_are_not_empty(self):
        for w in WORKLOADS:
            for key, value in dump(w, 7).items():
                with self.subTest(workload=w, input=key):
                    self.assertGreater(int(value.split()[0]), 0)


if __name__ == "__main__":
    unittest.main()
