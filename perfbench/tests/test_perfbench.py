"""Tests of the benchmark itself, at reduced scale (--small).

    python3 -m unittest discover -s perfbench/tests -v

Builds the perfbench binary the same way run.py does, then for every workload:
  * two processes with one seed give bit-identical deterministic metrics,
    per-layer counts and fingerprints, and pass all of their own checks;
  * another seed gives another history_hash;
  * the traced run's Chrome trace-event file loads as JSON, every span lies
    inside its parent, and the setup-phase spans add up to within 5% of
    that run's setup_s.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402  (perfbench/run.py)

WORKLOADS = ["campus_profile", "lb_fault", "hier_cbr"]
# Measured (not counted) metrics: wall times, the tracing overhead and the
# process's resident memory. Everything else must repeat exactly.
MEASURED_UNITS = {"s", "ns"}
MEASURED_NAMES = {"trace.overhead_frac", "emu.peak_rss_mb"}


class Binary:
    binary = None

    @classmethod
    def get(cls):
        if cls.binary is None:
            cls.binary = run.build(run.build_dir())
        return cls.binary


def invoke(workload, seed, trace, trace_out=None):
    command = [Binary.get(), "--workload", workload, "--seed", str(seed),
               "--seconds", "0.01", "--trace", "1" if trace else "0",
               "--small"]
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170,
                          check=True)
    lines = done.stdout.strip().splitlines()
    tags = dict(line.split(": ", 1) for line in lines[:-1] if ": " in line)
    return json.loads(lines[-1]), tags, done.stderr


def deterministic(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] not in MEASURED_UNITS and name not in MEASURED_NAMES}


class EndToEnd(unittest.TestCase):
    def test_same_seed_repeats_and_seeds_differ(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, tags1, err1 = invoke(workload, 7, trace=False)
                second, tags2, _ = invoke(workload, 7, trace=False)
                other, tags3, _ = invoke(workload, 8, trace=False)
                self.assertTrue(first["correct"], err1)
                self.assertEqual(first["failed"], 0)
                self.assertGreaterEqual(first["attempted"], 2)
                self.assertEqual(deterministic(first), deterministic(second))
                self.assertEqual(tags1["fingerprint"], tags2["fingerprint"])
                self.assertEqual(tags1["history_hash"], tags2["history_hash"])
                self.assertNotEqual(tags1["history_hash"],
                                    tags3["history_hash"])
                for name, metric in first["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)


class Traced(unittest.TestCase):
    def test_trace_is_valid_and_counts_repeat(self):
        with tempfile.TemporaryDirectory() as tmp:
            for workload in WORKLOADS:
                with self.subTest(workload=workload):
                    path = os.path.join(tmp, workload + ".json")
                    first, tags, err = invoke(workload, 7, True, path)
                    second, _, _ = invoke(workload, 7, True)
                    self.assertTrue(first["correct"], err)
                    self.assertEqual(first["failed"], 0)
                    self.assertEqual(deterministic(first),
                                     deterministic(second))
                    self.assertTrue(run.check_trace(path))
                    self.check_setup_sum(path)

    def check_setup_sum(self, path):
        with open(path) as f:
            trace = json.load(f)
        events = trace["traceEvents"]
        setup = [i for i, e in enumerate(events) if e["name"] == "setup"]
        self.assertEqual(len(setup), 1)
        phases = sum(e["dur"] for e in events
                     if e["args"]["parent"] == setup[0])
        setup_us = trace["otherData"]["setup_s"] * 1e6
        self.assertLessEqual(abs(phases - setup_us), 0.05 * setup_us)
        names = {e["name"] for e in events}
        for name in ["topology.build", "routing.build", "partition.map",
                     "emu.setup", "run"]:
            self.assertIn(name, names)


if __name__ == "__main__":
    unittest.main()
