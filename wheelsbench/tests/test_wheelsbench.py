"""Tests of the wheels benchmark itself.

Run from the root of a checkout (each case runs the benchmark, so the
whole file takes a few minutes on a 4-core host):

    python3 -m unittest discover -s wheelsbench/tests -v
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.dirname(HERE))

import run  # noqa: E402  (wheelsbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(workload, seed=42, trace=0, extra=()):
    """Run the benchmark; returns (exit code, provenance, result or None)."""
    cmd = [sys.executable, os.path.join("wheelsbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    provenance = json.loads(lines[-2])["provenance"] if len(lines) > 1 else None
    return p.returncode, provenance, result


class SpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(SPEC["command"], ["python3", "wheelsbench/run.py"])
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in SPEC["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))

    def test_latency_limit_is_stated(self):
        why = [w["why"] for w in SPEC["workloads"]
               if w["name"] == "serve-mix"][0]
        with open(os.path.join(HERE, "..", "engine", "workloads.cpp")) as f:
            src = f.read()
        limit = re.search(r"kLimitMs = ([0-9.]+);", src).group(1)
        self.assertIn("p99 <= %d ms" % float(limit), why)

    def test_upper_percentile_needs_ten_beyond(self):
        self.assertEqual(run.upper_percentile(range(1, 1011))[0], 99.0)
        # 500 samples: p99 leaves 5 beyond, p98 leaves 10.
        p, v = run.upper_percentile(range(1, 501))
        self.assertEqual((p, v), (98.0, 490))


class ServeMixTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.rc, cls.prov, cls.result = bench("serve-mix")

    def test_metrics_match_benchmark_json(self):
        self.assertEqual(self.rc, 0)
        self.assertEqual(set(self.result), {"correct", "attempted", "failed",
                                            "metrics"})
        self.assertTrue(self.result["correct"])
        want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        got = {k: v["unit"] for k, v in self.result["metrics"].items()}
        self.assertEqual(got, want)
        for v in self.result["metrics"].values():
            self.assertTrue(math.isfinite(v["value"]))
            self.assertGreater(v["value"], 0)

    def test_provenance_block(self):
        for key in ("nproc", "jobs", "build_type", "compiler", "git_commit",
                    "seed", "src_digest", "error_rate"):
            self.assertIn(key, self.prov)
        self.assertEqual(self.prov["jobs"], min(self.prov["nproc"], 4))

    def test_generator_reports_lateness(self):
        lag = self.prov["notes"]["serve_send_lag_p99_ms"]
        self.assertTrue(math.isfinite(lag) and lag >= 0.0)

    def test_mix_is_reported(self):
        notes = self.prov["notes"]
        for share in notes["serve_kind_share"]:
            self.assertAlmostEqual(share["kpi"], 0.6, delta=0.02)
            self.assertAlmostEqual(share["region"], 0.2, delta=0.02)
            self.assertAlmostEqual(share["app_qoe"], 0.2, delta=0.02)
        # More datasets than the store holds: some lookups miss.
        for miss in notes["serve_store_miss_share"]:
            self.assertGreater(miss, 0.0)

    def test_ladder_stops_at_the_cap(self):
        notes = self.prov["notes"]
        cap = notes["serve_cap_rps"]
        for r, steps in enumerate(notes["serve_steps"]):
            self.assertLessEqual(max(rate for rate, _ in steps), cap)
            self.assertLessEqual(notes["serve_max_rps_rounds"][r], cap * 1.01)

    def test_tampered_reply_fails(self):
        rc, prov, result = bench("serve-mix", extra=["--inject",
                                                     "tamper-reply"])
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertTrue(any("differ" in f for f in prov["failures"]))


class TracedTest(unittest.TestCase):
    def test_per_layer_metrics_match_benchmark_json(self):
        rc, prov, result = bench("serve-mix", trace=1)
        self.assertEqual(rc, 0)
        want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        # Blocking time per layer accounts for the traced phases exactly.
        blocking = sum(v for k, v in m.items() if k.startswith("block."))
        phases = m["trace.cold_s"] + m["trace.figures_s"] + m["trace.serve_s"]
        self.assertAlmostEqual(blocking, phases, delta=1e-6 * phases + 1e-6)
        self.assertGreater(m["core.rng.draws"], 0)
        # The traced ladder climbs past the cap until a rate fails.
        self.assertTrue(any(not passed
                            for _, passed in prov["notes"]["serve_steps"]))
        self.assertGreater(m["serve.knee_rps"], 0)
        # serve-mix's serve latency splits into decode, analysis, transport.
        for key in ("dataset.decode_s", "dataset.load_s", "analysis.queries_s",
                    "analysis.busy_s", "serve.transport_p50_us"):
            self.assertGreater(m[key], 0, key)
        self.assertTrue(os.path.isfile(os.path.join(ROOT, prov["notes"]["spans"])))


class DriveColdGateTest(unittest.TestCase):
    def test_wrong_golden_fails(self):
        rc, prov, result = bench("drive-cold", extra=["--expect-golden",
                                                      "0x0123456789abcdef"])
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertTrue(any("golden" in f for f in prov["failures"]))

    def test_corrupted_cache_file_fails(self):
        rc, prov, result = bench("drive-cold", seed=7,
                                 extra=["--inject", "corrupt-cache"])
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertTrue(any("corrupt" in f or "did not load" in f
                            for f in prov["failures"]))


if __name__ == "__main__":
    unittest.main()
