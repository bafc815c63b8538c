"""Tests for the benchmark driver. Run from the repository root:

    python3 -m unittest discover -s yardstick -p 'test_*.py'
"""

import argparse
import json
import os
import re
import tempfile
import unittest

import run

BENCHMARK_JSON = os.path.join(run.ROOT, "BENCHMARK.json")
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def valid_name(name):
    """Metric-name grammar: 1-64 of letters, digits, `_`, `.`, `-`,
    starting with a letter or digit."""
    return bool(NAME_RE.fullmatch(name))


def valid_unit(unit):
    """Unit grammar: 1-16 of letters, digits, `_`, `/`, `%`, `.`, `-`."""
    return bool(UNIT_RE.fullmatch(unit))


class MetricNameGrammar(unittest.TestCase):
    def test_accepts_layer_names(self):
        for name in ["wall_s", "engine.sim.job_ms_p95", "self_ms.sim", "9lives", "a-b", "a" * 64]:
            self.assertTrue(valid_name(name), name)

    def test_rejects_bad_names(self):
        for name in ["", ".x", "_x", "-x", "has space", "a/b", "pct%", "a" * 65, "é", "wall_s\n"]:
            self.assertFalse(valid_name(name), name)

    def test_units(self):
        for unit in ["ms", "s", "1/s", "count", "%", "1/kinst", "MIPS"]:
            self.assertTrue(valid_unit(unit), unit)
        for unit in ["", "a b", "x" * 17, "µs"]:
            self.assertFalse(valid_unit(unit), unit)

    def test_every_reported_metric_is_valid(self):
        tables = (run.END_TO_END, run.PER_LAYER, *run.EXTRA_LAYER.values())
        for table in tables:
            for name, unit in table.items():
                self.assertTrue(valid_name(name), name)
                self.assertTrue(valid_unit(unit), unit)
        names = [n for table in tables for n in table]
        self.assertEqual(len(names), len(set(names)))


@unittest.skipUnless(os.path.exists(BENCHMARK_JSON), "no BENCHMARK.json beside the benchmark")
class BenchmarkDeclaration(unittest.TestCase):
    def setUp(self):
        with open(BENCHMARK_JSON, encoding="utf-8") as f:
            self.spec = json.load(f)

    def test_declares_what_the_driver_reports(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]}, run.PER_LAYER)

    def test_bounds_and_names(self):
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in self.spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for m in self.spec["end_to_end"]:
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertTrue(0 < m["bound"] <= 0.25, m)
        setup = next(m for m in self.spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.spec["end_to_end"]))


class MergedOutput(unittest.TestCase):
    def test_parses_counts_and_speedup(self):
        words = lambda cycles, issued, wrong: " ".join(
            str(w) for w in [cycles, issued, wrong] + [0] * 23)
        text = "\n".join([
            f"00 vanguard combined24kb w4 milc ref0 base | ok {words(200, 120, 20)}",
            f"01 vanguard combined24kb w4 milc ref0 xform | ok {words(100, 110, 10)}",
            f"02 meld bimodal8k w2 milc ref0 base | ok {words(50, 30, 0)}",
            "03 meld bimodal8k w2 milc ref0 xform | fault pc=0x10 cycle=3 trap=X",
        ]) + "\n"
        jobs, failed, cycles, insts, geo = run.parse_merged(text)
        self.assertEqual((jobs, failed, cycles, insts), (4, 1, 350, 230))
        self.assertAlmostEqual(geo, 2.0)


class Fingerprint(unittest.TestCase):
    def check(self, stored, digest, cycles, speedup):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fingerprints.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump({"fuzz-diff": stored}, f)
            r = run.Run(argparse.Namespace(workload="fuzz-diff", seed=3, seconds=1), {}, tmp)
            saved, run.FINGERPRINTS = run.FINGERPRINTS, path
            try:
                run.check_fingerprint(r, digest, cycles, speedup)
            finally:
                run.FINGERPRINTS = saved
            return r.failed

    def test_match_passes(self):
        stored = {"3": {"digest": "ab", "sim_cycles": 10, "speedup_4w_geomean": 1.5}}
        self.assertEqual(self.check(stored, "ab", 10, 1.5), 0)

    def test_any_difference_fails(self):
        stored = {"3": {"digest": "ab", "sim_cycles": 10, "speedup_4w_geomean": 1.5}}
        self.assertEqual(self.check(stored, "ac", 10, 1.5), 1)
        self.assertEqual(self.check(stored, "ab", 11, 1.5), 1)
        self.assertEqual(self.check(stored, "ab", 10, 1.5000000001), 1)

    def test_unstored_seed_is_not_checked(self):
        self.assertEqual(self.check({"4": {}}, "ab", 10, 1.5), 0)


class TracedCompleteness(unittest.TestCase):
    def measured(self, workload):
        """What a traced run of `workload` measures: the shared metrics
        and its own."""
        return {n: 1.0 for n in {**run.PER_LAYER, **run.EXTRA_LAYER.get(workload, {})}}

    def test_declared_workloads_print_exactly_the_shared_metrics(self):
        for workload in run.WORKLOADS:
            self.assertNotIn(workload, run.EXTRA_LAYER)
            out, units = run.complete(workload, self.measured(workload))
            self.assertEqual(units, run.PER_LAYER)
            self.assertEqual(list(out), list(run.PER_LAYER))

    def test_undeclared_workloads_print_their_own_metrics_last(self):
        for workload, own in run.EXTRA_LAYER.items():
            self.assertIn(workload, run.UNDECLARED)
            out, units = run.complete(workload, self.measured(workload))
            self.assertEqual(list(out), list(run.PER_LAYER) + list(own))
            self.assertEqual(list(units), list(out))

    def test_missing_own_metric_is_an_error(self):
        for workload in run.WORKLOADS + run.UNDECLARED:
            metrics = self.measured(workload)
            del metrics["sim.ipc"]
            with self.assertRaises(run.ProbeError):
                run.complete(workload, metrics)
        for workload, own in run.EXTRA_LAYER.items():
            metrics = self.measured(workload)
            del metrics[next(iter(own))]
            with self.assertRaises(run.ProbeError):
                run.complete(workload, metrics)


if __name__ == "__main__":
    unittest.main()
