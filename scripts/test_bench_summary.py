#!/usr/bin/env python3
"""Tests for bench_summary.py: pins the BENCH_*.json schema and the printed
summary so docs/benchmarks.md can't silently drift from the tooling.

Stdlib only (unittest), so CI runs it with a bare python3:

    python3 scripts/test_bench_summary.py

(also discoverable by pytest, which collects unittest cases).
"""

import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_summary  # noqa: E402

# The documented schema (docs/benchmarks.md): a flat array of
# {bench, config, metric, value, unit} rows.
FIXTURE_ROWS = [
    {"bench": "open_loop", "config": "load_0.8x",
     "metric": "latency_p99", "value": 1.38e-4, "unit": "s"},
    {"bench": "open_loop", "config": "hetero_capability-aware",
     "metric": "latency_p99", "value": 9.29e-5, "unit": "s"},
    {"bench": "open_loop", "config": "fleet",
     "metric": "capacity_rps", "value": 104000.0, "unit": "req/s"},
]


class BenchSummaryTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write_fixture(self, name, payload):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            if isinstance(payload, str):
                f.write(payload)
            else:
                json.dump(payload, f)
        return path

    def run_main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = bench_summary.main(["bench_summary.py"] + argv)
        return status, out.getvalue(), err.getvalue()

    def test_prints_fixture_rows_and_formats_units(self):
        self.write_fixture("BENCH_open_loop.json", FIXTURE_ROWS)
        status, out, err = self.run_main([self.tmp.name])
        self.assertEqual(0, status, err)
        # Header names the bench and the source file.
        self.assertIn("== open_loop", out)
        self.assertIn("BENCH_open_loop.json", out)
        # Every config/metric lands in the table.
        for row in FIXTURE_ROWS:
            self.assertIn(row["config"], out)
            self.assertIn(row["metric"], out)
        # Seconds are scaled to an engineering suffix, other units pass
        # through verbatim.
        self.assertIn("138 us", out)
        self.assertIn("92.9 us", out)
        self.assertIn("req/s", out)

    def test_directory_glob_only_picks_bench_files(self):
        self.write_fixture("BENCH_open_loop.json", FIXTURE_ROWS)
        self.write_fixture("unrelated.json", [{"not": "a bench row"}])
        status, out, _ = self.run_main([self.tmp.name])
        self.assertEqual(0, status)
        self.assertNotIn("unrelated", out)

    def test_missing_schema_key_fails(self):
        row = dict(FIXTURE_ROWS[0])
        del row["unit"]
        self.write_fixture("BENCH_bad.json", [row])
        status, _, err = self.run_main([self.tmp.name])
        self.assertEqual(1, status)
        self.assertIn("missing key 'unit'", err)

    def test_malformed_json_and_non_array_fail(self):
        self.write_fixture("BENCH_broken.json", "{not json")
        status, _, err = self.run_main([self.tmp.name])
        self.assertEqual(1, status)
        self.assertIn("error:", err)

        self.write_fixture("BENCH_broken.json", {"rows": FIXTURE_ROWS})
        status, _, err = self.run_main([self.tmp.name])
        self.assertEqual(1, status)
        self.assertIn("expected a JSON array", err)

    def test_no_inputs_is_an_error(self):
        status, _, err = self.run_main([self.tmp.name])
        self.assertEqual(1, status)
        self.assertIn("no BENCH_*.json files found", err)

    def make_baseline_dir(self, rows):
        base_dir = os.path.join(self.tmp.name, "baselines")
        os.makedirs(base_dir, exist_ok=True)
        with open(os.path.join(base_dir, "BENCH_open_loop.json"), "w") as f:
            json.dump(rows, f)
        return base_dir

    def test_baseline_diff_is_warn_only(self):
        # 2x drift on one row, a new row, and a missing baseline row must
        # all be reported on stderr without failing the run.
        base_dir = self.make_baseline_dir(FIXTURE_ROWS + [
            {"bench": "open_loop", "config": "gone", "metric": "latency_p99",
             "value": 1.0, "unit": "s"}])
        current = [dict(FIXTURE_ROWS[0], value=FIXTURE_ROWS[0]["value"] * 2),
                   FIXTURE_ROWS[1], FIXTURE_ROWS[2],
                   {"bench": "open_loop", "config": "slo_1.20x_edf_shed",
                    "metric": "interactive_p99", "value": 6e-5, "unit": "s"}]
        self.write_fixture("BENCH_open_loop.json", current)
        status, _, err = self.run_main(
            [self.tmp.name, "--baseline", base_dir])
        self.assertEqual(0, status, err)
        self.assertIn("drift open_loop/load_0.8x/latency_p99", err)
        self.assertIn("+100.0%", err)
        self.assertIn(
            "new row (no baseline): open_loop/slo_1.20x_edf_shed", err)
        self.assertIn(
            "baseline row missing from this run: open_loop/gone", err)

    def test_baseline_diff_quiet_when_within_tolerance(self):
        base_dir = self.make_baseline_dir(FIXTURE_ROWS)
        nudged = [dict(r, value=r["value"] * 1.05) for r in FIXTURE_ROWS]
        self.write_fixture("BENCH_open_loop.json", nudged)
        status, _, err = self.run_main(
            [self.tmp.name, f"--baseline={base_dir}"])
        self.assertEqual(0, status, err)
        self.assertNotIn("drift", err)
        self.assertIn("all rows within", err)

    def test_missing_baseline_dir_warns_but_passes(self):
        self.write_fixture("BENCH_open_loop.json", FIXTURE_ROWS)
        status, _, err = self.run_main(
            [self.tmp.name, "--baseline",
             os.path.join(self.tmp.name, "nonexistent")])
        self.assertEqual(0, status, err)
        self.assertIn("no BENCH_*.json baselines", err)

    def test_baseline_flag_requires_a_path(self):
        status, _, err = self.run_main(["--baseline"])
        self.assertEqual(1, status)
        self.assertIn("--baseline requires a path", err)

    def test_fail_on_regression_gates_large_drift(self):
        # The same 2x drift that the warn-only mode tolerates fails the run
        # when a gate threshold is armed; missing baseline rows fail too,
        # but brand-new rows stay informational.
        base_dir = self.make_baseline_dir(FIXTURE_ROWS + [
            {"bench": "open_loop", "config": "gone", "metric": "latency_p99",
             "value": 1.0, "unit": "s"}])
        current = [dict(FIXTURE_ROWS[0], value=FIXTURE_ROWS[0]["value"] * 2),
                   FIXTURE_ROWS[1], FIXTURE_ROWS[2],
                   {"bench": "open_loop", "config": "slo_1.20x_edf_shed",
                    "metric": "interactive_p99", "value": 6e-5, "unit": "s"}]
        self.write_fixture("BENCH_open_loop.json", current)
        status, _, err = self.run_main(
            [self.tmp.name, "--baseline", base_dir,
             "--fail-on-regression", "25"])
        self.assertEqual(1, status, err)
        self.assertIn("FAIL: drift open_loop/load_0.8x/latency_p99", err)
        self.assertIn(
            "FAIL: baseline row missing from this run: open_loop/gone", err)
        self.assertIn(
            "new row (no baseline): open_loop/slo_1.20x_edf_shed", err)
        self.assertNotIn("FAIL: new row", err)

    def test_fail_on_regression_passes_between_thresholds(self):
        # Drift past the warn threshold but under the gate threshold warns
        # without failing: the gate is strictly looser than the warning.
        base_dir = self.make_baseline_dir(FIXTURE_ROWS)
        nudged = [dict(r, value=r["value"] * 1.15) for r in FIXTURE_ROWS]
        self.write_fixture("BENCH_open_loop.json", nudged)
        status, _, err = self.run_main(
            [self.tmp.name, f"--baseline={base_dir}",
             "--fail-on-regression=25"])
        self.assertEqual(0, status, err)
        self.assertIn("warning: drift", err)
        self.assertNotIn("FAIL", err)

    def test_fail_on_regression_zero_fails_any_change(self):
        # A 0 % gate means exact equality: a change far inside the warning
        # band fails the run, while an identical run passes.
        base_dir = self.make_baseline_dir(FIXTURE_ROWS)
        self.write_fixture("BENCH_open_loop.json", FIXTURE_ROWS)
        status, _, err = self.run_main(
            [self.tmp.name, "--baseline", base_dir,
             "--fail-on-regression", "0"])
        self.assertEqual(0, status, err)
        self.assertNotIn("FAIL", err)
        nudged = [dict(FIXTURE_ROWS[0],
                       value=FIXTURE_ROWS[0]["value"] * (1 + 1e-12))]
        self.write_fixture("BENCH_open_loop.json", nudged + FIXTURE_ROWS[1:])
        status, _, err = self.run_main(
            [self.tmp.name, f"--baseline={base_dir}",
             "--fail-on-regression=0"])
        self.assertEqual(1, status, err)
        self.assertIn("FAIL: drift open_loop/load_0.8x/latency_p99", err)
        self.assertEqual(1, err.count("FAIL:"), err)

    def test_fail_on_regression_argument_validation(self):
        self.write_fixture("BENCH_open_loop.json", FIXTURE_ROWS)
        for argv, fragment in (
                (["--fail-on-regression"], "requires a percentage"),
                ([self.tmp.name, "--baseline", self.tmp.name,
                  "--fail-on-regression", "zero"], "needs a number"),
                ([self.tmp.name, "--baseline", self.tmp.name,
                  "--fail-on-regression", "-5"], "must be positive"),
                ([self.tmp.name, "--fail-on-regression", "25"],
                 "requires --baseline")):
            status, _, err = self.run_main(argv)
            self.assertEqual(1, status, argv)
            self.assertIn(fragment, err)


if __name__ == "__main__":
    unittest.main()
