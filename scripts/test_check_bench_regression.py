#!/usr/bin/env python3
"""Selftest for check_bench_regression.py's failure modes.

The checker is the CI gate that keeps the analysis-count baselines
honest, so its *failure* paths need their own regression test: a gate
that silently passes on malformed input is worse than no gate. Each case
runs the checker in-process on synthetic bench documents and asserts
both the exit status and that the offending key is named in the output.

Run directly (no arguments) or via ctest; stdlib only.
"""

import contextlib
import glob
import io
import json
import os
import re
import sys
import tempfile
import unittest

SCRIPTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(SCRIPTS_DIR)
sys.path.insert(0, SCRIPTS_DIR)
import check_bench_regression as cbr


def bench_doc(records):
    return {"records": records}


def record(suite="valcc", config="Lphi,ABI+C", counters=None, **fields):
    rec = {"suite": suite, "config": config, "moves": 10,
           "weighted_moves": 20.0}
    rec["counters"] = {"liveness.analyses": 5} if counters is None \
        else counters
    rec.update(fields)
    return rec


class CheckerHarness(unittest.TestCase):
    def run_checker(self, baseline, fresh, *extra_args):
        """Writes the two docs to temp files and runs main(). Returns
        (exit_status, captured_stdout)."""
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "base.json")
            fresh_path = os.path.join(tmp, "fresh.json")
            for path, doc in ((base_path, baseline), (fresh_path, fresh)):
                with open(path, "w") as f:
                    if isinstance(doc, str):
                        f.write(doc)
                    else:
                        json.dump(doc, f)
            with contextlib.redirect_stdout(out):
                status = cbr.main(["prog", *extra_args, base_path,
                                   fresh_path])
        return status, out.getvalue()

    def assert_fails_naming(self, baseline, fresh, *needles):
        status, out = self.run_checker(baseline, fresh)
        self.assertEqual(status, 1, out)
        self.assertIn("FAILED", out)
        for needle in needles:
            self.assertIn(needle, out)


class TestCleanPass(CheckerHarness):
    def test_identical_documents_pass(self):
        doc = bench_doc([record()])
        status, out = self.run_checker(doc, doc)
        self.assertEqual(status, 0, out)
        self.assertIn("passed", out)

    def test_counter_decrease_passes(self):
        base = bench_doc([record(counters={"liveness.analyses": 5})])
        fresh = bench_doc([record(counters={"liveness.analyses": 3})])
        status, out = self.run_checker(base, fresh)
        self.assertEqual(status, 0, out)

    def test_counter_absent_from_both_passes(self):
        # Not every record carries every checked counter (regpressure
        # records have no coalescer counters, say); absent on both
        # sides is not a regression.
        doc = bench_doc([record(counters={})])
        status, out = self.run_checker(doc, doc)
        self.assertEqual(status, 0, out)


class TestCounterFailures(CheckerHarness):
    def test_counter_increase_fails(self):
        base = bench_doc([record(counters={"liveness.analyses": 5})])
        fresh = bench_doc([record(counters={"liveness.analyses": 6})])
        self.assert_fails_naming(base, fresh, "liveness.analyses",
                                 "regressed 5 -> 6")

    def test_var_solves_increase_fails(self):
        base = bench_doc([record(counters={"liveness.var_solves": 40})])
        fresh = bench_doc([record(counters={"liveness.var_solves": 41})])
        self.assert_fails_naming(base, fresh, "liveness.var_solves",
                                 "regressed 40 -> 41")

    def test_partial_recomputes_increase_fails(self):
        base = bench_doc(
            [record(counters={"liveness.partial_recomputes": 41})])
        fresh = bench_doc(
            [record(counters={"liveness.partial_recomputes": 42})])
        self.assert_fails_naming(base, fresh, "liveness.partial_recomputes",
                                 "regressed 41 -> 42")

    def test_meet_nodes_increase_fails(self):
        base = bench_doc([record(counters={"translate.meet_nodes": 90})])
        fresh = bench_doc([record(counters={"translate.meet_nodes": 91})])
        self.assert_fails_naming(base, fresh, "translate.meet_nodes",
                                 "regressed 90 -> 91")

    def test_counter_missing_from_fresh_fails(self):
        # The bug this selftest exists for: a counter the baseline has
        # but the fresh run lost must fail by name, not default to 0
        # and slide through the decrease-only comparison.
        base = bench_doc([record(counters={"liveness.analyses": 5})])
        fresh = bench_doc([record(counters={})])
        self.assert_fails_naming(
            base, fresh, "liveness.analyses",
            "present in baseline but missing from fresh")

    def test_record_missing_from_fresh_fails(self):
        base = bench_doc([record(suite="valcc"), record(suite="spec")])
        fresh = bench_doc([record(suite="valcc")])
        self.assert_fails_naming(base, fresh,
                                 "record missing from fresh output",
                                 "spec")


class TestMeasurementFailures(CheckerHarness):
    def test_measurement_change_fails(self):
        base = bench_doc([record(moves=10)])
        fresh = bench_doc([record(moves=11)])
        self.assert_fails_naming(base, fresh, "moves",
                                 "must be bit-identical")

    def test_measurement_missing_from_fresh_fails(self):
        base = bench_doc([record()])
        fresh_rec = record()
        del fresh_rec["moves"]
        self.assert_fails_naming(base, bench_doc([fresh_rec]),
                                 "measurement moves missing from fresh")

    def test_measurement_missing_from_baseline_fails(self):
        base_rec = record()
        del base_rec["moves"]
        self.assert_fails_naming(
            bench_doc([base_rec]), bench_doc([record()]),
            "measurement moves missing from baseline")


class TestMalformedInput(CheckerHarness):
    def test_missing_records_key_fails_cleanly(self):
        self.assert_fails_naming({"suite": "valcc"}, bench_doc([record()]),
                                 "missing top-level 'records' key")

    def test_record_missing_suite_fails_cleanly(self):
        rec = record()
        del rec["suite"]
        self.assert_fails_naming(bench_doc([rec]), bench_doc([record()]),
                                 "missing required key 'suite'")

    def test_record_missing_config_fails_cleanly(self):
        rec = record()
        del rec["config"]
        self.assert_fails_naming(bench_doc([record()]), bench_doc([rec]),
                                 "missing required key 'config'")

    def test_invalid_json_fails_cleanly(self):
        status, out = self.run_checker("{not json", bench_doc([record()]))
        self.assertEqual(status, 1, out)
        self.assertIn("FAILED", out)

    def test_usage_error_is_distinct(self):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            self.assertEqual(cbr.main(["prog", "only-one.json"]), 2)


class TestSecondsReport(CheckerHarness):
    def test_table_absent_without_flag(self):
        base = bench_doc([record(seconds=2.0)])
        fresh = bench_doc([record(seconds=1.0)])
        status, out = self.run_checker(base, fresh)
        self.assertEqual(status, 0, out)
        self.assertNotIn("Wall-clock", out)

    def test_report_never_gates(self):
        # A 10x wall-clock slowdown with identical counters must still
        # pass: timings are machine-dependent and informational only.
        base = bench_doc([record(seconds=1.0)])
        fresh = bench_doc([record(seconds=10.0)])
        status, out = self.run_checker(base, fresh, "--report-seconds")
        self.assertEqual(status, 0, out)
        self.assertIn("Wall-clock comparison (non-gating)", out)
        self.assertIn("valcc/Lphi,ABI+C", out)
        self.assertIn("0.10x", out)

    def test_per_pass_rows_ride_along(self):
        base = bench_doc([record(seconds=2.0,
                                 per_pass_seconds={"translate": 1.0})])
        fresh = bench_doc([record(seconds=1.0,
                                  per_pass_seconds={"translate": 0.5})])
        status, out = self.run_checker(base, fresh, "--report-seconds")
        self.assertEqual(status, 0, out)
        self.assertIn("| translate |", out)
        self.assertIn("2.00x", out)

    def test_records_without_seconds_are_skipped(self):
        status, out = self.run_checker(bench_doc([record()]),
                                       bench_doc([record()]),
                                       "--report-seconds")
        self.assertEqual(status, 0, out)
        self.assertNotIn("Wall-clock", out)


class TestRegpressureKeying(CheckerHarness):
    """The 5-tuple (suite, config, num_regs, allocator, spill_mode) key
    for register-pressure records."""

    def test_record_without_allocator_keys_is_malformed(self):
        # Every register-pressure record names its allocator and spill
        # model; one without them cannot be keyed and fails cleanly.
        for missing in ("allocator", "spill_mode"):
            rec = record(num_regs=8, spills=355, allocator="chaitin-briggs",
                         spill_mode="spill-everywhere", counters={})
            del rec[missing]
            self.assert_fails_naming(
                bench_doc([rec]), bench_doc([rec]),
                "register-pressure record #0 missing required key '%s'"
                % missing)

    def test_allocator_distinguishes_records(self):
        # Same (suite, config, num_regs) but a different allocator is a
        # different record: the chordal numbers must not be compared
        # against (or hide behind) the chaitin-briggs baseline.
        base = bench_doc([
            record(num_regs=8, spills=355, allocator="chaitin-briggs",
                   spill_mode="spill-everywhere", counters={}),
            record(num_regs=8, spills=340, allocator="chordal",
                   spill_mode="spill-everywhere", counters={}),
        ])
        status, out = self.run_checker(base, base)
        self.assertEqual(status, 0, out)
        # Dropping only the chordal record must fail and name it by its
        # full 5-tuple key.
        fresh = bench_doc([
            record(num_regs=8, spills=355, allocator="chaitin-briggs",
                   spill_mode="spill-everywhere", counters={}),
        ])
        self.assert_fails_naming(base, fresh,
                                 "record missing from fresh output",
                                 "valcc/Lphi,ABI+C/8/chordal")

    def test_spill_mode_distinguishes_records(self):
        base = bench_doc([
            record(num_regs=6, spill_accesses=1943,
                   allocator="chaitin-briggs",
                   spill_mode="spill-everywhere", counters={}),
            record(num_regs=6, spill_accesses=1500,
                   allocator="chaitin-briggs",
                   spill_mode="load-store-opt", counters={}),
        ])
        status, out = self.run_checker(base, base)
        self.assertEqual(status, 0, out)
        # A spill_accesses change on the load-store-opt record fails
        # under its own key, not the spill-everywhere one.
        fresh = bench_doc([
            record(num_regs=6, spill_accesses=1943,
                   allocator="chaitin-briggs",
                   spill_mode="spill-everywhere", counters={}),
            record(num_regs=6, spill_accesses=1600,
                   allocator="chaitin-briggs",
                   spill_mode="load-store-opt", counters={}),
        ])
        self.assert_fails_naming(
            base, fresh, "spill_accesses",
            "valcc/Lphi,ABI+C/6/chaitin-briggs/load-store-opt")

    def test_ir_digest_change_fails(self):
        # ir_digest folds every function's allocated IR: the same spill
        # counts with different spill code still fail, under the record's
        # full key.
        def rec(digest):
            return record(num_regs=6, spills=355, spill_accesses=1943,
                          failures=0, ir_digest=digest,
                          allocator="chordal",
                          spill_mode="load-store-opt", counters={})
        base = bench_doc([rec(0x9E3779B97F4A7C15)])
        status, out = self.run_checker(base, base)
        self.assertEqual(status, 0, out)
        self.assert_fails_naming(
            base, bench_doc([rec(0x9E3779B97F4A7C16)]),
            "measurement ir_digest changed",
            "valcc/Lphi,ABI+C/6/chordal/load-store-opt",
            "must be bit-identical")

    def test_records_without_num_regs_ignore_allocator_keys(self):
        # Compile-time records have no num_regs; they keep the plain
        # (suite, config) key even if a stray allocator key appears.
        base = bench_doc([record(counters={})])
        fresh = bench_doc([record(allocator="chordal", counters={})])
        status, out = self.run_checker(base, fresh)
        self.assertEqual(status, 0, out)


class TestExecRecords(CheckerHarness):
    """BENCH_exec.json: dynamic execution tallies gate bit-identically,
    engine wall-clock never does."""

    def exec_record(self, **overrides):
        rec = {"suite": "VALcc1", "config": "Lphi,ABI+C", "functions": 22,
               "runs": 61, "errors": 0, "dyn_instrs": 24850,
               "dyn_moves": 5189, "outputs": 0x1234ABCD5678EF90,
               "vm_seconds": 0.002, "interp_seconds": 0.008,
               "speedup": 4.0}
        rec.update(overrides)
        return rec

    def test_identical_exec_records_pass(self):
        doc = bench_doc([self.exec_record()])
        status, out = self.run_checker(doc, doc)
        self.assertEqual(status, 0, out)

    def test_dyn_moves_change_fails(self):
        base = bench_doc([self.exec_record()])
        fresh = bench_doc([self.exec_record(dyn_moves=5190)])
        self.assert_fails_naming(base, fresh, "dyn_moves",
                                 "must be bit-identical")

    def test_dyn_instrs_change_fails(self):
        base = bench_doc([self.exec_record()])
        fresh = bench_doc([self.exec_record(dyn_instrs=24849)])
        self.assert_fails_naming(base, fresh, "dyn_instrs",
                                 "must be bit-identical")

    def test_output_digest_change_fails(self):
        # The digest folds every run's status, output trace and return
        # value; any behavioral drift in either engine lands here.
        base = bench_doc([self.exec_record()])
        fresh = bench_doc([self.exec_record(outputs=0x1234ABCD5678EF91)])
        self.assert_fails_naming(base, fresh, "outputs",
                                 "must be bit-identical")

    def test_engine_timings_never_gate(self):
        base = bench_doc([self.exec_record()])
        fresh = bench_doc([self.exec_record(vm_seconds=0.2,
                                            interp_seconds=0.1,
                                            speedup=0.5)])
        status, out = self.run_checker(base, fresh)
        self.assertEqual(status, 0, out)

    def test_scale_records_without_probe_counters_skip_sublinearity(self):
        # The exec sweep reuses the scale_n* suite names but carries no
        # classinterf counters; the sublinearity check must not engage.
        doc = bench_doc([
            self.exec_record(suite="scale_n40", config="ssa", counters={}),
            self.exec_record(suite="scale_n640", config="ssa", counters={}),
        ])
        status, out = self.run_checker(doc, doc)
        self.assertEqual(status, 0, out)
        self.assertIn("on 0 scale points", out)


class TestSublinearity(CheckerHarness):
    def test_lost_sublinearity_fails(self):
        def scale(n, probes, pair_cost):
            return record(suite="scale_n%d" % n,
                          counters={"classinterf.probes": probes,
                                    "classinterf.pair_cost": pair_cost})
        # Probes grow as fast as the pairwise bound: ratio never drops.
        fresh = bench_doc([scale(40, 100, 1000), scale(640, 1600, 16000)])
        base = fresh
        self.assert_fails_naming(base, fresh, "sublinearity lost")


def ci_checker_pairs(workflow_text):
    """Returns, for each check_bench_regression.py step of a CI
    workflow, the BENCH files it gates: the consecutive
    '<name> build/<name>' argument lines after the invocation."""
    steps = []
    for m in re.finditer(r"python3 scripts/check_bench_regression\.py.*\n",
                         workflow_text):
        gated = []
        for line in workflow_text[m.end():].splitlines():
            pair = re.fullmatch(r"\s*(BENCH_\w+\.json) build/(BENCH_\w+\.json)",
                                line)
            if not pair or pair.group(1) != pair.group(2):
                break
            gated.append(pair.group(1))
        steps.append(gated)
    return steps


def ungated_bench_files(workflow_text, bench_files):
    """Names every (step, file) where a root BENCH file is missing from
    a checker step; an empty list means CI gates them all."""
    return ["step %d: %s" % (k, name)
            for k, gated in enumerate(ci_checker_pairs(workflow_text))
            for name in bench_files if name not in gated]


class TestCiGatesEveryBenchFile(unittest.TestCase):
    WORKFLOW = os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")

    def test_every_root_bench_file_is_in_both_checker_steps(self):
        bench_files = sorted(os.path.basename(p) for p in
                             glob.glob(os.path.join(REPO_ROOT,
                                                    "BENCH_*.json")))
        self.assertTrue(bench_files)
        with open(self.WORKFLOW) as f:
            text = f.read()
        self.assertEqual(len(ci_checker_pairs(text)), 2)
        self.assertEqual(ungated_bench_files(text, bench_files), [])

    def test_a_dropped_file_is_named(self):
        step = ("        run: >\n"
                "          python3 scripts/check_bench_regression.py\n"
                "          BENCH_a.json build/BENCH_a.json\n"
                "          BENCH_b.json build/BENCH_b.json\n")
        text = step + step.replace(
            "          BENCH_b.json build/BENCH_b.json\n", "")
        self.assertEqual(
            ungated_bench_files(text, ["BENCH_a.json", "BENCH_b.json"]),
            ["step 1: BENCH_b.json"])


if __name__ == "__main__":
    unittest.main(verbosity=2)
