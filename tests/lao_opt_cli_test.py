#!/usr/bin/env python3
"""Command-line test of lao-opt: its --stats report and its exit codes.

Runs the lao-opt binary on tests/lao_opt_input.lai and checks that
  * text --stats prints every report section on stderr;
  * --stats=<file> writes one JSON object with the keys the report has
    always had (input, pipeline, moves, weighted_moves, seconds,
    per_pass_seconds, counters) plus the new sections;
  * a --regalloc run without --pipeline still writes a report;
  * the removed reporting flags and malformed numbers exit 2;
  * register allocation of code that still has phis exits 1;
  * lao-client --selftest exits 1 when its in-process reference fails;
  * lao-opt and a lao-server fed the same text and options over pipes
    print byte-identical IR and agree on moves, spills, registers used
    and the run: both front doors call one compile job;
  * the two inputs that reach an assertion unless refused first (an
    instruction after a terminator; a use nothing defines, without
    --ssa) exit 1 with the job's error text, which the server answers
    verbatim;
  * a function without blocks, text before the function header or
    after its closing brace, and a def on an opcode that has none exit
    1 with a parse error;
  * the four malformed phis that parse but reached an assertion of the
    translator (a phi below a non-phi, too few incoming values, an
    incoming block that is no predecessor, a predecessor listed twice)
    and an entry-block phi exit 1 with the job's error text, which the
    server answers verbatim before it serves the next frame.
It also checks that lao-server and lao-client reject malformed numeric
flags with exit 2 and the usage line.

Usage: lao_opt_cli_test.py <lao-opt> <lao-server> <lao-client> (ctest
passes them); stdlib only.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

LAO_OPT = LAO_SERVER = LAO_CLIENT = None
INPUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "lao_opt_input.lai")
FULL_RUN = ["--ssa", "--ifconvert", "--pipeline=Lphi,ABI+C", "--regalloc"]
OLD_KEYS = ["input", "pipeline", "moves", "weighted_moves", "seconds",
            "per_pass_seconds", "counters"]
SECTIONS = ["per_pass_seconds", "ifconvert", "interference", "coalesce",
            "regalloc"]


def run(binary, *args):
    return subprocess.run([binary, *args], capture_output=True, text=True,
                          stdin=subprocess.DEVNULL, timeout=60)


def lao_opt(*args):
    return run(LAO_OPT, *args)


def serve(bodies):
    """Sends each body as one REQ frame to a one-worker lao-server over
    its stdin/stdout and returns the (record, IR) pairs it answered."""
    frames = b""
    for k, body in enumerate(bodies, 1):
        data = body.encode()
        frames += b"LAO1 REQ %d %d\n" % (k, len(data)) + data + b"\n"
    proc = subprocess.run([LAO_SERVER, "--workers=1"], input=frames,
                          capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    out, answers = proc.stdout, []
    while out:
        header, out = out.split(b"\n", 1)
        size = int(header.split()[3])
        record, ir = out[:size].decode().split("\n\n", 1)
        answers.append((json.loads(record), ir))
        out = out[size + 1:]
    return answers


AFTER_RET = "func @f {\nentry:\n  input %a\n  ret %a\n  output %a\n}\n"
UNDEFINED = "func @f {\nentry:\n  input %a\n  %b = add %u, %u\n  ret %b\n}\n"
NO_BLOCKS = "func @f {\n}\n"


def diamond(join):
    return ("func @f {\nentry:\n  input %a\n  branch %a, t, e\nt:\n"
            "  %x1 = addi %a, 1\n  jump j\ne:\n  %x2 = make 2\n  jump j\n"
            "j:\n" + join + "  ret %x\n}\n")


MALFORMED_PHIS = [
    (diamond("  %y = make 3\n  %x = phi [%x1, t], [%x2, e]\n"),
     "block j: phi after non-phi instruction"),
    (diamond("  %x = phi [%x1, t]\n"),
     "block j: phi has 1 incoming, block has 2 preds"),
    (diamond("  %x = phi [%x1, t], [%x2, entry]\n"),
     "block j: phi incoming entry is not a predecessor"),
    (diamond("  %x = phi [%x1, t], [%x2, t]\n"),
     "block j: phi lists pred t twice"),
    ("func @f {\nentry:\n  %x = phi [%y, loop]\n  jump loop\nloop:\n"
     "  %y = make 1\n  branch %y, entry, out\nout:\n  ret %x\n}\n",
     "entry block must not contain phis"),
]


class LaoOptCli(unittest.TestCase):
    def run_json(self, *args):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "stats.json")
            proc = lao_opt(*args, "--stats=" + path, INPUT)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            with open(path) as f:
                return json.load(f)

    def test_text_report_has_every_section(self):
        proc = lao_opt(*FULL_RUN, "--stats", "--run", "5,9", INPUT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("(matches input program: yes)", proc.stdout)
        for section in ["run"] + SECTIONS + ["counters"]:
            self.assertIn("=== %s ===" % section, proc.stderr)
        # Numbers that are registry counters appear only as counters.
        for line in ["moves", "weighted_moves", "seconds", "coalesce",
                     "size_1", "size_3_4", "round_1_merges",
                     "peak_worklist_depth", "diamonds", "regs_used",
                     "classinterf.cache_hits", "classinterf.probes",
                     "coalesce.rounds", "coalesce.worklist_pushes",
                     "regalloc.rounds", "translate.phi_copies",
                     "translate.pin_copies"]:
            self.assertRegex(proc.stderr, r"\n +\S+  %s\n" % line)

    def test_json_report_keeps_old_keys_and_adds_sections(self):
        doc = self.run_json(*FULL_RUN)
        for key in OLD_KEYS + SECTIONS:
            self.assertIn(key, doc)
        self.assertEqual(doc["input"], INPUT)
        self.assertEqual(doc["pipeline"], "Lphi,ABI+C")
        self.assertIn("coalesce", doc["per_pass_seconds"])
        self.assertAlmostEqual(doc["seconds"],
                               sum(doc["per_pass_seconds"].values()))
        interference = doc["interference"]
        self.assertEqual(interference["classes"],
                         sum(v for k, v in interference.items()
                             if k.startswith("size_")))
        counters = doc["counters"]
        rounds = [v for k, v in doc["coalesce"].items()
                  if k.startswith("round_")]
        self.assertEqual(len(rounds), counters["coalesce.rounds"])
        self.assertEqual(sum(rounds), counters["coalesce.merges"])
        self.assertGreater(doc["coalesce"]["peak_worklist_depth"], 0)
        self.assertEqual(doc["ifconvert"]["diamonds"], 1)
        self.assertEqual(doc["regalloc"]["num_regs"], 12)
        for key in ["translate.phi_copies", "classinterf.queries",
                    "regalloc.runs"]:
            self.assertIn(key, counters)

    def test_regalloc_without_pipeline_writes_report(self):
        # Allocation needs non-SSA code, and the input is: no --ssa here.
        doc = self.run_json("--regalloc=chordal", "--regalloc-regs=8")
        for key in OLD_KEYS + ["regalloc"]:
            self.assertIn(key, doc)
        self.assertEqual(doc["pipeline"], "none")
        self.assertEqual(doc["regalloc"]["allocator"], "chordal")
        self.assertEqual(doc["regalloc"]["num_regs"], 8)
        self.assertIn("regalloc", doc["per_pass_seconds"])
        self.assertNotIn("interference", doc)

    def test_out_of_range_regalloc_regs_exits_1(self):
        # The pool holds 2..12 registers: a count outside that range is
        # the job's parse error, never a silently narrowed or capped pool.
        # (lao-opt's flag parser already exits 2 above 2^32-1; the wire
        # takes any 64-bit count.)
        for regs in ["1", "13", "100"]:
            proc = lao_opt("--regalloc", "--regalloc-regs=" + regs, INPUT)
            self.assertEqual(proc.returncode, 1, regs)
            self.assertEqual(proc.stderr,
                             "regalloc_regs must be 2..12, got %s\n" % regs)
        with open(INPUT) as f:
            text = f.read()
        [(record, ir)] = serve(["regalloc: chaitin-briggs\n"
                                "regalloc_regs: 4294967304\n\n" + text])
        self.assertEqual(record["outcome"], "parse_error")
        self.assertEqual(ir, "")
        doc = self.run_json("--regalloc=chordal", "--regalloc-regs=12")
        self.assertEqual(doc["regalloc"]["num_regs"], 12)

    def test_removed_flags_and_malformed_numbers_exit_2(self):
        for bad in [["--timing-json=x.json"], ["--coalesce-stats"],
                    ["--interference-stats"], ["--stats="],
                    ["--regalloc-regs=8x"], ["--regalloc-regs=-1"],
                    ["--regalloc-regs=99999999999"], ["--run", "5,zz"],
                    ["--run=-1"], ["--run=0x10"]]:
            proc = lao_opt(*bad, INPUT)
            self.assertEqual(proc.returncode, 2, bad)
            self.assertIn("usage:", proc.stderr, bad)

    def test_server_and_client_reject_malformed_numbers(self):
        # strtoull would read "lots" as 0, "-1" as 2^64-1 and "8x" as 8.
        for flag in ["--workers", "--max-body-bytes",
                     "--default-deadline-ms", "--max-inflight"]:
            for value in ["lots", "-1", "8x", ""]:
                proc = run(LAO_SERVER, "%s=%s" % (flag, value))
                self.assertEqual(proc.returncode, 2, (flag, value))
                self.assertIn("usage:", proc.stderr)
        for flag in ["--batch", "--max-body-bytes", "--deadline-ms",
                     "--regalloc-regs"]:
            for value in ["lots", "-1", "8x", ""]:
                proc = run(LAO_CLIENT, "--server=unused",
                           "%s=%s" % (flag, value), INPUT)
                self.assertEqual(proc.returncode, 2, (flag, value))
                self.assertIn("usage:", proc.stderr)

    def test_lao_opt_and_server_agree(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "stats.json")
            proc = lao_opt("--ssa", "--pipeline=Lphi,ABI+C",
                           "--regalloc=chordal/load-store-opt",
                           "--regalloc-regs=8", "--run", "5,9",
                           "--exec=both", "--stats=" + path, INPUT)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            with open(path) as f:
                doc = json.load(f)
        with open(INPUT) as f:
            text = f.read()
        [(record, ir)] = serve(["pipeline: Lphi,ABI+C\nssa: 1\n"
                                "regalloc: chordal/load-store-opt\n"
                                "regalloc_regs: 8\nexec: both\n"
                                "exec_args: 5,9\n\n" + text])
        self.assertTrue(record["ok"], record)
        ir_text, run_line = proc.stdout.rsplit("; run:", 1)
        self.assertEqual(ir, ir_text)
        self.assertEqual(record["moves"], doc["moves"])
        self.assertEqual(record["weighted_moves"], doc["weighted_moves"])
        self.assertEqual(record["regs_used"], doc["regalloc"]["regs_used"])
        self.assertEqual(record["spills"],
                         doc["counters"].get("regalloc.spilled_values", 0))
        agree = re.search(r"vm (\d+) instrs / (\d+) moves", proc.stderr)
        self.assertEqual([record["dyn_instrs"], record["dyn_moves"]],
                         [int(agree.group(1)), int(agree.group(2))])
        outs = " ".join("out=%d" % v for v in record["exec_outputs"])
        self.assertTrue(run_line.startswith(
            " %s ret=%d (matches input program: yes)"
            % (outs, record["exec_ret"])), run_line)

    def test_abort_inputs_exit_1_with_the_job_error(self):
        expected = [
            "parse error: line 5: instruction after the terminator of "
            "block 'entry'",
            "ssa error: %u is used but never defined; the pipeline needs "
            "SSA input"]
        answers = serve(["pipeline: Lphi,ABI+C\n\n" + text
                         for text in [AFTER_RET, UNDEFINED]])
        for text, error, (record, ir) in zip([AFTER_RET, UNDEFINED],
                                             expected, answers):
            proc = subprocess.run([LAO_OPT, "--pipeline=Lphi,ABI+C", "-"],
                                  input=text, capture_output=True,
                                  text=True, timeout=60)
            self.assertEqual(proc.returncode, 1, proc.stderr)
            self.assertEqual(proc.stderr, error + "\n")
            self.assertEqual(record["outcome"], "parse_error")
            self.assertEqual(record["error"], error)
            self.assertEqual(ir, "")

    def test_malformed_phis_exit_1(self):
        good = "func @g {\nentry:\n  input %a\n  ret %a\n}\n"
        answers = serve(["pipeline: Lphi,ABI+C\n\n" + text
                         for text, _ in MALFORMED_PHIS + [(good, "")]])
        self.assertEqual(len(answers), len(MALFORMED_PHIS) + 1)
        for (text, error), (record, ir) in zip(MALFORMED_PHIS, answers):
            # --ifconvert reads the join phis before any pipeline runs: it
            # gets the same entry check (it used to abort on these).
            for args in (["--pipeline=Lphi,ABI+C"], ["--ifconvert"]):
                proc = subprocess.run([LAO_OPT, *args, "-"], input=text,
                                      capture_output=True, text=True,
                                      timeout=60)
                self.assertEqual(proc.returncode, 1, (args, proc.stderr))
                self.assertEqual(proc.stderr, "ssa error: " + error + "\n")
            self.assertEqual(record["outcome"], "parse_error")
            self.assertEqual(record["error"], "ssa error: " + error)
            self.assertEqual(ir, "")
        self.assertTrue(answers[-1][0]["ok"], answers[-1][0])

    def test_function_without_blocks_exits_1(self):
        # It reached Function::entry()'s assertion under --ssa and --run.
        error = "parse error: line 1: function '@f' has no blocks"
        for args in (["--ssa"], ["--run", "1"], ["--pipeline=Lphi,ABI+C"]):
            proc = subprocess.run([LAO_OPT, *args, "-"], input=NO_BLOCKS,
                                  capture_output=True, text=True, timeout=60)
            self.assertEqual(proc.returncode, 1, (args, proc.stderr))
            self.assertEqual(proc.stderr, error + "\n", args)
        (record, ir), = serve(["ssa: 1\n\n" + NO_BLOCKS])
        self.assertEqual(record["outcome"], "parse_error")
        self.assertEqual(record["error"], error)
        self.assertEqual(ir, "")

    def test_text_outside_the_function_exits_1(self):
        body = "func @a {\nentry:\n  input %x\n  ret %x\n}\n"
        cases = [
            ("hello world\n" + body,
             "line 1: unexpected text before 'func @name {'"),
            (body + "late:\n",
             "line 6: unexpected text after the function's closing '}'"),
        ]
        for text, error in cases:
            proc = subprocess.run([LAO_OPT, "-"], input=text,
                                  capture_output=True, text=True, timeout=60)
            self.assertEqual(proc.returncode, 1, proc.stderr)
            self.assertEqual(proc.stderr, "parse error: " + error + "\n")

    def test_def_on_a_no_def_opcode_exits_1(self):
        # The def used to be dropped in silence and the run exited 0.
        text = ("func @f {\nentry:\n  input %a\n  %x = store %a, %a\n"
                "  ret %a\n}\n")
        proc = subprocess.run([LAO_OPT, "-"], input=text,
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertEqual(proc.stderr,
                         "parse error: line 4: store takes no def operand\n")

    def test_selftest_fails_when_a_reference_fails(self):
        # A one-register pool fails every reference job; the selftest
        # must fail rather than check no function at all.
        proc = run(LAO_CLIENT, "--server=%s --workers=1" % LAO_SERVER,
                   "--regalloc=chaitin-briggs", "--regalloc-regs=1",
                   "--selftest")
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("regalloc_regs must be 2..12, got 1", proc.stderr)

    def test_regalloc_on_phis_exits_1(self):
        proc = lao_opt("--ssa", "--regalloc", INPUT)
        self.assertEqual(proc.returncode, 1, proc.stderr)
        self.assertIn("run an out-of-SSA pipeline first", proc.stderr)


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    LAO_OPT, LAO_SERVER, LAO_CLIENT = sys.argv[1:]
    unittest.main(argv=sys.argv[:1])
