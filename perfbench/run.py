#!/usr/bin/env python3
"""lao's benchmark: builds lao_perfbench from source, runs one workload.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is suite_service, regalloc_batch or size_ladder (README.md in this
directory defines them). The lao libraries and lao_perfbench are built with
CMake into .bench_build/ at the root of the checkout; later runs rebuild
only what changed.

With --trace 0 lao_perfbench measures the end-to-end metrics; with --trace 1
it replays one pass under spans, writes .bench_build/traces/W-N.json, and
the per-layer metrics are read from that file by summarize_trace.py.
Either way the run checks every answer, prints a table, and ends with one
JSON line: {"correct", "attempted", "failed", "metrics"}, where metrics
holds the end_to_end (or per_layer) metrics named in BENCHMARK.json. The
exit code is 0 only when every answer was correct.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # Keep the checkout free of __pycache__.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lao_perfbench")
WORKLOADS = ("suite_service", "regalloc_batch", "size_ladder")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import summarize_trace  # noqa: E402

# The end-to-end metrics lao_perfbench measures, with units, and the workloads
# each applies to. Those in BENCHMARK.json are also reported in the JSON
# line; the others are zero or undefined on some workload, so they are
# shown and checked here only.
E2E = [
    ("fn_per_s", "1/s", WORKLOADS),
    ("blocks_per_s", "1/s", WORKLOADS),
    ("latency_p50_ms", "ms", WORKLOADS),
    ("latency_p90_ms", "ms", WORKLOADS),
    ("latency_p99_ms", "ms", ("suite_service",)),
    ("failed_frac", "frac", WORKLOADS),
    ("setup_s", "s", WORKLOADS),
    ("peak_rss_mb", "MB", WORKLOADS),
    ("moves", "count", WORKLOADS),
    ("weighted_moves", "count", WORKLOADS),
    ("spill_accesses", "count", ("regalloc_batch",)),
    ("dyn_moves", "count", ("suite_service",)),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds lao_perfbench; raises on failure. Both steps
    are incremental, so a built tree costs about a second."""
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, check=True, env=env,
                   timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD, "--target", "lao_perfbench",
                    "-j", jobs],
                   stdout=sys.stderr, check=True, env=env,
                   timeout=BUILD_TIMEOUT_S)


def run_binary(args, trace_file):
    """Runs lao_perfbench; returns (human lines, result dict or None)."""
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("lao_perfbench exited %d without a result" % proc.returncode)
        return lines, None
    return lines[:-1], result


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    trace_file = None
    if args.trace:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        trace_file = os.path.join(BUILD, "traces", "%s-%d.json" %
                                  (args.workload, args.seed))
    lines, result = run_binary(args, trace_file)
    for line in lines:
        print(line)
    if result is None:
        return 1

    if args.trace:
        with open(trace_file) as f:
            doc = json.load(f)
        for layer, ms, share, exp in summarize_trace.layer_table(doc):
            print("layer %-9s self %10.3f ms  %5.1f%% of root  exponent %.3f"
                  % (layer, ms, share * 100, exp))
        measured = {k: v for k, (v, _) in summarize_trace.metrics(doc).items()}
    else:
        measured = result["metrics"]
        print("samples %d" % result["samples"])
        for name, unit, applies in E2E:
            if args.workload in applies:
                print("%-16s %16.6f %s" % (name, measured[name], unit))

    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            log("metric %s was not measured" % m["name"])
            return 1
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, subprocess.SubprocessError) as e:
        log("run.py: %s" % e)
        sys.exit(1)
