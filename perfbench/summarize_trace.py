#!/usr/bin/env python3
"""Per-layer metrics of lao from one lao_perfbench trace file.

The trace is Chrome trace-event JSON written by `lao_perfbench --trace 1`:

  pid 1  the serial traced replay of one pass. Every span carries args
         `id`, `parent` and `req`, plus counter deltas measured around it.
         Pipeline phases are children of `outofssa.pipeline`, with the
         durations runPipeline reported in PipelineResult::Timings.
  pid 2  the untraced pass of the same requests: `dur` is the untraced
         compile time (the record's `seconds` on the service workloads,
         the one-shot wall time on the ladder), with `latency_ms`.
  otherData  the workload, the server's in-flight high-water mark and
         its arena reuse counter for the untraced pass.

A span's self time is its duration minus its children's. An exponent is
the least-squares slope of log(self time) against log(input blocks) over
the ladder points; it is 0 on the service workloads, which have no ladder.

  python3 perfbench/summarize_trace.py TRACE

prints each layer's self ms, its share of the root spans and its ladder
exponent, then every per-layer metric. `metrics()` is what run.py reports.
"""

import argparse
import json
import math
import sys
from collections import defaultdict

LAYERS = ["server", "ir", "ssa", "analysis", "outofssa", "regalloc", "exec",
          "support"]
PHASES = ["split-critical-edges", "constraints", "pin-analysis",
          "phi-coalescing", "translate", "sequentialize", "naive-abi",
          "coalesce"]


def percentile(values, p):
    """Nearest-rank percentile, the definition lao_perfbench uses."""
    if not values:
        return 0.0
    v = sorted(values)
    rank = math.ceil(p / 100.0 * len(v))
    return v[min(max(rank, 1), len(v)) - 1]


def slope(points):
    """Least-squares slope of log(y) against log(x) over (x, y) > 0."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    if sxx == 0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


class Trace:
    def __init__(self, doc):
        self.info = doc.get("otherData", {})
        events = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        self.spans = {e["args"]["id"]: e for e in events if e["pid"] == 1}
        self.untraced = [e for e in events if e["pid"] == 2]
        child_us = defaultdict(float)
        for s in self.spans.values():
            if s["args"]["parent"] >= 0:
                child_us[s["args"]["parent"]] += s["dur"]
        self.self_us = {i: s["dur"] - child_us[i] for i, s in self.spans.items()}

    def named(self, name):
        return [s for s in self.spans.values() if s["name"] == name]

    def self_ms(self, name, where=lambda s: True):
        return sum(self.self_us[s["args"]["id"]] for s in self.named(name)
                   if where(s)) / 1000.0

    def arg_sum(self, name, key):
        return sum(s["args"].get(key, 0) for s in self.named(name))

    def compile_of(self, span):
        """The `compile` span a span belongs to, or the span itself when
        it is a root outside any compile (a service frame)."""
        while span["name"] != "compile" and span["args"]["parent"] >= 0:
            span = self.spans[span["args"]["parent"]]
        return span

    def roots(self):
        return [s for s in self.spans.values() if s["args"]["parent"] < 0]

    def exponent(self, select):
        """Ladder exponent of the self time of the spans `select` keeps;
        it gets each span and the `compile` span it belongs to."""
        if self.info.get("service", True):
            return 0.0
        by_blocks = defaultdict(float)
        for i, s in self.spans.items():
            c = self.compile_of(s)
            if select(s, c):
                by_blocks[c["args"]["blocks"]] += self.self_us[i]
        return slope(by_blocks.items())

    def span_exponent(self, name, config=None):
        """Ladder exponent of `name`, optionally only in compiles under
        one config label (lphi or naive)."""
        return self.exponent(lambda s, c: s["name"] == name and
                             (config is None or c["args"].get(config)))


def layer_of(name):
    prefix = name.split(".")[0]
    return prefix if prefix in LAYERS else None


def metrics(doc):
    """Every per-layer metric, as {name: (value, unit)}."""
    t = Trace(doc)
    service = t.info.get("service", True)
    m = {}

    # server: from the untraced pass's records, and the replay's codec.
    waits = [e["args"]["latency_ms"] - e["args"]["service_ms"]
             for e in t.untraced] if service else []
    svc = [e["args"]["service_ms"] for e in t.untraced] if service else []
    frames = len(t.named("frame"))
    m["server.wait_ms_p50"] = (percentile(waits, 50), "ms")
    m["server.wait_ms_p90"] = (percentile(waits, 90), "ms")
    m["server.service_ms_p50"] = (percentile(svc, 50), "ms")
    m["server.service_ms_p90"] = (percentile(svc, 90), "ms")
    m["server.decode_us_per_frame"] = (
        t.self_ms("server.decode") * 1000.0 / frames if frames else 0.0, "us")
    m["server.encode_us_per_frame"] = (
        t.self_ms("server.encode") * 1000.0 / frames if frames else 0.0, "us")
    m["server.max_inflight"] = (t.info.get("server.max_inflight", 0)
                                if service else 0, "count")
    m["server.arena_reuse_bytes"] = (
        t.info.get("server.arena_reuse_bytes", 0) if service else 0, "bytes")

    # ir
    parse_ms = t.self_ms("ir.parse")
    m["ir.parse.self_ms"] = (parse_ms, "ms")
    m["ir.parse.mb_per_s"] = (
        t.arg_sum("ir.parse", "bytes") / 1e6 / (parse_ms / 1000.0)
        if parse_ms else 0.0, "MB/s")
    m["ir.print.self_ms"] = (t.self_ms("ir.print"), "ms")
    m["ir.arena_bytes"] = (t.arg_sum("compile", "ir.arena_bytes"), "bytes")
    m["ir.instr_slots"] = (t.arg_sum("compile", "ir.instr_slots"), "count")

    # ssa
    m["ssa.normalize.self_ms"] = (t.self_ms("ssa.normalize"), "ms")
    m["ssa.normalize.exponent"] = (t.span_exponent("ssa.normalize"), "slope")

    # analysis: counters measured around each runPipeline call.
    def pipe(key):
        return t.arg_sum("outofssa.pipeline", key)

    m["analysis.liveness_analyses"] = (pipe("liveness.analyses"), "count")
    m["analysis.interference_graphs_built"] = (
        pipe("interference.graphs_built"), "count")
    m["analysis.liveness_var_solves"] = (pipe("liveness.var_solves"), "count")
    queries = pipe("classinterf.queries")
    m["analysis.classinterf_queries"] = (queries, "count")
    m["analysis.classinterf_hit_ratio"] = (
        pipe("classinterf.cache_hits") / queries if queries else 0.0, "ratio")

    # outofssa
    for phase in PHASES:
        m["outofssa.%s.self_ms" % phase] = (
            t.self_ms("outofssa." + phase), "ms")
    m["outofssa.pipeline.self_ms"] = (t.self_ms("outofssa.pipeline"), "ms")
    m["outofssa.pin-analysis.exponent"] = (
        t.span_exponent("outofssa.pin-analysis"), "slope")
    m["outofssa.phi-coalescing.exponent"] = (
        t.span_exponent("outofssa.phi-coalescing"), "slope")
    for phase in ("translate", "coalesce"):
        for config in ("lphi", "naive"):
            m["outofssa.%s.exponent.%s" % (phase, config)] = (
                t.span_exponent("outofssa." + phase, config), "slope")
    m["outofssa.phicoalesce_pair_queries"] = (
        pipe("phicoalesce.pair_queries"), "count")
    m["outofssa.translate_inserts"] = (pipe("translate.inserts"), "count")
    pops = pipe("coalesce.worklist_pops")
    m["outofssa.coalesce_merge_ratio"] = (
        pipe("coalesce.merges") / pops if pops else 0.0, "ratio")

    # regalloc
    ra_ms = t.self_ms("regalloc")
    rounds = t.arg_sum("regalloc", "regalloc.rounds")
    m["regalloc.self_ms"] = (ra_ms, "ms")
    for alloc in ("chaitin-briggs", "chordal"):
        m["regalloc.self_ms." + alloc] = (
            t.self_ms("regalloc", lambda s, a=alloc: s["args"].get(a)), "ms")
    m["regalloc.rounds"] = (rounds, "count")
    m["regalloc.ms_per_round"] = (ra_ms / rounds if rounds else 0.0, "ms")
    m["regalloc.spilled_values"] = (
        t.arg_sum("regalloc", "regalloc.spilled_values"), "count")
    m["regalloc.evictions"] = (
        t.arg_sum("regalloc", "regalloc.evictions"), "count")

    # exec
    vm_ms = t.self_ms("exec.vm")
    dyn = t.arg_sum("exec.vm", "dyn_instrs")
    m["exec.bytecode.self_ms"] = (t.self_ms("exec.bytecode"), "ms")
    m["exec.vm.self_ms"] = (vm_ms, "ms")
    m["exec.dyn_instrs"] = (dyn, "count")
    m["exec.vm.minstr_per_s"] = (
        dyn / 1e6 / (vm_ms / 1000.0) if vm_ms else 0.0, "Minstr/s")

    # The replay's compile spans against the untraced compile times.
    traced = sum(s["dur"] for s in t.named("compile"))
    untraced = sum(e["dur"] for e in t.untraced)
    m["trace.overhead_frac"] = (
        traced / untraced - 1.0 if untraced else 0.0, "frac")
    return m


def layer_table(doc):
    """Rows (layer, self ms, share of root total, ladder exponent)."""
    t = Trace(doc)
    root_us = sum(s["dur"] for s in t.roots())
    self_us = defaultdict(float)
    for i, s in t.spans.items():
        self_us[layer_of(s["name"]) or "bench"] += t.self_us[i]
    rows = []
    for layer in LAYERS + ["bench"]:
        if layer not in self_us:
            continue
        exp = t.exponent(
            lambda s, c, l=layer: (layer_of(s["name"]) or "bench") == l)
        rows.append((layer, self_us[layer] / 1000.0,
                     self_us[layer] / root_us if root_us else 0.0, exp))
    return rows


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("trace")
    args = ap.parse_args(argv)
    with open(args.trace) as f:
        doc = json.load(f)
    m = metrics(doc)
    info = doc.get("otherData", {})
    print("%s seed %s" % (info.get("workload"), info.get("seed")))
    print("%-10s %12s %8s %9s" % ("layer", "self ms", "share", "exponent"))
    for layer, ms, share, exp in layer_table(doc):
        print("%-10s %12.3f %7.1f%% %9.3f" % (layer, ms, share * 100, exp))
    print()
    for name, (value, unit) in m.items():
        print("%-40s %16.6g %s" % (name, value, unit))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
