//===- lao-opt.cpp - Command-line driver ----------------------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Reads a mini-LAI function from a file (or stdin with "-"), runs the
// requested passes as one compile job (driver/CompileJob.h, as the
// server does), and prints the result. A miniature of the original LAO
// tool's command line.
//
//   lao-opt [options] <file.lai|->
//     --ssa               build optimized pruned SSA first (for non-SSA
//                         input; a phi, or a use not defined on every
//                         path from the entry, is an error: exit 1)
//     --ifconvert         if-convert diamonds to psi (implies --ssa input)
//     --pipeline=<name>   run an out-of-SSA preset (e.g. Lphi,ABI+C; see
//                         Pipeline.h; default: none)
//     --regalloc[=<preset>]
//                         allocate registers afterwards. The preset is
//                         "<allocator>[/<spill-model>]" (see
//                         regalloc/RegAlloc.h), e.g. chordal or
//                         chaitin-briggs/load-store-opt; no value means
//                         the default chaitin-briggs/spill-everywhere.
//                         Code with phis or parallel copies (run a
//                         pipeline first) is an error: exit 1
//     --regalloc-regs=N   size of the allocatable pool, 2..12 (0 or
//                         absent: 12); any other N is an error: exit 1
//     --run a,b,...       execute with the given decimal arguments and
//                         print the trace
//     --exec=<engine>     engine for --run: interp (tree-walk, default),
//                         vm (threaded-dispatch bytecode), or both —
//                         which runs the two engines as an in-process
//                         differential check and fails on divergence
//                         (docs/EXEC.md)
//     --dot               print the CFG as Graphviz instead of text
//     --verify            print structural/pinning/SSA diagnostics
//     --stats[=<file>]    report the run (moves, weighted moves, seconds,
//                         per-phase seconds, regalloc summary, and the
//                         counter delta, which holds every pass's counts)
//                         as aligned text on stderr, or as JSON in <file>
//                         (docs/OBSERVABILITY.md)
//
// A malformed option, a number included, exits 2 with the usage line.
//
//===----------------------------------------------------------------------===//

#include "driver/CompileJob.h"
#include "ir/DotExport.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/StringUtils.h"

#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

using namespace lao;

namespace {

struct Options {
  RequestOptions Job; ///< Pipeline empty = no pipeline; Exec set by --run.
  bool Dot = false;
  bool Stats = false;
  std::string StatsFile; ///< --stats=<file>: JSON there, not text.
  bool Run = false;
  std::string Exec = "interp"; ///< --run engine: interp, vm, or both.
  std::string InputPath;
};

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--ssa] [--ifconvert] [--pipeline=<preset>] "
      "[--regalloc[=<preset>]] [--regalloc-regs=N] [--run a,b,...] "
      "[--exec=vm|interp|both] [--dot] [--verify] [--stats[=<file>]] "
      "<file.lai|->\n",
      Argv0);
  return 2;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  Opts.Job.Pipeline.clear(); // No pipeline unless --pipeline names one.
  for (int K = 1; K < Argc; ++K) {
    std::string A = Argv[K];
    bool Ok = true;
    if (A == "--ssa") {
      Opts.Job.BuildSSA = true;
    } else if (A == "--ifconvert") {
      Opts.Job.IfConvert = true;
    } else if (A.rfind("--pipeline=", 0) == 0) {
      Opts.Job.Pipeline = A.substr(std::strlen("--pipeline="));
    } else if (A == "--regalloc") {
      if (Opts.Job.RegAlloc.empty())
        Opts.Job.RegAlloc = "chaitin-briggs";
    } else if (A.rfind("--regalloc=", 0) == 0) {
      Opts.Job.RegAlloc = A.substr(std::strlen("--regalloc="));
      if (!regAllocPresetOpt(Opts.Job.RegAlloc)) {
        std::fprintf(stderr,
                     "unknown regalloc preset '%s' (want "
                     "<allocator>[/<spill-model>], see "
                     "regalloc/RegAlloc.h)\n",
                     Opts.Job.RegAlloc.c_str());
        return false;
      }
    } else if (A.rfind("--regalloc-regs=", 0) == 0) {
      Ok = parseU64(A.substr(std::strlen("--regalloc-regs=")),
                    Opts.Job.RegAllocRegs, UINT_MAX);
    } else if (A == "--run" || A.rfind("--run=", 0) == 0) {
      Opts.Run = true;
      std::string List = A == "--run" ? (K + 1 < Argc ? Argv[++K] : "")
                                      : A.substr(std::strlen("--run="));
      Ok = parseU64List(List, Opts.Job.ExecArgs);
    } else if (A.rfind("--exec=", 0) == 0) {
      Opts.Exec = A.substr(std::strlen("--exec="));
      if (Opts.Exec != "vm" && Opts.Exec != "interp" && Opts.Exec != "both") {
        std::fprintf(stderr, "unknown exec engine '%s' (want vm, interp, "
                             "or both)\n",
                     Opts.Exec.c_str());
        return false;
      }
    } else if (A == "--dot") {
      Opts.Dot = true;
    } else if (A == "--verify") {
      Opts.Job.Verify = true;
    } else if (A == "--stats") {
      Opts.Stats = true;
    } else if (A.rfind("--stats=", 0) == 0 && A.size() > 8) {
      Opts.Stats = true;
      Opts.StatsFile = A.substr(std::strlen("--stats="));
    } else if (!A.empty() && A[0] == '-' && A != "-") {
      std::fprintf(stderr, "unknown option '%s'\n", A.c_str());
      return false;
    } else {
      Opts.InputPath = A;
    }
    if (!Ok) {
      std::fprintf(stderr, "'%s' wants decimal numbers\n", A.c_str());
      return false;
    }
  }
  if (Opts.Run)
    Opts.Job.Exec = Opts.Exec;
  return !Opts.InputPath.empty();
}

using ReportValue = std::variant<uint64_t, double, std::string>;
using ReportFields = std::vector<std::pair<std::string, ReportValue>>;

/// The --stats report: sections of fields (the "run" section first),
/// then the counter delta. The text and the JSON form render the same
/// fields, so each section is written once. A number that is already a
/// registry counter appears only among the counters.
struct StatsReport {
  std::vector<std::pair<std::string, ReportFields>> Sections;
  StatsSnapshot Counters;
};

void printReport(const StatsReport &Rep) {
  for (const auto &[Name, Fields] : Rep.Sections) {
    std::fprintf(stderr, "=== %s ===\n", Name.c_str());
    for (const auto &[Key, V] : Fields) {
      std::string Text;
      if (const auto *U = std::get_if<uint64_t>(&V))
        Text = std::to_string(*U);
      else if (const auto *D = std::get_if<double>(&V))
        Text = formatStr("%.6f", *D);
      else
        Text = std::get<std::string>(V);
      std::fprintf(stderr, "%12s  %s\n", Text.c_str(), Key.c_str());
    }
  }
  printSnapshot(stderr, "counters", Rep.Counters);
}

/// The "run" fields are top-level keys, every other section an object.
std::string reportJson(const StatsReport &Rep) {
  JsonWriter W;
  W.beginObject();
  for (const auto &[Name, Fields] : Rep.Sections) {
    if (Name != "run")
      W.key(Name).beginObject();
    for (const auto &[Key, V] : Fields)
      std::visit([&W, &Key](const auto &X) { W.key(Key).value(X); }, V);
    if (Name != "run")
      W.endObject();
  }
  W.key("counters").beginObject();
  for (const auto &[Key, Value] : Rep.Counters)
    W.key(Key).value(Value);
  W.endObject();
  W.endObject();
  return W.take();
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(Argv[0]);
  StatsSnapshot Before = StatsRegistry::instance().snapshot();

  std::string Text;
  if (Opts.InputPath == "-") {
    std::stringstream SS;
    SS << std::cin.rdbuf();
    Text = SS.str();
  } else {
    std::ifstream In(Opts.InputPath);
    if (!In) {
      std::fprintf(stderr, "cannot open '%s'\n", Opts.InputPath.c_str());
      return 1;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Text = SS.str();
  }

  // The untransformed input, for --verify and the --run reference.
  std::unique_ptr<Function> Input =
      Opts.Job.Verify || Opts.Run ? parseFunction(Text) : nullptr;
  if (Input && Opts.Job.Verify) {
    for (const std::string &D : verifyStructure(*Input))
      std::fprintf(stderr, "structure: %s\n", D.c_str());
    for (const std::string &D : verifyPinning(*Input))
      std::fprintf(stderr, "pinning: %s\n", D.c_str());
  }
  WorkerContext Ctx;
  CompileOutcome Out = runCompileJob(Text, Opts.Job, Ctx);
  for (const std::string &D : Out.Diagnostics)
    std::fprintf(stderr, "%s\n", D.c_str());
  if (!Out.ok()) {
    std::fprintf(stderr, "%s\n", Out.Error.c_str());
    return 1;
  }

  if (Opts.Dot)
    std::printf("%s", exportDot(*Ctx.F).c_str());
  else
    std::printf("%s", Out.IR.c_str());

  if (Opts.Run) {
    if (Opts.Exec == "both")
      std::fprintf(stderr,
                   "exec both: engines agree (interp %llu steps, vm %llu "
                   "instrs / %llu moves)\n",
                   static_cast<unsigned long long>(Out.InterpSteps),
                   static_cast<unsigned long long>(Out.DynInstrs),
                   static_cast<unsigned long long>(Out.DynMoves));
    if (Out.ExecStatus != "ok") {
      std::fprintf(stderr, "run error%s: %s\n",
                   Out.ExecStatus == "timeout" ? " (timeout)" : "",
                   Out.ExecError.c_str());
      return 1;
    }
    std::printf("; run:");
    for (uint64_t V : Out.ExecOutputs)
      std::printf(" out=%llu", static_cast<unsigned long long>(V));
    std::printf(" ret=%llu", static_cast<unsigned long long>(Out.ExecRet));
    ExecResult Ref = interpret(*Input, Opts.Job.ExecArgs);
    bool Same = Ref.Outputs == Out.ExecOutputs && Ref.RetValue == Out.ExecRet;
    if (Ref.ok())
      std::printf(" (matches input program: %s)", Same ? "yes" : "NO");
    std::printf("\n");
  }

  if (!Opts.Stats)
    return 0;
  StatsReport Rep;
  ReportFields Phases;
  for (const auto &[Phase, Seconds] : Out.Timings.entries())
    Phases.emplace_back(Phase, Seconds);
  Rep.Sections = {
      {"run",
       {{"input", Opts.InputPath},
        {"pipeline", Opts.Job.Pipeline.empty() ? "none" : Opts.Job.Pipeline},
        {"moves", uint64_t{Out.Moves}},
        {"weighted_moves", Out.WeightedMoves},
        {"seconds", Out.Timings.total()}}},
      {"per_pass_seconds", std::move(Phases)}};
  // Rounds, spills and spill code are regalloc.* counters.
  if (Out.HasRegAlloc)
    Rep.Sections.push_back({"regalloc",
                            {{"allocator", Out.Allocator},
                             {"spill_model", Out.SpillMode},
                             {"num_regs", uint64_t{Out.NumRegs}},
                             {"regs_used", uint64_t{Out.RegsUsed}},
                             {"frame_bytes", uint64_t{Out.FrameBytes}}}});
  Rep.Counters =
      StatsRegistry::delta(Before, StatsRegistry::instance().snapshot());
  if (Opts.StatsFile.empty()) {
    printReport(Rep);
    return 0;
  }
  if (std::FILE *Out = std::fopen(Opts.StatsFile.c_str(), "w")) {
    std::fprintf(Out, "%s\n", reportJson(Rep).c_str());
    if (std::fclose(Out) == 0)
      return 0;
  }
  std::fprintf(stderr, "cannot write '%s'\n", Opts.StatsFile.c_str());
  return 1;
}
