//===- lao-opt.cpp - Command-line driver ----------------------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Reads a mini-LAI function from a file (or stdin with "-"), runs the
// requested passes, and prints the result. A miniature of the original
// LAO tool's command line.
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
//     --regalloc-regs=N   size of the allocatable pool (default 12)
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
//                         per-phase seconds, class-size histogram,
//                         coalescer rounds, regalloc and if-conversion
//                         summaries, counter delta) as aligned text on
//                         stderr, or as JSON in <file>
//                         (docs/OBSERVABILITY.md)
//
// A malformed option, a number included, exits 2 with the usage line.
//
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"
#include "exec/VM.h"
#include "ir/Clone.h"
#include "ir/DotExport.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "outofssa/MoveStats.h"
#include "outofssa/Pipeline.h"
#include "regalloc/RegAlloc.h"
#include "ssa/IfConversion.h"
#include "ssa/SSAVerifier.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/StringUtils.h"
#include "support/Timer.h"
#include "workloads/Suites.h"

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
  bool BuildSSA = false;
  bool IfConvert = false;
  std::string Pipeline;
  bool RegAlloc = false;
  RegAllocOptions RegAllocOpts;
  bool Dot = false;
  bool Verify = false;
  bool Stats = false;
  std::string StatsFile; ///< --stats=<file>: JSON there, not text.
  std::vector<uint64_t> RunArgs;
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
  for (int K = 1; K < Argc; ++K) {
    std::string A = Argv[K];
    uint64_t V = 0;
    bool Ok = true;
    if (A == "--ssa") {
      Opts.BuildSSA = true;
    } else if (A == "--ifconvert") {
      Opts.IfConvert = true;
    } else if (A.rfind("--pipeline=", 0) == 0) {
      Opts.Pipeline = A.substr(std::strlen("--pipeline="));
    } else if (A == "--regalloc") {
      Opts.RegAlloc = true;
    } else if (A.rfind("--regalloc=", 0) == 0) {
      Opts.RegAlloc = true;
      std::string Value = A.substr(std::strlen("--regalloc="));
      std::optional<RegAllocOptions> RA = regAllocPresetOpt(Value);
      if (!RA) {
        std::fprintf(stderr,
                     "unknown regalloc preset '%s' (want "
                     "<allocator>[/<spill-model>], see "
                     "regalloc/RegAlloc.h)\n",
                     Value.c_str());
        return false;
      }
      unsigned NumRegs = Opts.RegAllocOpts.NumRegs;
      Opts.RegAllocOpts = *RA;
      Opts.RegAllocOpts.NumRegs = NumRegs; // --regalloc-regs may precede.
    } else if (A.rfind("--regalloc-regs=", 0) == 0) {
      Ok = parseU64(A.substr(std::strlen("--regalloc-regs=")), V, UINT_MAX);
      Opts.RegAllocOpts.NumRegs = static_cast<unsigned>(V);
    } else if (A == "--run" || A.rfind("--run=", 0) == 0) {
      Opts.Run = true;
      std::string List = A == "--run" ? (K + 1 < Argc ? Argv[++K] : "")
                                      : A.substr(std::strlen("--run="));
      Ok = parseU64List(List, Opts.RunArgs);
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
      Opts.Verify = true;
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

  std::string Error;
  auto F = parseFunction(Text, &Error);
  if (!F) {
    std::fprintf(stderr, "parse error: %s\n", Error.c_str());
    return 1;
  }

  if (Opts.Verify) {
    for (const std::string &D : verifyStructure(*F))
      std::fprintf(stderr, "structure: %s\n", D.c_str());
    for (const std::string &D : verifyPinning(*F))
      std::fprintf(stderr, "pinning: %s\n", D.c_str());
  }

  std::unique_ptr<Function> Reference; // Pre-transform, for --run.
  if (Opts.Run)
    Reference = cloneFunction(*F);

  if (Opts.BuildSSA) {
    if (!normalizeToOptimizedSSA(*F, &Error)) {
      std::fprintf(stderr, "ssa error: %s\n", Error.c_str());
      return 1;
    }
    if (Opts.Verify)
      for (const std::string &D : verifySSA(*F))
        std::fprintf(stderr, "ssa: %s\n", D.c_str());
  }
  StatsReport Rep; // "run" and "per_pass_seconds" go first at the end.
  if (Opts.IfConvert) {
    IfConversionStats S = convertIfsToPsi(*F);
    Rep.Sections.push_back(
        {"ifconvert",
         {{"diamonds", uint64_t{S.NumDiamondsConverted}},
          {"triangles", uint64_t{S.NumTrianglesConverted}},
          {"psis", uint64_t{S.NumPsisCreated}}}});
  }
  TimerGroup Timings;
  unsigned Moves = 0;
  uint64_t WeightedMoves = 0;
  if (!Opts.Pipeline.empty()) {
    std::optional<PipelineConfig> Config = pipelinePresetOpt(Opts.Pipeline);
    if (!Config) {
      std::fprintf(stderr,
                   "unknown pipeline preset '%s' (see outofssa/Pipeline.h "
                   "for the Table 1 names)\n",
                   Opts.Pipeline.c_str());
      return 1;
    }
    PipelineResult R = runPipeline(*F, *Config);
    if (!R.InputError.empty()) {
      std::fprintf(stderr, "ssa error: %s\n", R.InputError.c_str());
      return 1;
    }
    Timings = R.Timings;
    Moves = R.NumMoves;
    WeightedMoves = R.WeightedMoves;
    // The cache and probe numbers are classinterf.* counters.
    const uint64_t *Hist = R.Interference.SizeHist;
    Rep.Sections.push_back({"interference",
                            {{"classes", R.Interference.NumClasses},
                             {"size_1", Hist[0]},
                             {"size_2", Hist[1]},
                             {"size_3_4", Hist[2]},
                             {"size_5_8", Hist[3]},
                             {"size_9_16", Hist[4]},
                             {"size_ge17", Hist[5]}}});
    // Rounds, merges and worklist traffic are coalesce.* counters.
    if (Config->Coalesce) {
      ReportFields &C = Rep.Sections.emplace_back("coalesce", ReportFields())
                            .second;
      C.emplace_back("peak_worklist_depth",
                     uint64_t{R.Coalescer.MaxWorklistDepth});
      for (size_t K = 0; K < R.Coalescer.RoundMerges.size(); ++K)
        C.emplace_back(formatStr("round_%zu_merges", K + 1),
                       uint64_t{R.Coalescer.RoundMerges[K]});
    }
  } else if (Opts.Stats) {
    Moves = countMoves(*F);
    WeightedMoves = weightedMoveCount(*F);
  }
  if (Opts.RegAlloc) {
    RegAllocResult R;
    {
      ScopedTimer T(Timings, "regalloc");
      R = allocateRegisters(*F, Opts.RegAllocOpts);
    }
    if (!R.Ok) {
      std::fprintf(stderr, "regalloc failed: %s\n", R.Error.c_str());
      return 1;
    }
    // Rounds, spills and spill code are regalloc.* counters.
    Rep.Sections.push_back(
        {"regalloc",
         {{"allocator", allocatorName(Opts.RegAllocOpts.Allocator)},
          {"spill_model", spillModelName(Opts.RegAllocOpts.SpillMode)},
          {"num_regs", uint64_t{Opts.RegAllocOpts.NumRegs}},
          {"regs_used", uint64_t{R.NumRegsUsed}},
          {"frame_bytes", uint64_t{R.FrameBytes}}}});
  }

  if (Opts.Dot)
    std::printf("%s", exportDot(*F).c_str());
  else
    std::printf("%s", printFunction(*F).c_str());

  if (Opts.Run) {
    ExecResult Ref = interpret(*Reference, Opts.RunArgs);
    ExecResult Res = Opts.Exec == "vm" ? executeVM(*F, Opts.RunArgs)
                                       : interpret(*F, Opts.RunArgs);
    if (Opts.Exec == "both") {
      // In-process differential check: the VM must reproduce the
      // interpreter's outcome on the transformed program exactly.
      ExecResult Vm = executeVM(*F, Opts.RunArgs);
      if (!Res.sameOutcome(Vm)) {
        std::fprintf(stderr,
                     "exec divergence: interp {status=%d ret=%llu "
                     "outputs=%zu error=%s} vm {status=%d ret=%llu "
                     "outputs=%zu error=%s}\n",
                     static_cast<int>(Res.Status),
                     static_cast<unsigned long long>(Res.RetValue),
                     Res.Outputs.size(), Res.Error.c_str(),
                     static_cast<int>(Vm.Status),
                     static_cast<unsigned long long>(Vm.RetValue),
                     Vm.Outputs.size(), Vm.Error.c_str());
        return 1;
      }
      std::fprintf(stderr,
                   "exec both: engines agree (interp %llu steps, vm %llu "
                   "instrs / %llu moves)\n",
                   static_cast<unsigned long long>(Res.Steps),
                   static_cast<unsigned long long>(Vm.Steps),
                   static_cast<unsigned long long>(Vm.DynMoves));
    }
    if (!Res.ok()) {
      std::fprintf(stderr, "run error%s: %s\n",
                   Res.timedOut() ? " (timeout)" : "", Res.Error.c_str());
      return 1;
    }
    std::printf("; run:");
    for (uint64_t V : Res.Outputs)
      std::printf(" out=%llu", static_cast<unsigned long long>(V));
    std::printf(" ret=%llu", static_cast<unsigned long long>(Res.RetValue));
    if (Ref.ok())
      std::printf(" (matches input program: %s)",
                  Ref.sameObservable(Res) ? "yes" : "NO");
    std::printf("\n");
  }

  if (!Opts.Stats)
    return 0;
  ReportFields Phases;
  for (const auto &[Phase, Seconds] : Timings.entries())
    Phases.emplace_back(Phase, Seconds);
  Rep.Sections.insert(
      Rep.Sections.begin(),
      {{"run",
        {{"input", Opts.InputPath},
         {"pipeline", Opts.Pipeline.empty() ? "none" : Opts.Pipeline},
         {"moves", uint64_t{Moves}},
         {"weighted_moves", WeightedMoves},
         {"seconds", Timings.total()}}},
       {"per_pass_seconds", std::move(Phases)}});
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
