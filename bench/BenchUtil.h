//===- BenchUtil.h - Shared bench-table machinery ---------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the bench binaries: suite caching, running a
/// pipeline configuration over a suite (serially or on a thread pool,
/// every result checked against the interpreter), printing paper-style
/// tables (first column absolute, remaining columns as +/- deltas,
/// exactly like Tables 2, 3 and 5 of the paper), the JSON output and the
/// one command-line option every binary takes.
///
/// Determinism: the parallel runOnSuite only parallelizes the per-function
/// pipeline executions; per-function results land in an index-addressed
/// vector and the SuiteTotals reduction folds them in suite order, so the
/// measurement fields (moves, weighted moves, merges, counters) are
/// bit-identical to the serial path — only the wall-clock fields differ
/// run to run. ObservabilityTests guards this.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_BENCH_BENCHUTIL_H
#define LAO_BENCH_BENCHUTIL_H

#include "exec/Interpreter.h"
#include "ir/Clone.h"
#include "outofssa/Pipeline.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "workloads/Generator.h"
#include "workloads/Suites.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace lao {
namespace bench {

/// Lazily built, cached copies of all suites.
inline const std::vector<std::pair<std::string, std::vector<Workload>>> &
suites() {
  static std::vector<std::pair<std::string, std::vector<Workload>>> Cache;
  if (Cache.empty())
    for (const SuiteSpec &Spec : allSuites())
      Cache.push_back({Spec.Name, Spec.Make()});
  return Cache;
}

/// One point of the generated scaling sweep bench_compiletime and
/// bench_exec share: \p Count functions of \p NumStatements top-level
/// statements each.
struct ScaleSpec {
  const char *Name;
  unsigned NumStatements;
  unsigned MaxNesting;
  unsigned Count;
};

constexpr ScaleSpec ScaleSweep[] = {
    {"scale_n40", 40, 2, 12},
    {"scale_n120", 120, 3, 8},
    {"scale_n320", 320, 3, 4},
    {"scale_n640", 640, 4, 2},
    {"scale_n1280", 1280, 4, 1},
};

/// Builds the suite for one sweep point: deterministic seeds, normalized
/// to the same optimized pruned SSA the named suites ship. No interpreter
/// inputs — callers that execute the sweep generate their own.
inline std::vector<Workload> makeScaleSuite(const ScaleSpec &Spec) {
  std::vector<Workload> Suite;
  for (unsigned I = 0; I < Spec.Count; ++I) {
    GeneratorParams P;
    P.Seed = 0x5CA1E000 + 7919 * I + Spec.NumStatements;
    P.NumStatements = Spec.NumStatements;
    P.MaxNesting = Spec.MaxNesting;
    P.CallPercent = 20; // ABI pressure grows the coalescer workload.
    Workload W;
    W.Name = std::string(Spec.Name) + "_f" + std::to_string(I);
    W.F = generateProgram(P, W.Name);
    normalizeToOptimizedSSA(*W.F);
    Suite.push_back(std::move(W));
  }
  return Suite;
}

/// The pool the bench binaries share. Created on first use; sized to the
/// machine.
inline ThreadPool &sharedPool() {
  static ThreadPool Pool;
  return Pool;
}

/// The FNV-1a offset basis every bench digest starts from.
constexpr uint64_t DigestSeed = 14695981039346656037ull;

/// Folds one byte into the FNV-1a digest \p H.
inline void feedByte(uint64_t &H, uint8_t B) {
  H ^= B;
  H *= 1099511628211ull;
}

/// Folds the eight bytes of \p V, lowest first, into \p H.
inline void feedDigest(uint64_t &H, uint64_t V) {
  for (int B = 0; B < 8; ++B)
    feedByte(H, static_cast<uint8_t>(V >> (B * 8)));
}

/// Folds the length of \p S, then its bytes, into \p H.
inline void feedDigest(uint64_t &H, std::string_view S) {
  feedDigest(H, static_cast<uint64_t>(S.size()));
  for (char C : S)
    feedByte(H, static_cast<uint8_t>(C));
}

/// Aggregate outcome of a configuration over one suite.
struct SuiteTotals {
  uint64_t Moves = 0;
  uint64_t WeightedMoves = 0;
  uint64_t MovesBeforeCoalesce = 0;
  /// The pipelines' timed phases, summed over the suite.
  double Seconds = 0.0;
  /// Per-phase seconds summed over the suite, pipeline phase order.
  TimerGroup PerPass;
  /// StatsRegistry movement during the run ("pass.name" -> delta).
  StatsSnapshot Counters;

  /// The coalescer's node merges (the coalesce.merges delta).
  uint64_t coalescerMerges() const {
    auto It = Counters.find("coalesce.merges");
    return It == Counters.end() ? 0 : It->second;
  }
};

/// Runs \p Config on a fresh clone of one workload and checks the result
/// against the interpreter on every recorded input, aborting loudly on a
/// miscompile so no bench number comes from wrong code. Sreedhar-based
/// configurations are exempt: the paper itself calls them an optimistic
/// approximation (they are not dedicated-register safe).
inline PipelineResult runOnWorkload(const Workload &W,
                                    const PipelineConfig &Config) {
  auto F = cloneFunction(*W.F);
  PipelineResult R = runPipeline(*F, Config);
  if (!Config.Sreedhar)
    for (const auto &Args : W.Inputs)
      if (!interpret(*W.F, Args).sameObservable(interpret(*F, Args))) {
        std::fprintf(stderr,
                     "MISCOMPILE: %s under %s (inputs differ in "
                     "observable trace)\n",
                     W.Name.c_str(), Config.Name.c_str());
        std::abort();
      }
  return R;
}

/// Runs \p Config on a fresh clone of every suite member. Functions are
/// independent, so when \p Pool is non-null and has more than one worker
/// they run concurrently; the reduction below is always in suite order
/// (see the determinism note in the file comment). Pass Pool = nullptr
/// for the strictly serial path.
inline SuiteTotals runOnSuite(const std::vector<Workload> &Suite,
                              const PipelineConfig &Config,
                              ThreadPool *Pool = &sharedPool()) {
  StatsSnapshot Before = StatsRegistry::instance().snapshot();
  std::vector<PipelineResult> Results(Suite.size());
  if (Pool && Pool->numThreads() > 1)
    Pool->parallelFor(Suite.size(), [&](size_t I) {
      Results[I] = runOnWorkload(Suite[I], Config);
    });
  else
    for (size_t I = 0; I < Suite.size(); ++I)
      Results[I] = runOnWorkload(Suite[I], Config);

  SuiteTotals Totals;
  for (const PipelineResult &R : Results) {
    Totals.Moves += R.NumMoves;
    Totals.WeightedMoves += R.WeightedMoves;
    Totals.MovesBeforeCoalesce += R.MovesBeforeCoalesce;
    Totals.Seconds += R.Timings.total();
    Totals.PerPass.addAll(R.Timings);
  }
  Totals.Counters =
      StatsRegistry::delta(Before, StatsRegistry::instance().snapshot());
  return Totals;
}

/// Writes \p Json and a newline to \p Path; exits 1 when the file cannot
/// be written.
inline void writeJsonFile(const std::string &Path, const std::string &Json) {
  std::FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot write '%s'\n", Path.c_str());
    std::exit(1);
  }
  std::fprintf(Out, "%s\n", Json.c_str());
  std::fclose(Out);
}

/// Collects every (suite, config) measurement a bench binary makes for
/// its printed tables, so the JSON output is written from the exact same
/// numbers. Keyed by (suite name, config name): a second request returns
/// the cached record instead of re-running, so columns of one table must
/// carry distinct config names.
class BenchReport {
public:
  const SuiteTotals &totals(const std::string &SuiteName,
                            const std::vector<Workload> &Suite,
                            const PipelineConfig &Config) {
    std::string Key = SuiteName + '\0' + Config.Name;
    auto It = Index.find(Key);
    if (It != Index.end())
      return Records[It->second].Totals;
    Records.push_back({SuiteName, Config.Name, runOnSuite(Suite, Config)});
    Index.emplace(std::move(Key), Records.size() - 1);
    return Records.back().Totals;
  }

  /// Renders all recorded measurements as one JSON document:
  ///
  ///   {"bench": <name>, "records": [
  ///     {"suite": ..., "config": ..., "moves": ..., "weighted_moves": ...,
  ///      "moves_before_coalesce": ..., "coalescer_merges": ...,
  ///      "seconds": ..., "coalesce_seconds": ...,
  ///      "per_pass_seconds": {...}, "counters": {...}}, ...]}
  ///
  /// All keys are always present; coalesce_seconds is the "coalesce"
  /// entry of per_pass_seconds (0 when the configuration does not
  /// coalesce); per_pass_seconds has one entry per pipeline phase that
  /// ran, in phase order; counters is sorted by name. With
  /// \p IncludeTimings false the wall-clock fields (seconds,
  /// coalesce_seconds, per_pass_seconds) are omitted, leaving only the
  /// deterministic measurements — two runs of the same binary must then
  /// produce byte-identical strings (ObservabilityTests relies on this).
  std::string jsonString(const std::string &BenchName,
                         bool IncludeTimings = true) const {
    JsonWriter W;
    W.beginObject();
    W.key("bench").value(BenchName);
    W.key("records").beginArray();
    for (const Record &R : Records) {
      W.beginObject();
      W.key("suite").value(R.Suite);
      W.key("config").value(R.Config);
      W.key("moves").value(R.Totals.Moves);
      W.key("weighted_moves").value(R.Totals.WeightedMoves);
      W.key("moves_before_coalesce").value(R.Totals.MovesBeforeCoalesce);
      W.key("coalescer_merges").value(R.Totals.coalescerMerges());
      if (IncludeTimings) {
        W.key("seconds").value(R.Totals.Seconds);
        W.key("coalesce_seconds").value(R.Totals.PerPass.seconds("coalesce"));
        W.key("per_pass_seconds").beginObject();
        for (const auto &[Phase, S] : R.Totals.PerPass.entries())
          W.key(Phase).value(S);
        W.endObject();
      }
      W.key("counters").beginObject();
      for (const auto &[Name, V] : R.Totals.Counters)
        W.key(Name).value(V);
      W.endObject();
      W.endObject();
    }
    W.endArray();
    W.endObject();
    return W.str();
  }

  /// Writes jsonString(BenchName) to \p Path.
  void writeJson(const std::string &Path, const std::string &BenchName) const {
    writeJsonFile(Path, jsonString(BenchName));
  }

private:
  struct Record {
    std::string Suite;
    std::string Config;
    SuiteTotals Totals;
  };
  std::vector<Record> Records;
  std::map<std::string, size_t> Index;
};

/// Parses a bench command line. The only argument a bench binary takes
/// is an optional `<Flag>=<path>` (Flag is `--json` or `--json-dir`);
/// on success \p Path holds the path, or "" when the flag is absent.
/// Returns false on anything else: an unknown or misspelled flag, a
/// stray operand, an empty path or a second argument.
inline bool parseBenchArgs(int Argc, const char *const *Argv,
                           std::string_view Flag, std::string &Path) {
  Path.clear();
  if (Argc < 2)
    return true;
  std::string_view Arg = Argv[1];
  if (Argc > 2 || Arg.size() <= Flag.size() + 1 ||
      Arg.substr(0, Flag.size()) != Flag || Arg[Flag.size()] != '=')
    return false;
  Path = Arg.substr(Flag.size() + 1);
  return true;
}

/// parseBenchArgs for main(): exits 2 with a usage line on a bad command
/// line.
inline std::string benchArgsOrExit(int Argc, char **Argv,
                                   std::string_view Flag) {
  std::string Path;
  if (!parseBenchArgs(Argc, Argv, Flag, Path)) {
    std::fprintf(stderr, "usage: %s [%.*s=<path>]\n", Argv[0],
                 static_cast<int>(Flag.size()), Flag.data());
    std::exit(2);
  }
  return Path;
}

/// The quantity a paper-table column reports per suite.
enum class Metric { Moves, WeightedMoves };

/// One column of a paper-style table: the header printed above it, the
/// pipeline configuration it measures and the metric it shows.
struct TableColumn {
  std::string Header;
  PipelineConfig Config;
  Metric Reports = Metric::Moves;
};

/// One paper-style table: the bench name (its JSON file is
/// BENCH_<Bench>.json), the title and optional footnote printed around
/// it, and its columns, the first of which is the absolute baseline.
struct PaperTable {
  std::string Bench;
  std::string Title;
  std::string Footnote;
  std::vector<TableColumn> Columns;
};

/// Prints \p Table in the paper's format — the first column absolute,
/// the others as signed deltas against it — measuring each cell through
/// \p Report, suite-major and then column by column.
inline void printDeltaTable(const PaperTable &Table, BenchReport &Report) {
  std::printf("\n%s\n", Table.Title.c_str());
  std::printf("%-14s", "benchmark");
  std::vector<int> Widths;
  for (const TableColumn &C : Table.Columns) {
    Widths.push_back(std::max(16, static_cast<int>(C.Header.size()) + 2));
    std::printf("%*s", Widths.back(), C.Header.c_str());
  }
  std::printf("\n");
  for (const auto &[Name, Suite] : suites()) {
    std::printf("%-14s", Name.c_str());
    uint64_t Base = 0;
    for (size_t K = 0; K < Table.Columns.size(); ++K) {
      const TableColumn &C = Table.Columns[K];
      const SuiteTotals &T = Report.totals(Name, Suite, C.Config);
      uint64_t V = C.Reports == Metric::Moves ? T.Moves : T.WeightedMoves;
      if (K == 0) {
        Base = V;
        std::printf("%*llu", Widths[K], static_cast<unsigned long long>(V));
      } else {
        std::printf("%+*lld", Widths[K],
                    static_cast<long long>(V) - static_cast<long long>(Base));
      }
    }
    std::printf("\n");
  }
  if (!Table.Footnote.empty())
    std::printf("%s\n", Table.Footnote.c_str());
  std::fflush(stdout);
}

} // namespace bench
} // namespace lao

#endif // LAO_BENCH_BENCHUTIL_H
