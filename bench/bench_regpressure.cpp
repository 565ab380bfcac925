//===- bench_regpressure.cpp - The paper's [LIM4] made measurable ---------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// The paper's [LIM4]: "in the case of strong register pressure, the
// problem becomes different: coalescing (or splitting) variables has a
// strong impact on the colorability of the interference graph during
// the register allocator phase" — listed as out of scope there. This
// bench runs every allocator strategy x spill model combination after
// each out-of-SSA configuration at several register-file sizes and
// reports spills plus the static count of spill accesses, answering:
// does the pinning-based coalescing pay for its move savings with
// spills — and does the answer depend on the allocator asking?
//
// Each (suite, config) pair is lowered once; every (combo, num_regs)
// cell allocates clones of the lowered functions.
//
// Record key shape (BENCH_regpressure.json): (suite, config, num_regs,
// allocator, spill_mode) — scripts/check_bench_regression.py gates
// spills, spill_accesses, failures and ir_digest bit-identically on every
// record. ir_digest is FNV-1a over each function's allocated IR (or its
// error text), folded in suite order.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ir/IRPrinter.h"
#include "regalloc/RegAlloc.h"

using namespace lao;
using namespace lao::bench;

namespace {

struct PressureTotals {
  uint64_t Spills = 0;
  uint64_t SpillAccesses = 0; // loads + stores inserted
  unsigned Failures = 0;      // functions the allocator gave up on
  uint64_t IrDigest = DigestSeed;
};

/// Every function of a suite after one out-of-SSA preset.
using LoweredSuite = std::vector<std::unique_ptr<Function>>;

LoweredSuite lowerSuite(const std::vector<Workload> &Suite,
                        const char *Preset) {
  LoweredSuite Lowered(Suite.size());
  sharedPool().parallelFor(Suite.size(), [&](size_t I) {
    Lowered[I] = cloneFunction(*Suite[I].F);
    runPipeline(*Lowered[I], pipelinePreset(Preset));
  });
  return Lowered;
}

PressureTotals allocateSuite(const LoweredSuite &Lowered,
                             const RegAllocOptions &Opts) {
  // Same deterministic shape as runOnSuite: allocate each function
  // independently (in parallel when the machine allows), reduce in suite
  // order.
  std::vector<RegAllocResult> Results(Lowered.size());
  std::vector<std::string> Text(Lowered.size());
  sharedPool().parallelFor(Lowered.size(), [&](size_t I) {
    auto F = cloneFunction(*Lowered[I]);
    Results[I] = allocateRegisters(*F, Opts);
    Text[I] = Results[I].Ok ? printFunction(*F) : Results[I].Error;
  });

  PressureTotals T;
  for (size_t I = 0; I < Results.size(); ++I) {
    const RegAllocResult &R = Results[I];
    feedDigest(T.IrDigest, Text[I]);
    if (!R.Ok) {
      ++T.Failures;
      continue;
    }
    T.Spills += R.NumSpilled;
    T.SpillAccesses += R.NumSpillLoads + R.NumSpillStores;
  }
  return T;
}

/// The strategy-tier matrix measured below. chaitin-briggs +
/// spill-everywhere comes first: its records are the historically
/// committed baseline and must stay bit-identical.
const RegAllocOptions Combos[] = {
    {AllocatorKind::ChaitinBriggs, SpillModelKind::SpillEverywhere},
    {AllocatorKind::ChaitinBriggs, SpillModelKind::LoadStoreOpt},
    {AllocatorKind::Chordal, SpillModelKind::SpillEverywhere},
    {AllocatorKind::Chordal, SpillModelKind::LoadStoreOpt},
};

/// JSON records for --json=<file>: one per (combo, num_regs, suite, config)
/// cell of the printed tables, same numbers (recorded while printing).
struct PressureRecord {
  std::string Suite;
  std::string Config;
  unsigned NumRegs;
  std::string Allocator;
  std::string SpillMode;
  PressureTotals Totals;
};
std::vector<PressureRecord> Records;

const char *const Presets[] = {"Lphi,ABI+C", "LABI+C", "C,naiveABI+C"};

void printPressureTables() {
  // Lowered[suite][preset], in suites() and Presets order.
  std::vector<std::vector<LoweredSuite>> Lowered;
  for (const auto &[Name, Suite] : suites()) {
    Lowered.emplace_back();
    for (const char *Preset : Presets)
      Lowered.back().push_back(lowerSuite(Suite, Preset));
  }
  for (const RegAllocOptions &Combo : Combos) {
    for (unsigned NumRegs : {6u, 8u, 12u}) {
      std::printf("\nRegister pressure [%s/%s]: spills (spill "
                  "loads+stores) with %u registers\n",
                  allocatorName(Combo.Allocator),
                  spillModelName(Combo.SpillMode), NumRegs);
      std::printf("%-14s %22s %22s %22s\n", "benchmark", Presets[0],
                  Presets[1], Presets[2]);
      for (size_t S = 0; S < suites().size(); ++S) {
        const std::string &Name = suites()[S].first;
        std::printf("%-14s", Name.c_str());
        for (size_t P = 0; P < std::size(Presets); ++P) {
          RegAllocOptions Opts = Combo;
          Opts.NumRegs = NumRegs;
          PressureTotals T = allocateSuite(Lowered[S][P], Opts);
          Records.push_back({Name, Presets[P], NumRegs,
                             allocatorName(Combo.Allocator),
                             spillModelName(Combo.SpillMode), T});
          std::string Cell =
              std::to_string(T.Spills) + " (" +
              std::to_string(T.SpillAccesses) + ")";
          if (T.Failures)
            Cell += " !" + std::to_string(T.Failures);
          std::printf("%22s", Cell.c_str());
        }
        std::printf("\n");
      }
    }
  }
  std::fflush(stdout);
}

std::string pressureJson() {
  JsonWriter W;
  W.beginObject();
  W.key("bench").value("regpressure");
  W.key("records").beginArray();
  for (const PressureRecord &R : Records) {
    W.beginObject();
    W.key("suite").value(R.Suite);
    W.key("config").value(R.Config);
    W.key("num_regs").value(R.NumRegs);
    W.key("allocator").value(R.Allocator);
    W.key("spill_mode").value(R.SpillMode);
    W.key("spills").value(R.Totals.Spills);
    W.key("spill_accesses").value(R.Totals.SpillAccesses);
    W.key("failures").value(R.Totals.Failures);
    W.key("ir_digest").value(R.Totals.IrDigest);
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.str();
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = benchArgsOrExit(argc, argv, "--json");
  printPressureTables();
  if (!JsonPath.empty())
    writeJsonFile(JsonPath, pressureJson());
  return 0;
}
