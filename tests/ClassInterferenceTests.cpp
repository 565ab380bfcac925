//===- ClassInterferenceTests.cpp - Sweep engine vs pairwise oracle ----------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Randomized equivalence suite for the dominance-ordered class-interference
// engine (outofssa/ClassInterference.h): on every workload suite and on
// adversarial generator functions (large phi webs, physical-register
// classes), the engine must return the exact verdicts of the paper-literal
// pairwise scan (pairwiseResourceInterfere, ReferenceClassInterference.h) —
// both per query and over whole coalescing runs, whose every verdict a
// PairwiseVerdictCheck compares. Also covers the verdict cache (hits,
// post-merge eviction).
//
//===----------------------------------------------------------------------===//

#include "ReferenceClassInterference.h"
#include "TestUtil.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "ir/CFG.h"
#include "outofssa/Constraints.h"
#include "outofssa/PhiCoalescing.h"
#include "outofssa/PinningContext.h"
#include "workloads/Generator.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace lao;
using namespace lao::test;

namespace {

/// Analyses bundle for driving PinningContext / coalescePhis by hand.
struct Analyses {
  CFG Cfg;
  DominatorTree DT;
  LivenessQuery LV;
  LoopInfo LI;
  PinningContext Ctx;

  explicit Analyses(Function &F,
                    InterferenceMode Mode = InterferenceMode::Precise)
      : Cfg(F), DT(Cfg), LV(Cfg, DT), LI(Cfg, DT), Ctx(F, Cfg, DT, LV, Mode) {}
};

/// Splits edges and pins SP/ABI so the function has both virtual and
/// physical-register classes, as the coalescer would see it.
void prepare(Function &F, bool PinABI = true) {
  splitCriticalEdges(F);
  collectSPConstraints(F);
  if (PinABI)
    collectABIConstraints(F);
}

/// Representatives worth querying: classes holding at least one defined
/// variable or a physical register (others are trivially non-interfering
/// on both paths).
std::vector<RegId> interestingReps(const PinningContext &Ctx,
                                   const Function &F) {
  std::vector<RegId> Reps;
  for (RegId V = 0; V < F.numValues(); ++V) {
    if (Ctx.resourceOf(V) != V)
      continue;
    bool Interesting = F.isPhysical(V);
    for (RegId M : Ctx.members(V))
      Interesting = Interesting || Ctx.defSite(M).Valid;
    if (Interesting)
      Reps.push_back(V);
  }
  return Reps;
}

/// Queries (a strided sample of) all representative pairs through the
/// engine and through the pairwise scan, expecting identical verdicts.
void expectVerdictEquality(Function &F, InterferenceMode Mode,
                           size_t MaxPairs = 6000) {
  size_t NumReps = 0;
  // The engine adds its tally to the classinterf.* counters when the
  // context dies, inside the scope.
  StatsSnapshot Counters = countersOf([&] {
    Analyses S(F, Mode);
    std::vector<RegId> Reps = interestingReps(S.Ctx, F);
    NumReps = Reps.size();
    size_t NumPairs = Reps.empty() ? 0 : Reps.size() * (Reps.size() - 1) / 2;
    size_t Stride = NumPairs > MaxPairs ? NumPairs / MaxPairs + 1 : 1;
    size_t Index = 0;
    for (size_t I = 0; I < Reps.size(); ++I)
      for (size_t J = I + 1; J < Reps.size(); ++J) {
        if (Index++ % Stride != 0)
          continue;
        bool Engine = S.Ctx.resourceInterfere(Reps[I], Reps[J]);
        bool Pairwise = pairwiseResourceInterfere(S.Ctx, Reps[I], Reps[J]);
        ASSERT_EQ(Engine, Pairwise)
            << F.name() << ": verdict mismatch for classes "
            << F.valueName(Reps[I]) << " / " << F.valueName(Reps[J])
            << " in mode " << static_cast<int>(Mode);
      }
  });
  EXPECT_TRUE(Counters["classinterf.queries"] > 0 || NumReps < 2)
      << F.name();
}

/// Runs coalescePhis over a clone of \p Orig under a PairwiseVerdictCheck:
/// every verdict of the run is compared against the pairwise scan (a
/// mismatch fails the test), so the merge trace — statistics, resulting
/// pins, class partition and killed mask — is the pairwise scan's by
/// construction. Returns the number of verdicts checked.
uint64_t expectMergeTraceEquality(const Function &Orig, InterferenceMode Mode,
                                  bool PinABI = true) {
  auto F = cloneFunction(Orig);
  prepare(*F, PinABI);

  PairwiseVerdictCheck Check;
  Analyses S(*F, Mode);
  coalescePhis(*F, S.Ctx, S.Cfg, S.LI);
  return Check.numChecked();
}

/// Adversarial generator configs. PhiWebs stresses deep nests of phis over
/// mutated variables (large classes after phi pinning); the other variant
/// stresses physical-register classes via many ABI-pinned call sites.
std::unique_ptr<Function> adversarial(uint64_t Seed, bool PhiWebs) {
  GeneratorParams P;
  P.Seed = Seed;
  P.NumParams = 4;
  if (PhiWebs) {
    P.NumStatements = 60;
    P.MaxNesting = 3;
    P.MutatePercent = 85;
    P.CallPercent = 5;
  } else {
    P.NumStatements = 40;
    P.MaxNesting = 2;
    P.CallPercent = 45;
    P.UseSP = true;
  }
  auto F = generateProgram(P, (PhiWebs ? "phiweb" : "physreg") +
                                  std::to_string(Seed));
  normalizeToOptimizedSSA(*F);
  return F;
}

} // namespace

//===----------------------------------------------------------------------===//
// Workload suites
//===----------------------------------------------------------------------===//

TEST(ClassInterference, SuiteVerdictsMatchPairwise) {
  for (const SuiteSpec &S : allSuites())
    for (Workload &W : S.Make()) {
      prepare(*W.F);
      expectVerdictEquality(*W.F, InterferenceMode::Precise);
    }
}

TEST(ClassInterference, SuiteMergeTracesMatchPairwise) {
  uint64_t Checked = 0;
  for (const SuiteSpec &S : allSuites())
    for (Workload &W : S.Make())
      Checked += expectMergeTraceEquality(*W.F, InterferenceMode::Precise);
  EXPECT_GT(Checked, 0u) << "the runs must issue verdicts to check";
}

//===----------------------------------------------------------------------===//
// Adversarial generator functions
//===----------------------------------------------------------------------===//

TEST(ClassInterference, AdversarialPhiWebsAllModes) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed)
    for (InterferenceMode Mode :
         {InterferenceMode::Precise, InterferenceMode::Optimistic,
          InterferenceMode::Pessimistic}) {
      auto F = adversarial(Seed, /*PhiWebs=*/true);
      prepare(*F);
      expectVerdictEquality(*F, Mode);
    }
}

TEST(ClassInterference, AdversarialPhysicalClassesAllModes) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed)
    for (InterferenceMode Mode :
         {InterferenceMode::Precise, InterferenceMode::Optimistic,
          InterferenceMode::Pessimistic}) {
      auto F = adversarial(Seed, /*PhiWebs=*/false);
      prepare(*F);
      expectVerdictEquality(*F, Mode);
    }
}

TEST(ClassInterference, AdversarialMergeTraces) {
  uint64_t Checked = 0;
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    Checked += expectMergeTraceEquality(*adversarial(Seed, true),
                                        InterferenceMode::Precise);
    Checked += expectMergeTraceEquality(*adversarial(Seed, false),
                                        InterferenceMode::Precise);
    Checked += expectMergeTraceEquality(*adversarial(Seed, true),
                                        InterferenceMode::Pessimistic);
  }
  EXPECT_GT(Checked, 0u) << "the runs must issue verdicts to check";
}

//===----------------------------------------------------------------------===//
// Verdict cache: hits, and eviction across pinTogether merges
//===----------------------------------------------------------------------===//

TEST(ClassInterference, CacheHitsOnRepeatedQueries) {
  auto F = adversarial(3, /*PhiWebs=*/true);
  prepare(*F);
  std::vector<RegId> Reps = interestingReps(Analyses(*F).Ctx, *F);
  // Physical-physical pairs short-circuit before the engine; cache
  // behavior only shows on pairs with a virtual side.
  Reps.erase(std::remove_if(Reps.begin(), Reps.end(),
                            [&](RegId R) { return F->isPhysical(R); }),
             Reps.end());
  ASSERT_GE(Reps.size(), 2u);

  // The engine's tally reaches the registry when its context dies, so
  // each prefix of the query sequence runs on a fresh context.
  auto Queries = [&](std::vector<std::pair<RegId, RegId>> Pairs,
                     std::vector<bool> &Verdicts) {
    return countersOf([&] {
      Analyses S(*F);
      for (auto [A, B] : Pairs)
        Verdicts.push_back(S.Ctx.resourceInterfere(A, B));
    });
  };
  std::vector<bool> V1, V2, V3;
  StatsSnapshot R1 = Queries({{Reps[0], Reps[1]}}, V1);
  StatsSnapshot R2 = Queries({{Reps[0], Reps[1]}, {Reps[0], Reps[1]}}, V2);
  EXPECT_EQ(V2[0], V2[1]);
  EXPECT_EQ(R2["classinterf.cache_hits"], R1["classinterf.cache_hits"] + 1)
      << "repeat query must hit";
  EXPECT_EQ(R2["classinterf.queries"], R1["classinterf.queries"])
      << "repeat query must not recompute";
  // Argument order and non-representative members resolve to the same
  // cache entry.
  StatsSnapshot R3 = Queries(
      {{Reps[0], Reps[1]}, {Reps[0], Reps[1]}, {Reps[1], Reps[0]}}, V3);
  EXPECT_EQ(R3["classinterf.cache_hits"], R2["classinterf.cache_hits"] + 1);
}

TEST(ClassInterference, CacheEvictedOnMergeStaysExact) {
  // Warm the cache over every pair, coalesce (merges must evict the stale
  // entries), then re-check every post-merge verdict against the pairwise
  // scan on the same merged context.
  GeneratorParams P;
  P.Seed = 9;
  P.NumStatements = 25;
  P.MaxNesting = 2;
  P.MutatePercent = 70;
  auto F = generateProgram(P, "evict9");
  normalizeToOptimizedSSA(*F);
  prepare(*F);

  // Only merges evict, so the evictions of the context's whole life are
  // those of coalescePhis.
  StatsSnapshot Counters = countersOf([&] {
    Analyses S(*F);
    std::vector<RegId> Before = interestingReps(S.Ctx, *F);
    for (size_t I = 0; I < Before.size(); ++I)
      for (size_t J = I + 1; J < Before.size(); ++J)
        S.Ctx.resourceInterfere(Before[I], Before[J]);

    coalescePhis(*F, S.Ctx, S.Cfg, S.LI);

    std::vector<RegId> After = interestingReps(S.Ctx, *F);
    for (size_t I = 0; I < After.size(); ++I)
      for (size_t J = I + 1; J < After.size(); ++J) {
        bool Engine = S.Ctx.resourceInterfere(After[I], After[J]);
        bool Pairwise = pairwiseResourceInterfere(S.Ctx, After[I], After[J]);
        ASSERT_EQ(Engine, Pairwise)
            << "post-merge verdict diverged for " << F->valueName(After[I])
            << " / " << F->valueName(After[J]);
      }
  });
  if (Counters["phicoalesce.merges"] > 0) {
    EXPECT_GT(Counters["classinterf.cache_evictions"], 0u)
        << "merging warmed classes must evict their cached verdicts";
  }
}

//===----------------------------------------------------------------------===//
// Diagnostics and the oracle
//===----------------------------------------------------------------------===//

TEST(ClassInterference, ReportHistogramCoversClasses) {
  auto F = adversarial(5, /*PhiWebs=*/true);
  prepare(*F);
  StatsSnapshot C = countersOf([&] {
    Analyses S(*F);
    coalescePhis(*F, S.Ctx, S.Cfg, S.LI);
    S.Ctx.countClassSizes();
  });
  uint64_t Sum = 0;
  for (const char *Bucket :
       {"pinning.class_size_1", "pinning.class_size_2",
        "pinning.class_size_3_4", "pinning.class_size_5_8",
        "pinning.class_size_9_16", "pinning.class_size_ge17"})
    Sum += C[Bucket];
  EXPECT_EQ(Sum, C["pinning.classes"]);
  EXPECT_GT(C["pinning.classes"], 0u);
  if (C["phicoalesce.pair_queries"] > 0) {
    EXPECT_GT(C["classinterf.queries"] + C["classinterf.cache_hits"], 0u);
    EXPECT_GT(C["classinterf.pair_cost"], 0u)
        << "swept queries must record their bound";
  }
}

TEST(ClassInterference, OracleCleanOnCoalescingRuns) {
  // Every engine verdict issued during a full coalescing run is compared
  // against the pairwise scan; the check fails the test on a mismatch.
  PairwiseVerdictCheck Check;
  for (uint64_t Seed : {11u, 12u}) {
    auto F = adversarial(Seed, Seed % 2 == 0);
    prepare(*F);
    Analyses S(*F);
    coalescePhis(*F, S.Ctx, S.Cfg, S.LI);
  }
  EXPECT_GT(Check.numChecked(), 0u);
}
