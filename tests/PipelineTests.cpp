//===- PipelineTests.cpp - Experiment pipeline shape tests ------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Checks the comparative *shape* of the paper's tables on a sample of
// the suites: the full pinning-based pipeline (Lphi,ABI+C) never loses
// to the baselines in aggregate, and the naive configurations leave an
// order of magnitude more moves before coalescing (Table 4).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "outofssa/MoveStats.h"
#include "outofssa/Pipeline.h"
#include "support/Stats.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace lao;
using namespace lao::test;

namespace {

/// Sums NumMoves of \p Preset over the whole suite.
unsigned totalMoves(const std::vector<Workload> &Suite,
                    const std::string &Preset, unsigned *BeforeCoalesce) {
  unsigned Total = 0;
  if (BeforeCoalesce)
    *BeforeCoalesce = 0;
  for (const Workload &W : Suite) {
    auto F = cloneFunction(*W.F);
    PipelineResult R = runPipeline(*F, pipelinePreset(Preset));
    Total += R.NumMoves;
    if (BeforeCoalesce)
      *BeforeCoalesce += R.MovesBeforeCoalesce;
  }
  return Total;
}

} // namespace

TEST(Pipeline, PresetsMatchTable1) {
  PipelineConfig C = pipelinePreset("Lphi,ABI+C");
  EXPECT_TRUE(C.PinSP && C.PinABI && C.PinPhi && C.Coalesce);
  EXPECT_FALSE(C.Sreedhar || C.NaiveABI);

  C = pipelinePreset("Sphi");
  EXPECT_TRUE(C.Sreedhar && C.NaiveABI && C.PinSP);
  EXPECT_FALSE(C.PinABI || C.PinPhi || C.Coalesce);

  C = pipelinePreset("C");
  EXPECT_TRUE(C.PinSP && C.Coalesce);
  EXPECT_FALSE(C.Sreedhar || C.PinABI || C.PinPhi || C.NaiveABI);
}

TEST(Pipeline, UnknownPresetReturnsNullopt) {
  EXPECT_FALSE(pipelinePresetOpt("no-such-preset").has_value());
  EXPECT_FALSE(pipelinePresetOpt("").has_value());
  ASSERT_TRUE(pipelinePresetOpt("Lphi,ABI+C").has_value());
  EXPECT_EQ(pipelinePresetOpt("Lphi,ABI+C")->Name, "Lphi,ABI+C");
}

TEST(PipelineDeathTest, UnknownPresetAbortsInEveryBuildType) {
  // The satellite bugfix: before, an unknown preset tripped an assert in
  // Debug but silently returned the default config wherever NDEBUG was
  // set. Now it must die loudly regardless of build type.
  EXPECT_DEATH(pipelinePreset("no-such-preset"), "unknown pipeline preset");
}

TEST(Pipeline, TimingsCoverThePhasesThatRan) {
  auto Suite = makeExamplesSuite();
  ASSERT_FALSE(Suite.empty());
  auto F = cloneFunction(*Suite.front().F);
  PipelineResult R = runPipeline(*F, pipelinePreset("Lphi,ABI+C"));
  // Lphi,ABI+C runs constraints, phi coalescing (with its analysis),
  // the Leung-George translation, sequentialization, and the cleanup
  // coalescer -- each must have a timer entry.
  EXPECT_FALSE(R.Timings.empty());
  for (const char *Phase :
       {"split-critical-edges", "constraints", "pin-analysis",
        "phi-coalescing", "translate", "sequentialize", "coalesce"}) {
    bool Found = false;
    for (const auto &[Name, Seconds] : R.Timings.entries())
      if (Name == Phase) {
        Found = true;
        EXPECT_GE(Seconds, 0.0) << Phase;
      }
    EXPECT_TRUE(Found) << "missing timer for phase " << Phase;
  }
  // Sreedhar and naive-ABI are off in this preset.
  for (const auto &[Name, Seconds] : R.Timings.entries())
    EXPECT_TRUE(Name != "sreedhar" && Name != "naive-abi") << Name;
  EXPECT_GE(R.Timings.total(), R.Timings.seconds("coalesce"));
}

TEST(Pipeline, Table2ShapeOnValcc) {
  // Without ABI constraints: Lphi+C <= C (the paper's Table 2 columns).
  auto Suite = makeValccSuite(1);
  unsigned Ours = totalMoves(Suite, "Lphi+C", nullptr);
  unsigned ChaitinOnly = totalMoves(Suite, "C", nullptr);
  EXPECT_LE(Ours, ChaitinOnly);
}

TEST(Pipeline, Table3ShapeOnValcc) {
  // With all renaming constraints: Lphi,ABI+C is the best column.
  auto Suite = makeValccSuite(1);
  unsigned Ours = totalMoves(Suite, "Lphi,ABI+C", nullptr);
  EXPECT_LE(Ours, totalMoves(Suite, "LABI+C", nullptr));
  EXPECT_LE(Ours, totalMoves(Suite, "C,naiveABI+C", nullptr));
}

TEST(Pipeline, Table4NaiveLeavesManyMovesForTheCoalescer) {
  // The cost proxy of Table 4: handling phis/ABI naively leaves far more
  // moves on the table before coalescing runs.
  auto Suite = makeValccSuite(1);
  unsigned PinnedResidual = totalMoves(Suite, "Lphi,ABI", nullptr);
  unsigned NaiveBefore = 0;
  totalMoves(Suite, "C,naiveABI+C", &NaiveBefore);
  EXPECT_GT(NaiveBefore, 2 * PinnedResidual)
      << "naive phi+ABI lowering must dwarf the pinned pipeline's "
         "residual moves";
}

TEST(Pipeline, CoalescerWorkloadShrinksUnderPinning) {
  // Point [CC3]: the more moves handled at the SSA level, the less work
  // (merges) remains for the repeated coalescer.
  auto Suite = makeValccSuite(2);
  unsigned MergesPinned = 0, MergesNaive = 0;
  for (const Workload &W : Suite) {
    auto A = cloneFunction(*W.F);
    MergesPinned += runPipeline(*A, pipelinePreset("Lphi,ABI+C"))
                        .Coalescer.NumMerges;
    auto B = cloneFunction(*W.F);
    MergesNaive += runPipeline(*B, pipelinePreset("C,naiveABI+C"))
                       .Coalescer.NumMerges;
  }
  EXPECT_LT(MergesPinned, MergesNaive);
}

TEST(Pipeline, WeightedCountsAvailableForTable5) {
  auto Suite = makeExamplesSuite();
  for (const Workload &W : Suite) {
    auto F = cloneFunction(*W.F);
    PipelineResult R = runPipeline(*F, pipelinePreset("Lphi,ABI+C"));
    EXPECT_GE(R.WeightedMoves, R.NumMoves)
        << "weights are at least 1 per move";
  }
}

TEST(Pipeline, PessimisticModeNeverBeatsPrecise) {
  // Table 5: pessimistic interferences blow up the move count; at
  // minimum they can never produce fewer moves than precise analysis on
  // aggregate.
  // Table 5 measures the variants WITHOUT the cleanup coalescer: the
  // pessimistic interference definition blocks phi merges, leaving phi
  // copies everywhere.
  auto Suite = makeValccSuite(1);
  uint64_t Precise = 0, Pessimistic = 0;
  for (const Workload &W : Suite) {
    auto A = cloneFunction(*W.F);
    PipelineConfig CA = pipelinePreset("Lphi,ABI");
    Precise += runPipeline(*A, CA).WeightedMoves;
    auto B = cloneFunction(*W.F);
    PipelineConfig CB = pipelinePreset("Lphi,ABI");
    CB.Mode = InterferenceMode::Pessimistic;
    Pessimistic += runPipeline(*B, CB).WeightedMoves;
  }
  EXPECT_LT(Precise, Pessimistic);
}

TEST(Pipeline, AnalysisBudgetOneDenseLivenessAndGraphPerRun) {
  // The acceptance criterion of the analysis-substrate overhaul: a
  // pipeline run performs at most one dense liveness analysis and at
  // most one interference-graph construction per function (down from
  // ~3x and ~2x when each consumer recomputed privately). Extra graph
  // rebuilds may only happen when the coalescer's confirm scan proves a
  // rebuild will merge something, which never exceeds one per run on
  // top of the budget... so assert the hard <= runs bound directly.
  if (const char *E = std::getenv("LAO_COALESCE_ORACLE"); E && *E && *E != '0')
    GTEST_SKIP() << "the coalescer oracle's rebuild-every-round reference "
                    "intentionally blows the analysis budget";
  auto Suite = makeValccSuite(1);
  StatsSnapshot Before = StatsRegistry::instance().snapshot();
  uint64_t Runs = 0;
  for (const Workload &W : Suite)
    for (const char *Preset : {"Lphi,ABI+C", "C,naiveABI+C"}) {
      auto F = cloneFunction(*W.F);
      runPipeline(*F, pipelinePreset(Preset));
      ++Runs;
    }
  StatsSnapshot D =
      StatsRegistry::delta(Before, StatsRegistry::instance().snapshot());
  EXPECT_LE(D["liveness.analyses"], Runs);
  EXPECT_LE(D["interference.graphs_built"], Runs);
  EXPECT_LE(D["analysis.cfg_builds"], Runs);
  EXPECT_LE(D["analysis.domtree_builds"], Runs);
}

TEST(Pipeline, ResultsAreDeterministic) {
  auto Suite = makeExamplesSuite();
  for (const Workload &W : Suite) {
    auto A = cloneFunction(*W.F);
    auto B = cloneFunction(*W.F);
    runPipeline(*A, pipelinePreset("Lphi,ABI+C"));
    runPipeline(*B, pipelinePreset("Lphi,ABI+C"));
    EXPECT_EQ(printFunction(*A), printFunction(*B)) << W.Name;
  }
}
