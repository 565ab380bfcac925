//===- OptimalCoalescingTests.cpp - Heuristic vs exact gain -----------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Measures the paper's greedy weighted pruning against the exact
// (exponential) block-local optimum. The paper's conclusion that "a
// global optimization scheme would bring very little improvement over
// our local approach" predicts a tiny gap; these tests pin that down.
//
//===----------------------------------------------------------------------===//

#include "OptimalCoalescing.h"
#include "TestUtil.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "ir/CFG.h"
#include "outofssa/Constraints.h"
#include "outofssa/PhiCoalescing.h"
#include "workloads/Generator.h"
#include "workloads/PaperExamples.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

namespace {

struct GainPair {
  unsigned Optimal = 0;
  unsigned Achieved = 0;
  bool Exact = true;
};

/// Computes the exact block-local optimum and the heuristic's achieved
/// gain (new resource-equal phi operand pairs) on the same function.
GainPair measure(Function &F) {
  splitCriticalEdges(F);
  collectSPConstraints(F);
  collectABIConstraints(F);

  GainPair Result;
  {
    CFG Cfg(F);
    DominatorTree DT(Cfg);
    LivenessQuery LV(Cfg, DT);
    PinningContext Ctx(F, Cfg, DT, LV);
    OptimalGainResult Opt = optimalPhiGain(Ctx, Cfg);
    Result.Optimal = Opt.TotalGain;
    Result.Exact = Opt.Exact;
  }
  {
    CFG Cfg(F);
    DominatorTree DT(Cfg);
    LivenessQuery LV(Cfg, DT);
    LoopInfo LI(Cfg, DT);
    PinningContext Ctx(F, Cfg, DT, LV);
    // Pre-existing equal pairs do not count as achieved gain.
    unsigned PreGain = 0;
    for (const auto &BB : F.blocks())
      for (const Instruction &I : BB->instructions()) {
        if (!I.isPhi())
          break;
        for (unsigned K = 0; K < I.numUses(); ++K)
          PreGain += Ctx.resourceOf(I.use(K)) == Ctx.resourceOf(I.def(0));
      }
    // Compare the paper's literal algorithm: merge into physical
    // classes on any affinity (our default defers weak ones for the
    // benefit of the downstream coalescer, deliberately trading
    // block-local gain).
    PhiCoalescingOptions Opts;
    Opts.PhysMergeMinMult = 1;
    StatsSnapshot Stats =
        countersOf([&] { coalescePhis(F, Ctx, Cfg, LI, Opts); });
    Result.Achieved = Stats["phicoalesce.gain"] - PreGain;
  }
  return Result;
}

} // namespace

TEST(OptimalCoalescing, Figure5OptimumIsOne) {
  auto F = makeFigure5();
  GainPair G = measure(*F);
  EXPECT_TRUE(G.Exact);
  EXPECT_EQ(G.Optimal, 1u) << "x1 and x2 interfere: only one can join x";
  EXPECT_EQ(G.Achieved, 1u) << "the heuristic reaches the optimum";
}

TEST(OptimalCoalescing, Figure9OptimumIsThree) {
  auto F = makeFigure9();
  GainPair G = measure(*F);
  EXPECT_TRUE(G.Exact);
  EXPECT_EQ(G.Optimal, 3u)
      << "of the four affinity pairs only the X/Y conflict over y costs";
  EXPECT_EQ(G.Achieved, G.Optimal);
}

TEST(OptimalCoalescing, HeuristicMatchesOptimumOnFigures) {
  for (auto Make : {makeFigure1, makeFigure3, makeFigure7, makeFigure10,
                    makeFigure11, makeFigure12}) {
    auto F = Make();
    GainPair G = measure(*F);
    SCOPED_TRACE(F->name());
    EXPECT_TRUE(G.Exact);
    EXPECT_EQ(G.Achieved, G.Optimal);
  }
}

TEST(OptimalCoalescing, HeuristicGapIsSmallOnRandomPrograms) {
  // The paper's claim quantified: across a population of generated
  // programs, the greedy pruning achieves nearly the exact block-local
  // optimum. (The heuristic intentionally defers weak-affinity merges
  // into physical classes, so a small per-function gap is expected.)
  unsigned SumOptimal = 0, SumAchieved = 0, Evaluated = 0;
  for (uint64_t Seed = 1100; Seed < 1130; ++Seed) {
    GeneratorParams P;
    P.Seed = Seed;
    P.NumStatements = 20;
    P.MaxNesting = 2;
    auto F = generateProgram(P, "opt" + std::to_string(Seed));
    normalizeToOptimizedSSA(*F);
    GainPair G = measure(*F);
    if (!G.Exact)
      continue;
    ++Evaluated;
    SumOptimal += G.Optimal;
    SumAchieved += G.Achieved;
    EXPECT_LE(G.Achieved, G.Optimal + 1)
        << "seed " << Seed
        << ": achieved gain above the block-local optimum suggests an "
           "interference-model mismatch";
  }
  ASSERT_GT(Evaluated, 20u);
  EXPECT_GE(SumAchieved * 100, SumOptimal * 90)
      << "heuristic achieves >= 90% of the exact block-local optimum "
         "in aggregate (" << SumAchieved << "/" << SumOptimal << ")";
}
