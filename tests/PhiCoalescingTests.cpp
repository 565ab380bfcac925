//===- PhiCoalescingTests.cpp - Pinning-based coalescing tests --------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ReferenceClassInterference.h"
#include "TestUtil.h"

#include "analysis/AnalysisManager.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "ir/CFG.h"
#include "outofssa/Constraints.h"
#include "outofssa/LeungGeorge.h"
#include "outofssa/MoveStats.h"
#include "outofssa/PhiCoalescing.h"
#include "outofssa/Pipeline.h"
#include "workloads/PaperExamples.h"

#include <gtest/gtest.h>

#include <tuple>

using namespace lao;
using namespace lao::test;

namespace {

/// Analyses bundle for running coalescing by hand.
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

/// Split edges, pin SP+ABI, coalesce, translate, sequentialize; returns
/// the final move count. \p CountersOut, when set, receives the counters
/// phi-coalescing bumped (phicoalesce.*).
unsigned fullTranslate(Function &F, StatsSnapshot *CountersOut = nullptr,
                       const PhiCoalescingOptions &Opts = {},
                       bool PinABI = false) {
  splitCriticalEdges(F);
  collectSPConstraints(F);
  if (PinABI)
    collectABIConstraints(F);
  Analyses S(F);
  StatsSnapshot Counters =
      countersOf([&] { coalescePhis(F, S.Ctx, S.Cfg, S.LI, Opts); });
  if (CountersOut)
    *CountersOut = std::move(Counters);
  translateOutOfSSA(F, S.Ctx);
  sequentializeParallelCopies(F);
  return countMoves(F);
}

} // namespace

TEST(PhiCoalescing, Figure5OneMoveNotTwo) {
  // x1 and x2 interfere; only one of them can share x's resource. The
  // paper's solution (c) costs exactly one move.
  auto F = makeFigure5();
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats;
  unsigned Moves = fullTranslate(*F, &Stats);
  EXPECT_EQ(Stats["phicoalesce.gain"], 1u) << "exactly one argument coalesced";
  EXPECT_EQ(Moves, 1u);
  expectEquivalent(*Before, *F, {3, 8});
  expectEquivalent(*Before, *F, {8, 3});
}

TEST(PhiCoalescing, NonInterferingWebCoalescesFully) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  branch %a, t, e
t:
  %x1 = make 1
  jump j
e:
  %x2 = make 2
  jump j
j:
  %x = phi [%x1, t], [%x2, e]
  output %x
  ret %x
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats;
  unsigned Moves = fullTranslate(*F, &Stats);
  EXPECT_EQ(Stats["phicoalesce.gain"], 2u);
  EXPECT_EQ(Moves, 0u) << "both arguments coalesce with the result";
  expectEquivalent(*Before, *F, {1});
  expectEquivalent(*Before, *F, {0});
}

TEST(PhiCoalescing, Figure7TwoClassesEmerge) {
  auto F = makeFigure7();
  auto Before = cloneFunction(*F);

  splitCriticalEdges(*F);
  Analyses S(*F);
  StatsSnapshot Stats =
      countersOf([&] { coalescePhis(*F, S.Ctx, S.Cfg, S.LI); });

  // X1 and X3 strongly interfere (same block) and must stay in distinct
  // classes; the shared argument x2 lands in exactly one of them.
  RegId X1 = F->findValue("X1"), X3 = F->findValue("X3");
  RegId X2v = F->findValue("x2");
  ASSERT_NE(X1, InvalidReg);
  ASSERT_NE(X3, InvalidReg);
  EXPECT_NE(S.Ctx.resourceOf(X1), S.Ctx.resourceOf(X3));
  RegId X2Res = S.Ctx.resourceOf(X2v);
  EXPECT_TRUE(X2Res == S.Ctx.resourceOf(X1) ||
              X2Res == S.Ctx.resourceOf(X3));
  EXPECT_GE(Stats["phicoalesce.merges"], 2u);

  translateOutOfSSA(*F, S.Ctx);
  sequentializeParallelCopies(*F);
  expectEquivalent(*Before, *F, {6});
  expectEquivalent(*Before, *F, {1});
}

TEST(PhiCoalescing, NoStrongInterferenceInAnyClass) {
  // Invariant: after coalescing, no class contains two strongly
  // interfering members (checked over the paper figures).
  for (auto Make : {makeFigure1, makeFigure3, makeFigure5, makeFigure7,
                    makeFigure9, makeFigure10, makeFigure11, makeFigure12}) {
    auto F = Make();
    splitCriticalEdges(*F);
    collectSPConstraints(*F);
    collectABIConstraints(*F);
    Analyses S(*F);
    coalescePhis(*F, S.Ctx, S.Cfg, S.LI);
    for (RegId V = 0; V < S.Ctx.func().numValues(); ++V) {
      if (S.Ctx.resourceOf(V) != V)
        continue; // Only check class representatives once.
      const auto &Members = S.Ctx.members(V);
      for (size_t A = 0; A < Members.size(); ++A)
        for (size_t B = A + 1; B < Members.size(); ++B)
          EXPECT_FALSE(stronglyInterfere(S.Ctx, Members[A], Members[B]))
              << F->name() << ": " << F->valueName(Members[A]) << " vs "
              << F->valueName(Members[B]);
    }
  }
}

TEST(PhiCoalescing, Figure9BeatsOrMatchesSreedhar) {
  auto F9 = makeFigure9();
  auto Ours = cloneFunction(*F9);
  auto Theirs = cloneFunction(*F9);
  runPipeline(*Ours, pipelinePreset("Lphi+C"));
  runPipeline(*Theirs, pipelinePreset("Sphi+C"));
  EXPECT_LE(countMoves(*Ours), countMoves(*Theirs));
  EXPECT_LE(countMoves(*Ours), 1u) << "the joint optimization needs at "
                                      "most one move on Figure 9";
}

TEST(PhiCoalescing, Figure10SwapHandledByParallelCopies) {
  auto F = makeFigure10();
  auto Ours = cloneFunction(*F);
  auto Theirs = cloneFunction(*F);
  runPipeline(*Ours, pipelinePreset("Lphi,ABI+C"));
  runPipeline(*Theirs, pipelinePreset("Sphi+LABI+C"));
  EXPECT_LE(countMoves(*Ours), countMoves(*Theirs));
  for (const auto &Args : {std::vector<uint64_t>{1, 2}})
    expectEquivalent(*F, *Ours, Args);
}

TEST(PhiCoalescing, Figure11ABIAwareChoice) {
  auto F = makeFigure11();
  auto Ours = cloneFunction(*F);
  auto Theirs = cloneFunction(*F);
  runPipeline(*Ours, pipelinePreset("Lphi,ABI+C"));
  runPipeline(*Theirs, pipelinePreset("Sphi+LABI+C"));
  EXPECT_LE(countMoves(*Ours), countMoves(*Theirs));
  expectEquivalent(*F, *Ours, {5});

  // The pruning's weight ties are broken by use-pin ties: without the tie
  // bonus it deletes the edge whose merge would elide a pin copy, and
  // each preset below leaves one move more.
  for (auto [Preset, Moves, Weighted] :
       {std::tuple<const char *, unsigned, uint64_t>{"Lphi+C", 2, 6},
        {"Lphi,ABI", 4, 8}}) {
    auto G = cloneFunction(*F);
    runPipeline(*G, pipelinePreset(Preset));
    AnalysisManager AM(*G);
    EXPECT_EQ(countMoves(*G), Moves) << Preset;
    EXPECT_EQ(weightedMoveCount(*G, AM), Weighted) << Preset;
    expectEquivalent(*F, *G, {5});
  }
}

TEST(PhiCoalescing, GainReportedMatchesClasses) {
  auto F = makeFigure5();
  splitCriticalEdges(*F);
  Analyses S(*F);
  StatsSnapshot Stats =
      countersOf([&] { coalescePhis(*F, S.Ctx, S.Cfg, S.LI); });
  unsigned Gain = 0;
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions()) {
      if (!I.isPhi())
        break;
      for (unsigned K = 0; K < I.numUses(); ++K)
        Gain += S.Ctx.resourceOf(I.use(K)) == S.Ctx.resourceOf(I.def(0));
    }
  EXPECT_EQ(Stats["phicoalesce.gain"], Gain);
}

TEST(PhiCoalescing, CoalescedDefsArePinnedInIR) {
  // PrunedGraph_pinning publishes the decision as def pins (visible in
  // the printed IR, as in the paper's Figure 7 walkthrough).
  auto F = makeFigure5();
  splitCriticalEdges(*F);
  Analyses S(*F);
  coalescePhis(*F, S.Ctx, S.Cfg, S.LI);
  RegId X = F->findValue("x");
  RegId Rep = S.Ctx.resourceOf(X);
  unsigned PinnedDefs = 0;
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      for (unsigned K = 0; K < I.numDefs(); ++K)
        PinnedDefs += I.defPin(K) == Rep;
  EXPECT_GE(PinnedDefs, 2u) << "phi def and the chosen argument";
}

TEST(PhiCoalescing, DepthConstrainedVariantStaysCorrect) {
  auto F = makeFigure11();
  auto Before = cloneFunction(*F);
  PhiCoalescingOptions Opts;
  Opts.DepthConstrained = true;
  fullTranslate(*F, nullptr, Opts);
  expectEquivalent(*Before, *F, {9});
}

TEST(PhiCoalescing, FirstFoundHeuristicNeverBeatsWeighted) {
  // Sanity for the ablation: the paper's weighted pruning should match
  // or beat the arbitrary-order heuristic on the figure set.
  for (auto Make : {makeFigure5, makeFigure7, makeFigure9, makeFigure11}) {
    auto FW = Make();
    auto FF = Make();
    PhiCoalescingOptions W, FFOpts;
    FFOpts.Heuristic = PruneHeuristic::FirstFound;
    unsigned MW = fullTranslate(*FW, nullptr, W);
    unsigned MF = fullTranslate(*FF, nullptr, FFOpts);
    EXPECT_LE(MW, MF) << FW->name();
  }
}

TEST(PhiCoalescing, PhysicalRegisterLeadsItsComponent) {
  // When a component contains a physical resource, every member pins to
  // it (Figure 8 style).
  auto F = parse(R"(
func @f {
entry:
  input %a^R0
  branch %a, t, e
t:
  %z1^R0 = call @f1(%a^R0)
  jump j
e:
  %z2^R0 = call @f2(%a^R0)
  jump j
j:
  %z = phi [%z1, t], [%z2, e]
  ret %z^R0
}
)");
  splitCriticalEdges(*F);
  collectABIConstraints(*F);
  Analyses S(*F);
  coalescePhis(*F, S.Ctx, S.Cfg, S.LI);
  RegId Z = F->findValue("z");
  // z is dead after the ret use and does not interfere with R0's class,
  // so it joins it; the class representative is the physical register.
  EXPECT_EQ(S.Ctx.resourceOf(Z), static_cast<RegId>(Target::R0));
}
