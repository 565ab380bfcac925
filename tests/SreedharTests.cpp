//===- SreedharTests.cpp - CSSA conversion tests ----------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/AnalysisManager.h"
#include "ir/CFG.h"
#include "outofssa/MoveStats.h"
#include "outofssa/Pipeline.h"
#include "outofssa/Sreedhar.h"
#include "ssa/SSAVerifier.h"
#include "workloads/Generator.h"
#include "workloads/PaperExamples.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

TEST(Sreedhar, NoCopiesWhenWebIsInterferenceFree) {
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
  ret %x
}
)");
  splitCriticalEdges(*F);
  AnalysisManager AM(*F);
  StatsSnapshot Stats = countersOf([&] { convertToCSSA(*F, AM); });
  EXPECT_EQ(Stats["sreedhar.phis_processed"], 1u);
  EXPECT_EQ(Stats["sreedhar.copies_inserted"], 0u);
}

TEST(Sreedhar, InsertsCopyForInterferingArg) {
  // Figure 5's shape: x1 and x2 interfere; one copy restores CSSA.
  auto F = makeFigure5();
  auto Before = cloneFunction(*F);
  splitCriticalEdges(*F);
  AnalysisManager AM(*F);
  StatsSnapshot Stats = countersOf([&] { convertToCSSA(*F, AM); });
  EXPECT_GE(Stats["sreedhar.copies_inserted"], 1u);
  EXPECT_TRUE(verifySSA(*F).empty()) << "conversion preserves SSA";
  expectEquivalent(*Before, *F, {2, 5});
}

TEST(Sreedhar, LostCopyGetsResolved) {
  // The phi result is live out of the latch: without a copy the web
  // cannot be merged (the lost-copy situation).
  auto F = parse(R"(
func @f {
entry:
  input %n
  %x0 = make 0
  jump head
head:
  %x = phi [%x0, entry], [%x2, latch]
  %x2 = addi %x, 1
  %c = cmplt %x2, %n
  branch %c, latch, done
latch:
  jump head
done:
  output %x
  ret %x2
}
)");
  auto Before = cloneFunction(*F);
  splitCriticalEdges(*F);
  AnalysisManager AM(*F);
  StatsSnapshot Stats = countersOf([&] { convertToCSSA(*F, AM); });
  EXPECT_GE(Stats["sreedhar.copies_inserted"], 1u);
  pinCSSAWebs(*F);

  auto Translated = cloneFunction(*Before);
  runPipeline(*Translated, pipelinePreset("Sphi+C"));
  expectEquivalent(*Before, *Translated, {4});
}

TEST(Sreedhar, SwapCostsMoreThanParallelCopies) {
  // Figure 10 ([CS2]): Sreedhar's variable splitting costs at least as
  // many moves as our parallel-copy-based translation.
  auto F = makeFigure10();
  auto Ours = cloneFunction(*F);
  auto Theirs = cloneFunction(*F);
  runPipeline(*Ours, pipelinePreset("Lphi+C"));
  runPipeline(*Theirs, pipelinePreset("Sphi+C"));
  EXPECT_LE(countMoves(*Ours), countMoves(*Theirs));
  expectEquivalent(*F, *Theirs, {4, 9});
}

TEST(Sreedhar, PinCSSAWebsUnifiesWholeWeb) {
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
  ret %x
}
)");
  splitCriticalEdges(*F);
  AnalysisManager AM(*F);
  convertToCSSA(*F, AM);
  unsigned Pinned = pinCSSAWebs(*F);
  EXPECT_EQ(Pinned, 3u) << "x, x1 and x2 all pinned to one resource";
  RegId Pin = InvalidReg;
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      for (unsigned K = 0; K < I.numDefs(); ++K)
        if (I.defPin(K) != InvalidReg) {
          if (Pin == InvalidReg)
            Pin = I.defPin(K);
          EXPECT_EQ(I.defPin(K), Pin);
        }
}

TEST(Sreedhar, PhysicalRepClaimedByOneWebOnly) {
  // Two independent webs both containing an R0-pinned call result: only
  // one may use R0 as its representative (the other would strongly
  // interfere).
  auto F = parse(R"(
func @f {
entry:
  input %a^R0
  branch %a, t1, e1
t1:
  %u1^R0 = call @f1(%a^R0)
  jump j1
e1:
  %u2 = addi %a, 1
  jump j1
j1:
  %u = phi [%u1, t1], [%u2, e1]
  output %u
  branch %u, t2, e2
t2:
  %v1^R0 = call @f2(%u^R0)
  jump j2
e2:
  %v2 = addi %u, 2
  jump j2
j2:
  %v = phi [%v1, t2], [%v2, e2]
  ret %v^R0
}
)");
  auto Before = cloneFunction(*F);
  auto Translated = cloneFunction(*F);
  runPipeline(*Translated, pipelinePreset("Sphi+LABI+C"));
  expectEquivalent(*Before, *Translated, {1});
  expectEquivalent(*Before, *Translated, {0});
}

TEST(Sreedhar, ConvertedSuiteFunctionsStayValidSSA) {
  for (uint64_t Seed = 500; Seed < 506; ++Seed) {
    GeneratorParams P;
    P.Seed = Seed;
    P.NumStatements = 20;
    P.MaxNesting = 2;
    std::string Name = "s"; // g++ 12 -O3 misreports "s" + ... (-Wrestrict).
    Name += std::to_string(Seed);
    auto F = generateProgram(P, Name);
    normalizeToOptimizedSSA(*F);
    splitCriticalEdges(*F);
    AnalysisManager AM(*F);
    convertToCSSA(*F, AM);
    EXPECT_TRUE(verifySSA(*F).empty()) << "seed " << Seed;
    expectWellFormed(*F);
  }
}

TEST(Sreedhar, ConversionEstablishesCSSAProperty) {
  // The defining property: after conversion, no phi web contains two
  // interfering values — checked on the figures and random programs.
  for (const Workload &W : makeExamplesSuite()) {
    auto F = cloneFunction(*W.F);
    splitCriticalEdges(*F);
    AnalysisManager AM(*F);
    convertToCSSA(*F, AM);
    auto Violations = findCSSAViolations(*F, AM);
    EXPECT_TRUE(Violations.empty())
        << W.Name << ": " << Violations.size() << " interfering pairs, "
        << "e.g. " << F->valueName(Violations.empty() ? 0
                                                      : Violations[0].first);
  }
  for (uint64_t Seed = 1400; Seed < 1412; ++Seed) {
    GeneratorParams P;
    P.Seed = Seed;
    P.NumStatements = 22;
    P.MaxNesting = 2;
    auto F = generateProgram(P, "cssa" + std::to_string(Seed));
    normalizeToOptimizedSSA(*F);
    splitCriticalEdges(*F);
    AnalysisManager AM(*F);
    convertToCSSA(*F, AM);
    EXPECT_TRUE(findCSSAViolations(*F, AM).empty()) << "seed " << Seed;
  }
}

TEST(Sreedhar, ViolationsDetectedBeforeConversion) {
  // Figure 5's web (x, x1, x2) interferes before conversion; the checker
  // must see it, and conversion must clear it.
  auto F = makeFigure5();
  splitCriticalEdges(*F);
  AnalysisManager AM(*F);
  EXPECT_FALSE(findCSSAViolations(*F, AM).empty());
  convertToCSSA(*F, AM);
  EXPECT_TRUE(findCSSAViolations(*F, AM).empty());
}
