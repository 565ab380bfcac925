//===- RegAllocTests.cpp - Register allocation tests ------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "outofssa/Pipeline.h"
#include "regalloc/RegAlloc.h"
#include "workloads/Generator.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

namespace {

/// Full pipeline to machine code: out-of-SSA then allocation.
RegAllocResult lowerAndAllocate(Function &F, unsigned NumRegs = 12,
                                const char *Preset = "Lphi,ABI+C") {
  runPipeline(F, pipelinePreset(Preset));
  RegAllocOptions Opts;
  Opts.NumRegs = NumRegs;
  return allocateRegisters(F, Opts);
}

} // namespace

TEST(RegAlloc, StraightLineNeedsNoSpills) {
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  %x = add %a, %b
  %y = mul %x, %a
  %z = sub %y, %b
  ret %z
}
)");
  auto Before = cloneFunction(*F);
  RegAllocResult R = allocateRegisters(*F);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.NumSpilled, 0u);
  EXPECT_TRUE(collectVirtualRegs(*F).empty());
  expectEquivalent(*Before, *F, {6, 7});
}

TEST(RegAlloc, RespectsPrecoloredInterference) {
  // v lives across a call that clobbers R0: v must not get R0.
  auto F = parse(R"(
func @f {
entry:
  input %a
  %v = addi %a, 1
  %R0 = mov %a
  %R0 = call @f(%R0)
  %w = add %v, %R0
  ret %w
}
)");
  auto Before = cloneFunction(*F);
  RegAllocResult R = allocateRegisters(*F);
  ASSERT_TRUE(R.Ok) << R.Error;
  expectEquivalent(*Before, *F, {5});
}

TEST(RegAlloc, PressureForcesSpills) {
  // Nine simultaneously live values in a 4-register machine.
  std::string Text = "func @f {\nentry:\n  input %a\n";
  for (int K = 0; K < 9; ++K)
    Text += "  %v" + std::to_string(K) + " = addi %a, " +
            std::to_string(K) + "\n";
  Text += "  %s0 = add %v0, %v1\n";
  for (int K = 2; K < 9; ++K)
    Text += "  %s" + std::to_string(K - 1) + " = add %s" +
            std::to_string(K - 2) + ", %v" + std::to_string(K) + "\n";
  Text += "  ret %s7\n}\n";
  auto F = parse(Text);
  auto Before = cloneFunction(*F);
  RegAllocOptions Opts;
  Opts.NumRegs = 4;
  RegAllocResult R = allocateRegisters(*F, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.NumSpilled, 0u);
  EXPECT_GT(R.NumSpillLoads, 0u);
  EXPECT_GT(R.FrameBytes, 0u);
  EXPECT_LE(R.NumRegsUsed, 4u);
  EXPECT_TRUE(collectVirtualRegs(*F).empty());
  expectEquivalent(*Before, *F, {10});
}

TEST(RegAlloc, LoopCarriedValuesSurviveSpilling) {
  auto F = parse(R"(
func @f {
entry:
  input %n
  %acc = make 0
  %i = make 0
  jump head
head:
  %c = cmplt %i, %n
  branch %c, body, done
body:
  %acc = add %acc, %i
  %i = addi %i, 1
  jump head
done:
  ret %acc
}
)");
  auto Before = cloneFunction(*F);
  RegAllocOptions Opts;
  Opts.NumRegs = 2;
  RegAllocResult R = allocateRegisters(*F, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  expectEquivalent(*Before, *F, {5});
  expectEquivalent(*Before, *F, {0});
}

TEST(RegAlloc, TooFewRegistersFailsCleanly) {
  // A three-operand instruction cannot live in one register.
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  %x = add %a, %b
  ret %x
}
)");
  RegAllocOptions Opts;
  Opts.NumRegs = 1;
  RegAllocResult R = allocateRegisters(*F, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
}

TEST(RegAlloc, SsaInputFailsCleanly) {
  // Phis and parallel copies are the pipeline's to remove; the
  // allocator refuses them before the interference graph asserts.
  auto Phi = parse(R"(
func @f {
entry:
  input %a
  branch %a, t, e
t:
  %x = make 1
  jump j
e:
  %y = make 2
  jump j
j:
  %z = phi [%x, t], [%y, e]
  ret %z
}
)");
  auto ParCopy = parse(R"(
func @g {
entry:
  input %a, %b
  parcopy %c = %b, %d = %a
  %s = sub %c, %d
  ret %s
}
)");
  for (Function *F : {Phi.get(), ParCopy.get()}) {
    std::string Before = printFunction(*F);
    for (const char *Preset : {"chaitin-briggs", "chordal"}) {
      RegAllocOptions Opts = *regAllocPresetOpt(Preset);
      RegAllocResult R = allocateRegisters(*F, Opts);
      EXPECT_FALSE(R.Ok);
      EXPECT_NE(R.Error.find("out-of-SSA pipeline"), std::string::npos)
          << R.Error;
      EXPECT_EQ(printFunction(*F), Before);
    }
  }
}

TEST(RegAlloc, BoundedRoundsFailCleanly) {
  // Ten simultaneously live values in a 2-register machine need several
  // spill rounds; with MaxRounds=1 the allocator must give up after the
  // single permitted round with a structured error naming the cap —
  // never hang or crash. The same input converges under the default cap.
  std::string Text = "func @f {\nentry:\n  input %a\n";
  for (int K = 0; K < 10; ++K)
    Text += "  %v" + std::to_string(K) + " = addi %a, " +
            std::to_string(K) + "\n";
  Text += "  %s0 = add %v0, %v1\n";
  for (int K = 2; K < 10; ++K)
    Text += "  %s" + std::to_string(K - 1) + " = add %s" +
            std::to_string(K - 2) + ", %v" + std::to_string(K) + "\n";
  Text += "  ret %s8\n}\n";

  auto Capped = parse(Text);
  RegAllocOptions Opts;
  Opts.NumRegs = 2;
  Opts.MaxRounds = 1;
  RegAllocResult R = allocateRegisters(*Capped, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.NumRounds, 1u);
  EXPECT_NE(R.Error.find("did not converge after 1 spill rounds"),
            std::string::npos)
      << R.Error;

  // MaxRounds=0 is normalized to one round, not an instant failure
  // with zero attempts.
  auto Zero = parse(Text);
  Opts.MaxRounds = 0;
  R = allocateRegisters(*Zero, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.NumRounds, 1u);

  auto Free = parse(Text);
  auto Before = cloneFunction(*Free);
  Opts.MaxRounds = 32;
  R = allocateRegisters(*Free, Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.NumRounds, 1u);
  EXPECT_TRUE(collectVirtualRegs(*Free).empty());
  expectEquivalent(*Before, *Free, {3});
}

TEST(RegAlloc, AfterFullPipelineOnFigures) {
  for (const Workload &W : makeExamplesSuite()) {
    auto F = cloneFunction(*W.F);
    RegAllocResult R = lowerAndAllocate(*F);
    ASSERT_TRUE(R.Ok) << W.Name << ": " << R.Error;
    EXPECT_TRUE(collectVirtualRegs(*F).empty()) << W.Name;
    for (const auto &Args : W.Inputs) {
      SCOPED_TRACE(W.Name);
      expectEquivalent(*W.F, *F, Args);
    }
  }
}

TEST(RegAlloc, GeneratedProgramsUnderPressure) {
  for (uint64_t Seed = 900; Seed < 910; ++Seed) {
    GeneratorParams P;
    P.Seed = Seed;
    P.NumStatements = 24;
    P.MaxNesting = 2;
    P.UseSP = Seed % 2 == 0;
    auto F = generateProgram(P, "ra" + std::to_string(Seed));
    normalizeToOptimizedSSA(*F);
    auto Before = cloneFunction(*F);
    auto Machine = cloneFunction(*F);
    RegAllocResult R =
        lowerAndAllocate(*Machine, /*NumRegs=*/Seed % 3 == 0 ? 6 : 12);
    ASSERT_TRUE(R.Ok) << "seed " << Seed << ": " << R.Error;
    EXPECT_TRUE(collectVirtualRegs(*Machine).empty());
    expectEquivalent(*Before, *Machine, {Seed, Seed + 1});
  }
}

TEST(RegAlloc, CoalescingReducesPressureOnAverage) {
  // The paper's [LIM4] observation made measurable: compare spill counts
  // of the pinned pipeline vs the naive one under pressure. Aggregate
  // over a suite so individual flukes wash out; the pinned pipeline must
  // not be substantially worse.
  auto Suite = makeValccSuite(1);
  unsigned PinnedSpills = 0, NaiveSpills = 0;
  for (const Workload &W : Suite) {
    auto A = cloneFunction(*W.F);
    runPipeline(*A, pipelinePreset("Lphi,ABI+C"));
    RegAllocOptions Opts;
    Opts.NumRegs = 6;
    RegAllocResult RA = allocateRegisters(*A, Opts);
    auto B = cloneFunction(*W.F);
    runPipeline(*B, pipelinePreset("C,naiveABI+C"));
    RegAllocResult RB = allocateRegisters(*B, Opts);
    if (RA.Ok && RB.Ok) {
      PinnedSpills += RA.NumSpilled;
      NaiveSpills += RB.NumSpilled;
    }
  }
  EXPECT_LE(PinnedSpills, NaiveSpills + NaiveSpills / 4)
      << "pinning-based coalescing should not blow up register pressure";
}
