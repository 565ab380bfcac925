//===- RegAllocTests.cpp - Register allocation tests ------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "outofssa/Pipeline.h"
#include "regalloc/RegAlloc.h"
#include "regalloc/SpillModel.h"
#include "support/Stats.h"
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

/// Drives the spill rewriter directly, one round per spill() call, with
/// the state the driver keeps across rounds: the rewriter, the NoSpill
/// set and the result counters.
struct SpillHarness {
  SpillHarness(Function &F, SpillModelKind Kind)
      : F(F), Model(Kind), NoSpill(F.numValues()) {}

  /// Spills the values named \p Names (in that order) and returns the
  /// regalloc counters the round bumped.
  StatsSnapshot spill(std::vector<std::string> Names) {
    std::vector<RegId> Spilled;
    for (const std::string &N : Names) {
      Spilled.push_back(F.findValue(N));
      EXPECT_NE(Spilled.back(), InvalidReg) << N;
    }
    StatsScope Scope;
    Model.insertSpillCode(F, Spilled, NoSpill, Result);
    return Scope.snapshot();
  }

  /// The NoSpill members, by name in RegId order.
  std::string noSpill() const {
    std::string Out;
    NoSpill.forEach(
        [&](size_t V) { Out += (Out.empty() ? "" : " ") + F.valueName(V); });
    return Out;
  }

  Function &F;
  SpillRewriter Model;
  BitVector NoSpill;
  RegAllocResult Result;
};

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

//===----------------------------------------------------------------------===//
// The spill rewriter's output, pinned
//===----------------------------------------------------------------------===//

TEST(SpillRewrite, SpillEverywhereReloadsEachUseAndStoresEachDef) {
  // One reload per instruction per value (both operands of %w read the
  // same temp), a store after the def, every temp NoSpill. Slots go to
  // new values in ascending RegId order whatever order they arrive in.
  auto F = parse(R"(
func @f {
entry:
  input %a
  %v = addi %a, 1
  %w = add %v, %v
  %x = add %w, %v
  ret %x
}
)");
  auto Before = cloneFunction(*F);
  SpillHarness H(*F, SpillModelKind::SpillEverywhere);
  H.spill({"w", "v"});
  EXPECT_EQ(printFunction(*F), R"(func @f {
entry:
  input %a
  %v.st = addi %a, 1
  %sl.addr = make 524288
  store %sl.addr, %v.st
  %v.ld = make 524288
  %v.ld = load %v.ld
  %w.st = add %v.ld, %v.ld
  %sl.addr.21 = make 524296
  store %sl.addr.21, %w.st
  %w.ld = make 524296
  %w.ld = load %w.ld
  %v.ld.23 = make 524288
  %v.ld.23 = load %v.ld.23
  %x = add %w.ld, %v.ld.23
  ret %x
}
)");
  EXPECT_EQ(H.noSpill(), "v.st sl.addr v.ld w.st sl.addr.21 w.ld v.ld.23");
  EXPECT_EQ(H.Result.NumSpilled, 2u);
  EXPECT_EQ(H.Result.NumSpillLoads, 3u);
  EXPECT_EQ(H.Result.NumSpillStores, 2u);
  EXPECT_EQ(H.Model.frameSlots(), 2u);
  expectEquivalent(*Before, *F, {4});
}

TEST(SpillRewrite, LoadStoreOptForwardsWithinABlock) {
  // One reload in b serves all three uses; the store stays because b
  // reloads the slot. The forwarded reload temp stays spillable.
  auto F = parse(R"(
func @f {
entry:
  input %a
  %v = addi %a, 1
  jump b
b:
  %w = add %v, %v
  %x = add %w, %v
  ret %x
}
)");
  auto Before = cloneFunction(*F);
  SpillHarness H(*F, SpillModelKind::LoadStoreOpt);
  StatsSnapshot Stats = H.spill({"v"});
  EXPECT_EQ(printFunction(*F), R"(func @f {
entry:
  input %a
  %v.st = addi %a, 1
  %sl.addr = make 524288
  store %sl.addr, %v.st
  jump b
b:
  %v.ld = make 524288
  %v.ld = load %v.ld
  %w = add %v.ld, %v.ld
  %x = add %w, %v.ld
  ret %x
}
)");
  EXPECT_EQ(H.noSpill(), "v.st sl.addr");
  EXPECT_EQ(H.Result.NumSpilled, 1u);
  EXPECT_EQ(H.Result.NumSpillLoads, 1u);
  EXPECT_EQ(H.Result.NumSpillStores, 1u);
  EXPECT_EQ(Stats["regalloc.forwarded_uses"], 2u);
  EXPECT_EQ(Stats.count("regalloc.dead_stores_removed"), 0u);
  expectEquivalent(*Before, *F, {4});
}

TEST(SpillRewrite, LoadStoreOptDeletesAnOverwrittenStore) {
  // The second def's store overwrites the first's with no reload in
  // between: the first store goes, and its def temp (now read only by
  // the forwarded use) stays spillable.
  auto F = parse(R"(
func @f {
entry:
  input %a
  %v = addi %a, 1
  %v = addi %v, 2
  jump b
b:
  %w = add %v, %a
  ret %w
}
)");
  auto Before = cloneFunction(*F);
  SpillHarness H(*F, SpillModelKind::LoadStoreOpt);
  StatsSnapshot Stats = H.spill({"v"});
  EXPECT_EQ(printFunction(*F), R"(func @f {
entry:
  input %a
  %v.st = addi %a, 1
  %v.st.18 = addi %v.st, 2
  %sl.addr.19 = make 524288
  store %sl.addr.19, %v.st.18
  jump b
b:
  %v.ld = make 524288
  %v.ld = load %v.ld
  %w = add %v.ld, %a
  ret %w
}
)");
  EXPECT_EQ(H.noSpill(), "sl.addr v.st.18 sl.addr.19 v.ld");
  EXPECT_EQ(H.Result.NumSpillLoads, 1u);
  EXPECT_EQ(H.Result.NumSpillStores, 1u);
  EXPECT_EQ(Stats["regalloc.forwarded_uses"], 1u);
  EXPECT_EQ(Stats["regalloc.dead_stores_removed"], 1u);
  expectEquivalent(*Before, *F, {4});
}

TEST(SpillRewrite, LoadStoreOptDropsStoresOfAValueNeverReloaded) {
  // Every use of %v sits in its def block: the def temp forwards to
  // both, no reload is emitted, and the write-only store is dropped.
  // The value was renamed, not shortened, so the rename stays spillable;
  // it still owns a slot.
  auto F = parse(R"(
func @f {
entry:
  input %a
  %v = addi %a, 1
  %w = add %v, %v
  ret %w
}
)");
  auto Before = cloneFunction(*F);
  SpillHarness H(*F, SpillModelKind::LoadStoreOpt);
  StatsSnapshot Stats = H.spill({"v"});
  EXPECT_EQ(printFunction(*F), R"(func @f {
entry:
  input %a
  %v.st = addi %a, 1
  %w = add %v.st, %v.st
  ret %w
}
)");
  EXPECT_EQ(H.noSpill(), "sl.addr");
  EXPECT_EQ(H.Result.NumSpilled, 1u);
  EXPECT_EQ(H.Result.NumSpillLoads, 0u);
  EXPECT_EQ(H.Result.NumSpillStores, 0u);
  EXPECT_EQ(H.Model.frameSlots(), 1u);
  EXPECT_EQ(Stats["regalloc.forwarded_uses"], 2u);
  EXPECT_EQ(Stats["regalloc.dead_stores_removed"], 1u);
  expectEquivalent(*Before, *F, {4});
}

TEST(SpillRewrite, LoadStoreOptRespillsItsOwnTempClassically) {
  // Round 1 renames %v to %v.st (previous test); spilling that rename
  // in round 2 takes the classic path: a store after its def, one
  // reload for the instruction that reads it twice, no forwarding, and
  // every new temp NoSpill. It gets the next slot.
  auto F = parse(R"(
func @f {
entry:
  input %a
  %v = addi %a, 1
  %w = add %v, %v
  ret %w
}
)");
  auto Before = cloneFunction(*F);
  SpillHarness H(*F, SpillModelKind::LoadStoreOpt);
  H.spill({"v"});
  StatsSnapshot Stats = H.spill({"v.st"});
  EXPECT_EQ(printFunction(*F), R"(func @f {
entry:
  input %a
  %v.st.st = addi %a, 1
  %sl.addr.19 = make 524296
  store %sl.addr.19, %v.st.st
  %v.st.ld = make 524296
  %v.st.ld = load %v.st.ld
  %w = add %v.st.ld, %v.st.ld
  ret %w
}
)");
  EXPECT_EQ(H.noSpill(), "sl.addr v.st.st sl.addr.19 v.st.ld");
  EXPECT_EQ(H.Result.NumSpilled, 2u);
  EXPECT_EQ(H.Result.NumSpillLoads, 1u);
  EXPECT_EQ(H.Result.NumSpillStores, 1u);
  EXPECT_EQ(H.Model.frameSlots(), 2u);
  EXPECT_EQ(Stats.count("regalloc.forwarded_uses"), 0u);
  EXPECT_EQ(Stats.count("regalloc.dead_stores_removed"), 0u);
  expectEquivalent(*Before, *F, {4});
}
