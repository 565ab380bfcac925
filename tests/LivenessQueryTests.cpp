//===- LivenessQueryTests.cpp - Fast-liveness vs dense oracle --------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// The contract the pinning analysis and Sreedhar's CSSA conversion depend
// on: LivenessQuery answers every isLiveIn/isLiveOut query exactly as the
// dense Liveness fixpoint does, and every isLiveAfter/isLiveBefore query
// exactly as a scan of the block falling back to the dense live-out.
// Cross-checks every workload suite (SSA form as the pipeline sees it,
// and raw generated programs as a non-SSA stress), every variable, every
// block, and every instruction position.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/Liveness.h"
#include "analysis/LivenessQuery.h"
#include "workloads/Generator.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace lao;
using namespace lao::test;

namespace {

/// The positional reference: \p V is live at the point before \p From
/// iff its next occurrence in \p BB is a use (an instruction reads its
/// uses before writing its defs; a phi's arguments occur at the end of
/// the predecessor, so a phi only defines), or it has none and is in the
/// dense live-out. A plain scan, sharing no index with the engine.
bool scanLiveFrom(const Liveness &Dense, RegId V, const BasicBlock &BB,
                  BasicBlock::InstList::const_iterator From) {
  for (auto It = From; It != BB.instructions().end(); ++It) {
    if (!It->isPhi())
      for (RegId U : It->uses())
        if (U == V)
          return true;
    for (RegId D : It->defs())
      if (D == V)
        return false;
  }
  return Dense.isLiveOut(V, &BB);
}

/// Compares every query the engine can answer on \p F with its
/// references. Block-level queries are checked for all (variable, block)
/// pairs; the positional queries for all (variable, instruction) pairs of
/// blocks small enough to keep the product tractable.
void expectQueriesMatchDense(const Function &F, const char *Tag) {
  CFG Cfg(const_cast<Function &>(F));
  DominatorTree DT(Cfg);
  Liveness Dense(Cfg);
  LivenessQuery LQ(Cfg, DT);

  // Exhaustive on small functions; a fixed deterministic stride over the
  // variable set on big ones (every block is still covered per variable).
  size_t Product = F.numValues() * F.numBlocks();
  RegId Stride = static_cast<RegId>(Product > 60000 ? Product / 60000 + 1 : 1);
  for (RegId V = 0; V < F.numValues(); V += Stride)
    for (const auto &BB : F.blocks()) {
      ASSERT_EQ(Dense.isLiveIn(V, BB.get()), LQ.isLiveIn(V, BB.get()))
          << Tag << ": " << F.name() << " live-in of v" << V << " at block "
          << BB->id();
      ASSERT_EQ(Dense.isLiveOut(V, BB.get()), LQ.isLiveOut(V, BB.get()))
          << Tag << ": " << F.name() << " live-out of v" << V << " at block "
          << BB->id();
    }

  for (const auto &BB : F.blocks()) {
    if (BB->instructions().size() > 40)
      continue; // Bound the (vars x positions) product on huge blocks.
    for (auto It = BB->instructions().begin(); It != BB->instructions().end();
         ++It)
      for (RegId V = 0; V < F.numValues(); V += Stride) {
        ASSERT_EQ(scanLiveFrom(Dense, V, *BB, std::next(It)),
                  LQ.isLiveAfter(V, BB.get(), It))
            << Tag << ": " << F.name() << " live-after of v" << V
            << " in block " << BB->id();
        ASSERT_EQ(scanLiveFrom(Dense, V, *BB, It),
                  LQ.isLiveBefore(V, BB.get(), It))
            << Tag << ": " << F.name() << " live-before of v" << V
            << " in block " << BB->id();
      }
  }
}

} // namespace

TEST(LivenessQuery, MatchesDenseOnEverySuite) {
  for (const SuiteSpec &Spec : allSuites()) {
    auto Suite = Spec.Make();
    for (const Workload &W : Suite)
      expectQueriesMatchDense(*W.F, Spec.Name);
  }
}

TEST(LivenessQuery, MatchesDenseOnRawGeneratedPrograms) {
  // The suites arrive in optimized pruned SSA; also stress the raw
  // generator output (multi-def variables, no phis) where the dominance
  // prefilter must disable itself.
  for (unsigned Seed = 1; Seed <= 6; ++Seed) {
    GeneratorParams P;
    P.Seed = Seed;
    P.NumStatements = 24 + Seed * 6;
    P.MaxNesting = 3;
    auto F = generateProgram(P, "raw_" + std::to_string(Seed));
    expectQueriesMatchDense(*F, "raw-generated");
  }
}

TEST(LivenessQuery, UnreachableBlocksMatchDense) {
  // The dense fixpoint iterates the full rpo() order, which includes
  // unreachable blocks; the per-variable walk must agree there too.
  auto F = parse(R"(
func @f {
entry:
  input %a
  %x = addi %a, 1
  jump join
dead:
  %y = addi %x, 2
  output %y
  jump join
join:
  %z = phi [%x, entry], [%x, dead]
  ret %z
}
)");
  ASSERT_TRUE(F);
  expectQueriesMatchDense(*F, "unreachable");
}

TEST(LivenessQuery, IsLiveAfterScansUsesAndDefs) {
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  %x = add %a, %b
  %y = add %x, %a
  %z = add %y, %y
  ret %z
}
)");
  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  LivenessQuery LV(Cfg, DT);
  BasicBlock *E = &F->entry();
  RegId A = F->findValue("a");
  RegId X = F->findValue("x");
  auto It = E->instructions().begin(); // input
  ++It;                                // x = add a, b
  // After defining x: a is still used by y's def; x used by y.
  EXPECT_TRUE(LV.isLiveAfter(A, E, It));
  EXPECT_TRUE(LV.isLiveAfter(X, E, It));
  ++It; // y = add x, a
  // After y: neither a nor x is used again.
  EXPECT_FALSE(LV.isLiveAfter(A, E, It));
  EXPECT_FALSE(LV.isLiveAfter(X, E, It));
}

TEST(LivenessQuery, IsLiveAroundCopy) {
  // A copy is an ordinary use: the source stays live up to (and through)
  // the move, and dies there when the move is its last use.
  auto F = parse(R"(
func @f {
entry:
  input %a
  %b = mov %a
  %r = add %b, %b
  ret %r
}
)");
  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  LivenessQuery LV(Cfg, DT);
  BasicBlock *E = &F->entry();
  RegId A = F->findValue("a"), B = F->findValue("b");
  auto It = E->instructions().begin(); // input
  ++It;                                // b = mov a
  EXPECT_TRUE(LV.isLiveBefore(A, E, It));
  EXPECT_FALSE(LV.isLiveAfter(A, E, It)) << "copy source dead after move";
  EXPECT_FALSE(LV.isLiveBefore(B, E, It));
  EXPECT_TRUE(LV.isLiveAfter(B, E, It));
  ++It; // r = add b, b
  EXPECT_TRUE(LV.isLiveBefore(B, E, It));
  EXPECT_FALSE(LV.isLiveAfter(B, E, It));
}

TEST(LivenessQuery, IsLiveAroundParallelCopy) {
  // parcopy %a = %b, %b = %a swaps: both sources are live before, both
  // destinations live after; the pre-swap values die at the parcopy.
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  parcopy %a = %b, %b = %a
  %r = add %a, %b
  ret %r
}
)");
  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  LivenessQuery LV(Cfg, DT);
  BasicBlock *E = &F->entry();
  RegId A = F->findValue("a"), B = F->findValue("b");
  auto It = E->instructions().begin(); // input
  ++It;                                // parcopy
  EXPECT_TRUE(LV.isLiveBefore(A, E, It));
  EXPECT_TRUE(LV.isLiveBefore(B, E, It));
  EXPECT_TRUE(LV.isLiveAfter(A, E, It));
  EXPECT_TRUE(LV.isLiveAfter(B, E, It));
  ++It; // r = add a, b -- last uses
  EXPECT_FALSE(LV.isLiveAfter(A, E, It));
  EXPECT_FALSE(LV.isLiveAfter(B, E, It));
  EXPECT_TRUE(LV.isLiveAfter(F->findValue("r"), E, It));
}

TEST(LivenessQuery, IsLiveBeforeAtBlockBoundary) {
  // isLiveBefore at a block's first instruction must agree with live-in.
  auto F = parse(R"(
func @f {
entry:
  input %a
  %c = cmplt %a, %a
  branch %c, left, right
left:
  %x = addi %a, 1
  ret %x
right:
  ret %a
}
)");
  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  LivenessQuery LV(Cfg, DT);
  BasicBlock *L = F->blockByName("left");
  RegId A = F->findValue("a");
  EXPECT_TRUE(LV.isLiveIn(A, L));
  EXPECT_TRUE(LV.isLiveBefore(A, L, L->instructions().begin()));
  EXPECT_FALSE(LV.isLiveBefore(F->findValue("x"), L,
                               L->instructions().begin()));
}

TEST(LivenessQuery, NonSSAMultipleDefs) {
  // Non-SSA: v redefined; the first value dies at the redefinition.
  auto F = parse(R"(
func @f {
entry:
  input %a
  %v = addi %a, 1
  %u = addi %v, 2
  %v = addi %a, 3
  %w = add %v, %u
  ret %w
}
)");
  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  LivenessQuery LV(Cfg, DT);
  BasicBlock *E = &F->entry();
  RegId V = F->findValue("v");
  auto It = E->instructions().begin();
  ++It; // first def of v
  EXPECT_TRUE(LV.isLiveAfter(V, E, It));
  ++It; // u = addi v, 2: v dead until redefined
  EXPECT_FALSE(LV.isLiveAfter(V, E, It));
}
