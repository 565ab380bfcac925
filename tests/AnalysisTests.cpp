//===- AnalysisTests.cpp - Dominators, loops, liveness tests ----------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "ir/CFG.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

namespace {

/// Diamond with a loop on one arm:
///   entry -> head; head -> body|tail; body -> head; tail: ret
std::unique_ptr<Function> makeLoopDiamond() {
  return parse(R"(
func @f {
entry:
  input %a
  %i = make 0
  jump head
head:
  %iv = phi [%i, entry], [%in, body]
  %c = cmplt %iv, %a
  branch %c, body, tail
body:
  %in = addi %iv, 1
  jump head
tail:
  ret %iv
}
)");
}

} // namespace

TEST(Dominators, LinearChain) {
  auto F = parse(R"(
func @f {
a:
  input %x
  jump b
b:
  jump c
c:
  ret %x
}
)");
  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  BasicBlock *A = F->blockByName("a");
  BasicBlock *B = F->blockByName("b");
  BasicBlock *C = F->blockByName("c");
  EXPECT_EQ(DT.idom(A), nullptr);
  EXPECT_EQ(DT.idom(B), A);
  EXPECT_EQ(DT.idom(C), B);
  EXPECT_TRUE(DT.dominates(A, C));
  EXPECT_TRUE(DT.strictlyDominates(A, C));
  EXPECT_FALSE(DT.dominates(C, A));
  EXPECT_TRUE(DT.dominates(B, B));
  EXPECT_EQ(DT.depth(C), 2u);
}

TEST(Dominators, DiamondJoinDominatedByFork) {
  auto F = parse(R"(
func @f {
entry:
  input %x
  branch %x, l, r
l:
  jump j
r:
  jump j
j:
  ret %x
}
)");
  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  BasicBlock *E = F->blockByName("entry");
  BasicBlock *L = F->blockByName("l");
  BasicBlock *J = F->blockByName("j");
  EXPECT_EQ(DT.idom(J), E);
  EXPECT_FALSE(DT.dominates(L, J));
  EXPECT_TRUE(DT.dominates(E, J));
}

TEST(Dominators, FrontierOfDiamondArmsIsJoin) {
  auto F = parse(R"(
func @f {
entry:
  input %x
  branch %x, l, r
l:
  jump j
r:
  jump j
j:
  ret %x
}
)");
  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  DominanceFrontier DF(Cfg, DT);
  BasicBlock *L = F->blockByName("l");
  BasicBlock *R = F->blockByName("r");
  BasicBlock *J = F->blockByName("j");
  ASSERT_EQ(DF.frontier(L).size(), 1u);
  EXPECT_EQ(DF.frontier(L)[0], J);
  ASSERT_EQ(DF.frontier(R).size(), 1u);
  EXPECT_EQ(DF.frontier(R)[0], J);
  EXPECT_TRUE(DF.frontier(J).empty());
}

TEST(Dominators, FrontierOfLoopBodyContainsHeader) {
  auto F = makeLoopDiamond();
  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  DominanceFrontier DF(Cfg, DT);
  BasicBlock *Body = F->blockByName("body");
  BasicBlock *Head = F->blockByName("head");
  bool Found = false;
  for (BasicBlock *B : DF.frontier(Body))
    Found |= B == Head;
  EXPECT_TRUE(Found);
  // The header's own frontier also contains itself (it is in the loop).
  Found = false;
  for (BasicBlock *B : DF.frontier(Head))
    Found |= B == Head;
  EXPECT_TRUE(Found);
}

TEST(LoopInfo, SimpleLoopDepths) {
  auto F = makeLoopDiamond();
  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  LoopInfo LI(Cfg, DT);
  EXPECT_EQ(LI.numLoops(), 1u);
  EXPECT_TRUE(LI.isHeader(F->blockByName("head")));
  EXPECT_EQ(LI.depth(F->blockByName("head")), 1u);
  EXPECT_EQ(LI.depth(F->blockByName("body")), 1u);
  EXPECT_EQ(LI.depth(F->blockByName("entry")), 0u);
  EXPECT_EQ(LI.depth(F->blockByName("tail")), 0u);
}

TEST(LoopInfo, NestedLoopDepths) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  jump oh
oh:
  %c1 = cmplt %a, %a
  branch %c1, ih, done
ih:
  %c2 = cmpeq %a, %a
  branch %c2, ib, ohlatch
ib:
  jump ih
ohlatch:
  jump oh
done:
  ret %a
}
)");
  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  LoopInfo LI(Cfg, DT);
  EXPECT_EQ(LI.numLoops(), 2u);
  EXPECT_EQ(LI.depth(F->blockByName("oh")), 1u);
  EXPECT_EQ(LI.depth(F->blockByName("ih")), 2u);
  EXPECT_EQ(LI.depth(F->blockByName("ib")), 2u);
  EXPECT_EQ(LI.depth(F->blockByName("done")), 0u);
}

TEST(Liveness, PhiArgLiveOutOfPredNotLiveInOfBlock) {
  auto F = makeLoopDiamond();
  CFG Cfg(*F);
  Liveness LV(Cfg);
  BasicBlock *Entry = F->blockByName("entry");
  BasicBlock *Head = F->blockByName("head");
  RegId I = F->findValue("i");
  ASSERT_NE(I, InvalidReg);
  // %i flows into the phi: live-out of entry, but NOT live-in of head
  // (the phi use happens at the end of the predecessor — paper
  // Section 3.2 Class 2 semantics).
  EXPECT_TRUE(LV.isLiveOut(I, Entry));
  EXPECT_FALSE(LV.isLiveIn(I, Head));
}

TEST(Liveness, PhiResultLiveInDownstream) {
  auto F = makeLoopDiamond();
  CFG Cfg(*F);
  Liveness LV(Cfg);
  RegId Iv = F->findValue("iv");
  ASSERT_NE(Iv, InvalidReg);
  EXPECT_TRUE(LV.isLiveIn(Iv, F->blockByName("tail")));
  EXPECT_TRUE(LV.isLiveOut(Iv, F->blockByName("head")));
  // Not live-in at function entry.
  EXPECT_FALSE(LV.isLiveIn(Iv, F->blockByName("entry")));
}

TEST(Liveness, RecomputeAndClearMatchFreshAnalysisAfterMerge) {
  // The coalescer's incremental update: merge a copy's destination %d
  // into its source %s, delete the now-identity copy, recompute the
  // survivor and clear the victim. %d is used only after the loop, so it
  // is live around the back edge without a use in the body: the
  // restricted fixpoint needs a second pass to carry it from the header
  // into the body.
  auto F = parse(R"(
func @f {
entry:
  input %n
  %s = make 7
  %d = mov %s
  %i = make 0
  jump head
head:
  %c = cmplt %i, %n
  branch %c, body, exit
body:
  %i = addi %i, 1
  jump head
exit:
  output %d
  ret %i
}
)");
  RegId S = F->findValue("s"), D = F->findValue("d");
  ASSERT_NE(S, InvalidReg);
  ASSERT_NE(D, InvalidReg);
  CFG Cfg(*F);
  Liveness LV(Cfg);
  BasicBlock *Body = F->blockByName("body");
  ASSERT_TRUE(LV.isLiveIn(D, Body));
  ASSERT_FALSE(LV.isLiveIn(S, Body));

  for (const auto &BB : F->blocks()) {
    auto &Insts = BB->instructions();
    for (auto It = Insts.begin(); It != Insts.end();) {
      for (unsigned K = 0; K < It->numDefs(); ++K)
        if (It->def(K) == D)
          It->setDef(K, S);
      for (unsigned K = 0; K < It->numUses(); ++K)
        if (It->use(K) == D)
          It->setUse(K, S);
      if (It->isCopy() && It->def(0) == It->use(0))
        It = Insts.erase(It);
      else
        ++It;
    }
  }
  LV.recomputeValues({S});
  LV.clearValues({D});

  CFG FreshCfg(*F);
  Liveness Fresh(FreshCfg);
  for (const auto &BB : F->blocks()) {
    EXPECT_EQ(LV.liveIn(BB.get()), Fresh.liveIn(BB.get())) << BB->name();
    EXPECT_EQ(LV.liveOut(BB.get()), Fresh.liveOut(BB.get())) << BB->name();
  }
  EXPECT_TRUE(LV.isLiveIn(S, Body));
  EXPECT_FALSE(LV.isLiveIn(D, Body));
}
