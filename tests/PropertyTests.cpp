//===- PropertyTests.cpp - Cross-module property sweeps ---------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Differential and invariant properties checked over seeded random
// programs: printer/parser round trips, dominance vs brute-force path
// enumeration, liveness vs a path-based oracle on small graphs,
// PinningContext algebraic invariants, and end-to-end machine-code
// generation (out-of-SSA + register allocation) equivalence.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "ir/CFG.h"
#include "outofssa/Constraints.h"
#include "outofssa/PinningContext.h"
#include "outofssa/Pipeline.h"
#include "regalloc/RegAlloc.h"
#include "ssa/SSAVerifier.h"
#include "workloads/Generator.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <set>

using namespace lao;
using namespace lao::test;

namespace {

std::unique_ptr<Function> randomSSA(uint64_t Seed) {
  GeneratorParams P;
  P.Seed = Seed;
  P.NumStatements = 14 + Seed % 17;
  P.MaxNesting = 1 + Seed % 3;
  P.NumParams = 1 + Seed % 3;
  P.UseSP = Seed % 4 == 0;
  P.UsePsi = Seed % 5 == 0;
  auto F = generateProgram(P, "prop" + std::to_string(Seed));
  normalizeToOptimizedSSA(*F);
  return F;
}

/// Blocks reachable from the entry without passing through \p Excluded.
std::set<const BasicBlock *> reachableAvoiding(const Function &F,
                                               const BasicBlock *Excluded) {
  std::set<const BasicBlock *> Seen;
  std::vector<const BasicBlock *> Work;
  const BasicBlock *Entry = &F.entry();
  if (Entry == Excluded)
    return Seen;
  Seen.insert(Entry);
  Work.push_back(Entry);
  while (!Work.empty()) {
    const BasicBlock *BB = Work.back();
    Work.pop_back();
    for (BasicBlock *S : BB->successors())
      if (S != Excluded && Seen.insert(S).second)
        Work.push_back(S);
  }
  return Seen;
}

} // namespace

class PropertySweep : public testing::TestWithParam<uint64_t> {};

TEST_P(PropertySweep, PrintParseRoundTrip) {
  auto F = randomSSA(GetParam());
  std::string P1 = printFunction(*F);
  std::string Error;
  auto F2 = parseFunction(P1, &Error);
  ASSERT_TRUE(F2) << Error;
  EXPECT_EQ(P1, printFunction(*F2));
  // The reparsed function must behave identically.
  std::vector<uint64_t> Args;
  for (unsigned K = 0; K < F->numParams(); ++K)
    Args.push_back(GetParam() + K);
  expectEquivalent(*F, *F2, Args);
}

TEST_P(PropertySweep, DominanceMatchesPathDefinition) {
  // A dominates B iff removing A makes B unreachable (for reachable B).
  auto F = randomSSA(GetParam());
  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  for (const auto &A : F->blocks()) {
    if (!Cfg.isReachable(A.get()))
      continue;
    std::set<const BasicBlock *> Avoiding =
        reachableAvoiding(*F, A.get());
    for (const auto &B : F->blocks()) {
      if (!Cfg.isReachable(B.get()))
        continue;
      bool PathDom = A.get() == B.get() || !Avoiding.count(B.get());
      EXPECT_EQ(DT.dominates(A.get(), B.get()), PathDom)
          << A->name() << " vs " << B->name();
    }
  }
}

TEST_P(PropertySweep, LivenessIsConsistentAcrossEdges) {
  // For every CFG edge B -> S: liveIn(S) minus S's phi defs must be
  // contained in liveOut(B); phi args from B must be live out of B.
  auto F = randomSSA(GetParam());
  CFG Cfg(*F);
  Liveness LV(Cfg);
  for (const auto &B : F->blocks()) {
    for (BasicBlock *S : Cfg.succs(B.get())) {
      const BitVector &InS = LV.liveIn(S);
      InS.forEach([&](size_t V) {
        EXPECT_TRUE(LV.isLiveOut(static_cast<RegId>(V), B.get()))
            << "live-in of " << S->name() << " not live-out of "
            << B->name() << ": " << F->valueName(static_cast<RegId>(V));
      });
      for (const Instruction &I : S->instructions()) {
        if (!I.isPhi())
          break;
        for (unsigned K = 0; K < I.numUses(); ++K)
          if (I.incomingBlock(K) == B.get()) {
            EXPECT_TRUE(LV.isLiveOut(I.use(K), B.get()));
          }
      }
    }
  }
}

TEST_P(PropertySweep, LivenessDefsDominateLiveInPoints) {
  // In SSA, any value live into a reachable block has a definition that
  // dominates the block.
  auto F = randomSSA(GetParam());
  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  Liveness LV(Cfg);
  std::map<RegId, const BasicBlock *> DefBlock;
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      for (RegId D : I.defs())
        if (!F->isPhysical(D))
          DefBlock[D] = BB.get();
  for (const auto &BB : F->blocks()) {
    if (!Cfg.isReachable(BB.get()))
      continue;
    LV.liveIn(BB.get()).forEach([&](size_t V) {
      if (F->isPhysical(static_cast<RegId>(V)))
        return;
      auto It = DefBlock.find(static_cast<RegId>(V));
      ASSERT_NE(It, DefBlock.end());
      EXPECT_TRUE(DT.dominates(It->second, BB.get()))
          << F->valueName(static_cast<RegId>(V)) << " live into "
          << BB->name();
    });
  }
}

TEST_P(PropertySweep, PinningContextInvariants) {
  auto F = randomSSA(GetParam());
  splitCriticalEdges(*F);
  collectSPConstraints(*F);
  collectABIConstraints(*F);
  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  LivenessQuery LV(Cfg, DT);
  PinningContext Ctx(*F, Cfg, DT, LV);

  std::set<RegId> SeenMembers;
  for (RegId V = 0; V < F->numValues(); ++V) {
    RegId Rep = Ctx.resourceOf(V);
    // resourceOf is idempotent.
    EXPECT_EQ(Ctx.resourceOf(Rep), Rep);
    // A class never interferes with itself.
    EXPECT_FALSE(Ctx.resourceInterfere(V, Rep));
    if (Rep != V)
      continue;
    const auto &Members = Ctx.members(V);
    for (RegId M : Members) {
      EXPECT_EQ(Ctx.resourceOf(M), Rep) << "member outside its class";
      EXPECT_TRUE(SeenMembers.insert(M).second)
          << "value in two classes: " << F->valueName(M);
    }
  }

  // Every killed value is a member of its own class.
  for (RegId V = 0; V < F->numValues(); ++V) {
    if (!Ctx.isKilled(V))
      continue;
    const auto &M = Ctx.members(Ctx.resourceOf(V));
    EXPECT_NE(std::find(M.begin(), M.end(), V), M.end())
        << "killed value outside its class: " << F->valueName(V);
  }

  // Interference is symmetric over a sample of class pairs.
  std::vector<RegId> Reps;
  for (RegId V = 0; V < F->numValues() && Reps.size() < 24; ++V)
    if (Ctx.resourceOf(V) == V && Ctx.defSite(V).Valid)
      Reps.push_back(V);
  for (size_t A = 0; A < Reps.size(); ++A)
    for (size_t B = A + 1; B < Reps.size(); ++B)
      EXPECT_EQ(Ctx.resourceInterfere(Reps[A], Reps[B]),
                Ctx.resourceInterfere(Reps[B], Reps[A]));
}

TEST_P(PropertySweep, MachineCodeEndToEnd) {
  // SSA -> out-of-SSA -> register allocation, checked against the
  // original on several inputs; the final code must only use physical
  // registers.
  auto F = randomSSA(GetParam());
  auto Machine = cloneFunction(*F);
  runPipeline(*Machine, pipelinePreset("Lphi,ABI+C"));
  RegAllocResult R = allocateRegisters(*Machine);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(collectVirtualRegs(*Machine).empty());
  unsigned NumParams = F->numParams();
  for (uint64_t Set = 0; Set < 2; ++Set) {
    std::vector<uint64_t> Args;
    for (unsigned K = 0; K < NumParams; ++K)
      Args.push_back(GetParam() * 31 + Set * 7 + K);
    expectEquivalent(*F, *Machine, Args);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PropertySweep,
                         testing::Range<uint64_t>(1000, 1030));
