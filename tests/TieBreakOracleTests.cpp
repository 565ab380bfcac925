//===- TieBreakOracleTests.cpp - Allocator picks against the scan ----------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// The production strategies pick from buckets and heaps; the scan-based
// references (ReferenceAllocators.h) state every tie-break as a plain
// comparison over all remaining nodes. These tests replay allocations
// round by round through both on the same function and require the
// same colors and the same spills, in the same order, before the spill
// model rewrites the function for the next round: over every suite,
// preset and pool size bench_regpressure measures, and over hand-built
// graphs that force each tie-break (equal degrees, equal cost ratios,
// only NoSpill nodes left, use-only values).
//
//===----------------------------------------------------------------------===//

#include "ReferenceAllocators.h"
#include "TestUtil.h"

#include "analysis/InterferenceGraph.h"
#include "analysis/Liveness.h"
#include "ir/CFG.h"
#include "outofssa/Pipeline.h"
#include "regalloc/SpillModel.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

namespace {

const AllocatorKind Allocators[] = {AllocatorKind::ChaitinBriggs,
                                    AllocatorKind::Chordal};
const SpillModelKind SpillModels[] = {SpillModelKind::SpillEverywhere,
                                      SpillModelKind::LoadStoreOpt};

/// Empty when \p Got equals \p Want, else where they first differ.
std::string firstDifference(const std::vector<RegId> &Got,
                            const std::vector<RegId> &Want) {
  if (Got == Want)
    return "";
  size_t I = 0;
  while (I < Got.size() && I < Want.size() && Got[I] == Want[I])
    ++I;
  auto At = [I](const std::vector<RegId> &V) {
    return I < V.size() ? std::to_string(V[I]) : std::string("end");
  };
  return "index " + std::to_string(I) + ": " + At(Got) + " vs " + At(Want);
}

/// One coloring round of \p F through the production strategy and its
/// reference: the production's result, and in \p Mismatch where the
/// two differ (left empty when they agree).
bool sameRound(Function &F, AllocatorKind A, unsigned NumRegs,
               const std::set<RegId> &NoSpill, std::vector<RegId> &Spills,
               std::string &Mismatch) {
  std::vector<RegId> Pool = allocatablePool(NumRegs);
  std::unique_ptr<AllocatorStrategy> Ref =
      A == AllocatorKind::Chordal ? makeScanChordalStrategy()
                                  : makeScanChaitinBriggsStrategy();
  std::vector<RegId> Color, RefColor, RefSpills;
  bool Ok = makeAllocatorStrategy(A)->tryColor(F, Pool, NoSpill, Color, Spills);
  bool RefOk = Ref->tryColor(F, Pool, NoSpill, RefColor, RefSpills);
  if (Ok != RefOk)
    Mismatch = "colored " + std::to_string(Ok) + " vs " + std::to_string(RefOk);
  else if (std::string D = firstDifference(Color, RefColor); !D.empty())
    Mismatch = "colors differ at " + D;
  else if (std::string D = firstDifference(Spills, RefSpills); !D.empty())
    Mismatch = "spills differ at " + D;
  return Ok;
}

/// allocateRegisters' round loop with both strategies in lockstep: each
/// round is compared, then the spill model applies the (shared) spill
/// set. Stops where the driver stops: colored, a NoSpill temp spilled,
/// or the round cap. Returns where the two first differ, or "" when
/// they agree in every round. Touches no gtest state, so it may run on
/// any thread.
std::string firstMismatch(const Function &Input, AllocatorKind A,
                          SpillModelKind S, unsigned NumRegs) {
  auto F = cloneFunction(Input);
  std::unique_ptr<SpillModel> Model = makeSpillModel(S);
  std::set<RegId> NoSpill;
  RegAllocResult Counters;
  for (unsigned Round = 1; Round <= RegAllocOptions().MaxRounds; ++Round) {
    std::vector<RegId> Spills;
    std::string Mismatch;
    bool Ok = sameRound(*F, A, NumRegs, NoSpill, Spills, Mismatch);
    if (!Mismatch.empty())
      return formatStr("%s/%s with %u registers, round %u: %s",
                       allocatorName(A), spillModelName(S), NumRegs, Round,
                       Mismatch.c_str());
    if (Ok)
      break;
    for (RegId V : Spills)
      if (NoSpill.count(V))
        return "";
    Model->insertSpillCode(*F, Spills, NoSpill, Counters);
  }
  return "";
}

/// Every allocator x spill model of \p F at \p Regs registers.
void expectSameAllocations(const Function &F, std::vector<unsigned> Regs) {
  for (unsigned NumRegs : Regs)
    for (AllocatorKind A : Allocators)
      for (SpillModelKind S : SpillModels)
        EXPECT_EQ(firstMismatch(F, A, S, NumRegs), "");
}

/// Every function of \p Suite, lowered under each preset, at 6, 8 and 12
/// registers, through Chaitin-Briggs with spill-everywhere (the
/// committed baseline) and chordal with load-store-opt (the service's
/// pairing). The scan references are slow, so the replays run on a
/// pool of up to four threads, largest function first.
void expectSameOnSuite(const std::vector<Workload> &Suite) {
  struct Lowered {
    std::string Name;
    std::unique_ptr<Function> F;
  };
  std::vector<Lowered> Functions;
  for (const char *Preset : {"Lphi,ABI+C", "LABI+C", "C,naiveABI+C"})
    for (const Workload &W : Suite) {
      Functions.push_back({W.Name + " under " + Preset, cloneFunction(*W.F)});
      runPipeline(*Functions.back().F, pipelinePreset(Preset));
    }
  auto Size = [](const Lowered &L) { return L.F->numValues(); };
  std::stable_sort(Functions.begin(), Functions.end(),
                   [&](const Lowered &A, const Lowered &B) {
                     return Size(A) > Size(B);
                   });
  const std::pair<AllocatorKind, SpillModelKind> Combos[] = {
      {AllocatorKind::ChaitinBriggs, SpillModelKind::SpillEverywhere},
      {AllocatorKind::Chordal, SpillModelKind::LoadStoreOpt}};
  const unsigned Regs[] = {6, 8, 12};
  size_t PerFunction = std::size(Combos) * std::size(Regs);
  std::vector<std::string> Mismatch(Functions.size() * PerFunction);
  ThreadPool Pool(std::min(4u, ThreadPool::defaultConcurrency()));
  Pool.parallelFor(Mismatch.size(), [&](size_t I) {
    const auto &[A, S] = Combos[I % std::size(Combos)];
    Mismatch[I] = firstMismatch(*Functions[I / PerFunction].F, A, S,
                                Regs[I / std::size(Combos) % std::size(Regs)]);
  });
  for (size_t I = 0; I < Mismatch.size(); ++I)
    EXPECT_EQ(Mismatch[I], "") << Functions[I / PerFunction].Name;
}

/// The ties Chaitin-Briggs' first pick of \p F can meet with \p K
/// registers: two nodes of one degree below K (the bucket order), and
/// two spillable nodes at or above K with one Cost/(1+Degree) but
/// different costs (the heap order).
struct Ties {
  bool EqualDegree = false;
  bool EqualRatio = false;
};

Ties tiesOf(Function &F, unsigned K) {
  CFG Cfg(F);
  Liveness LV(Cfg);
  InterferenceGraph IG(F, LV);
  std::vector<double> Cost = spillCosts(F, Cfg);
  std::vector<RegId> Nodes = collectVirtualRegs(F);
  std::map<unsigned, unsigned> LowDegrees;
  std::map<double, std::set<double>> CostsByRatio;
  Ties T;
  for (RegId V : Nodes) {
    unsigned D = 0;
    for (RegId N : IG.neighbors(V))
      D += !F.isPhysical(N) || N < K;
    if (D < K)
      T.EqualDegree |= ++LowDegrees[D] > 1;
    else
      CostsByRatio[Cost[V] / (1.0 + D)].insert(Cost[V]);
  }
  for (const auto &[Ratio, Costs] : CostsByRatio)
    T.EqualRatio |= Costs.size() > 1;
  return T;
}

/// A straight-line function of \p NumValues values, each combining two
/// recent ones (some through a copy, which gives chordal move partners);
/// a final sum keeps a random third of them live to the end.
std::string randomStraightLine(uint64_t Seed, unsigned NumValues) {
  Rng R(Seed);
  std::vector<std::string> Vals = {"%a", "%b"};
  std::string Text = "func @f {\nentry:\n  input %a, %b\n";
  auto Recent = [&] {
    size_t Window = std::min<size_t>(Vals.size(), 6);
    return Vals[Vals.size() - 1 - R.below(Window)];
  };
  for (unsigned I = 0; I < NumValues; ++I) {
    std::string V = "%v" + std::to_string(I);
    if (R.chance(1, 5))
      Text += "  " + V + " = mov " + Recent() + "\n";
    else
      Text += "  " + V + " = add " + Recent() + ", " + Recent() + "\n";
    Vals.push_back(V);
  }
  std::string Sum = Vals.back();
  for (size_t I = 2; I + 1 < Vals.size(); ++I)
    if (R.chance(1, 3)) {
      std::string S = "%s" + std::to_string(I);
      Text += "  " + S + " = add " + Sum + ", " + Vals[I] + "\n";
      Sum = S;
    }
  return Text + "  ret " + Sum + "\n}\n";
}

} // namespace

//===----------------------------------------------------------------------===//
// The suites
//===----------------------------------------------------------------------===//

TEST(TieBreakOracle, Examples) { expectSameOnSuite(makeExamplesSuite()); }

TEST(TieBreakOracle, Valcc1) { expectSameOnSuite(makeValccSuite(1)); }

TEST(TieBreakOracle, Valcc2) { expectSameOnSuite(makeValccSuite(2)); }

TEST(TieBreakOracle, Large) { expectSameOnSuite(makeLargeSuite()); }

TEST(TieBreakOracle, SpecLike) { expectSameOnSuite(makeSpecLikeSuite()); }

//===----------------------------------------------------------------------===//
// Hand-built ties
//===----------------------------------------------------------------------===//

TEST(TieBreakOracle, EqualDegreesAndEqualCostRatios) {
  // Random straight-line code at 2..6 registers: the census proves both
  // kinds of tie occur at the first pick; the replay proves they break
  // the same way in every round.
  unsigned WithEqualDegree = 0, WithEqualRatio = 0;
  for (uint64_t Seed = 1; Seed <= 24; ++Seed) {
    auto F = parse(randomStraightLine(Seed, 16 + Seed % 9));
    ASSERT_TRUE(F);
    for (unsigned K = 2; K <= 6; ++K) {
      SCOPED_TRACE("seed " + std::to_string(Seed));
      Ties T = tiesOf(*F, K);
      WithEqualDegree += T.EqualDegree;
      WithEqualRatio += T.EqualRatio;
      expectSameAllocations(*F, {K});
    }
  }
  EXPECT_GT(WithEqualDegree, 10u);
  EXPECT_GT(WithEqualRatio, 10u);
}

TEST(TieBreakOracle, CliqueOfEqualDegreesAndCosts) {
  // Eight values live at once, each defined and used once: one spill
  // cost for all of them and a clique of near-equal degrees, so picks
  // tie and RegId decides, from 2 registers (every round spills) to 9
  // (none does).
  std::string Text = "func @f {\nentry:\n  input %a\n";
  for (int I = 0; I < 8; ++I)
    Text += "  %v" + std::to_string(I) + " = addi %a, " + std::to_string(I) +
            "\n";
  Text += "  %s0 = add %v7, %v6\n";
  for (int I = 5; I >= 0; --I)
    Text += "  %s" + std::to_string(6 - I) + " = add %s" +
            std::to_string(5 - I) + ", %v" + std::to_string(I) + "\n";
  Text += "  ret %s6\n}\n";
  auto F = parse(Text);
  ASSERT_TRUE(F);
  expectSameAllocations(*F, {2, 3, 4, 5, 6, 7, 8, 9});
}

TEST(TieBreakOracle, OnlyNoSpillNodesRemain) {
  // A 6-clique of NoSpill temps with 2 to 4 registers: Chaitin-Briggs'
  // simplify runs out of spill candidates and must force the smallest
  // RegId; chordal has nothing to evict. Then half of them spillable.
  auto F = parse(R"(
func @f {
entry:
  input %a
  %t5 = addi %a, 5
  %t4 = addi %a, 4
  %t3 = addi %a, 3
  %t2 = addi %a, 2
  %t1 = addi %a, 1
  %t0 = addi %a, 0
  %x = add %t0, %t1
  %y = add %t2, %t3
  %z = add %t4, %t5
  %u = add %x, %y
  %w = add %u, %z
  ret %w
}
)");
  ASSERT_TRUE(F);
  std::vector<RegId> Virtuals = collectVirtualRegs(*F);
  std::set<RegId> AllNoSpill(Virtuals.begin(), Virtuals.end());
  std::set<RegId> HalfNoSpill;
  for (size_t I = 0; I < Virtuals.size(); I += 2)
    HalfNoSpill.insert(Virtuals[I]);
  for (const std::set<RegId> *NoSpill : {&AllNoSpill, &HalfNoSpill})
    for (unsigned K = 2; K <= 4; ++K)
      for (AllocatorKind A : Allocators) {
        std::vector<RegId> Spills;
        std::string Mismatch;
        EXPECT_FALSE(sameRound(*F, A, K, *NoSpill, Spills, Mismatch));
        EXPECT_EQ(Mismatch, "");
        EXPECT_FALSE(Spills.empty());
      }
}

TEST(TieBreakOracle, UseOnlyValuesSortByRegId) {
  // %u2, %u0, %u1 and %u3 are never defined (and %d only in a block the
  // entry cannot reach): chordal's dominance key puts them last, in
  // RegId order, which here is their order of first appearance.
  auto F = parse(R"(
func @f {
entry:
  %x = add %u2, %u0
  %y = add %u1, %u3
  %p = add %x, %u2
  %q = add %y, %u1
  %r = add %p, %q
  %s = add %r, %d
  %t = add %s, %u0
  ret %t
dead:
  %d = make 1
  jump dead
}
)");
  ASSERT_TRUE(F);
  expectSameAllocations(*F, {2, 3, 4, 5});
}
