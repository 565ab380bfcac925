//===- AnalysisManagerTests.cpp - Caching + invalidation contract ----------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// The AnalysisManager contract: getters cache (same reference back until
// invalidated), invalidate() honors the dependency cascade, and the
// debug verifier catches passes that lie about what they preserved.
// Over every suite, what the pipeline leaves cached is exact, and every
// preservation claim from pipeline entry to the last allocation round
// survives verify-on-invalidate.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/AnalysisManager.h"
#include "outofssa/Pipeline.h"
#include "regalloc/RegAlloc.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>

using namespace lao;
using namespace lao::test;

namespace {

// Post-translation (non-SSA) code: the interference graph asserts on
// phis, and every analysis the manager serves is exercised after
// translation anyway.
std::unique_ptr<Function> makeDiamond() {
  return parse(R"(
func @f {
entry:
  input %a
  %ten = make 10
  %c = cmplt %a, %ten
  branch %c, t, e
t:
  %x = addi %a, 1
  %z = mov %x
  jump j
e:
  %y = addi %a, 2
  %z = mov %y
  jump j
j:
  output %z
  ret %z
}
)");
}

/// The ten Table 1 presets (see outofssa/Pipeline.h).
const char *const AllPresets[] = {
    "Lphi+C", "C",            "Sphi+C",   "Lphi,ABI+C", "Sphi+LABI+C",
    "LABI+C", "C,naiveABI+C", "Lphi,ABI", "Sphi",       "LABI"};

/// Runs \p Run on a copy of every suite function under every preset and
/// requires it to return "" (else what went wrong). The runs share
/// nothing, so they go to a pool of up to four threads, largest
/// function first.
void forEachSuiteRun(
    const std::function<std::string(Function &, const char *)> &Run) {
  std::vector<Workload> Functions;
  for (const SuiteSpec &Suite : allSuites())
    for (Workload &W : Suite.Make())
      Functions.push_back(std::move(W));
  std::stable_sort(Functions.begin(), Functions.end(),
                   [](const Workload &A, const Workload &B) {
                     return A.F->numValues() > B.F->numValues();
                   });
  size_t NumPresets = std::size(AllPresets);
  std::vector<std::string> Failure(Functions.size() * NumPresets);
  ThreadPool Pool(std::min(4u, ThreadPool::defaultConcurrency()));
  Pool.parallelFor(Failure.size(), [&](size_t I) {
    auto F = cloneFunction(*Functions[I / NumPresets].F);
    Failure[I] = Run(*F, AllPresets[I % NumPresets]);
  });
  for (size_t I = 0; I < Failure.size(); ++I)
    EXPECT_EQ(Failure[I], "") << Functions[I / NumPresets].Name << " under "
                              << AllPresets[I % NumPresets];
}

} // namespace

TEST(AnalysisManager, GettersCacheUntilInvalidated) {
  auto F = makeDiamond();
  AnalysisManager AM(*F);
  EXPECT_FALSE(AM.isCached(AnalysisKind::CFG));

  const CFG *Cfg = &AM.cfg();
  const DominatorTree *DT = &AM.domTree();
  const LoopInfo *LI = &AM.loopInfo();
  Liveness *LV = &AM.liveness();
  const LivenessQuery *LQ = &AM.livenessQuery();
  InterferenceGraph *IG = &AM.interference();
  for (AnalysisKind K :
       {AnalysisKind::CFG, AnalysisKind::DomTree, AnalysisKind::LoopInfo,
        AnalysisKind::Liveness, AnalysisKind::LivenessQuery,
        AnalysisKind::Interference})
    EXPECT_TRUE(AM.isCached(K));

  // Second request: the identical object, not a recomputation.
  EXPECT_EQ(Cfg, &AM.cfg());
  EXPECT_EQ(DT, &AM.domTree());
  EXPECT_EQ(LI, &AM.loopInfo());
  EXPECT_EQ(LV, &AM.liveness());
  EXPECT_EQ(LQ, &AM.livenessQuery());
  EXPECT_EQ(IG, &AM.interference());

  // preserve-all keeps every entry cached.
  AM.invalidate(PreservedAnalyses::all());
  for (AnalysisKind K :
       {AnalysisKind::CFG, AnalysisKind::Liveness, AnalysisKind::Interference})
    EXPECT_TRUE(AM.isCached(K));
}

TEST(AnalysisManager, LazinessComputesNothingUnrequested) {
  auto F = makeDiamond();
  StatsSnapshot Before = StatsRegistry::instance().snapshot();
  AnalysisManager AM(*F);
  (void)AM.cfg();
  StatsSnapshot D =
      StatsRegistry::delta(Before, StatsRegistry::instance().snapshot());
  EXPECT_EQ(D.count("liveness.analyses"), 0u);
  EXPECT_EQ(D.count("interference.graphs_built"), 0u);
  EXPECT_FALSE(AM.isCached(AnalysisKind::Liveness));
  EXPECT_FALSE(AM.isCached(AnalysisKind::DomTree));
}

TEST(AnalysisManager, CfgOnlyDropsInstructionDerivedAnalyses) {
  auto F = makeDiamond();
  AnalysisManager AM(*F);
  (void)AM.interference();
  (void)AM.livenessQuery();
  (void)AM.loopInfo();

  AM.invalidate(PreservedAnalyses::cfgOnly());
  EXPECT_TRUE(AM.isCached(AnalysisKind::CFG));
  EXPECT_TRUE(AM.isCached(AnalysisKind::DomTree));
  EXPECT_TRUE(AM.isCached(AnalysisKind::LoopInfo));
  EXPECT_FALSE(AM.isCached(AnalysisKind::Liveness));
  EXPECT_FALSE(AM.isCached(AnalysisKind::LivenessQuery));
  EXPECT_FALSE(AM.isCached(AnalysisKind::Interference));
}

TEST(AnalysisManager, CascadeDropsDependents) {
  auto F = makeDiamond();

  // Dropping the CFG drops everything, even analyses the pass claimed to
  // preserve (their cached copies reference the dead CFG).
  {
    AnalysisManager AM(*F);
    (void)AM.interference();
    AM.invalidate(PreservedAnalyses::none().preserve(AnalysisKind::Liveness));
    EXPECT_FALSE(AM.isCached(AnalysisKind::CFG));
    EXPECT_FALSE(AM.isCached(AnalysisKind::Liveness));
    EXPECT_FALSE(AM.isCached(AnalysisKind::Interference));
  }

  // Dropping the dominator tree drops LoopInfo and LivenessQuery but
  // leaves the dense Liveness (CFG-derived only) and its dependent graph.
  {
    AnalysisManager AM(*F);
    (void)AM.interference();
    (void)AM.livenessQuery();
    (void)AM.loopInfo();
    AM.invalidate(PreservedAnalyses::none()
                      .preserve(AnalysisKind::CFG)
                      .preserve(AnalysisKind::Liveness)
                      .preserve(AnalysisKind::Interference));
    EXPECT_TRUE(AM.isCached(AnalysisKind::CFG));
    EXPECT_FALSE(AM.isCached(AnalysisKind::DomTree));
    EXPECT_FALSE(AM.isCached(AnalysisKind::LoopInfo));
    EXPECT_FALSE(AM.isCached(AnalysisKind::LivenessQuery));
    EXPECT_TRUE(AM.isCached(AnalysisKind::Liveness));
    EXPECT_TRUE(AM.isCached(AnalysisKind::Interference));
  }

  // Dropping Liveness drops the interference graph built from it.
  {
    AnalysisManager AM(*F);
    (void)AM.interference();
    AM.invalidate(PreservedAnalyses::cfgOnly()
                      .preserve(AnalysisKind::LivenessQuery));
    EXPECT_FALSE(AM.isCached(AnalysisKind::Liveness));
    EXPECT_FALSE(AM.isCached(AnalysisKind::Interference));
  }
}

TEST(AnalysisManager, VerifyPassesOnUntouchedFunction) {
  auto F = makeDiamond();
  AnalysisManager AM(*F);
  (void)AM.interference();
  (void)AM.livenessQuery();
  (void)AM.loopInfo();
  EXPECT_EQ(AM.verify(), "");
}

TEST(AnalysisManager, VerifyCatchesLyingPassInstructionEdit) {
  // A "pass" rewrites a use (changing liveness) but claims it preserved
  // everything. The cached Liveness is now wrong; verify() must say so.
  auto F = makeDiamond();
  AnalysisManager AM(*F);
  (void)AM.liveness();

  BasicBlock *T = F->blockByName("t");
  ASSERT_NE(T, nullptr);
  // %x = addi %a, 1  -->  %x = addi %c, 1: %a stops being live into t,
  // %c starts.
  Instruction &Add = T->front();
  ASSERT_EQ(Add.numUses(), 1u);
  Add.setUse(0, F->findValue("c"));

  std::string Diag = AM.verify();
  EXPECT_NE(Diag, "") << "stale cached liveness went undetected";
  EXPECT_NE(Diag.find("iveness"), std::string::npos) << Diag;
}

TEST(AnalysisManager, VerifyCatchesLyingPassCfgEdit) {
  // A "pass" retargets a branch but claims the CFG survived.
  auto F = makeDiamond();
  AnalysisManager AM(*F);
  (void)AM.cfg();

  BasicBlock *Entry = F->blockByName("entry");
  BasicBlock *J = F->blockByName("j");
  ASSERT_NE(Entry, nullptr);
  ASSERT_NE(J, nullptr);
  Entry->terminator().setTarget(1, J);

  EXPECT_NE(AM.verify(), "") << "stale cached CFG went undetected";
}

TEST(AnalysisManager, VerifyOnInvalidateIsPerManager) {
  // Two managers hold the same stale liveness after a lying edit; only
  // the armed one checks its invalidate() and aborts.
  auto F = makeDiamond();
  AnalysisManager Plain(*F), Armed(*F);
  Armed.setVerifyOnInvalidate(true);
  (void)Plain.liveness();
  (void)Armed.liveness();
  F->blockByName("t")->front().setUse(0, F->findValue("c"));

  Plain.invalidate(PreservedAnalyses::all());
  EXPECT_NE(Plain.verify(), "") << "the unarmed manager kept its cache";
  EXPECT_DEATH(Armed.invalidate(PreservedAnalyses::all()),
               "lied about preserved analyses");
}

TEST(AnalysisManager, HonestPassKeepsVerifyClean) {
  // The coalescer-style contract: mutate, then report exactly what
  // changed. After an honest invalidate the survivors re-verify clean.
  auto F = makeDiamond();
  AnalysisManager AM(*F);
  (void)AM.liveness();
  (void)AM.loopInfo();

  BasicBlock *T = F->blockByName("t");
  ASSERT_NE(T, nullptr);
  Instruction &Add = T->front();
  Add.setUse(0, F->findValue("c"));

  // Honest: block structure survived, instruction-derived analyses did not.
  AM.invalidate(PreservedAnalyses::cfgOnly());
  EXPECT_EQ(AM.verify(), "");
  // And a fresh request just recomputes.
  (void)AM.liveness();
  EXPECT_EQ(AM.verify(), "");
}

TEST(AnalysisManager, VerifyCatchesStaleInterferenceEdgeEitherWay) {
  // %c interferes with %a exactly when %a is still used after %c's
  // definition. A "pass" retargets the output without invalidating: the
  // block live sets do not change, so only the graph check can see the
  // cached graph keep an edge the function lost, or miss one it gained.
  for (bool UseA : {true, false}) {
    SCOPED_TRACE(UseA ? "edge goes stale" : "edge goes missing");
    auto F = parse(std::string(R"(
func @f {
entry:
  input %a
  %b = make 1
  %c = add %a, %b
  output %)") + (UseA ? "a" : "c") + R"(
  ret %c
}
)");
    ASSERT_TRUE(F);
    AnalysisManager AM(*F);
    RegId A = F->findValue("a"), C = F->findValue("c");
    EXPECT_EQ(AM.interference().interfere(A, C), UseA);
    Instruction *Out = nullptr;
    for (Instruction &I : F->entry().instructions())
      if (I.op() == Opcode::Output)
        Out = &I;
    ASSERT_NE(Out, nullptr);
    Out->setUse(0, UseA ? C : A);
    EXPECT_EQ(AM.verify(), "InterferenceGraph stale: neighbors of v" +
                               std::to_string(std::min(A, C)) + " differ");
  }
}

TEST(AnalysisManager, PipelineLeavesExactAnalysesOnEverySuite) {
  // Every suite under every preset: what runPipeline leaves cached (the
  // CFG, dominators and loop info; after coalescing the liveness and,
  // when it merged, its repaired interference graph) equals a fresh
  // build, the graph row for row. allocateRegisters' first round colors
  // that graph, so this is what makes the reuse exact. The same runs check
  // that every renaming constraint the preset handles holds in the output.
  std::atomic<unsigned> WithGraph = 0;
  forEachSuiteRun([&](Function &F, const char *Preset) {
    auto In = cloneFunction(F);
    PipelineConfig Config = pipelinePreset(Preset);
    AnalysisManager AM(F);
    runPipeline(F, Config, AM);
    WithGraph += AM.isCached(AnalysisKind::Interference);
    return AM.verify() + renamingConstraintViolations(*In, F, Config);
  });
  EXPECT_GT(WithGraph, 0u) << "no run left a graph to check";
}

TEST(AnalysisManager, EveryPreservationClaimHoldsOnEverySuite) {
  // With verify-on-invalidate armed, each invalidate() recomputes what it
  // claims survived and aborts on a lie: the pipeline's phases,
  // Sreedhar's copy insertion, every spill round and the final color
  // rewrite, at 8 registers with both allocators and both spill models.
  // The first combination allocates on the pipeline's own manager, the
  // others on copies of its output, through the same manager: every
  // invalidate() of the run goes through it.
  forEachSuiteRun([](Function &F, const char *Preset) {
    AnalysisManager AM(F);
    AM.setVerifyOnInvalidate(true);
    runPipeline(F, pipelinePreset(Preset), AM);
    std::vector<std::unique_ptr<Function>> Copies;
    for (int I = 0; I < 3; ++I)
      Copies.push_back(cloneFunction(F));
    std::string Failures;
    unsigned Combo = 0;
    for (AllocatorKind A :
         {AllocatorKind::ChaitinBriggs, AllocatorKind::Chordal})
      for (SpillModelKind S :
           {SpillModelKind::SpillEverywhere, SpillModelKind::LoadStoreOpt}) {
        Function &G = Combo == 0 ? F : *Copies[Combo - 1];
        if (Combo++)
          AM.reset(G);
        RegAllocOptions Opts;
        Opts.Allocator = A;
        Opts.SpillMode = S;
        Opts.NumRegs = 8;
        RegAllocResult R = allocateRegisters(G, Opts, AM);
        if (!R.Ok)
          Failures += R.Error + "; ";
        Failures += AM.verify();
      }
    return Failures;
  });
}
