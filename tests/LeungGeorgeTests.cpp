//===- LeungGeorgeTests.cpp - Out-of-pinned-SSA translation tests -----------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ReferenceTranslator.h"
#include "TestUtil.h"

#include "analysis/AnalysisManager.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "ir/CFG.h"
#include "outofssa/Constraints.h"
#include "outofssa/LeungGeorge.h"
#include "outofssa/MoveStats.h"
#include "outofssa/Pipeline.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"
#include "workloads/Generator.h"
#include "workloads/PaperExamples.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

namespace {

/// Runs split + pinningSP + translate + sequentialize on \p F and
/// returns the counters the translation bumped (translate.*).
StatsSnapshot translate(Function &F,
                        InterferenceMode Mode = InterferenceMode::Precise) {
  splitCriticalEdges(F);
  collectSPConstraints(F);
  CFG Cfg(F);
  DominatorTree DT(Cfg);
  LivenessQuery LV(Cfg, DT);
  PinningContext Ctx(F, Cfg, DT, LV, Mode);
  StatsSnapshot Stats = countersOf([&] { translateOutOfSSA(F, Ctx); });
  sequentializeParallelCopies(F);
  return Stats;
}

} // namespace

TEST(LeungGeorge, UnpinnedPhiBecomesPredCopies) {
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
  StatsSnapshot Stats = translate(*F);
  EXPECT_EQ(Stats["translate.phis_removed"], 1u);
  EXPECT_EQ(Stats["translate.phi_copies"], 2u) << "one copy per predecessor";
  EXPECT_EQ(Stats["translate.repairs"], 0u);
  expectWellFormed(*F);
  expectEquivalent(*Before, *F, {1});
  expectEquivalent(*Before, *F, {0});
}

TEST(LeungGeorge, CoalescedPhiCostsNothing) {
  // All operands pre-pinned to one virtual resource: zero moves.
  auto F = parse(R"(
func @f {
entry:
  input %a
  branch %a, t, e
t:
  %x1^w = make 1
  jump j
e:
  %x2^w = make 2
  jump j
j:
  %x^w = phi [%x1, t], [%x2, e]
  output %x
  ret %x
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats = translate(*F);
  EXPECT_EQ(countMoves(*F), 0u);
  EXPECT_GE(Stats["translate.elided_copies"], 2u);
  expectEquivalent(*Before, *F, {1});
  expectEquivalent(*Before, *F, {0});
}

TEST(LeungGeorge, Figure3RepairAndElision) {
  auto F = makeFigure3();
  auto Before = cloneFunction(*F);
  splitCriticalEdges(*F);
  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  LivenessQuery LV(Cfg, DT);
  PinningContext Ctx(*F, Cfg, DT, LV);
  StatsSnapshot Stats = countersOf([&] { translateOutOfSSA(*F, Ctx); });
  sequentializeParallelCopies(*F);

  // x2 is killed by the call result x4 (both in R0's class) and used at
  // the return: exactly one repair.
  EXPECT_EQ(Stats["translate.repairs"], 1u);
  // The call's use of x2 pinned to R0 is elided (already in R0), as are
  // the phi copies whose values are produced in place.
  EXPECT_GE(Stats["translate.elided_copies"], 1u);
  expectWellFormed(*F);
  expectEquivalent(*Before, *F, {5, 9});
  expectEquivalent(*Before, *F, {0, 1});
}

TEST(LeungGeorge, Figure8PartialCoalescingMechanism) {
  // Manually pin z's definition to R0 (what a Chaitin coalescer on final
  // code can never do): both phi copies vanish, one repair move appears.
  auto F = makeFigure8();
  auto Before = cloneFunction(*F);

  // Count moves when z stays unpinned: one copy per predecessor plus
  // the pinned call argument and the pinned return value.
  {
    auto Unpinned = cloneFunction(*F);
    translate(*Unpinned);
    EXPECT_EQ(countMoves(*Unpinned), 4u);
  }

  // Pin z to R0 on its definition (the phi def).
  for (const auto &BB : F->blocks())
    for (Instruction &I : BB->instructions())
      if (I.isPhi())
        I.pinDef(0, Target::R0);
  StatsSnapshot Stats = translate(*F);
  EXPECT_EQ(Stats["translate.repairs"], 1u) << "z killed by the f3 call result";
  EXPECT_EQ(countMoves(*F), 2u)
      << "partial coalescing trades two phi moves and the call-argument "
         "copy for one repair plus the return-value copy";
  expectWellFormed(*F);
  expectEquivalent(*Before, *F, {7});
}

TEST(LeungGeorge, Figure12PinnedUseReadsOwnResource) {
  // Our reconstruction refinement: the repeated R0-pinned use reads x
  // from x's own resource each iteration (one move per iteration), with
  // no repair chain — matching the figure's "optimal" column.
  auto F = makeFigure12();
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats = translate(*F);
  EXPECT_EQ(Stats["translate.repairs"], 0u);
  expectWellFormed(*F);
  expectEquivalent(*Before, *F, {3});
}

TEST(LeungGeorge, UsePinInsertsCopyOnlyWhenNeeded) {
  auto F = parse(R"(
func @f {
entry:
  input %a^R0, %b^R1
  %r^R0 = call @f(%a^R0, %b^R1)
  %s^R0 = call @g(%r^R0, %b^R1)
  ret %s^R0
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot Stats = translate(*F);
  // Every pinned value is produced in its target register already:
  // a arrives in R0, r and s are defined there, b stays in R1.
  EXPECT_EQ(countMoves(*F), 0u);
  EXPECT_GE(Stats["translate.elided_copies"], 5u);
  expectEquivalent(*Before, *F, {11, 22});
}

TEST(LeungGeorge, ArgShuffleUsesParallelCopy) {
  // Swapped argument registers at the second call force a parallel copy
  // (R0, R1) <- (R1, R0), sequentialized with a temp.
  auto F = parse(R"(
func @f {
entry:
  input %a^R0, %b^R1
  %r^R0 = call @f(%b^R0, %a^R1)
  ret %r^R0
}
)");
  auto Before = cloneFunction(*F);
  translate(*F);
  EXPECT_EQ(countMoves(*F), 3u) << "swap through a temporary";
  expectEquivalent(*Before, *F, {5, 6});
}

TEST(LeungGeorge, TwoOperandConstraintSatisfiedInPlace) {
  auto F = parse(R"(
func @f {
entry:
  input %a^R0
  %k = more %a^k, 7
  %q = autoadd %k^q, 4
  ret %q^R0
}
)");
  auto Before = cloneFunction(*F);
  collectABIConstraints(*F); // No-op here: pins already written.
  translate(*F);
  // a -> k needs one move (a is still live? no: a's last use is the
  // more). The chain then stays in place; only the final ret needs R0.
  expectWellFormed(*F);
  expectEquivalent(*Before, *F, {640});
}

TEST(LeungGeorge, SPChainStaysInSP) {
  auto F = parse(R"(
func @f {
entry:
  input %a^R0
  %sp1 = spadjust %SP, -16
  %sp2 = spadjust %sp1, 8
  %sp3 = spadjust %sp2, 8
  store %sp3, %a
  ret %a^R0
}
)");
  auto Before = cloneFunction(*F);
  translate(*F);
  EXPECT_EQ(countMoves(*F), 0u) << "the SP chain coalesces entirely";
  // All spadjusts now write SP itself.
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.op() == Opcode::SpAdjust) {
        EXPECT_EQ(I.def(0), static_cast<RegId>(Target::SP));
        EXPECT_EQ(I.use(0), static_cast<RegId>(Target::SP));
      }
  expectEquivalent(*Before, *F, {77});
}

TEST(LeungGeorge, LostCopyProblem) {
  // x's old value is used after the loop; the phi overwrites it at the
  // latch. A repair keeps the translation correct.
  auto F = parse(R"(
func @f {
entry:
  input %n
  %x0^w = make 0
  jump head
head:
  %x^w = phi [%x0, entry], [%x2, latch]
  %x2^w = addi %x, 1
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
  StatsSnapshot Stats = translate(*F);
  EXPECT_GE(Stats["translate.repairs"], 1u);
  expectWellFormed(*F);
  expectEquivalent(*Before, *F, {4});
  expectEquivalent(*Before, *F, {1});
}

TEST(LeungGeorge, SwapProblemThroughPhis) {
  auto F = parse(R"(
func @f {
entry:
  input %n
  %a0^u = make 1
  %b0^v = make 2
  %i0 = make 0
  jump head
head:
  %a^u = phi [%a0, entry], [%b, latch]
  %b^v = phi [%b0, entry], [%a, latch]
  %i = phi [%i0, entry], [%i2, latch]
  output %a
  %i2 = addi %i, 1
  %c = cmplt %i2, %n
  branch %c, latch, done
latch:
  jump head
done:
  ret %b
}
)");
  auto Before = cloneFunction(*F);
  translate(*F);
  expectWellFormed(*F);
  expectEquivalent(*Before, *F, {3});
}

TEST(LeungGeorge, OutputHasNoPinsLeft) {
  auto F = makeFigure1();
  translate(*F);
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions()) {
      for (unsigned K = 0; K < I.numDefs(); ++K)
        EXPECT_EQ(I.defPin(K), InvalidReg);
      for (unsigned K = 0; K < I.numUses(); ++K)
        EXPECT_EQ(I.usePin(K), InvalidReg);
    }
}

TEST(LeungGeorge, Figure1EndToEnd) {
  auto F = makeFigure1();
  auto Before = cloneFunction(*F);
  translate(*F);
  expectWellFormed(*F);
  // Every ABI-pinned operand now names its physical register.
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.op() == Opcode::Call) {
        EXPECT_EQ(I.use(0), static_cast<RegId>(Target::R0));
        EXPECT_EQ(I.use(1), static_cast<RegId>(Target::R1));
        EXPECT_EQ(I.def(0), static_cast<RegId>(Target::R0));
      }
  expectEquivalent(*Before, *F, {10, 2000});
}

//===----------------------------------------------------------------------===//
// The sparse holder analysis against the dense reference
//===----------------------------------------------------------------------===//

namespace {

/// "" when the sparse call's translate.* counters \p Sparse equal the
/// dense reference's tally \p Dense, else the first that differs.
std::string statsDifference(StatsSnapshot Sparse,
                            const DenseTranslateTally &Dense) {
  std::string D;
  auto Field = [&](const char *Name, unsigned X) {
    uint64_t S = Sparse[std::string("translate.") + Name];
    if (D.empty() && S != X)
      D = formatStr("translate.%s: sparse %llu, dense %u", Name,
                    static_cast<unsigned long long>(S), X);
  };
  Field("repairs", Dense.NumRepairs);
  Field("phi_copies", Dense.NumPhiCopies);
  Field("pin_copies", Dense.NumPinCopies);
  Field("elided_copies", Dense.NumElidedCopies);
  Field("phis_removed", Dense.NumPhisRemoved);
  Field("inserts", Dense.NumInserts);
  return D;
}

/// Translates pinned SSA \p F under \p Ctx (built for F) with the sparse
/// translator and a clone of F with the dense reference. Returns "" when
/// both print the same IR and count the same copies.
std::string compareWithDense(Function &F, PinningContext &Ctx) {
  auto G = cloneFunction(F);
  CFG GCfg(*G);
  DenseTranslateTally Dense = translateOutOfSSADense(*G, Ctx, GCfg);
  StatsSnapshot Sparse = countersOf([&] { translateOutOfSSA(F, Ctx); });
  std::string SparseText = printFunction(F), DenseText = printFunction(*G);
  if (SparseText != DenseText)
    return "printed IR differs\n--- sparse ---\n" + SparseText +
           "--- dense ---\n" + DenseText;
  std::string D = statsDifference(Sparse, Dense);
  return D.empty() ? "" : "stats differ: " + D;
}

/// Runs the phases of \p Config that precede translation on a clone of
/// \p Input, as runPipeline does, then compares the two translators on
/// the result.
std::string compareWithDense(const Function &Input,
                             const PipelineConfig &Config) {
  auto F = cloneFunction(Input);
  std::string Error;
  if (!prepareInput(*F, Error))
    return "entry step: " + Error;
  splitCriticalEdges(*F);
  collectSPConstraints(*F);
  if (Config.PinABI)
    collectABIConstraints(*F);
  AnalysisManager AM(*F);
  if (Config.Sreedhar) {
    convertToCSSA(*F, AM);
    pinCSSAWebs(*F);
  }
  PinningContext Ctx(*F, AM.cfg(), AM.domTree(), AM.livenessQuery(),
                     Config.Mode);
  if (Config.PinPhi)
    coalescePhis(*F, Ctx, AM.cfg(), AM.loopInfo(), Config.PhiOpts);
  return compareWithDense(*F, Ctx);
}

/// split + SP pins + context + both translators, for hand-made shapes.
std::string compareWithDense(Function &F) {
  splitCriticalEdges(F);
  collectSPConstraints(F);
  CFG Cfg(F);
  DominatorTree DT(Cfg);
  LivenessQuery LV(Cfg, DT);
  PinningContext Ctx(F, Cfg, DT, LV);
  return compareWithDense(F, Ctx);
}

/// The ten Table 1 presets.
const char *const AllPresets[] = {
    "Lphi+C", "C",        "Sphi+C", "Lphi,ABI+C",   "Sphi+LABI+C",
    "LABI+C", "Lphi,ABI", "Sphi",   "C,naiveABI+C", "LABI"};

} // namespace

TEST(LeungGeorge, SparseMatchesDenseReferenceOnEverySuite) {
  // Every suite function, 50 seeded generated functions and two
  // ladder-shaped ones (200 and 800 blocks), each under every preset:
  // the sparse translator must print the same IR and count the same
  // copies as the dense solver it replaced. The runs share nothing, so
  // they go to a pool of up to four threads, largest function first.
  std::vector<Workload> Functions;
  for (const SuiteSpec &Spec : allSuites())
    for (Workload &W : Spec.Make()) {
      W.Name = std::string(Spec.Name) + "/" + W.Name;
      Functions.push_back(std::move(W));
    }
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    GeneratorParams P;
    P.Seed = 1000 + Seed;
    P.NumStatements = 10 + Seed % 23;
    P.MaxNesting = 1 + Seed % 3;
    P.NumParams = 1 + Seed % 4;
    P.CallPercent = 5 + Seed % 4 * 10;
    P.MutatePercent = 30 + Seed % 5 * 15;
    P.UseSP = Seed % 4 == 0;
    P.UsePsi = Seed % 5 == 0;
    P.ExtraCopies = Seed % 3 == 0;
    Workload W;
    W.Name = formatStr("generated/g%u", unsigned(Seed));
    W.F = generateProgram(P, W.Name);
    ASSERT_TRUE(normalizeToOptimizedSSA(*W.F)) << W.Name;
    Functions.push_back(std::move(W));
  }
  for (unsigned Target : {200u, 800u}) {
    Workload W;
    W.Name = formatStr("ladder/b%u", Target);
    W.F = makeLadderFunction(Target, 0x1adde5 + Target);
    Functions.push_back(std::move(W));
  }
  std::stable_sort(Functions.begin(), Functions.end(),
                   [](const Workload &A, const Workload &B) {
                     return A.F->numValues() > B.F->numValues();
                   });

  constexpr size_t NumPresets = std::size(AllPresets);
  std::vector<std::string> Failure(Functions.size() * NumPresets);
  ThreadPool Pool(std::min(4u, ThreadPool::defaultConcurrency()));
  Pool.parallelFor(Failure.size(), [&](size_t I) {
    Failure[I] = compareWithDense(*Functions[I / NumPresets].F,
                                  pipelinePreset(AllPresets[I % NumPresets]));
  });
  for (size_t I = 0; I < Failure.size(); ++I)
    EXPECT_EQ(Failure[I], "") << Functions[I / NumPresets].Name << " under "
                              << AllPresets[I % NumPresets];
}

TEST(LeungGeorge, LoopBackToEntryHoldsNothingOnEntry) {
  // Two loops back to the entry put it in the iterated dominance
  // frontier of R0's writers. R0 holds %x at the end of both loops, but
  // the first pass through the entry comes from the function start,
  // where R0 holds nothing: the pin copy must stay.
  auto F = parse(R"(
func @f {
entry:
  input %a
  %x = addi %a, 1
  %r = add %x^R0, %a
  %c = cmplt %r, %a
  branch %c, back1, mid
mid:
  %d = cmplt %a, %r
  branch %d, back2, done
back1:
  jump entry
back2:
  jump entry
done:
  ret %r
}
)");
  auto Sparse = cloneFunction(*F);
  EXPECT_EQ(compareWithDense(*F), "");
  StatsSnapshot Stats = translate(*Sparse);
  EXPECT_EQ(Stats["translate.pin_copies"], 1u);
  EXPECT_EQ(Stats["translate.elided_copies"], 0u);
}

TEST(LeungGeorge, IrreducibleLoopWithTwoEntries) {
  // l1 and l2 both enter the loop from the entry, so neither dominates
  // the other: their meet nodes reference each other in a cycle.
  auto F = parse(R"(
func @f {
entry:
  input %a^R0, %b^R1
  %i0 = make 0
  branch %a, l1, l2
l1:
  %i1 = phi [%i0, entry], [%i2, l2]
  %t1 = addi %i1, 1
  %u1^R0 = call @g(%t1^R0)
  output %u1
  %c1 = cmplt %t1, %b
  branch %c1, l2, out
l2:
  %i2 = phi [%i0, entry], [%t1, l1]
  %t2 = addi %i2, 2
  %c2 = cmplt %t2, %b
  branch %c2, l1, out
out:
  %r = phi [%t1, l1], [%t2, l2]
  ret %r^R0
}
)");
  auto Before = cloneFunction(*F);
  auto Sparse = cloneFunction(*F);
  EXPECT_EQ(compareWithDense(*F), "");
  translate(*Sparse);
  expectWellFormed(*Sparse);
  expectEquivalent(*Before, *Sparse, {1, 9});
  expectEquivalent(*Before, *Sparse, {0, 9});
}

TEST(LeungGeorge, PinCopyOnOneArmReachesJoinAsNoHolder) {
  // R1 is written only by the use-pin copy on the t arm. Along e it
  // holds nothing, so at the join it holds nothing and %b must be
  // copied into it again.
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  branch %a, t, e
t:
  %u = add %b^R1, %a
  output %u
  jump j
e:
  jump j
j:
  %v = add %b^R1, %a
  ret %v
}
)");
  auto Before = cloneFunction(*F);
  auto Sparse = cloneFunction(*F);
  EXPECT_EQ(compareWithDense(*F), "");
  StatsSnapshot Stats = translate(*Sparse);
  EXPECT_EQ(Stats["translate.pin_copies"], 2u);
  expectEquivalent(*Before, *Sparse, {1, 5});
  expectEquivalent(*Before, *Sparse, {0, 5});
}

TEST(LeungGeorge, SelfReferencingPhi) {
  // x = phi(y, x): the latch operand of x's meet node is x itself, and
  // the unpinned z = phi(y, z) beside it copies nothing on the latch.
  auto F = parse(R"(
func @f {
entry:
  input %n
  %y^w = make 7
  %i0 = make 0
  jump head
head:
  %x^w = phi [%y, entry], [%x, latch]
  %z = phi [%y, entry], [%z, latch]
  %i = phi [%i0, entry], [%i2, latch]
  %i2 = addi %i, 1
  %c = cmplt %i2, %n
  branch %c, latch, done
latch:
  jump head
done:
  output %x
  output %z
  ret %i2
}
)");
  auto Before = cloneFunction(*F);
  auto Sparse = cloneFunction(*F);
  EXPECT_EQ(compareWithDense(*F), "");
  translate(*Sparse);
  expectWellFormed(*Sparse);
  expectEquivalent(*Before, *Sparse, {3});
  expectEquivalent(*Before, *Sparse, {0});
}

TEST(LeungGeorge, NestedLoopHeadersResolveThroughEachOther) {
  // R1 is written in the entry and, with the same value, by a pin copy
  // on one arm in the innermost of four nested loops. The meet nodes of
  // h2, h3 and h4 have only other meet nodes as operands, in a chain the
  // fixpoint must follow to its end: every one resolves to %v, so both
  // pin copies are elided.
  auto F = parse(R"(
func @f {
entry:
  input %n
  %v^R1 = make 7
  %a0 = make 0
  jump h1
h1:
  %a = phi [%a0, entry], [%a2, l1]
  %ca = cmplt %a, %n
  branch %ca, p2, done
p2:
  %b0 = make 0
  jump h2
h2:
  %b = phi [%b0, p2], [%b2, l2]
  %cb = cmplt %b, %n
  branch %cb, p3, l1
p3:
  %c0 = make 0
  jump h3
h3:
  %c = phi [%c0, p3], [%c2, l3]
  %cc = cmplt %c, %n
  branch %cc, p4, l2
p4:
  %d0 = make 0
  jump h4
h4:
  %d = phi [%d0, p4], [%d2, j]
  %cd = cmplt %d, %n
  branch %cd, body, l3
body:
  %e = cmplt %d, %c
  branch %e, t, f
t:
  %u = add %v^R1, %d
  output %u
  jump j
f:
  jump j
j:
  %d2 = addi %d, 1
  jump h4
l3:
  %c2 = addi %c, 1
  jump h3
l2:
  %b2 = addi %b, 1
  jump h2
l1:
  %a2 = addi %a, 1
  jump h1
done:
  %w = add %v^R1, %n
  ret %w
}
)");
  auto Before = cloneFunction(*F);
  auto Sparse = cloneFunction(*F);
  EXPECT_EQ(compareWithDense(*F), "");
  StatsSnapshot Stats = translate(*Sparse);
  EXPECT_EQ(Stats["translate.pin_copies"], 0u);
  expectEquivalent(*Before, *Sparse, {3});
  expectEquivalent(*Before, *Sparse, {0});
}

TEST(LeungGeorge, LongStraightLineChainWalksIteratively) {
  // A 60,000-block chain makes a dominator tree 60,000 deep, past what
  // a recursive walk survives on a default stack. Every 100th block
  // passes the running value through R0 to a call. Sparse only: the
  // dense reference would hold two 60,000 x slots holder tables.
  constexpr unsigned NumBlocks = 60000;
  std::string Text = "func @chain {\nentry:\n  input %v0\n  jump b1\n";
  for (unsigned K = 1; K < NumBlocks; ++K) {
    Text += formatStr(K % 100 == 0 ? "b%u:\n  %%v%u^R0 = call @g(%%v%u^R0)\n"
                                   : "b%u:\n  %%v%u = addi %%v%u, 1\n",
                      K, K, K - 1);
    Text += K + 1 < NumBlocks ? formatStr("  jump b%u\n", K + 1)
                              : formatStr("  ret %%v%u^R0\n", K);
  }
  Text += "}\n";
  auto F = parse(Text);
  ASSERT_EQ(F->numBlocks(), NumBlocks);
  StatsSnapshot Stats = translate(*F);
  EXPECT_EQ(Stats["translate.phis_removed"], 0u);
  EXPECT_EQ(Stats["translate.repairs"], 0u);
  expectWellFormed(*F);
}
