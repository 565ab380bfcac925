//===- CoalescerTests.cpp - Chaitin coalescer and NaiveABI tests ------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ReferenceCoalescer.h"
#include "ReferenceInterferenceGraph.h"
#include "TestUtil.h"

#include "analysis/AnalysisManager.h"
#include "analysis/Dominators.h"
#include "analysis/InterferenceGraph.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "ir/CFG.h"
#include "outofssa/Coalescer.h"
#include "outofssa/LeungGeorge.h"
#include "outofssa/MoveStats.h"
#include "outofssa/NaiveABI.h"
#include "outofssa/Pipeline.h"
#include "support/ThreadPool.h"
#include "workloads/Generator.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>

using namespace lao;
using namespace lao::test;

TEST(InterferenceGraph, DefInterferesWithLive) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %b = addi %p, 1
  %a = addi %p, 2
  %u = add %b, %a
  ret %u
}
)");
  CFG Cfg(*F);
  Liveness LV(Cfg);
  InterferenceGraph IG(*F, LV);
  RegId A = F->findValue("a"), B = F->findValue("b");
  EXPECT_TRUE(IG.interfere(A, B));
  EXPECT_FALSE(IG.interfere(A, F->findValue("u")));
}

TEST(InterferenceGraph, MoveSourceExemption) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %a = mov %p
  %u = add %a, %a
  %v = add %u, %p
  ret %v
}
)");
  CFG Cfg(*F);
  Liveness LV(Cfg);
  InterferenceGraph IG(*F, LV);
  RegId A = F->findValue("a"), P = F->findValue("p");
  // p is live past the move (used by v) but a = mov p does not make
  // them interfere by itself... unless a is redefined while p lives.
  EXPECT_FALSE(IG.interfere(A, P));
}

TEST(InterferenceGraph, MergePreservesNeighbors) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %b = addi %p, 1
  %a = addi %p, 2
  %u = add %b, %a
  ret %u
}
)");
  CFG Cfg(*F);
  Liveness LV(Cfg);
  InterferenceGraph IG(*F, LV);
  RegId A = F->findValue("a"), B = F->findValue("b");
  RegId U = F->findValue("u");
  EXPECT_FALSE(IG.interfere(U, B));
  IG.mergeNodes(U, A); // u absorbs a; a interfered with b.
  EXPECT_TRUE(IG.interfere(U, B));
  EXPECT_FALSE(IG.isCompact());
  IG.compact(); // Rows are read only after the merges settle.
  EXPECT_TRUE(IG.neighbors(A).empty());
}

TEST(InterferenceGraph, CopySourceDeadAfterMove) {
  // The move is the last use of its source: destination and source must
  // not interfere (that is the whole point of the Chaitin exemption),
  // and the coalescer must be able to merge them.
  auto F = parse(R"(
func @f {
entry:
  input %p
  %a = addi %p, 1
  %b = mov %a
  %r = add %b, %b
  ret %r
}
)");
  CFG Cfg(*F);
  Liveness LV(Cfg);
  InterferenceGraph IG(*F, LV);
  RegId A = F->findValue("a"), B = F->findValue("b");
  EXPECT_FALSE(IG.interfere(A, B));
  // b does interfere with p? p is dead after the addi, so no.
  EXPECT_FALSE(IG.interfere(B, F->findValue("p")));
}

TEST(InterferenceGraph, ParCopyDestinationsInterferePairwise) {
  // Destinations of one parallel copy are written simultaneously: they
  // interfere pairwise even when the values themselves have disjoint
  // uses afterwards.
  auto F = parse(R"(
func @f {
entry:
  input %p, %q
  parcopy %x = %p, %y = %q
  %r = add %x, %y
  %s = add %r, %p
  ret %s
}
)");
  CFG Cfg(*F);
  Liveness LV(Cfg);
  InterferenceGraph IG(*F, LV);
  RegId X = F->findValue("x"), Y = F->findValue("y");
  RegId P = F->findValue("p"), Q = F->findValue("q");
  EXPECT_TRUE(IG.interfere(X, Y));
  // x is exempt from its own source p even though p stays live past the
  // parcopy, but y (written while p is live) does interfere with p.
  EXPECT_FALSE(IG.interfere(X, P));
  EXPECT_TRUE(IG.interfere(Y, P));
  // q dies at the parcopy: neither destination conflicts with it.
  EXPECT_FALSE(IG.interfere(Y, Q));
  EXPECT_FALSE(IG.interfere(X, Q));
}

TEST(Coalescer, RemovesNonInterferingMove) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %a = addi %p, 1
  %b = mov %a
  %r = add %b, %b
  ret %r
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot C = countersOf([&] { coalesceAggressively(*F); });
  EXPECT_EQ(C["coalesce.moves_removed"], 1u);
  EXPECT_EQ(countMoves(*F), 0u);
  expectEquivalent(*Before, *F, {4});
}

TEST(Coalescer, KeepsInterferingMove) {
  // a is still used after b is redefined through it: they interfere.
  auto F = parse(R"(
func @f {
entry:
  input %p
  %a = addi %p, 1
  %b = mov %a
  %b = addi %b, 5
  %r = add %a, %b
  ret %r
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot C = countersOf([&] { coalesceAggressively(*F); });
  EXPECT_EQ(C["coalesce.moves_removed"], 0u);
  EXPECT_EQ(countMoves(*F), 1u);
  expectEquivalent(*Before, *F, {4});
}

TEST(Coalescer, ChainsCascadeAcrossRounds) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %a = mov %p
  %b = mov %a
  %c = mov %b
  %r = add %c, %c
  ret %r
}
)");
  auto Before = cloneFunction(*F);
  StatsSnapshot C = countersOf([&] { coalesceAggressively(*F); });
  EXPECT_EQ(C["coalesce.moves_removed"], 3u);
  expectEquivalent(*Before, *F, {9});
}

TEST(Coalescer, PhysicalSurvivesAsName) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %R0 = mov %p
  %r = call @f(%R0)
  ret %r
}
)");
  auto Before = cloneFunction(*F);
  coalesceAggressively(*F);
  // p merged into R0: the call operand must still be R0.
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.op() == Opcode::Call) {
        EXPECT_EQ(I.use(0), static_cast<RegId>(Target::R0));
      }
  expectEquivalent(*Before, *F, {3});
}

TEST(Coalescer, NeverMergesTwoPhysicals) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %R0 = mov %p
  %R1 = mov %R0
  %r = call @f(%R0, %R1)
  ret %r
}
)");
  coalesceAggressively(*F);
  // The R1 = R0 move cannot be removed (two machine registers).
  EXPECT_GE(countMoves(*F), 1u);
}

namespace {

/// Every suite function, named "<suite>/<function>", and an 800-block
/// size-ladder point (a large graph with high-degree hubs).
std::vector<Workload> suiteAndLadderFunctions() {
  std::vector<Workload> Functions;
  for (const SuiteSpec &Spec : allSuites())
    for (Workload &W : Spec.Make()) {
      W.Name = std::string(Spec.Name) + "/" + W.Name;
      Functions.push_back(std::move(W));
    }
  Workload W;
  W.Name = "ladder/b800";
  W.F = makeLadderFunction(800, 0x1adde5 + 800);
  Functions.push_back(std::move(W));
  return Functions;
}

/// Largest function first, so a thread pool does not end on a long run.
void sortLargestFirst(std::vector<Workload> &Functions) {
  std::stable_sort(Functions.begin(), Functions.end(),
                   [](const Workload &A, const Workload &B) {
                     return A.F->numValues() > B.F->numValues();
                   });
}

/// The seven Table 1 presets that end in the aggressive coalescer.
const char *const CoalescingPresets[] = {
    "Lphi+C", "C", "Sphi+C", "Lphi,ABI+C", "Sphi+LABI+C", "LABI+C",
    "C,naiveABI+C"};

/// A generated SSA program with exemption switches (tests/TestUtil.h)
/// spliced in at seeded points: whole gadgets before the terminator of
/// loop-body blocks, and gadgets split across a conditional branch, the
/// head before the branch and the tail in a successor that only the
/// branch reaches. Every gadget reads the function's first input, which
/// dominates every block.
std::unique_ptr<Function> makeSplicedRequeueProgram(uint64_t Seed) {
  GeneratorParams P;
  P.Seed = Seed;
  P.NumStatements = 40;
  P.MaxNesting = 3;
  P.ExtraCopies = Seed % 2 == 0;
  auto F = generateProgram(P, formatStr("spliced%u", unsigned(Seed)));
  EXPECT_TRUE(normalizeToOptimizedSSA(*F));

  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  LoopInfo LI(Cfg, DT);
  std::mt19937_64 Rng(Seed);
  std::vector<std::string> BeforeTerminator(F->numBlocks());
  std::string Input = "%" + F->valueName(F->entry().front().def(0));
  unsigned Tags = 0;
  auto Gadget = [&] {
    std::string Tag = formatStr("g%u", Tags++);
    return exemptionSwitch(Input, Tag, "%k" + Tag);
  };
  for (const auto &BB : F->blocks()) {
    if (LI.depth(BB.get()) > 0 && Rng() % 2 == 0) {
      ExemptionSwitch G = Gadget();
      BeforeTerminator[BB->id()] += G.Head + G.Tail;
    }
    if (BB->terminator().op() != Opcode::Branch)
      continue;
    for (BasicBlock *Succ : Cfg.succs(BB.get())) {
      if (Cfg.preds(Succ).size() != 1 || Rng() % 2 != 0)
        continue;
      ExemptionSwitch G = Gadget();
      BeforeTerminator[BB->id()] += G.Head;
      BeforeTerminator[Succ->id()] += G.Tail;
    }
  }

  // Splice into the printed program, in front of each block's
  // terminator line.
  std::istringstream Lines(printFunction(*F));
  std::string Text, Line;
  const BasicBlock *Block = nullptr;
  while (std::getline(Lines, Line)) {
    if (!Line.empty() && Line.back() == ':')
      Block = F->blockByName(Line.substr(0, Line.size() - 1));
    else if (Line.starts_with("  jump ") || Line.starts_with("  branch ") ||
             Line.starts_with("  ret"))
      Text += BeforeTerminator[Block->id()];
    Text += Line + "\n";
  }
  return parse(Text);
}

/// Runs \p Config on a clone of \p Input, then coalesces the result under
/// the worklist schedule and a clone of it under the rebuild-every-round
/// reference. Returns "" when both perform the same merges in the same
/// order and leave byte-identical IR, with at most one graph build and one
/// confirm scan on the worklist side, whose coalesce.rounds and
/// coalesce.merges match its trace; else what differs. The worklist
/// side's counters go to \p Fast.
std::string compareSchedules(const Function &Input,
                             const PipelineConfig &Config,
                             StatsSnapshot &Fast) {
  auto A = cloneFunction(Input);
  runPipeline(*A, Config);
  auto B = cloneFunction(*A);

  std::vector<MergeRound> FastTrace;
  MergeTrace RefTrace;
  CoalescerOptions FastOpts;
  FastOpts.TraceOut = &FastTrace;
  Fast = countersOf([&] { coalesceAggressively(*A, FastOpts); });
  coalesceRebuildingEveryRound(*B, &RefTrace);

  if (std::string D = firstTraceDivergence(FastTrace, RefTrace); !D.empty())
    return D;
  if (printFunction(*A) != printFunction(*B))
    return "same merges, different final IR";
  if (Fast["coalesce.rebuilds"] > 1)
    return "zero-rebuild means at most the initial graph build";
  if (Fast["coalesce.confirm_scans"] != 1)
    return "the confirm scan is a one-time gate";
  // The trace hook cuts the merges into the counted rounds.
  if (Fast["coalesce.rounds"] != FastTrace.size())
    return "one trace round per coalesce.rounds";
  if (Fast["coalesce.merges"] != RefTrace.size())
    return "one traced merge per coalesce.merges";
  return "";
}

} // namespace

TEST(Coalescer, WorklistTraceMatchesRebuildEveryRoundOnEverySuite) {
  // The header's exactness claim, checked literally: on the coalescer
  // input of every +C preset (the preset run with its coalescer off) and
  // of "Sphi" (Sreedhar plus naive ABI lowering), for every suite function,
  // a few generated ones and an 800-block ladder point (a large graph with
  // high-degree hubs), the zero-rebuild worklist schedule performs the
  // *same merges in the same order* as rebuilding the analyses after
  // every sweep. The runs share nothing, so they go to a pool of up to
  // four threads, largest function first.
  std::vector<Workload> Functions = suiteAndLadderFunctions();
  // Redundant copies and long phi webs: many moves, cascading merges.
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    GeneratorParams P;
    P.Seed = Seed;
    P.NumStatements = 40;
    P.MaxNesting = 3;
    P.MutatePercent = 80;
    P.UseSP = Seed % 2 == 0;
    P.ExtraCopies = true;
    Workload W;
    W.Name = "copies";
    W.Name += std::to_string(Seed);
    W.F = generateProgram(P, W.Name);
    ASSERT_TRUE(normalizeToOptimizedSSA(*W.F)) << W.Name;
    W.Name.insert(0, "generated/");
    Functions.push_back(std::move(W));
  }
  // Exemption switches spliced into generated programs, in loop bodies
  // and across branches: merges that need a second round.
  const std::string Spliced = "spliced/";
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    Workload W;
    W.F = makeSplicedRequeueProgram(Seed);
    ASSERT_TRUE(W.F != nullptr) << Seed;
    W.Name = Spliced + W.F->name();
    Functions.push_back(std::move(W));
  }
  sortLargestFirst(Functions);

  std::vector<PipelineConfig> Configs;
  for (const char *Preset : CoalescingPresets) {
    Configs.push_back(pipelinePreset(Preset));
    Configs.back().Coalesce = false;
  }
  Configs.push_back(pipelinePreset("Sphi"));

  size_t NumConfigs = Configs.size();
  std::vector<std::string> Failure(Functions.size() * NumConfigs);
  std::vector<StatsSnapshot> Stats(Failure.size());
  ThreadPool Pool(std::min(4u, ThreadPool::defaultConcurrency()));
  Pool.parallelFor(Failure.size(), [&](size_t I) {
    Failure[I] = compareSchedules(*Functions[I / NumConfigs].F,
                                  Configs[I % NumConfigs], Stats[I]);
  });
  unsigned SplicedRequeues = 0, SplicedRounds = 0;
  for (size_t I = 0; I < Failure.size(); ++I) {
    const std::string &Name = Functions[I / NumConfigs].Name;
    const std::string &Config = Configs[I % NumConfigs].Name;
    EXPECT_EQ(Failure[I], "") << Name << " under " << Config;
    if (Name.rfind(Spliced, 0) != 0)
      continue;
    // The spliced family reaches the multi-round path under every preset.
    uint64_t Rounds = Stats[I]["coalesce.rounds"];
    uint64_t Requeues = Stats[I]["coalesce.worklist_requeues"];
    EXPECT_GE(Rounds, 2u) << Name << " under " << Config;
    EXPECT_GE(Requeues, 1u) << Name << " under " << Config;
    SplicedRequeues += Requeues;
    SplicedRounds += Rounds;
  }
  RecordProperty("SplicedRequeues", static_cast<int>(SplicedRequeues));
  RecordProperty("SplicedRounds", static_cast<int>(SplicedRounds));
}

namespace {

/// The gate's question answered on a freshly built graph of non-SSA \p F:
/// does some candidate copy (no identity, at most one physical operand)
/// join two registers that do not interfere? \p MaxPartners receives the
/// largest number of distinct copy partners of one register.
bool freshGraphHasMergeableCopy(Function &F, size_t &MaxPartners) {
  CFG Cfg(F);
  Liveness LV(Cfg);
  InterferenceGraph IG(F, LV);
  std::vector<std::vector<RegId>> Partners(F.numValues());
  bool Mergeable = false;
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions()) {
      if (!I.isCopy())
        continue;
      RegId D = I.def(0), S = I.use(0);
      if (D == S || (F.isPhysical(D) && F.isPhysical(S)))
        continue;
      Mergeable |= !IG.interfere(D, S);
      Partners[D].push_back(S);
      Partners[S].push_back(D);
    }
  MaxPartners = 0;
  for (std::vector<RegId> &List : Partners) {
    std::sort(List.begin(), List.end());
    List.erase(std::unique(List.begin(), List.end()), List.end());
    MaxPartners = std::max(MaxPartners, List.size());
  }
  return Mergeable;
}

} // namespace

TEST(Coalescer, GateBuildsTheGraphExactlyWhenACopyIsMergeable) {
  // The graph-free confirm gate against a freshly built graph: a call
  // builds its one graph (NumRebuilds == 1) exactly when that graph has
  // a candidate copy whose operands do not interfere. Checked on the
  // coalescer input of every +C preset for every suite function and an
  // 800-block ladder point, and of C,naiveABI+C for a call-heavy function
  // whose R0 has ~2,000 copy partners.
  std::vector<Workload> Functions = suiteAndLadderFunctions();
  std::vector<std::pair<size_t, PipelineConfig>> Cases;
  for (size_t I = 0; I < Functions.size(); ++I)
    for (const char *Preset : CoalescingPresets) {
      Cases.emplace_back(I, pipelinePreset(Preset));
      Cases.back().second.Coalesce = false;
    }
  Workload Heavy;
  Heavy.Name = "callheavy";
  Heavy.F = makeCallHeavyFunction();
  Functions.push_back(std::move(Heavy));
  Cases.emplace_back(Functions.size() - 1, pipelinePreset("C,naiveABI+C"));
  Cases.back().second.Coalesce = false;
  std::stable_sort(Cases.begin(), Cases.end(),
                   [&](const auto &A, const auto &B) {
                     return Functions[A.first].F->numValues() >
                            Functions[B.first].F->numValues();
                   });

  std::vector<std::string> Failure(Cases.size());
  std::vector<char> Built(Cases.size());
  std::vector<size_t> MaxPartners(Cases.size());
  ThreadPool Pool(std::min(4u, ThreadPool::defaultConcurrency()));
  Pool.parallelFor(Cases.size(), [&](size_t I) {
    auto F = cloneFunction(*Functions[Cases[I].first].F);
    runPipeline(*F, Cases[I].second);
    bool Mergeable = freshGraphHasMergeableCopy(*F, MaxPartners[I]);
    uint64_t Rebuilds = countersOf([&] {
      coalesceAggressively(*F);
    })["coalesce.rebuilds"];
    Built[I] = Rebuilds == 1;
    if (Rebuilds > 1)
      Failure[I] = "more than one graph build";
    else if (Built[I] != Mergeable)
      Failure[I] = Mergeable ? "gated off, but a fresh graph can merge"
                             : "built a graph that cannot merge";
  });
  unsigned NumBuilt = 0, NumGated = 0;
  for (size_t I = 0; I < Cases.size(); ++I) {
    const std::string &Name = Functions[Cases[I].first].Name;
    EXPECT_EQ(Failure[I], "") << Name << " under " << Cases[I].second.Name;
    ++(Built[I] ? NumBuilt : NumGated);
    if (Name == "callheavy") {
      EXPECT_GE(MaxPartners[I], 2000u) << "R0 should have ~2,000 partners";
    }
  }
  // Both verdicts occur.
  EXPECT_GT(NumBuilt, 0u);
  EXPECT_GT(NumGated, 0u);
}

namespace {

/// Applies \p Rounds — rounds of resolved (survivor, victim) pairs — to
/// the production graph and to the eagerly merged reference, both built
/// for \p F. Before each merge both graphs must give the same
/// interfere() answer for each endpoint against the other endpoint and
/// against every reference neighbor of either one; after each round the
/// production graph is compacted and every row must equal the
/// reference's. Returns "" or the first difference.
std::string replayMerges(Function &F, const std::vector<MergeRound> &Rounds) {
  CFG Cfg(F);
  Liveness LV(Cfg);
  InterferenceGraph Lazy(F, LV);
  ReferenceInterferenceGraph Eager(F, LV);
  auto RowsDiffer = [&]() -> std::string {
    for (RegId V = 0; V < F.numValues(); ++V)
      if (Lazy.neighbors(V) != Eager.neighbors(V))
        return formatStr("rows of v%u differ", unsigned(V));
    return "";
  };
  if (std::string D = RowsDiffer(); !D.empty())
    return "fresh graphs: " + D;

  size_t Next = 0;
  for (size_t Round = 0; Round < Rounds.size(); ++Round) {
    for (auto [Rep, Dead] : Rounds[Round]) {
      std::vector<RegId> Queried = Eager.neighbors(Rep);
      Queried.insert(Queried.end(), Eager.neighbors(Dead).begin(),
                     Eager.neighbors(Dead).end());
      Queried.push_back(Rep);
      Queried.push_back(Dead);
      for (RegId X : {Rep, Dead})
        for (RegId Y : Queried)
          if (Lazy.interfere(X, Y) != Eager.interfere(X, Y))
            return formatStr("merge %zu: interfere(v%u, v%u) differs", Next,
                             unsigned(X), unsigned(Y));
      Lazy.mergeNodes(Rep, Dead);
      Eager.mergeNodes(Rep, Dead);
      ++Next;
    }
    Lazy.compact();
    if (std::string D = RowsDiffer(); !D.empty())
      return formatStr("after round %zu: ", Round) + D;
  }
  return "";
}

/// The coalescer's own merges on the input \p Config leaves, in its
/// rounds, then seeded merges of non-interfering pairs of representatives
/// (physical victims excluded) in rounds of 1 to 64, on the same input.
std::string compareLazyMerges(const Function &Input,
                              const PipelineConfig &Config) {
  auto F = cloneFunction(Input);
  runPipeline(*F, Config);

  std::vector<MergeRound> Trace;
  CoalescerOptions Opts;
  Opts.TraceOut = &Trace;
  auto G = cloneFunction(*F);
  coalesceAggressively(*G, Opts);
  if (std::string D = replayMerges(*F, Trace); !D.empty())
    return "coalescer trace, " + D;

  CFG Cfg(*F);
  Liveness LV(Cfg);
  ReferenceInterferenceGraph Eager(*F, LV);
  std::mt19937_64 Rng(F->numValues());
  std::vector<RegId> Reps;
  for (RegId V = 0; V < F->numValues(); ++V)
    Reps.push_back(V);
  std::vector<MergeRound> Seeded(1);
  unsigned RoundSize = 1;
  for (unsigned Try = 0; Try < 4 * F->numValues() && Reps.size() > 1; ++Try) {
    size_t IA = Rng() % Reps.size(), IB = Rng() % Reps.size();
    RegId A = Reps[IA], B = Reps[IB];
    if (A == B || F->isPhysical(B) || Eager.interfere(A, B))
      continue;
    Eager.mergeNodes(A, B);
    Seeded.back().emplace_back(A, B);
    Reps.erase(Reps.begin() + IB);
    if (Seeded.back().size() == RoundSize) {
      Seeded.emplace_back();
      RoundSize = 1 + Rng() % 64;
    }
  }
  if (Seeded.back().empty())
    Seeded.pop_back();
  if (std::string D = replayMerges(*F, Seeded); !D.empty())
    return "seeded merges, " + D;
  return "";
}

} // namespace

TEST(InterferenceGraph, LazyMergesMatchEagerReferenceOnEverySuite) {
  // The lazy merge (union-find, stale rows, rows re-emitted once per
  // round) against the eager one it replaced
  // (tests/ReferenceInterferenceGraph.h): the coalescer's merge sequence
  // and a seeded one, on the coalescer input of the naive and the
  // ABI-aware preset, for every suite function, an 800-block ladder point
  // and the call-heavy function whose R0 has ~2,000 copy partners under
  // naive lowering.
  std::vector<Workload> Functions = suiteAndLadderFunctions();
  Workload Heavy;
  Heavy.Name = "callheavy";
  Heavy.F = makeCallHeavyFunction();
  Functions.push_back(std::move(Heavy));
  sortLargestFirst(Functions);
  std::vector<PipelineConfig> Configs;
  for (const char *Preset : {"C,naiveABI+C", "Lphi,ABI+C"}) {
    Configs.push_back(pipelinePreset(Preset));
    Configs.back().Coalesce = false;
  }

  size_t NumConfigs = Configs.size();
  std::vector<std::string> Failure(Functions.size() * NumConfigs);
  ThreadPool Pool(std::min(4u, ThreadPool::defaultConcurrency()));
  Pool.parallelFor(Failure.size(), [&](size_t I) {
    Failure[I] = compareLazyMerges(*Functions[I / NumConfigs].F,
                                   Configs[I % NumConfigs]);
  });
  for (size_t I = 0; I < Failure.size(); ++I)
    EXPECT_EQ(Failure[I], "") << Functions[I / NumConfigs].Name << " under "
                              << Configs[I % NumConfigs].Name;
}

namespace {

/// Adversarial input for the worklist schedule: \p Gadgets chained
/// exemption switches (exemptionSwitch, tests/TestUtil.h), every one of
/// which forces a re-enqueue. A long copy chain follows (merges cascade
/// through mergeNodes within a round, repeatedly victimizing the previous
/// survivor), and a diamond whose left leg carries the same deferred
/// pattern across a branch.
std::unique_ptr<Function> makeRequeueForcer(unsigned Gadgets) {
  std::string Text = "func @adv {\nentry:\n  input %p\n";
  std::string Prev = "%p";
  for (unsigned G = 0; G < Gadgets; ++G) {
    std::string N = std::to_string(G);
    ExemptionSwitch Gadget = exemptionSwitch(Prev, N, "%k" + N);
    Text += Gadget.Head + Gadget.Tail;
    Prev = "%k" + N;
  }
  // Copy chain: all of it coalesces in one round, survivor after
  // survivor.
  Text += "  %c0 = mov " + Prev + "\n";
  for (unsigned C = 1; C < 6; ++C)
    Text += "  %c" + std::to_string(C) + " = mov %c" + std::to_string(C - 1) +
            "\n";
  // Diamond: the deferred pattern with the blocking liveness flowing
  // through a branch.
  ExemptionSwitch Diamond = exemptionSwitch("%c5", "d", "%m");
  Text += Diamond.Head;
  Text += "  %cond = cmplt %c5, %p\n  branch %cond, left, right\nleft:\n";
  Text += Diamond.Tail;
  Text += R"(  jump join
right:
  %m = add %dd, %dd
  jump join
join:
  ret %m
}
)";
  return lao::test::parse(Text);
}

} // namespace

TEST(Coalescer, AdversarialRequeueForcerMatchesReference) {
  for (unsigned Gadgets : {1u, 4u, 16u}) {
    auto F = makeRequeueForcer(Gadgets);
    auto Before = cloneFunction(*F);
    auto Ref = cloneFunction(*F);

    std::vector<MergeRound> FastTrace;
    MergeTrace RefTrace;
    CoalescerOptions FastOpts;
    FastOpts.TraceOut = &FastTrace;
    StatsSnapshot Fast =
        countersOf([&] { coalesceAggressively(*F, FastOpts); });
    coalesceRebuildingEveryRound(*Ref, &RefTrace);

    EXPECT_EQ(firstTraceDivergence(FastTrace, RefTrace), "")
        << Gadgets << " gadgets";
    EXPECT_EQ(printFunction(*F), printFunction(*Ref)) << Gadgets;
    // Every gadget defers its second copy in round 1 and must wake it up
    // after the boundary repair — with exactly one graph build total.
    EXPECT_EQ(Fast["coalesce.rebuilds"], 1u) << Gadgets;
    EXPECT_GE(Fast["coalesce.worklist_requeues"], Gadgets) << Gadgets;
    EXPECT_GE(Fast["coalesce.rounds"], 2u) << Gadgets;
    EXPECT_GE(Fast["coalesce.stale_edges_removed"], Gadgets)
        << Gadgets << ": each exemption switch leaves a stale edge";
    // The merged program still computes the same thing.
    expectEquivalent(*Before, *F, {7});
    expectEquivalent(*Before, *F, {123});
  }
}

TEST(Coalescer, MaintainsManagedLivenessExactly) {
  // The AnalysisManager contract of coalesceAggressively: on return the
  // manager's dense Liveness is still cached and exact (incrementally
  // maintained through every merge and copy deletion). When the confirm
  // scan fired and a graph was built, the repaired interference graph
  // stays cached too — boundary repair leaves it exact; otherwise no
  // graph was ever built. The liveness-query engine is always dropped.
  auto CheckSuite = [](const std::vector<Workload> &Suite,
                       const char *Preset) {
    for (const Workload &W : Suite) {
      auto F = cloneFunction(*W.F);
      runPipeline(*F, pipelinePreset(Preset));
      AnalysisManager AM(*F);
      (void)AM.liveness();
      uint64_t Rebuilds = countersOf([&] {
        coalesceAggressively(*F, {}, &AM);
      })["coalesce.rebuilds"];
      EXPECT_TRUE(AM.isCached(AnalysisKind::Liveness)) << W.Name;
      EXPECT_EQ(AM.isCached(AnalysisKind::Interference), Rebuilds > 0)
          << W.Name << ": graph cached iff the gate scan built one";
      EXPECT_FALSE(AM.isCached(AnalysisKind::LivenessQuery)) << W.Name;
      EXPECT_EQ(AM.verify(), "") << W.Name;
    }
  };
  CheckSuite(makeExamplesSuite(), "Lphi,ABI");
  CheckSuite(makeValccSuite(1), "Sphi");
}

TEST(InterferenceGraph, NeighborsSortedAndMatrixConsistent) {
  // The hybrid representation: adjacency lists are sorted ascending (a
  // deterministic iteration order for RegAlloc), and every list entry
  // agrees with the triangular bit matrix's interfere() answer — after
  // construction and after merges.
  auto CheckGraph = [](const InterferenceGraph &IG, size_t NumValues,
                       const char *When) {
    for (RegId A = 0; A < NumValues; ++A) {
      const std::vector<RegId> &N = IG.neighbors(A);
      for (size_t K = 0; K + 1 < N.size(); ++K)
        EXPECT_LT(N[K], N[K + 1]) << When << ": unsorted neighbors of " << A;
      for (RegId B : N)
        EXPECT_TRUE(IG.interfere(A, B)) << When << ": list/matrix disagree";
    }
  };
  for (const Workload &W : makeValccSuite(1)) {
    auto F = cloneFunction(*W.F);
    runPipeline(*F, pipelinePreset("Lphi,ABI"));
    CFG Cfg(*F);
    Liveness LV(Cfg);
    InterferenceGraph IG(*F, LV);
    CheckGraph(IG, F->numValues(), "fresh");
    // Merge a few non-interfering pairs of representatives (a merged-away
    // node is never merged again) and re-check the invariants once the
    // rows are compacted.
    unsigned Merged = 0;
    std::vector<bool> Gone(F->numValues());
    for (RegId A = 0; A < F->numValues() && Merged < 4; ++A)
      for (RegId B = A + 1; B < F->numValues() && Merged < 4 && !Gone[A];
           ++B)
        if (!Gone[B] && !IG.interfere(A, B) && !F->isPhysical(B)) {
          IG.mergeNodes(A, B);
          Gone[B] = true;
          ++Merged;
          break;
        }
    IG.compact();
    CheckGraph(IG, F->numValues(), "post-merge");
  }
}

TEST(NaiveABI, InsertsMovesAroundCall) {
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  %r = call @g(%a, %b)
  ret %r
}
)");
  auto Before = cloneFunction(*F);
  uint64_t Moves = countersOf([&] {
    lowerABINaively(*F);
  })["naiveabi.moves_inserted"];
  sequentializeParallelCopies(*F);
  // input: 2 copies out of R0/R1; call: 2 copies in, 1 result copy out;
  // ret: 1 copy. Total 6.
  EXPECT_EQ(Moves, 6u);
  // The call now reads R0/R1 and writes R0.
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.op() == Opcode::Call) {
        EXPECT_EQ(I.use(0), static_cast<RegId>(Target::R0));
        EXPECT_EQ(I.use(1), static_cast<RegId>(Target::R1));
        EXPECT_EQ(I.def(0), static_cast<RegId>(Target::R0));
      }
  expectEquivalent(*Before, *F, {8, 9});
}

TEST(NaiveABI, TiesTwoOperandInstructions) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %k = more %a, 7
  %q = autoadd %k, 4
  %r = add %q, %a
  ret %r
}
)");
  auto Before = cloneFunction(*F);
  lowerABINaively(*F);
  sequentializeParallelCopies(*F);
  unsigned Checked = 0;
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.op() == Opcode::More || I.op() == Opcode::AutoAdd) {
        EXPECT_EQ(I.def(0), I.use(0));
        ++Checked;
      }
  EXPECT_EQ(Checked, 2u);
  expectEquivalent(*Before, *F, {5});
}

TEST(NaiveABI, MostMovesCoalesceAway) {
  // The Table 3/4 story: naive ABI lowering inserts many moves, and the
  // aggressive coalescer removes most but not all of them.
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  %x = add %a, %b
  %r = call @g(%x, %a)
  %s = call @h(%r, %b)
  ret %s
}
)");
  auto Before = cloneFunction(*F);
  uint64_t Inserted = countersOf([&] {
    lowerABINaively(*F);
  })["naiveabi.moves_inserted"];
  sequentializeParallelCopies(*F);
  EXPECT_GE(Inserted, 8u);
  coalesceAggressively(*F);
  EXPECT_LT(countMoves(*F), Inserted);
  expectEquivalent(*Before, *F, {100, 200});
}

TEST(MoveStats, CountsMovsAndParCopyEntries) {
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  %x = mov %a
  parcopy %a = %b, %b = %a
  ret %x
}
)");
  EXPECT_EQ(countMoves(*F), 3u);
}

TEST(MoveStats, WeightedCountUses5PowDepth) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %m0 = mov %a
  jump head
head:
  %c = cmplt %m0, %a
  branch %c, body, done
body:
  %m1 = mov %a
  jump head
done:
  ret %a
}
)");
  // One move at depth 0 (weight 1) + one at depth 1 (weight 5).
  AnalysisManager AM(*F);
  EXPECT_EQ(weightedMoveCount(*F, AM), 6u);
}
