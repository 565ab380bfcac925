//===- RegAllocStrategyTests.cpp - Allocator strategy tier cross-checks ------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Cross-checks for the allocator strategy tier (see docs/REGALLOC.md):
// the preset grammar, the suite x preset x allocator x spill-model
// matrix (no virtuals remain, interpreter equivalence against the
// unallocated function, load-store-opt never touching memory more often
// than spill-everywhere), chordal-vs-Chaitin-Briggs spill parity on the
// committed suites, the deterministic frame-slot assignment
// regression test, and the compile job's allocation (on analyses the
// pipeline left cached) against the one-shot calls (on fresh ones).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "driver/CompileJob.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "outofssa/Pipeline.h"
#include "regalloc/RegAlloc.h"
#include "support/ThreadPool.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

namespace {

const RegAllocOptions AllCombos[] = {
    {AllocatorKind::ChaitinBriggs, SpillModelKind::SpillEverywhere},
    {AllocatorKind::ChaitinBriggs, SpillModelKind::LoadStoreOpt},
    {AllocatorKind::Chordal, SpillModelKind::SpillEverywhere},
    {AllocatorKind::Chordal, SpillModelKind::LoadStoreOpt},
};

std::string comboName(const RegAllocOptions &O) {
  return std::string(allocatorName(O.Allocator)) + "/" +
         spillModelName(O.SpillMode);
}

/// Runs every allocator x spill-model combination over one lowered
/// suite and cross-checks each function: all virtuals gone, interpreter
/// equivalence against the pre-allocation function, and per-suite
/// spill-access totals with load-store-opt never above
/// spill-everywhere for the same allocator.
///
/// \p MaxInputs bounds the interpreter runs per function (the larger
/// suites carry several input vectors; one suffices for a lowering
/// matrix that the small suites already exercise in full).
void checkMatrixOnSuite(const std::vector<Workload> &Suite,
                        const char *Preset, unsigned NumRegs,
                        size_t MaxInputs) {
  // Lower once per function, then clone per combo: the matrix varies
  // only the allocator, so the out-of-SSA cost is shared.
  struct Lowered {
    const Workload *W;
    std::unique_ptr<Function> F;
  };
  std::vector<Lowered> LoweredSuite;
  for (const Workload &W : Suite) {
    auto F = cloneFunction(*W.F);
    runPipeline(*F, pipelinePreset(Preset));
    LoweredSuite.push_back({&W, std::move(F)});
  }

  // SpillAccesses[allocator][spill-model], summed over the suite.
  uint64_t Accesses[2][2] = {};
  for (const RegAllocOptions &Combo : AllCombos) {
    RegAllocOptions Opts = Combo;
    Opts.NumRegs = NumRegs;
    uint64_t SuiteAccesses = 0;
    for (const Lowered &L : LoweredSuite) {
      SCOPED_TRACE(L.W->Name + " [" + comboName(Combo) + "] preset " +
                   Preset);
      auto F = cloneFunction(*L.F);
      RegAllocResult R = allocateRegisters(*F, Opts);
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_TRUE(collectVirtualRegs(*F).empty());
      EXPECT_LE(R.NumRegsUsed, NumRegs);
      SuiteAccesses += R.NumSpillLoads + R.NumSpillStores;
      size_t Runs = 0;
      for (const auto &Args : L.W->Inputs) {
        if (Runs++ == MaxInputs)
          break;
        expectEquivalent(*L.F, *F, Args);
      }
    }
    Accesses[Combo.Allocator == AllocatorKind::Chordal]
            [Combo.SpillMode == SpillModelKind::LoadStoreOpt] =
        SuiteAccesses;
  }
  for (int A = 0; A < 2; ++A)
    EXPECT_LE(Accesses[A][1], Accesses[A][0])
        << "load-store-opt must not add spill accesses ("
        << (A ? "chordal" : "chaitin-briggs") << ", preset " << Preset
        << ")";
}

} // namespace

//===----------------------------------------------------------------------===//
// Preset grammar
//===----------------------------------------------------------------------===//

TEST(RegAllocPreset, AllocatorOnlyNamesDefaultSpillModel) {
  auto O = regAllocPresetOpt("chordal");
  ASSERT_TRUE(O.has_value());
  EXPECT_EQ(O->Allocator, AllocatorKind::Chordal);
  EXPECT_EQ(O->SpillMode, SpillModelKind::SpillEverywhere);

  O = regAllocPresetOpt("chaitin-briggs");
  ASSERT_TRUE(O.has_value());
  EXPECT_EQ(O->Allocator, AllocatorKind::ChaitinBriggs);
  EXPECT_EQ(O->SpillMode, SpillModelKind::SpillEverywhere);
}

TEST(RegAllocPreset, SlashSelectsSpillModel) {
  auto O = regAllocPresetOpt("chordal/load-store-opt");
  ASSERT_TRUE(O.has_value());
  EXPECT_EQ(O->Allocator, AllocatorKind::Chordal);
  EXPECT_EQ(O->SpillMode, SpillModelKind::LoadStoreOpt);

  O = regAllocPresetOpt("chaitin-briggs/spill-everywhere");
  ASSERT_TRUE(O.has_value());
  EXPECT_EQ(O->Allocator, AllocatorKind::ChaitinBriggs);
  EXPECT_EQ(O->SpillMode, SpillModelKind::SpillEverywhere);
}

TEST(RegAllocPreset, RejectsUnknownNames) {
  EXPECT_FALSE(regAllocPresetOpt("").has_value());
  EXPECT_FALSE(regAllocPresetOpt("linear-scan").has_value());
  EXPECT_FALSE(regAllocPresetOpt("chordal/never-spill").has_value());
  // A trailing slash names an empty spill model, not the default.
  EXPECT_FALSE(regAllocPresetOpt("chordal/").has_value());
  // Only the first slash splits; the rest must still name a model.
  EXPECT_FALSE(
      regAllocPresetOpt("chordal/load-store-opt/extra").has_value());
  // The spill model is not an allocator and vice versa.
  EXPECT_FALSE(regAllocPresetOpt("load-store-opt").has_value());
  EXPECT_FALSE(regAllocPresetOpt("spill-everywhere/chordal").has_value());
}

TEST(RegAllocPreset, NamesRoundTripThroughPresetGrammar) {
  for (const RegAllocOptions &Combo : AllCombos) {
    auto O = regAllocPresetOpt(comboName(Combo));
    ASSERT_TRUE(O.has_value()) << comboName(Combo);
    EXPECT_EQ(O->Allocator, Combo.Allocator);
    EXPECT_EQ(O->SpillMode, Combo.SpillMode);
  }
}

//===----------------------------------------------------------------------===//
// The suite x preset x allocator x spill-model matrix
//===----------------------------------------------------------------------===//

TEST(RegAllocStrategy, MatrixOnExamples) {
  auto Suite = makeExamplesSuite();
  for (const char *Preset : {"Lphi,ABI+C", "LABI+C", "C,naiveABI+C"})
    checkMatrixOnSuite(Suite, Preset, /*NumRegs=*/8,
                       /*MaxInputs=*/~size_t(0));
}

TEST(RegAllocStrategy, MatrixOnValcc1) {
  auto Suite = makeValccSuite(1);
  for (const char *Preset : {"Lphi,ABI+C", "LABI+C", "C,naiveABI+C"})
    checkMatrixOnSuite(Suite, Preset, /*NumRegs=*/8, /*MaxInputs=*/1);
}

TEST(RegAllocStrategy, MatrixOnValcc2) {
  auto Suite = makeValccSuite(2);
  for (const char *Preset : {"Lphi,ABI+C", "LABI+C", "C,naiveABI+C"})
    checkMatrixOnSuite(Suite, Preset, /*NumRegs=*/8, /*MaxInputs=*/1);
}

TEST(RegAllocStrategy, MatrixOnLarge) {
  checkMatrixOnSuite(makeLargeSuite(), "Lphi,ABI+C", /*NumRegs=*/8,
                     /*MaxInputs=*/~size_t(0));
}

TEST(RegAllocStrategy, MatrixOnSpecLike) {
  checkMatrixOnSuite(makeSpecLikeSuite(), "Lphi,ABI+C", /*NumRegs=*/8,
                     /*MaxInputs=*/~size_t(0));
}

TEST(RegAllocStrategy, MatrixUnderStrongPressure) {
  // Six registers on the copy-heavy valcc variant: every combo still
  // terminates, stays equivalent, and load-store-opt still pays off.
  checkMatrixOnSuite(makeValccSuite(2), "C,naiveABI+C", /*NumRegs=*/6,
                     /*MaxInputs=*/1);
}

//===----------------------------------------------------------------------===//
// Chordal vs Chaitin-Briggs
//===----------------------------------------------------------------------===//

TEST(RegAllocStrategy, ChordalSpillsNoMoreThanChaitinBriggs) {
  // The acceptance bar: on the committed suites at num_regs >= 6 the
  // chordal allocator's suite-total spill count must not exceed
  // Chaitin-Briggs's (exceptions would have to be documented in
  // docs/REGALLOC.md; as of this test there are none).
  for (unsigned NumRegs : {6u, 8u}) {
    for (int Variant : {1, 2}) {
      auto Suite = makeValccSuite(Variant);
      uint64_t CBSpills = 0, ChordalSpills = 0;
      for (const Workload &W : Suite) {
        auto Lowered = cloneFunction(*W.F);
        runPipeline(*Lowered, pipelinePreset("Lphi,ABI+C"));
        for (AllocatorKind A :
             {AllocatorKind::ChaitinBriggs, AllocatorKind::Chordal}) {
          auto F = cloneFunction(*Lowered);
          RegAllocOptions Opts;
          Opts.Allocator = A;
          Opts.NumRegs = NumRegs;
          RegAllocResult R = allocateRegisters(*F, Opts);
          ASSERT_TRUE(R.Ok) << W.Name << ": " << R.Error;
          (A == AllocatorKind::Chordal ? ChordalSpills : CBSpills) +=
              R.NumSpilled;
        }
      }
      EXPECT_LE(ChordalSpills, CBSpills)
          << "VALcc" << Variant << " with " << NumRegs << " registers";
    }
  }
}

TEST(RegAllocStrategy, ChordalFailsCleanlyWhenStarved) {
  // Failure parity with Chaitin-Briggs: too few registers is a
  // structured error, never a hang or a crash.
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  %x = add %a, %b
  ret %x
}
)");
  RegAllocOptions Opts;
  Opts.Allocator = AllocatorKind::Chordal;
  Opts.NumRegs = 1;
  RegAllocResult R = allocateRegisters(*F, Opts);
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
}

//===----------------------------------------------------------------------===//
// Deterministic frame-slot assignment
//===----------------------------------------------------------------------===//

TEST(RegAllocStrategy, FrameSlotAssignmentIsDeterministic) {
  // Regression test for the hash-map-order frame layout bug: repeated
  // allocations of the same function must produce byte-identical
  // machine code (same slot addresses in the same spill sites) and the
  // same frame size, for every combo. Pressure forces enough spills
  // that an iteration-order-dependent assignment would scramble slots.
  std::string Text = "func @f {\nentry:\n  input %a\n";
  for (int K = 0; K < 12; ++K)
    Text += "  %v" + std::to_string(K) + " = addi %a, " +
            std::to_string(K) + "\n";
  Text += "  %s0 = add %v0, %v1\n";
  for (int K = 2; K < 12; ++K)
    Text += "  %s" + std::to_string(K - 1) + " = add %s" +
            std::to_string(K - 2) + ", %v" + std::to_string(K) + "\n";
  Text += "  ret %s10\n}\n";

  for (const RegAllocOptions &Combo : AllCombos) {
    SCOPED_TRACE(comboName(Combo));
    RegAllocOptions Opts = Combo;
    Opts.NumRegs = 4;
    std::string FirstIR;
    unsigned FirstFrame = 0;
    for (int Run = 0; Run < 3; ++Run) {
      auto F = parse(Text);
      RegAllocResult R = allocateRegisters(*F, Opts);
      ASSERT_TRUE(R.Ok) << R.Error;
      EXPECT_GT(R.NumSpilled, 0u);
      std::string IR = printFunction(*F);
      if (Run == 0) {
        FirstIR = IR;
        FirstFrame = R.FrameBytes;
      } else {
        EXPECT_EQ(IR, FirstIR);
        EXPECT_EQ(R.FrameBytes, FirstFrame);
      }
    }
  }
}

TEST(RegAllocStrategy, CompileJobMatchesOneShotCalls) {
  // The compile job allocates on the manager its pipeline filled, so
  // round 1 colors the coalescer's cached graph; one WorkerContext per
  // preset and combination carries that manager from function to
  // function, as a server worker does. The one-shot calls build every
  // analysis afresh. Over every suite function, at 8 registers, both
  // must give the same IR byte for byte and the same allocation.
  std::vector<std::pair<std::string, std::string>> Texts; // Name, IR.
  for (const SuiteSpec &Suite : allSuites())
    for (const Workload &W : Suite.Make())
      Texts.push_back({W.Name, printFunction(*W.F)});
  const char *const Presets[] = {"Lphi,ABI+C", "LABI+C", "C,naiveABI+C"};
  size_t NumCombos = std::size(AllCombos);
  std::vector<std::string> Mismatch(std::size(Presets) * NumCombos);
  ThreadPool Pool(std::min(4u, ThreadPool::defaultConcurrency()));
  Pool.parallelFor(Mismatch.size(), [&](size_t Task) {
    const char *Preset = Presets[Task / NumCombos];
    RegAllocOptions RA = AllCombos[Task % NumCombos];
    RA.NumRegs = 8;
    RequestOptions Opts;
    Opts.Pipeline = Preset;
    Opts.RegAlloc = comboName(RA);
    Opts.RegAllocRegs = RA.NumRegs;
    WorkerContext Ctx;
    for (const auto &[Name, Text] : Texts) {
      CompileOutcome Job = runCompileJob(Text, Opts, Ctx);
      auto F = parseFunction(Text);
      PipelineResult P = runPipeline(*F, pipelinePreset(Preset));
      RegAllocResult R = allocateRegisters(*F, RA);
      std::string Where = Name + " under " + Preset + " [" + comboName(RA) +
                          "]: ";
      if (Job.ok() != R.Ok)
        Mismatch[Task] += Where + "job ok " + std::to_string(Job.ok()) +
                          ", one-shot ok " + std::to_string(R.Ok) + "\n";
      else if (!R.Ok && Job.Error != "regalloc error: " + R.Error)
        Mismatch[Task] += Where + Job.Error + " vs " + R.Error + "\n";
      else if (R.Ok && (Job.IR != printFunction(*F) ||
                        Job.Moves != P.NumMoves ||
                        Job.WeightedMoves != P.WeightedMoves ||
                        Job.Spills != R.NumSpilled ||
                        Job.SpillAccesses !=
                            R.NumSpillLoads + R.NumSpillStores ||
                        Job.RegsUsed != R.NumRegsUsed ||
                        Job.FrameBytes != R.FrameBytes))
        Mismatch[Task] += Where + "results differ\n";
    }
  });
  for (const std::string &M : Mismatch)
    EXPECT_EQ(M, "");
}
