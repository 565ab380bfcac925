//===- VMTests.cpp - Bytecode compiler + VM vs interpreter -----------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// The execution-tier gate: the bytecode VM must produce the same
// ExecResult outcome (status class, output trace, return value) as the
// tree-walk interpreter on every program — unit semantics cases, every
// suite function under every pipeline preset, and the property-test
// generators (docs/EXEC.md).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "exec/Bytecode.h"
#include "exec/VM.h"
#include "outofssa/Pipeline.h"
#include "workloads/Generator.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <map>

using namespace lao;
using namespace lao::test;

namespace {

/// Runs both engines on the same input and requires the equivalence
/// contract (ExecResult::sameOutcome) to hold. Both engines get the same
/// generous budget: step counts are engine-specific (lowered copies and
/// edge stubs), so differential runs must not sit near the limit.
void expectSameOutcome(const Function &F, const std::vector<uint64_t> &Args,
                       uint64_t MaxSteps = 1u << 24) {
  ExecResult I = interpret(F, Args, MaxSteps);
  ExecResult V = executeVM(F, Args, MaxSteps);
  EXPECT_TRUE(I.sameOutcome(V))
      << F.name() << ": engines diverge\n"
      << "  interp: status=" << static_cast<int>(I.Status) << " ret="
      << I.RetValue << " outputs=" << I.Outputs.size() << " error=\""
      << I.Error << "\"\n"
      << "  vm:     status=" << static_cast<int>(V.Status) << " ret="
      << V.RetValue << " outputs=" << V.Outputs.size() << " error=\""
      << V.Error << "\"\n--- ir ---\n"
      << printFunction(F) << "--- bytecode ---\n"
      << printBytecode(compileToBytecode(F));
}

TEST(VM, StraightLineArithmeticMatches) {
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  %s = add %a, %b
  %d = sub %s, %b
  %m = mul %d, %s
  %k = addi %m, 7
  output %k
  ret %s
}
)");
  ExecResult V = executeVM(*F, {5, 6});
  ASSERT_TRUE(V.ok()) << V.Error;
  EXPECT_EQ(V.RetValue, 11u);
  ASSERT_EQ(V.Outputs.size(), 1u);
  EXPECT_EQ(V.Outputs[0], 5u * 11u + 7u);
  expectSameOutcome(*F, {5, 6});
  expectSameOutcome(*F, {0, 0});
}

TEST(VM, PhiLoopMatchesInterpreter) {
  auto F = parse(R"(
func @f {
entry:
  input %n
  %zero = make 0
  %one = make 1
  jump head
head:
  %i = phi [%zero, entry], [%in, body]
  %acc = phi [%zero, entry], [%accn, body]
  %c = cmplt %i, %n
  branch %c, body, exit
body:
  %accn = add %acc, %i
  %in = add %i, %one
  jump head
exit:
  output %acc
  ret %acc
}
)");
  ExecResult V = executeVM(*F, {10});
  ASSERT_TRUE(V.ok()) << V.Error;
  EXPECT_EQ(V.RetValue, 45u);
  expectSameOutcome(*F, {10});
  expectSameOutcome(*F, {0});
}

TEST(VM, CallsPsiMemoryAndTwoOperandMatch) {
  auto F = parse(R"(
func @f {
entry:
  input %p, %a
  %r = call @mix(%p, %a)
  %s = psi %p, %r, %a
  %k = more %s^k, 255
  store %k, %a
  %l = load %k
  %u = load %a
  output %l
  output %u
  ret %s
}
)");
  for (uint64_t P : {0ull, 1ull, 99ull}) {
    expectSameOutcome(*F, {P, 41});
    ExecResult V = executeVM(*F, {P, 41});
    ASSERT_TRUE(V.ok()) << V.Error;
    if (P) {
      EXPECT_EQ(V.RetValue, builtinCall("mix", {P, 41}));
    }
  }
}

TEST(VM, ParCopySwapCycleBreaksWithTemp) {
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  parcopy %a = %b, %b = %a
  output %a
  output %b
  ret %a
}
)");
  ExecResult V = executeVM(*F, {3, 9});
  ASSERT_TRUE(V.ok()) << V.Error;
  EXPECT_EQ(V.Outputs, (std::vector<uint64_t>{9, 3}));
  // The swap costs the VM three executed moves (cycle temporary), the
  // interpreter two (it applies the parallel copy directly): DynMoves is
  // engine-specific on code still containing parallel copies.
  EXPECT_EQ(V.DynMoves, 3u);
  EXPECT_EQ(interpret(*F, {3, 9}).DynMoves, 2u);
  expectSameOutcome(*F, {3, 9});
}

TEST(VM, UndefinedReadMatchesInterpreterMessage) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %r = add %a, %R3
  ret %r
}
)");
  ExecResult I = interpret(*F, {1});
  ExecResult V = executeVM(*F, {1});
  EXPECT_EQ(V.Status, ExecStatus::Error);
  EXPECT_EQ(V.Error, I.Error);
  EXPECT_EQ(V.Error, "read of undefined register %R3");
  expectSameOutcome(*F, {1});
}

TEST(VM, StepLimitIsTimedOutInBothEngines) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  jump spin
spin:
  jump spin
}
)");
  ExecResult I = interpret(*F, {0}, /*MaxSteps=*/500);
  ExecResult V = executeVM(*F, {0}, /*MaxSteps=*/500);
  EXPECT_TRUE(I.timedOut());
  EXPECT_TRUE(V.timedOut());
  EXPECT_TRUE(I.sameOutcome(V));
}

TEST(VM, WrongArityAndMissingPhiEntryMatch) {
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  ret %a
}
)");
  expectSameOutcome(*F, {1});
  expectSameOutcome(*F, {1, 2});

  auto G = parse(R"(
func @g {
entry:
  input %a
  branch %a, one, two
one:
  jump join
two:
  jump join
join:
  %x = phi [%a, one]
  ret %x
}
)");
  expectSameOutcome(*G, {1}); // Edge with a phi entry: runs clean.
  expectSameOutcome(*G, {0}); // Edge without: dynamic error in both.
  ExecResult V = executeVM(*G, {0});
  EXPECT_EQ(V.Status, ExecStatus::Error);
  EXPECT_NE(V.Error.find("no entry for predecessor"), std::string::npos)
      << V.Error;
}

TEST(VM, FallingOffABlockEndMatches) {
  // The parser refuses a block without a terminator, so drop the ret of
  // a parsed function: the engines must still fail cleanly on one.
  auto F = parse(R"(
func @f {
entry:
  input %a
  output %a
  ret %a
}
)");
  F->entry().instructions().pop_back();
  ExecResult I = interpret(*F, {7});
  ExecResult V = executeVM(*F, {7});
  EXPECT_EQ(V.Status, ExecStatus::Error);
  EXPECT_EQ(V.Error, I.Error);
  EXPECT_NE(V.Error.find("fell off the end"), std::string::npos);
  EXPECT_TRUE(I.sameOutcome(V)); // Including the partial output trace.
  EXPECT_EQ(V.Outputs, (std::vector<uint64_t>{7}));
}

TEST(VM, BytecodeSideTablesAreDense) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %b = addi %a, 1
  ret %b
}
)");
  BytecodeFunction BF = compileToBytecode(*F);
  EXPECT_GE(BF.NumRegs, static_cast<uint32_t>(F->numValues()));
  EXPECT_EQ(BF.NumParams, 1u);
  ASSERT_EQ(BF.InstrPc.size(), F->instrRefLimit());
  // Every executable instruction maps to its first emitted offset.
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions()) {
      ASSERT_LT(BF.InstrPc[I.selfRef()], BF.Code.size());
      if (I.op() == Opcode::Ret) {
        EXPECT_EQ(BF.Code[BF.InstrPc[I.selfRef()]].Op, BcOp::Ret);
      }
    }
  EXPECT_NE(printBytecode(BF).find("ret"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Differential sweep: every suite function under every pipeline preset
// (plus the SSA input itself), both engines, all shipped input vectors.
//===----------------------------------------------------------------------===//

/// Presets under differential test. "ssa" runs the engines on the suite's
/// SSA form directly (phi/psi handling); the rest run the full pipeline
/// first. Engines must agree even where a configuration is known to
/// miscompile (Sreedhar + SP): both execute the same translated code.
const char *const DiffPresets[] = {
    "ssa",       "Lphi+C",     "C",    "Lphi,ABI+C", "LABI+C",
    "C,naiveABI+C", "Lphi,ABI", "LABI", "Sphi+C",     "Sphi+LABI+C",
    "Sphi"};

struct DiffPoint {
  const char *Suite;
  const char *Preset;
};

std::string diffName(const testing::TestParamInfo<DiffPoint> &Info) {
  std::string S = std::string(Info.param.Suite) + "_" + Info.param.Preset;
  for (char &C : S)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return S;
}

/// Suites are expensive to build; share one instance per suite across
/// all preset points.
const std::vector<Workload> &cachedSuite(const std::string &Name) {
  static std::map<std::string, std::vector<Workload>> Cache;
  auto It = Cache.find(Name);
  if (It != Cache.end())
    return It->second;
  for (const SuiteSpec &S : allSuites())
    if (Name == S.Name)
      return Cache.emplace(Name, S.Make()).first->second;
  ADD_FAILURE() << "unknown suite " << Name;
  static std::vector<Workload> Empty;
  return Empty;
}

class VMSuiteDifferential : public testing::TestWithParam<DiffPoint> {};

TEST_P(VMSuiteDifferential, EnginesAgreeOnEveryFunction) {
  const DiffPoint &Point = GetParam();
  for (const Workload &W : cachedSuite(Point.Suite)) {
    const Function *Subject = W.F.get();
    std::unique_ptr<Function> Translated;
    if (std::string(Point.Preset) != "ssa") {
      Translated = cloneFunction(*W.F);
      PipelineConfig Config = pipelinePreset(Point.Preset);
      runPipeline(*Translated, Config);
      Subject = Translated.get();
    }
    for (const auto &Args : W.Inputs)
      expectSameOutcome(*Subject, Args);
  }
}

std::vector<DiffPoint> diffPoints() {
  std::vector<DiffPoint> Points;
  for (const SuiteSpec &S : allSuites())
    for (const char *Preset : DiffPresets)
      Points.push_back({S.Name, Preset});
  return Points;
}

INSTANTIATE_TEST_SUITE_P(Sweep, VMSuiteDifferential,
                         testing::ValuesIn(diffPoints()), diffName);

//===----------------------------------------------------------------------===//
// Generator property sweep: the engines must agree on freshly generated
// programs, both in optimized SSA and after translation.
//===----------------------------------------------------------------------===//

class VMGeneratorSweep : public testing::TestWithParam<uint64_t> {};

TEST_P(VMGeneratorSweep, EnginesAgree) {
  uint64_t Seed = GetParam();
  GeneratorParams P;
  P.Seed = Seed;
  P.NumStatements = 16 + Seed % 23;
  P.MaxNesting = 1 + Seed % 3;
  P.NumParams = 1 + Seed % 4;
  P.UseSP = Seed % 3 == 0;
  P.UsePsi = Seed % 5 == 2;
  P.ExtraCopies = Seed % 4 == 3;

  auto F = generateProgram(P, "vmprog" + std::to_string(Seed));
  normalizeToOptimizedSSA(*F);

  auto Translated = cloneFunction(*F);
  runPipeline(*Translated, pipelinePreset("Lphi,ABI+C"));

  for (uint64_t Set = 0; Set < 3; ++Set) {
    std::vector<uint64_t> Args;
    for (unsigned K = 0; K < P.NumParams; ++K)
      Args.push_back((Seed * 131 + Set * 17 + K * 7) % 997);
    expectSameOutcome(*F, Args);
    expectSameOutcome(*Translated, Args);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, VMGeneratorSweep, testing::Range<uint64_t>(1, 26),
                         [](const testing::TestParamInfo<uint64_t> &Info) {
                           return "seed" + std::to_string(Info.param);
                         });

} // namespace
