//===- EquivalenceTests.cpp - Out-of-SSA semantic preservation -------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// The central property suite: every out-of-SSA pipeline configuration
// must preserve the full observable trace (outputs + return value) of
// every program, across a sweep of generated programs and input vectors.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "outofssa/Pipeline.h"
#include "ssa/SSAVerifier.h"
#include "workloads/Generator.h"
#include "workloads/PaperExamples.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

namespace {

/// One sweep point: a generator seed plus a pipeline preset.
struct SweepPoint {
  uint64_t Seed;
  const char *Preset;
};

/// Names a failing sweep point in gtest's messages.
void PrintTo(const SweepPoint &P, std::ostream *OS) {
  *OS << "seed" << P.Seed << "_" << P.Preset;
}

std::string sweepName(const testing::TestParamInfo<SweepPoint> &Info) {
  std::string S = "seed" + std::to_string(Info.param.Seed) + "_" +
                  Info.param.Preset;
  for (char &C : S)
    if (!isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return S;
}

class PipelineEquivalence : public testing::TestWithParam<SweepPoint> {};

TEST_P(PipelineEquivalence, PreservesObservableBehaviour) {
  const SweepPoint &Point = GetParam();

  GeneratorParams P;
  P.Seed = Point.Seed;
  P.NumStatements = 16 + Point.Seed % 23;
  P.MaxNesting = 1 + Point.Seed % 3;
  P.NumParams = 1 + Point.Seed % 4;
  P.UseSP = Point.Seed % 3 == 0;
  P.UsePsi = Point.Seed % 5 == 2;
  P.ExtraCopies = Point.Seed % 4 == 3;

  auto F = generateProgram(P, "prog" + std::to_string(Point.Seed));
  normalizeToOptimizedSSA(*F);
  expectWellFormed(*F);
  for (const std::string &D : verifySSA(*F))
    FAIL() << D;

  auto Translated = cloneFunction(*F);
  PipelineConfig Config = pipelinePreset(Point.Preset);
  runPipeline(*Translated, Config);
  expectWellFormed(*Translated);

  // No phis (and no parallel copies) may survive the pipeline, and every
  // renaming constraint the preset handles holds.
  for (const auto &BB : Translated->blocks())
    for (const Instruction &I : BB->instructions()) {
      EXPECT_FALSE(I.isPhi()) << "phi survived out-of-SSA";
      EXPECT_FALSE(I.isParCopy()) << "parcopy survived sequentialization";
    }
  EXPECT_EQ(renamingConstraintViolations(*F, *Translated, Config), "");

  for (uint64_t Set = 0; Set < 3; ++Set) {
    std::vector<uint64_t> Args;
    for (unsigned K = 0; K < P.NumParams; ++K)
      Args.push_back((Point.Seed * 131 + Set * 17 + K * 7) % 997);
    expectEquivalent(*F, *Translated, Args);
  }
}

std::vector<SweepPoint> sweepPoints() {
  // The Sreedhar-based configurations are excluded from SP-heavy seeds
  // below by the preset list used per seed class; the paper itself
  // reports Sreedhar+SP as incorrect on some codes.
  static const char *const AllPresets[] = {
      "Lphi+C", "C", "Lphi,ABI+C", "LABI+C", "C,naiveABI+C",
      "Lphi,ABI", "LABI"};
  static const char *const SreedharPresets[] = {"Sphi+C", "Sphi+LABI+C",
                                                "Sphi"};
  std::vector<SweepPoint> Points;
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    for (const char *Preset : AllPresets)
      Points.push_back({Seed, Preset});
    if (Seed % 3 != 0) // Skip SP-frame seeds for Sreedhar configs.
      for (const char *Preset : SreedharPresets)
        Points.push_back({Seed, Preset});
  }
  return Points;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PipelineEquivalence,
                         testing::ValuesIn(sweepPoints()), sweepName);

/// Interference-mode and heuristic variants must also be semantics
/// preserving (they may only change the number of moves).
struct VariantPoint {
  uint64_t Seed;
  InterferenceMode Mode;
  bool Depth;
};

class VariantEquivalence : public testing::TestWithParam<VariantPoint> {};

TEST_P(VariantEquivalence, PreservesObservableBehaviour) {
  const VariantPoint &Point = GetParam();
  GeneratorParams P;
  P.Seed = Point.Seed;
  P.NumStatements = 24;
  P.MaxNesting = 3;
  P.NumParams = 2;
  P.UseSP = Point.Seed % 2 == 0;

  auto F = generateProgram(P, "vprog" + std::to_string(Point.Seed));
  normalizeToOptimizedSSA(*F);

  auto Translated = cloneFunction(*F);
  PipelineConfig Config = pipelinePreset("Lphi,ABI+C");
  Config.Mode = Point.Mode;
  Config.PhiOpts.DepthConstrained = Point.Depth;
  runPipeline(*Translated, Config);

  for (uint64_t Set = 0; Set < 2; ++Set)
    expectEquivalent(*F, *Translated, {Point.Seed * 3 + Set, Set});
}

std::vector<VariantPoint> variantPoints() {
  std::vector<VariantPoint> Points;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    Points.push_back({Seed, InterferenceMode::Precise, true});
    Points.push_back({Seed, InterferenceMode::Optimistic, false});
    Points.push_back({Seed, InterferenceMode::Pessimistic, false});
  }
  return Points;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VariantEquivalence, testing::ValuesIn(variantPoints()),
    [](const testing::TestParamInfo<VariantPoint> &Info) {
      const char *Mode =
          Info.param.Mode == InterferenceMode::Precise
              ? "precise"
              : Info.param.Mode == InterferenceMode::Optimistic
                    ? "optimistic"
                    : "pessimistic";
      return "seed" + std::to_string(Info.param.Seed) + "_" + Mode +
             (Info.param.Depth ? "_depth" : "");
    });

/// The paper-figure programs must survive every applicable pipeline.
TEST(FigureEquivalence, AllFiguresAllPresets) {
  static const char *const Presets[] = {"Lphi+C", "C", "Lphi,ABI+C",
                                        "LABI+C", "C,naiveABI+C"};
  for (const Workload &W : makeExamplesSuite()) {
    for (const char *Preset : Presets) {
      auto Translated = cloneFunction(*W.F);
      runPipeline(*Translated, pipelinePreset(Preset));
      for (const auto &Args : W.Inputs) {
        SCOPED_TRACE(std::string(W.Name) + " / " + Preset);
        expectEquivalent(*W.F, *Translated, Args);
      }
    }
  }
}

} // namespace
