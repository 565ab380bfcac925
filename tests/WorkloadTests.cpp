//===- WorkloadTests.cpp - Generator and suite tests ------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ssa/SSAVerifier.h"
#include "workloads/Generator.h"
#include "workloads/PaperExamples.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

TEST(Generator, Deterministic) {
  GeneratorParams P;
  P.Seed = 9;
  P.NumStatements = 30;
  auto A = generateProgram(P, "a");
  auto B = generateProgram(P, "a");
  EXPECT_EQ(printFunction(*A), printFunction(*B));
}

TEST(Generator, SeedsProduceDistinctPrograms) {
  GeneratorParams P;
  P.NumStatements = 30;
  P.Seed = 1;
  auto A = generateProgram(P, "a");
  P.Seed = 2;
  auto B = generateProgram(P, "a");
  EXPECT_NE(printFunction(*A), printFunction(*B));
}

TEST(Generator, ProgramsAreWellFormedAndRunnable) {
  for (uint64_t Seed = 700; Seed < 715; ++Seed) {
    GeneratorParams P;
    P.Seed = Seed;
    P.NumStatements = 30;
    P.MaxNesting = 3;
    P.UseSP = Seed % 2 == 0;
    P.UsePsi = Seed % 3 == 0;
    P.ExtraCopies = Seed % 5 == 0;
    std::string Name = "w"; // g++ 12 -O3 misreports "w" + ... (-Wrestrict).
    Name += std::to_string(Seed);
    auto F = generateProgram(P, Name);
    expectWellFormed(*F);
    ExecResult R = interpret(*F, {Seed, Seed + 1});
    EXPECT_TRUE(R.ok()) << "seed " << Seed << ": " << R.Error;
    EXPECT_FALSE(R.Outputs.empty()) << "programs must be observable";
  }
}

TEST(Generator, ExtraCopiesStyleAddsMoves) {
  GeneratorParams P;
  P.Seed = 11;
  P.NumStatements = 40;
  P.ExtraCopies = false;
  auto Plain = generateProgram(P, "p");
  P.ExtraCopies = true;
  auto Copied = generateProgram(P, "p");
  unsigned PlainMovs = 0, CopiedMovs = 0;
  for (const auto &BB : Plain->blocks())
    for (const Instruction &I : BB->instructions())
      PlainMovs += I.isCopy();
  for (const auto &BB : Copied->blocks())
    for (const Instruction &I : BB->instructions())
      CopiedMovs += I.isCopy();
  EXPECT_GT(CopiedMovs, PlainMovs);
}

TEST(Suites, AllSuitesProduceValidOptimizedSSA) {
  for (const SuiteSpec &Spec : allSuites()) {
    std::vector<Workload> Suite = Spec.Make();
    EXPECT_FALSE(Suite.empty()) << Spec.Name;
    for (const Workload &W : Suite) {
      SCOPED_TRACE(std::string(Spec.Name) + "/" + W.Name);
      expectWellFormed(*W.F);
      for (const auto &D : verifySSA(*W.F))
        ADD_FAILURE() << D;
      ASSERT_FALSE(W.Inputs.empty());
      for (const auto &Args : W.Inputs) {
        ExecResult R = interpret(*W.F, Args);
        EXPECT_TRUE(R.ok()) << R.Error;
      }
    }
  }
}

TEST(Suites, ValccSizesMatchThePaperScale) {
  auto V1 = makeValccSuite(1);
  EXPECT_EQ(V1.size(), 40u) << "about 40 small functions";
  auto Ex = makeExamplesSuite();
  EXPECT_EQ(Ex.size(), 8u);
}

TEST(Suites, ValccVariantsShareKernelsButDifferInLowering) {
  auto V1 = makeValccSuite(1);
  auto V2 = makeValccSuite(2);
  ASSERT_EQ(V1.size(), V2.size());
  // Same generated seeds, different copy style: at least some members
  // must differ textually.
  unsigned Different = 0;
  for (size_t K = 0; K < V1.size(); ++K)
    Different += printFunction(*V1[K].F) != printFunction(*V2[K].F);
  EXPECT_GT(Different, V1.size() / 2);
}

TEST(Suites, LargeSuiteIsLarger) {
  auto V1 = makeValccSuite(1);
  auto Large = makeLargeSuite();
  size_t AvgSmall = 0, AvgLarge = 0;
  for (const auto &W : V1)
    for (const auto &BB : W.F->blocks())
      AvgSmall += BB->instructions().size();
  AvgSmall /= V1.size();
  for (const auto &W : Large)
    for (const auto &BB : W.F->blocks())
      AvgLarge += BB->instructions().size();
  AvgLarge /= Large.size();
  EXPECT_GT(AvgLarge, 3 * AvgSmall);
}

TEST(Suites, DeterministicAcrossCalls) {
  auto A = makeSpecLikeSuite();
  auto B = makeSpecLikeSuite();
  ASSERT_EQ(A.size(), B.size());
  for (size_t K = 0; K < A.size(); ++K)
    EXPECT_EQ(printFunction(*A[K].F), printFunction(*B[K].F));
}

TEST(PaperFigures, AllParseVerifyAndRun) {
  struct Entry {
    const char *Name;
    std::unique_ptr<Function> (*Make)();
    unsigned NumArgs;
  };
  const Entry Figures[] = {
      {"fig1", makeFigure1, 2},  {"fig2", makeFigure2, 1},
      {"fig3", makeFigure3, 2},  {"fig5", makeFigure5, 2},
      {"fig7", makeFigure7, 1},  {"fig8", makeFigure8, 1},
      {"fig9", makeFigure9, 1},  {"fig10", makeFigure10, 2},
      {"fig11", makeFigure11, 1}, {"fig12", makeFigure12, 1},
  };
  for (const Entry &E : Figures) {
    SCOPED_TRACE(E.Name);
    auto F = E.Make();
    ASSERT_TRUE(F);
    expectWellFormed(*F);
    for (const auto &D : verifySSA(*F))
      ADD_FAILURE() << D;
    std::vector<uint64_t> Args;
    for (unsigned K = 0; K < E.NumArgs; ++K)
      Args.push_back(3 + K);
    ExecResult R = interpret(*F, Args);
    EXPECT_TRUE(R.ok()) << R.Error;
  }
}

TEST(PaperFigures, Figure2IsTheOnlyIllegalPinning) {
  EXPECT_FALSE(verifyPinning(*makeFigure2()).empty());
  for (auto Make : {makeFigure1, makeFigure3, makeFigure5, makeFigure7,
                    makeFigure8, makeFigure9, makeFigure10, makeFigure11,
                    makeFigure12})
    EXPECT_TRUE(verifyPinning(*Make()).empty());
}
