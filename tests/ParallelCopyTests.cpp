//===- ParallelCopyTests.cpp - Sequentialization tests ----------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Properties of sequentializeParallelCopies: semantics preservation for
// arbitrary permutations and duplicated sources (checked against the
// interpreter's parallel ParCopy semantics), identity elimination, and
// cycle breaking with a single temporary (the swap problem).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/IRBuilder.h"
#include "outofssa/LeungGeorge.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

namespace {

unsigned countMovs(const Function &F) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      N += I.isCopy();
  return N;
}

/// Builds a function performing one ParCopy over N variables described
/// by \p SrcOf (dst index -> src index), then outputs all destinations.
std::unique_ptr<Function> makeParCopyFunction(
    const std::vector<unsigned> &SrcOf) {
  auto F = std::make_unique<Function>("pc");
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(BB);
  std::vector<RegId> Vars;
  Instruction Input(Opcode::Input);
  for (unsigned K = 0; K < SrcOf.size(); ++K) {
    std::string Name = "v"; // g++ 12 -O3 misreports "v" + ... (-Wrestrict).
    Name += std::to_string(K);
    RegId V = F->makeVirtual(Name);
    Input.addDef(V);
    Vars.push_back(V);
  }
  BB->append(std::move(Input));
  Instruction Par(Opcode::ParCopy);
  for (unsigned K = 0; K < SrcOf.size(); ++K) {
    Par.addDef(Vars[K]);
    Par.addUse(Vars[SrcOf[K]]);
  }
  BB->append(std::move(Par));
  for (RegId V : Vars)
    B.output(V);
  B.ret(Vars[0]);
  return F;
}

std::vector<uint64_t> argsFor(size_t N) {
  std::vector<uint64_t> Args;
  for (size_t K = 0; K < N; ++K)
    Args.push_back(100 + K);
  return Args;
}

} // namespace

TEST(ParallelCopy, SimpleShiftChain) {
  // v0 <- v1 <- v2: no cycle, two moves, no temp.
  auto F = makeParCopyFunction({1, 2, 2});
  auto Before = interpret(*F, argsFor(3));
  size_t ValuesBefore = F->numValues();
  uint64_t Moves = countersOf([&] {
    sequentializeParallelCopies(*F);
  })["sequentialize.moves_emitted"];
  EXPECT_EQ(Moves, 2u);
  EXPECT_EQ(F->numValues(), ValuesBefore) << "no temp needed";
  auto After = interpret(*F, argsFor(3));
  EXPECT_TRUE(Before.sameObservable(After));
}

TEST(ParallelCopy, SwapNeedsOneTemp) {
  auto F = makeParCopyFunction({1, 0});
  auto Before = interpret(*F, argsFor(2));
  size_t ValuesBefore = F->numValues();
  uint64_t Moves = countersOf([&] {
    sequentializeParallelCopies(*F);
  })["sequentialize.moves_emitted"];
  EXPECT_EQ(Moves, 3u) << "a 2-cycle costs three moves";
  EXPECT_EQ(F->numValues(), ValuesBefore + 1) << "exactly one temp";
  auto After = interpret(*F, argsFor(2));
  EXPECT_TRUE(Before.sameObservable(After));
}

TEST(ParallelCopy, ThreeCycle) {
  auto F = makeParCopyFunction({1, 2, 0});
  auto Before = interpret(*F, argsFor(3));
  uint64_t Moves = countersOf([&] {
    sequentializeParallelCopies(*F);
  })["sequentialize.moves_emitted"];
  EXPECT_EQ(Moves, 4u) << "a 3-cycle costs four moves";
  auto After = interpret(*F, argsFor(3));
  EXPECT_TRUE(Before.sameObservable(After));
}

TEST(ParallelCopy, IdentitiesAreDropped) {
  auto F = makeParCopyFunction({0, 1, 2});
  uint64_t Moves = countersOf([&] {
    sequentializeParallelCopies(*F);
  })["sequentialize.moves_emitted"];
  EXPECT_EQ(Moves, 0u);
  EXPECT_EQ(countMovs(*F), 0u);
}

TEST(ParallelCopy, DuplicatedSourceFanOut) {
  // v0, v1, v2 all read v2: fan-out plus one chain.
  auto F = makeParCopyFunction({2, 2, 2});
  auto Before = interpret(*F, argsFor(3));
  uint64_t Moves = countersOf([&] {
    sequentializeParallelCopies(*F);
  })["sequentialize.moves_emitted"];
  EXPECT_EQ(Moves, 2u);
  auto After = interpret(*F, argsFor(3));
  EXPECT_TRUE(Before.sameObservable(After));
}

/// Property sweep: random permutations-with-repetition of varying size
/// must all be sequentialized correctly.
class ParallelCopySweep : public testing::TestWithParam<uint64_t> {};

TEST_P(ParallelCopySweep, RandomMappingPreserved) {
  Rng R(GetParam());
  unsigned N = 2 + static_cast<unsigned>(R.below(7));
  std::vector<unsigned> SrcOf;
  for (unsigned K = 0; K < N; ++K)
    SrcOf.push_back(static_cast<unsigned>(R.below(N)));
  auto F = makeParCopyFunction(SrcOf);
  auto Before = interpret(*F, argsFor(N));
  sequentializeParallelCopies(*F);
  expectWellFormed(*F);
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      EXPECT_FALSE(I.isParCopy());
  auto After = interpret(*F, argsFor(N));
  EXPECT_TRUE(Before.sameObservable(After))
      << "mapping seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelCopySweep,
                         testing::Range<uint64_t>(1, 41));

TEST(ParallelCopy, PureRotationOfFour) {
  auto F = makeParCopyFunction({3, 0, 1, 2});
  auto Before = interpret(*F, argsFor(4));
  uint64_t Moves = countersOf([&] {
    sequentializeParallelCopies(*F);
  })["sequentialize.moves_emitted"];
  EXPECT_EQ(Moves, 5u) << "a 4-cycle costs five moves";
  auto After = interpret(*F, argsFor(4));
  EXPECT_TRUE(Before.sameObservable(After));
}

TEST(ParallelCopy, MultipleParCopiesInOneBlock) {
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  parcopy %a = %b, %b = %a
  parcopy %a = %b, %b = %a
  %r = sub %a, %b
  ret %r
}
)");
  auto Before = interpret(*F, {9, 4});
  sequentializeParallelCopies(*F);
  auto After = interpret(*F, {9, 4});
  EXPECT_TRUE(Before.sameObservable(After));
}
