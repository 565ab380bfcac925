//===- SSATests.cpp - SSA construction and transform tests ------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ssa/SSAConstruction.h"
#include "ssa/SSAVerifier.h"
#include "ssa/Transforms.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

namespace {

unsigned countPhis(const Function &F) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      if (I.isPhi())
        ++N;
  return N;
}

unsigned countOpcode(const Function &F, Opcode Op) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      if (I.op() == Op)
        ++N;
  return N;
}

} // namespace

TEST(SSAConstruction, DiamondGetsOnePhi) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %v = make 0
  branch %a, t, e
t:
  %v = make 1
  jump j
e:
  %v = make 2
  jump j
j:
  output %v
  ret %v
}
)");
  StatsSnapshot C = countersOf([&] { EXPECT_TRUE(buildSSA(*F)); });
  EXPECT_EQ(C["ssa.phis_inserted"], 1u);
  expectWellFormed(*F);
  for (const auto &D : verifySSA(*F))
    FAIL() << D;
  // Behaviour preserved.
  EXPECT_EQ(interpret(*F, {1}).RetValue, 1u);
  EXPECT_EQ(interpret(*F, {0}).RetValue, 2u);
}

TEST(SSAConstruction, PrunedSSASkipsDeadJoins) {
  // v is dead after the diamond: pruned SSA must not place a phi.
  auto F = parse(R"(
func @f {
entry:
  input %a
  %v = make 0
  branch %a, t, e
t:
  %v = make 1
  jump j
e:
  %v = make 2
  jump j
j:
  ret %a
}
)");
  StatsSnapshot C = countersOf([&] { EXPECT_TRUE(buildSSA(*F)); });
  EXPECT_EQ(C["ssa.phis_inserted"], 0u);
}

TEST(SSAConstruction, LoopVariableGetsHeaderPhi) {
  auto F = parse(R"(
func @f {
entry:
  input %n
  %i = make 0
  %acc = make 0
  jump head
head:
  %c = cmplt %i, %n
  branch %c, body, done
body:
  %acc = add %acc, %i
  %i = addi %i, 1
  jump head
done:
  ret %acc
}
)");
  auto Before = interpret(*F, {5});
  buildSSA(*F);
  expectWellFormed(*F);
  for (const auto &D : verifySSA(*F))
    FAIL() << D;
  BasicBlock *Head = F->blockByName("head");
  unsigned HeadPhis = 0;
  for (const Instruction &I : Head->instructions())
    if (I.isPhi())
      ++HeadPhis;
  EXPECT_EQ(HeadPhis, 2u) << "i and acc both need header phis";
  // 0+1+2+3+4 = 10.
  auto After = interpret(*F, {5});
  ASSERT_TRUE(After.ok()) << After.Error;
  EXPECT_EQ(After.RetValue, 10u);
  EXPECT_TRUE(Before.sameObservable(After));
}

TEST(SSAConstruction, RejectsInvalidInputUnchanged) {
  // Input that is already SSA, and input that reads a variable before
  // any definition on some path, is refused with F left as it was —
  // the contract lao-opt --ssa and the server's "ssa: 1" rely on.
  const char *HasPhi = R"(
func @f {
entry:
  input %a
  branch %a, l, r
l:
  jump join
r:
  jump join
join:
  %z = phi [%a, l], [%a, r]
  ret %z
}
)";
  const char *UndefinedOnOnePath = R"(
func @f {
entry:
  input %a
  branch %a, def, join
def:
  %x = addi %a, 1
  jump join
join:
  ret %x
}
)";
  for (const char *Text : {HasPhi, UndefinedOnOnePath}) {
    auto F = parse(Text);
    std::string Before = printFunction(*F);
    std::string Error;
    StatsSnapshot C =
        countersOf([&] { EXPECT_FALSE(buildSSA(*F, &Error)); });
    EXPECT_FALSE(Error.empty()) << Before;
    // A rejected input counts nothing.
    EXPECT_EQ(C["ssa.phis_inserted"], 0u);
    EXPECT_EQ(C["ssa.vars_renamed"], 0u);
    EXPECT_EQ(printFunction(*F), Before);
  }
  std::string Error;
  auto F = parse(HasPhi);
  buildSSA(*F, &Error);
  EXPECT_NE(Error.find("'join' already has a phi"), std::string::npos)
      << Error;
  F = parse(UndefinedOnOnePath);
  buildSSA(*F, &Error);
  EXPECT_NE(Error.find("%x is used before"), std::string::npos) << Error;
}

TEST(SSAConstruction, GeneratedProgramsVerify) {
  for (uint64_t Seed = 100; Seed < 112; ++Seed) {
    GeneratorParams P;
    P.Seed = Seed;
    P.NumStatements = 25;
    P.MaxNesting = 3;
    P.UseSP = Seed % 2 == 0;
    P.UsePsi = true;
    std::string Name = "g"; // g++ 12 -O3 misreports "g" + ... (-Wrestrict).
    Name += std::to_string(Seed);
    auto F = generateProgram(P, Name);
    auto Before = interpret(*F, {1, 2});
    buildSSA(*F);
    expectWellFormed(*F);
    for (const auto &D : verifySSA(*F))
      FAIL() << "seed " << Seed << ": " << D;
    auto After = interpret(*F, {1, 2});
    EXPECT_TRUE(Before.sameObservable(After)) << "seed " << Seed;
  }
}

TEST(SSAVerifier, CatchesDoubleAssignment) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %x = make 1
  %x = make 2
  ret %x
}
)");
  auto Diags = verifySSA(*F);
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].find("more than once"), std::string::npos);
}

TEST(SSAVerifier, CatchesNonDominatingDef) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  branch %a, t, j
t:
  %x = make 1
  jump j
j:
  ret %x
}
)");
  auto Diags = verifySSA(*F);
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].find("dominate"), std::string::npos);
}

TEST(SSAVerifier, PhiArgCheckedAtPredEnd) {
  // The back-edge phi argument is defined later in the block — legal,
  // since the use happens at the end of the predecessor.
  auto F = parse(R"(
func @f {
entry:
  input %a
  jump head
head:
  %x = phi [%a, entry], [%y, head2]
  %y = addi %x, 1
  %c = cmplt %y, %a
  branch %c, head2, done
head2:
  jump head
done:
  ret %x
}
)");
  EXPECT_TRUE(verifySSA(*F).empty());
}

TEST(Transforms, CopyPropagationRemovesMovesAndTrivialPhis) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %b = mov %a
  %c = mov %b
  branch %a, t, e
t:
  jump j
e:
  jump j
j:
  %p = phi [%c, t], [%c, e]
  %r = add %p, %b
  ret %r
}
)");
  auto Before = interpret(*F, {21});
  unsigned Removed = propagateCopies(*F);
  EXPECT_EQ(Removed, 3u); // two movs + one trivial phi
  EXPECT_EQ(countOpcode(*F, Opcode::Mov), 0u);
  EXPECT_EQ(countPhis(*F), 0u);
  auto After = interpret(*F, {21});
  EXPECT_TRUE(Before.sameObservable(After));
}

TEST(Transforms, CopyPropagationKeepsPinnedCopies) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %b^R0 = mov %a
  ret %b^R0
}
)");
  EXPECT_EQ(propagateCopies(*F), 0u);
  EXPECT_EQ(countOpcode(*F, Opcode::Mov), 1u);
}

TEST(Transforms, ValueNumberingRemovesRedundantComputation) {
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  %x = add %a, %b
  %y = add %a, %b
  %z = add %x, %y
  ret %z
}
)");
  auto Before = interpret(*F, {3, 4});
  unsigned Removed = valueNumber(*F);
  EXPECT_EQ(Removed, 1u);
  auto After = interpret(*F, {3, 4});
  EXPECT_TRUE(Before.sameObservable(After));
}

TEST(Transforms, ValueNumberingIsDominatorScoped) {
  // The same expression in sibling branches must NOT be merged.
  auto F = parse(R"(
func @f {
entry:
  input %a, %b
  branch %a, t, e
t:
  %x = add %a, %b
  output %x
  jump j
e:
  %y = add %a, %b
  output %y
  jump j
j:
  ret %a
}
)");
  EXPECT_EQ(valueNumber(*F), 0u);
}

TEST(Transforms, ValueNumberingSkipsImpureOps) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %x = load %p
  %y = load %p
  %c1 = call @f(%p)
  %c2 = call @f(%p)
  %s = add %x, %y
  %t = add %c1, %c2
  %r = add %s, %t
  ret %r
}
)");
  EXPECT_EQ(valueNumber(*F), 0u);
}

TEST(Transforms, DeadCodeEliminationIsTransitive) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %d1 = addi %a, 1
  %d2 = addi %d1, 2
  %d3 = addi %d2, 3
  ret %a
}
)");
  EXPECT_EQ(eliminateDeadCode(*F), 3u);
  EXPECT_EQ(countOpcode(*F, Opcode::AddI), 0u);
}

TEST(Transforms, DeadCodeKeepsSideEffects) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %p = make 4096
  store %p, %a
  %r = call @f(%a)
  output %a
  ret %a
}
)");
  // The call's result is unused, but calls are effectful here; nothing
  // may be deleted.
  EXPECT_EQ(eliminateDeadCode(*F), 0u);
}

TEST(Transforms, NormalizationPreservesSemantics) {
  for (uint64_t Seed = 300; Seed < 308; ++Seed) {
    GeneratorParams P;
    P.Seed = Seed;
    P.NumStatements = 22;
    P.MaxNesting = 2;
    P.ExtraCopies = true;
    std::string Name = "n"; // g++ 12 -O3 misreports "n" + ... (-Wrestrict).
    Name += std::to_string(Seed);
    auto F = generateProgram(P, Name);
    auto Before = interpret(*F, {4, 5});
    buildSSA(*F);
    propagateCopies(*F);
    valueNumber(*F);
    propagateCopies(*F);
    eliminateDeadCode(*F);
    expectWellFormed(*F);
    for (const auto &D : verifySSA(*F))
      FAIL() << "seed " << Seed << ": " << D;
    auto After = interpret(*F, {4, 5});
    EXPECT_TRUE(Before.sameObservable(After)) << "seed " << Seed;
  }
}
