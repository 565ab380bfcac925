//===- PinningTests.cpp - Pinning legality and interference tests -----------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Covers the paper's Figure 4 legality cases (verifyPinning), the
// Section 3.2 interference classes (Variable_kills, strong interference,
// Resource_interfere), the Algorithm 4 optimistic/pessimistic variants,
// and the Figure 2 over-pinning scenario.
//
//===----------------------------------------------------------------------===//

#include "ReferenceClassInterference.h"
#include "TestUtil.h"

#include "analysis/Dominators.h"
#include "ir/CFG.h"
#include "outofssa/Constraints.h"
#include "outofssa/PinningContext.h"
#include "workloads/PaperExamples.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

namespace {

struct Ctx {
  CFG Cfg;
  DominatorTree DT;
  LivenessQuery LV;
  PinningContext P;

  explicit Ctx(Function &F,
               InterferenceMode Mode = InterferenceMode::Precise)
      : Cfg(F), DT(Cfg), LV(Cfg, DT), P(F, Cfg, DT, LV, Mode) {}
};

} // namespace

//===----------------------------------------------------------------------===//
// Figure 4 legality cases
//===----------------------------------------------------------------------===//

TEST(PinningVerifier, Case1TwoDefsOneResource) {
  Function F("f");
  BasicBlock *BB = F.createBlock("entry");
  Instruction Input(Opcode::Input);
  RegId X = F.makeVirtual("x");
  RegId Y = F.makeVirtual("y");
  Input.addDef(X);
  Input.addDef(Y);
  Input.pinDef(0, Target::R0);
  Input.pinDef(1, Target::R0);
  BB->append(std::move(Input));
  Instruction Ret(Opcode::Ret);
  Ret.addUse(X);
  BB->append(std::move(Ret));
  auto Diags = verifyPinning(F);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags[0].find("case 1"), std::string::npos);
}

TEST(PinningVerifier, Case2TwoUsesOneResource) {
  auto F = parse(R"(
func @f {
entry:
  input %x, %y
  %r = call @f(%x^R0, %y^R0)
  ret %r
}
)");
  auto Diags = verifyPinning(*F);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags[0].find("case 2"), std::string::npos);
}

TEST(PinningVerifier, Case2SameVariableIsLegal) {
  auto F = parse(R"(
func @f {
entry:
  input %x
  %r = add %x^R0, %x^R0
  ret %r
}
)");
  EXPECT_TRUE(verifyPinning(*F).empty());
}

TEST(PinningVerifier, Case3TwoPhiDefsOneResource) {
  auto F = makeFigure2();
  auto Diags = verifyPinning(*F);
  ASSERT_FALSE(Diags.empty());
  bool Found = false;
  for (const auto &D : Diags)
    Found |= D.find("case 3") != std::string::npos;
  EXPECT_TRUE(Found) << "Figure 2's SP over-pinning is a Case 3 error";
}

TEST(PinningVerifier, Case4DefUsePinnedTogetherIsLegal) {
  auto F = parse(R"(
func @f {
entry:
  input %y
  %x^r = addi %y^r, 1
  ret %x
}
)");
  EXPECT_TRUE(verifyPinning(*F).empty());
}

TEST(PinningVerifier, Case5PhiArgPinnedElsewhere) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  branch %a, t, e
t:
  %y = make 1
  jump j
e:
  %z = make 2
  jump j
j:
  %x^r = phi [%y^s, t], [%z, e]
  ret %x
}
)");
  auto Diags = verifyPinning(*F);
  ASSERT_EQ(Diags.size(), 1u);
  EXPECT_NE(Diags[0].find("case 5"), std::string::npos);
}

TEST(PinningVerifier, CleanFunctionHasNoDiagnostics) {
  auto F = makeFigure1();
  EXPECT_TRUE(verifyPinning(*F).empty());
  EXPECT_TRUE(verifyStructure(*F).empty());
}

//===----------------------------------------------------------------------===//
// Variable_kills — Class 1 and Class 2 (Section 3.2)
//===----------------------------------------------------------------------===//

TEST(VariableKills, Class1LiveAcrossDef) {
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
  Ctx C(*F);
  RegId A = F->findValue("a"), B = F->findValue("b");
  // b is live across a's definition: a kills b.
  EXPECT_TRUE(C.P.variableKills(A, B));
  // a is defined after b; b cannot kill a.
  EXPECT_FALSE(C.P.variableKills(B, A));
}

TEST(VariableKills, NoKillWhenValueDies) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %b = addi %p, 1
  %a = addi %b, 2
  ret %a
}
)");
  Ctx C(*F);
  RegId A = F->findValue("a"), B = F->findValue("b");
  // b dies at a's definition: pinning them together is free.
  EXPECT_FALSE(C.P.variableKills(A, B));
}

TEST(VariableKills, Class2PhiCopyClobbersLiveOut) {
  // x is live out of the latch; the parallel copy for phi y at the latch
  // end would clobber it: y kills x.
  auto F = parse(R"(
func @f {
entry:
  input %p
  %x = addi %p, 5
  jump head
head:
  %y = phi [%p, entry], [%z, latch]
  %z = addi %y, 1
  %c = cmplt %z, %x
  branch %c, latch, done
latch:
  jump head
done:
  %r = add %x, %y
  ret %r
}
)");
  Ctx C(*F);
  RegId X = F->findValue("x"), Y = F->findValue("y");
  EXPECT_TRUE(C.P.variableKills(Y, X));
}

TEST(VariableKills, SelfKillLostCopy) {
  // y is live out of the latch (used after the loop): the latch copy
  // overwrites it — y kills itself, seeding Resource_killed.
  auto F = parse(R"(
func @f {
entry:
  input %p
  jump head
head:
  %y = phi [%p, entry], [%z, head]
  %z = addi %y, 1
  %c = cmplt %z, %p
  branch %c, head, done
done:
  ret %y
}
)");
  Ctx C(*F);
  RegId Y = F->findValue("y");
  EXPECT_TRUE(C.P.variableKills(Y, Y));
  EXPECT_TRUE(C.P.isKilled(Y));
}

//===----------------------------------------------------------------------===//
// Algorithm 4 variants
//===----------------------------------------------------------------------===//

TEST(VariableKills, OptimisticMissesBlockLocalKill) {
  // b's last use is inside a's block after a's def, but b is NOT
  // live-out: precise sees the kill, optimistic does not.
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
  RegId A, B;
  {
    Ctx Precise(*F);
    A = F->findValue("a");
    B = F->findValue("b");
    EXPECT_TRUE(Precise.P.variableKills(A, B));
  }
  {
    Ctx Optimistic(*F, InterferenceMode::Optimistic);
    EXPECT_FALSE(Optimistic.P.variableKills(A, B));
  }
}

TEST(VariableKills, PessimisticReportsSameBlockSpuriously) {
  // b dies exactly at a's def; pessimistic still reports a kill because
  // the defs share a block.
  auto F = parse(R"(
func @f {
entry:
  input %p
  %b = addi %p, 1
  %a = addi %b, 2
  ret %a
}
)");
  RegId A, B;
  {
    Ctx Precise(*F);
    A = F->findValue("a");
    B = F->findValue("b");
    EXPECT_FALSE(Precise.P.variableKills(A, B));
  }
  {
    Ctx Pess(*F, InterferenceMode::Pessimistic);
    EXPECT_TRUE(Pess.P.variableKills(A, B));
  }
}

//===----------------------------------------------------------------------===//
// Strong interference and Resource_interfere
//===----------------------------------------------------------------------===//

TEST(StrongInterference, SameBlockPhis) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  branch %a, t, e
t:
  %u = make 1
  jump j
e:
  %v = make 2
  jump j
j:
  %x = phi [%u, t], [%v, e]
  %y = phi [%v, t], [%u, e]
  %r = add %x, %y
  ret %r
}
)");
  Ctx C(*F);
  RegId X = F->findValue("x"), Y = F->findValue("y");
  EXPECT_TRUE(stronglyInterfere(C.P, X, Y));
  EXPECT_TRUE(C.P.resourceInterfere(X, Y));
}

TEST(StrongInterference, Case3SharedPredDifferentArgs) {
  // Two phis in different blocks, sharing predecessor "shared" with
  // different flowing values: strongly interfere.
  auto F = parse(R"(
func @f {
entry:
  input %a
  %u = addi %a, 1
  %v = addi %a, 2
  branch %a, shared, other
shared:
  branch %v, j1, j2
other:
  jump j1
j1:
  %x = phi [%u, shared], [%u, other]
  jump j2
j2:
  %y = phi [%v, shared], [%x, j1]
  ret %y
}
)");
  Ctx C(*F);
  RegId X = F->findValue("x"), Y = F->findValue("y");
  EXPECT_TRUE(stronglyInterfere(C.P, X, Y));
}

TEST(StrongInterference, Case3SameArgsIsWeak) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %u = addi %a, 1
  branch %a, shared, other
shared:
  branch %u, j1, j2
other:
  jump j1
j1:
  %x = phi [%u, shared], [%u, other]
  jump j2
j2:
  %y = phi [%u, shared], [%x, j1]
  ret %y
}
)");
  Ctx C(*F);
  RegId X = F->findValue("x"), Y = F->findValue("y");
  EXPECT_FALSE(stronglyInterfere(C.P, X, Y));
}

TEST(StrongInterference, SameInstructionDefs) {
  Function F("f");
  BasicBlock *BB = F.createBlock("entry");
  Instruction Input(Opcode::Input);
  RegId X = F.makeVirtual("x"), Y = F.makeVirtual("y");
  Input.addDef(X);
  Input.addDef(Y);
  BB->append(std::move(Input));
  Instruction Ret(Opcode::Ret);
  Ret.addUse(X);
  BB->append(std::move(Ret));
  Ctx C(F);
  EXPECT_TRUE(stronglyInterfere(C.P, X, Y));
}

TEST(ResourceInterfere, DistinctPhysicalsAlwaysInterfere) {
  Function F("f");
  BasicBlock *BB = F.createBlock("entry");
  Instruction Ret(Opcode::Ret);
  Ret.addUse(Target::R0);
  BB->append(std::move(Ret));
  Ctx C(F);
  EXPECT_TRUE(C.P.resourceInterfere(Target::R0, Target::R1));
  EXPECT_FALSE(C.P.resourceInterfere(Target::R0, Target::R0));
}

TEST(ResourceInterfere, KilledMembersAreForgiven) {
  // Once a member is already killed inside its class, an additional
  // killer in the other class does not constitute a NEW interference.
  auto F = parse(R"(
func @f {
entry:
  input %p
  %b = addi %p, 1
  %k1^w = addi %p, 2
  %k2^w = addi %p, 3
  %u = add %b, %k1
  %u2 = add %u, %k2
  %a = addi %p, 4
  %r = add %u2, %b
  %r2 = add %r, %a
  ret %r2
}
)");
  Ctx C(*F);
  RegId B = F->findValue("b");
  RegId K1 = F->findValue("k1");
  RegId A = F->findValue("a");
  // k1 is killed inside its own class (k2 redefines w while k1 lives);
  // the mandatory pin records it in Resource_killed.
  EXPECT_TRUE(C.P.isKilled(K1));
  // b is live across a's def: classes {b} and {a} interfere.
  EXPECT_TRUE(C.P.resourceInterfere(A, B));
}

TEST(ResourceInterfere, MergeUnionsMembersAndKilled) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %x = addi %p, 1
  %y = addi %p, 2
  %z = add %x, %y
  ret %z
}
)");
  Ctx C(*F);
  RegId X = F->findValue("x"), Y = F->findValue("y");
  RegId Z = F->findValue("z");
  RegId Rep = C.P.pinTogether(X, Z);
  EXPECT_EQ(C.P.resourceOf(X), C.P.resourceOf(Z));
  EXPECT_EQ(C.P.members(Rep).size(), 2u);
  // Mandatory merge of interfering x and y records the kill.
  EXPECT_TRUE(C.P.variableKills(Y, X));
  C.P.pinTogether(X, Y);
  EXPECT_TRUE(C.P.isKilled(X));
}

TEST(ResourceInterfere, PhysicalKeepsRepresentative) {
  auto F = parse(R"(
func @f {
entry:
  input %p
  %x = addi %p, 1
  ret %x
}
)");
  Ctx C(*F);
  RegId X = F->findValue("x");
  RegId Rep = C.P.pinTogether(X, Target::R5);
  EXPECT_EQ(Rep, static_cast<RegId>(Target::R5));
  EXPECT_TRUE(F->isPhysical(C.P.resourceOf(X)));
}

TEST(ResourceInterfere, ABIClassesBuiltFromPins) {
  auto F = makeFigure1();
  Ctx C(*F);
  // C's definition is pinned to R0 by the figure.
  RegId CVar = F->findValue("C");
  EXPECT_EQ(C.P.resourceOf(CVar), static_cast<RegId>(Target::R0));
  RegId D = F->findValue("D");
  EXPECT_EQ(C.P.resourceOf(D), static_cast<RegId>(Target::R0));
  // K and L are tied by the more pin.
  RegId K = F->findValue("K"), L = F->findValue("L");
  (void)L;
  EXPECT_EQ(C.P.resourceOf(K), C.P.resourceOf(F->findValue("K")));
}
