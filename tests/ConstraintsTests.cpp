//===- ConstraintsTests.cpp - Constraint collection tests -------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "outofssa/Constraints.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

TEST(Constraints, SPPinsAdjustChains) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %sp1 = spadjust %SP, -16
  %sp2 = spadjust %sp1, 16
  ret %a
}
)");
  uint64_t Pinned = countersOf([&] {
    collectSPConstraints(*F);
  })["constraints.sp_pins"];
  // sp1 def, sp2 def, sp2's use of sp1; the use of physical SP is not
  // pinned (it already names the register).
  EXPECT_EQ(Pinned, 3u);
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.op() == Opcode::SpAdjust) {
        EXPECT_EQ(I.defPin(0), static_cast<RegId>(Target::SP));
      }
  EXPECT_TRUE(verifyPinning(*F).empty());
}

TEST(Constraints, SPCollectionIsIdempotent) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %sp1 = spadjust %SP, -8
  ret %a
}
)");
  auto Pins = [&] {
    return countersOf([&] {
      collectSPConstraints(*F);
    })["constraints.sp_pins"];
  };
  EXPECT_EQ(Pins(), 1u);
  EXPECT_EQ(Pins(), 0u) << "already pinned";
}

TEST(Constraints, ABIPinsCallOperands) {
  auto F = parse(R"(
func @f {
entry:
  input %a, %b, %c, %d, %e
  %r = call @g(%a, %b, %c, %d, %e)
  ret %r
}
)");
  collectABIConstraints(*F);
  const Instruction &Input = F->entry().front();
  for (unsigned K = 0; K < 4; ++K)
    EXPECT_EQ(Input.defPin(K), Target::argReg(K));
  // The fifth parameter is stack-passed: unpinned.
  EXPECT_EQ(Input.defPin(4), InvalidReg);
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions()) {
      if (I.op() == Opcode::Call) {
        EXPECT_EQ(I.defPin(0), static_cast<RegId>(Target::R0));
        for (unsigned K = 0; K < 4; ++K)
          EXPECT_EQ(I.usePin(K), Target::argReg(K));
        EXPECT_EQ(I.usePin(4), InvalidReg);
      }
      if (I.op() == Opcode::Ret) {
        EXPECT_EQ(I.usePin(0), static_cast<RegId>(Target::R0));
      }
    }
  EXPECT_TRUE(verifyPinning(*F).empty());
}

TEST(Constraints, TwoOperandTieUsesDefResource) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %k = more %a, 7
  %q = autoadd %k, 4
  ret %q
}
)");
  collectABIConstraints(*F);
  unsigned Checked = 0;
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.op() == Opcode::More || I.op() == Opcode::AutoAdd) {
        EXPECT_EQ(I.usePin(0), I.def(0))
            << "2-operand source pinned to its destination's resource";
        ++Checked;
      }
  EXPECT_EQ(Checked, 2u);
}

TEST(Constraints, PsiElseOperandTied) {
  auto F = parse(R"(
func @f {
entry:
  input %p, %a, %b
  %x = psi %p, %a, %b
  ret %x
}
)");
  collectABIConstraints(*F);
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.op() == Opcode::Psi) {
        EXPECT_EQ(I.usePin(0), InvalidReg) << "predicate unconstrained";
        EXPECT_EQ(I.usePin(1), InvalidReg) << "then-value unconstrained";
        EXPECT_EQ(I.usePin(2), I.def(0)) << "else-value tied to dest";
      }
}

TEST(Constraints, ABIRespectsExistingPins) {
  auto F = parse(R"(
func @f {
entry:
  input %a^R5
  ret %a^R5
}
)");
  EXPECT_EQ(countersOf([&] {
              collectABIConstraints(*F);
            })["constraints.abi_pins"],
            0u)
      << "explicit pins are never overwritten";
}

TEST(Constraints, PhysicalOperandsNeedNoPins) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  %R0 = mov %a
  %r = call @g(%R0)
  ret %r
}
)");
  collectABIConstraints(*F);
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      if (I.op() == Opcode::Call) {
        EXPECT_EQ(I.usePin(0), InvalidReg)
            << "an operand already naming R0 is not pinned again";
      }
}
