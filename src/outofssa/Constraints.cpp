//===- Constraints.cpp - Renaming constraint collection ------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "outofssa/Constraints.h"

#include "support/Stats.h"

using namespace lao;

void lao::collectSPConstraints(Function &F) {
  unsigned NumPinned = 0;
  for (const auto &BB : F.blocks())
    for (Instruction &I : BB->instructions()) {
      if (I.op() != Opcode::SpAdjust)
        continue;
      if (I.defPin(0) == InvalidReg) {
        I.pinDef(0, Target::SP);
        ++NumPinned;
      }
      if (I.usePin(0) == InvalidReg && !F.isPhysical(I.use(0))) {
        I.pinUse(0, Target::SP);
        ++NumPinned;
      }
    }
  LAO_STAT(constraints, sp_pins) += NumPinned;
}

void lao::collectABIConstraints(Function &F) {
  unsigned NumPinned = 0;
  auto PinDef = [&](Instruction &I, unsigned K, RegId Res) {
    if (Res != InvalidReg && I.defPin(K) == InvalidReg &&
        !F.isPhysical(I.def(K))) {
      I.pinDef(K, Res);
      ++NumPinned;
    }
  };
  auto PinUse = [&](Instruction &I, unsigned K, RegId Res) {
    if (Res != InvalidReg && I.usePin(K) == InvalidReg &&
        !F.isPhysical(I.use(K))) {
      I.pinUse(K, Res);
      ++NumPinned;
    }
  };

  for (const auto &BB : F.blocks())
    for (Instruction &I : BB->instructions()) {
      switch (I.op()) {
      case Opcode::Input:
        for (unsigned K = 0; K < I.numDefs(); ++K)
          PinDef(I, K, Target::argReg(K));
        break;
      case Opcode::Call:
        PinDef(I, 0, Target::retReg());
        for (unsigned K = 0; K < I.numUses(); ++K)
          PinUse(I, K, Target::argReg(K));
        break;
      case Opcode::Ret:
        PinUse(I, 0, Target::retReg());
        break;
      case Opcode::More:
      case Opcode::AutoAdd:
        // 2-operand ISA constraint: source and destination share a
        // resource (the destination variable's own).
        PinUse(I, 0, I.def(0));
        break;
      case Opcode::Psi:
        // Psi-conventional form: the else-value is overwritten in place
        // by the predicated definition (constraint "similar to
        // 2-operands", paper Section 5).
        PinUse(I, 2, I.def(0));
        break;
      default:
        break;
      }
    }
  LAO_STAT(constraints, abi_pins) += NumPinned;
}
