//===- Constraints.cpp - Renaming constraint collection ------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "outofssa/Constraints.h"

#include "support/Stats.h"

using namespace lao;

namespace {

/// Pins every constrained operand of one side to its resource (OpcodeTable's
/// constraint column): the SP operands when \p SP, the ABI registers and
/// ties otherwise. An operand the input already pinned keeps its pin; a
/// physical operand already names a register and stays unpinned, except an
/// SP def. Returns the number of operands pinned.
unsigned pinConstrainedOperands(Function &F, bool SP) {
  unsigned NumPinned = 0;
  for (const auto &BB : F.blocks())
    for (Instruction &I : BB->instructions())
      forEachRenamingConstraint(I, [&](const RenamingConstraint &C) {
        bool IsSP = C.Kind == RenameRes::SP;
        if (IsSP != SP)
          return;
        unsigned K = C.Index;
        if (C.IsDef) {
          if (I.defPin(K) == InvalidReg && (IsSP || !F.isPhysical(I.def(K)))) {
            I.pinDef(K, C.Res);
            ++NumPinned;
          }
        } else if (I.usePin(K) == InvalidReg && !F.isPhysical(I.use(K))) {
          I.pinUse(K, C.Res);
          ++NumPinned;
        }
      });
  return NumPinned;
}

} // namespace

void lao::collectSPConstraints(Function &F) {
  LAO_STAT(constraints, sp_pins) += pinConstrainedOperands(F, /*SP=*/true);
}

void lao::collectABIConstraints(Function &F) {
  LAO_STAT(constraints, abi_pins) += pinConstrainedOperands(F, /*SP=*/false);
}
