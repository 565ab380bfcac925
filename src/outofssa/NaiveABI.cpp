//===- NaiveABI.cpp - Post-translation ABI move insertion ---------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "outofssa/NaiveABI.h"

#include "support/Stats.h"

using namespace lao;

void lao::lowerABINaively(Function &F) {
  unsigned NumMoves = 0;

  auto MovInst = [](RegId Dst, RegId Src) {
    Instruction Mv(Opcode::Mov);
    Mv.addDef(Dst);
    Mv.addUse(Src);
    return Mv;
  };

  for (const auto &BB : F.blocks()) {
    auto &Insts = BB->instructions();
    for (auto It = Insts.begin(); It != Insts.end(); ++It) {
      Instruction &I = *It;
      auto After = std::next(It);
      // Argument registers are written by one parallel copy: a source
      // may itself be an argument register of the same call.
      Instruction Par(Opcode::ParCopy);
      forEachRenamingConstraint(I, [&](const RenamingConstraint &C) {
        if (C.IsDef) {
          // The def lands in its register and is copied out after I.
          RegId V = I.def(C.Index);
          if (V == C.Res)
            return;
          Insts.insert(After, MovInst(V, C.Res));
          I.setDef(C.Index, C.Res);
        } else {
          // The use is copied into its register before I.
          RegId V = I.use(C.Index);
          if (V == C.Res)
            return;
          if (C.Kind == RenameRes::ArgReg) {
            Par.addDef(C.Res);
            Par.addUse(V);
          } else {
            Insts.insert(It, MovInst(C.Res, V));
          }
          I.setUse(C.Index, C.Res);
        }
        ++NumMoves;
      });
      if (Par.numDefs() != 0)
        Insts.insert(It, std::move(Par));
    }
  }
  LAO_STAT(naiveabi, moves_inserted) += NumMoves;
}
