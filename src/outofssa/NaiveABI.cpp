//===- NaiveABI.cpp - Post-translation ABI move insertion ---------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "outofssa/NaiveABI.h"

#include "support/Stats.h"

#include <cassert>

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
      switch (I.op()) {
      case Opcode::Input: {
        // Parameters arrive in R0..R3; copy them into the variables the
        // body uses. Register-passed parameters only.
        auto After = std::next(It);
        for (unsigned K = 0; K < I.numDefs(); ++K) {
          RegId Arg = Target::argReg(K);
          if (Arg == InvalidReg)
            continue;
          RegId V = I.def(K);
          if (V == Arg)
            continue;
          Insts.insert(After, MovInst(V, Arg));
          ++NumMoves;
          I.setDef(K, Arg);
        }
        break;
      }
      case Opcode::Call: {
        // Arguments into R0..R3 (a parallel copy: sources may themselves
        // be argument registers of an enclosing sequence).
        Instruction Par(Opcode::ParCopy);
        for (unsigned K = 0; K < I.numUses(); ++K) {
          RegId Arg = Target::argReg(K);
          if (Arg == InvalidReg)
            continue;
          if (I.use(K) == Arg)
            continue;
          Par.addDef(Arg);
          Par.addUse(I.use(K));
          I.setUse(K, Arg);
        }
        if (Par.numDefs() != 0) {
          NumMoves += Par.numDefs();
          Insts.insert(It, std::move(Par));
        }
        // Result out of R0.
        RegId D = I.def(0);
        if (D != Target::retReg()) {
          I.setDef(0, Target::retReg());
          Insts.insert(std::next(It), MovInst(D, Target::retReg()));
          ++NumMoves;
        }
        break;
      }
      case Opcode::Ret: {
        if (I.use(0) != Target::retReg()) {
          Insts.insert(It, MovInst(Target::retReg(), I.use(0)));
          ++NumMoves;
          I.setUse(0, Target::retReg());
        }
        break;
      }
      case Opcode::More:
      case Opcode::AutoAdd:
      case Opcode::SpAdjust: {
        // 2-operand tie: destination and source must be one register.
        if (I.def(0) != I.use(0)) {
          Insts.insert(It, MovInst(I.def(0), I.use(0)));
          ++NumMoves;
          I.setUse(0, I.def(0));
        }
        break;
      }
      case Opcode::Psi: {
        // Predicated else-value overwritten in place.
        if (I.def(0) != I.use(2)) {
          Insts.insert(It, MovInst(I.def(0), I.use(2)));
          ++NumMoves;
          I.setUse(2, I.def(0));
        }
        break;
      }
      default:
        break;
      }
    }
  }
  LAO_STAT(naiveabi, moves_inserted) += NumMoves;
}
