//===- IRPrinter.cpp - Textual mini-LAI output ------------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"

#include "support/StringUtils.h"

using namespace lao;

namespace {

/// Renders operand \p R with optional pin \p Pin as "%name" or "%name^res".
std::string operandText(const Function &F, RegId R, RegId Pin) {
  std::string S = "%" + F.valueName(R);
  if (Pin != InvalidReg)
    S += "^" + F.valueName(Pin);
  return S;
}

std::string defText(const Function &F, const Instruction &I, unsigned Idx) {
  return operandText(F, I.def(Idx), I.defPin(Idx));
}

std::string useText(const Function &F, const Instruction &I, unsigned Idx) {
  return operandText(F, I.use(Idx), I.usePin(Idx));
}

} // namespace

std::string lao::printInstruction(const Function &F, const Instruction &I) {
  switch (I.op()) {
  case Opcode::Make:
    return formatStr("%s = make %lld", defText(F, I, 0).c_str(),
                     static_cast<long long>(I.imm()));
  case Opcode::Mov:
    return defText(F, I, 0) + " = mov " + useText(F, I, 0);
  case Opcode::ParCopy: {
    std::string S = "parcopy ";
    for (unsigned K = 0; K < I.numDefs(); ++K) {
      if (K != 0)
        S += ", ";
      S += defText(F, I, K) + " = " + useText(F, I, K);
    }
    return S;
  }
  case Opcode::Add:
  case Opcode::Sub:
  case Opcode::Mul:
  case Opcode::And:
  case Opcode::Or:
  case Opcode::Xor:
  case Opcode::Shl:
  case Opcode::Shr:
  case Opcode::CmpLT:
  case Opcode::CmpEQ:
    return defText(F, I, 0) + " = " + opcodeName(I.op()) + " " +
           useText(F, I, 0) + ", " + useText(F, I, 1);
  case Opcode::AddI:
  case Opcode::More:
  case Opcode::AutoAdd:
  case Opcode::SpAdjust:
    return formatStr("%s = %s %s, %lld", defText(F, I, 0).c_str(),
                     opcodeName(I.op()), useText(F, I, 0).c_str(),
                     static_cast<long long>(I.imm()));
  case Opcode::Load:
    return defText(F, I, 0) + " = load " + useText(F, I, 0);
  case Opcode::Store:
    return "store " + useText(F, I, 0) + ", " + useText(F, I, 1);
  case Opcode::Call: {
    std::string S = defText(F, I, 0) + " = call @" + I.callee() + "(";
    for (unsigned K = 0; K < I.numUses(); ++K) {
      if (K != 0)
        S += ", ";
      S += useText(F, I, K);
    }
    return S + ")";
  }
  case Opcode::Input: {
    std::string S = "input ";
    for (unsigned K = 0; K < I.numDefs(); ++K) {
      if (K != 0)
        S += ", ";
      S += defText(F, I, K);
    }
    return S;
  }
  case Opcode::Output:
    return "output " + useText(F, I, 0);
  case Opcode::Ret:
    return "ret " + useText(F, I, 0);
  case Opcode::Jump:
    return "jump " + I.target(0)->name();
  case Opcode::Branch:
    return "branch " + useText(F, I, 0) + ", " + I.target(0)->name() + ", " +
           I.target(1)->name();
  case Opcode::Phi: {
    std::string S = defText(F, I, 0) + " = phi ";
    for (unsigned K = 0; K < I.numUses(); ++K) {
      if (K != 0)
        S += ", ";
      S += formatStr("[%s, %s]", useText(F, I, K).c_str(),
                     I.incomingBlock(K)->name().c_str());
    }
    return S;
  }
  case Opcode::Psi:
    return defText(F, I, 0) + " = psi " + useText(F, I, 0) + ", " +
           useText(F, I, 1) + ", " + useText(F, I, 2);
  }
  return "<bad-instruction>";
}

std::string lao::printFunction(const Function &F) {
  std::string S = "func @" + F.name() + " {\n";
  for (const auto &BB : F.blocks()) {
    S += BB->name() + ":\n";
    for (const Instruction &I : BB->instructions())
      S += "  " + printInstruction(F, I) + "\n";
  }
  S += "}\n";
  return S;
}
