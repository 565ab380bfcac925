//===- IRPrinter.cpp - Textual mini-LAI output ------------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"

using namespace lao;

namespace {

/// Appends operand \p R with optional pin \p Pin as "%name" or
/// "%name^res".
void appendOperand(std::string &S, const Function &F, RegId R, RegId Pin) {
  S += '%';
  S += F.valueName(R);
  if (Pin != InvalidReg) {
    S += '^';
    S += F.valueName(Pin);
  }
}

void appendDef(std::string &S, const Function &F, const Instruction &I,
               unsigned Idx) {
  appendOperand(S, F, I.def(Idx), I.defPin(Idx));
}

void appendUse(std::string &S, const Function &F, const Instruction &I,
               unsigned Idx) {
  appendOperand(S, F, I.use(Idx), I.usePin(Idx));
}

/// Appends \p Item(0) .. \p Item(N - 1), separated by ", ".
template <typename ItemFn>
void appendList(std::string &S, unsigned N, ItemFn Item) {
  for (unsigned K = 0; K < N; ++K) {
    if (K != 0)
      S += ", ";
    Item(K);
  }
}

} // namespace

std::string lao::printInstruction(const Function &F, const Instruction &I) {
  const OpcodeInfo &Info = opcodeInfo(I.op());
  std::string S;
  if (Info.Defs == 1) {
    appendDef(S, F, I, 0);
    S += " = ";
  }
  S += Info.Name;
  S += ' ';
  auto Use = [&](unsigned K) { appendUse(S, F, I, K); };
  switch (Info.Form) {
  case OpForm::Imm:
    S += std::to_string(I.imm());
    break;
  case OpForm::Uses:
    appendList(S, I.numUses(), Use);
    break;
  case OpForm::UseImm:
    appendUse(S, F, I, 0);
    S += ", ";
    S += std::to_string(I.imm());
    break;
  case OpForm::Call:
    S += '@';
    S += I.callee();
    S += '(';
    appendList(S, I.numUses(), Use);
    S += ')';
    break;
  case OpForm::Input:
    appendList(S, I.numDefs(), [&](unsigned K) { appendDef(S, F, I, K); });
    break;
  case OpForm::Jump:
    S += I.target(0)->name();
    break;
  case OpForm::Branch:
    appendUse(S, F, I, 0);
    for (unsigned K = 0; K < 2; ++K) {
      S += ", ";
      S += I.target(K)->name();
    }
    break;
  case OpForm::Phi:
    appendList(S, I.numUses(), [&](unsigned K) {
      S += '[';
      appendUse(S, F, I, K);
      S += ", ";
      S += I.incomingBlock(K)->name();
      S += ']';
    });
    break;
  case OpForm::ParCopy:
    appendList(S, I.numDefs(), [&](unsigned K) {
      appendDef(S, F, I, K);
      S += " = ";
      appendUse(S, F, I, K);
    });
    break;
  }
  return S;
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
