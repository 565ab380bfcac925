//===- Verifier.cpp - Structural and pinning checks -------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <map>

using namespace lao;

std::vector<std::string> lao::verifyStructure(const Function &F) {
  std::vector<std::string> Diags;
  auto Report = [&](const std::string &Msg) { Diags.push_back(Msg); };

  if (F.numBlocks() == 0) {
    Report("function has no blocks");
    return Diags;
  }

  // Per-block structure.
  for (const auto &BB : F.blocks()) {
    if (!BB->hasTerminator()) {
      Report(formatStr("block %s lacks a terminator", BB->name().c_str()));
      continue;
    }
    bool SeenNonPhi = false;
    unsigned Index = 0;
    for (const Instruction &I : BB->instructions()) {
      ++Index;
      if (I.isPhi() && SeenNonPhi)
        Report(formatStr("block %s: phi after non-phi instruction",
                         BB->name().c_str()));
      if (!I.isPhi())
        SeenNonPhi = true;
      if (I.isTerminator() && &I != &BB->back())
        Report(formatStr("block %s: terminator not last", BB->name().c_str()));

      const OpcodeInfo &Info = opcodeInfo(I.op());
      if (Info.Defs != VarArity && I.numDefs() != Info.Defs)
        Report(formatStr("block %s: %s has %u defs, expected %u",
                         BB->name().c_str(), Info.Name, I.numDefs(),
                         Info.Defs));
      if (Info.Uses != VarArity && I.numUses() != Info.Uses)
        Report(formatStr("block %s: %s has %u uses, expected %u",
                         BB->name().c_str(), Info.Name, I.numUses(),
                         Info.Uses));
      if (I.isParCopy() && I.numDefs() != I.numUses())
        Report(formatStr("block %s: parcopy def/use count mismatch",
                         BB->name().c_str()));
      if (I.op() == Opcode::Input &&
          (BB.get() != &F.entry() || Index != 1))
        Report("input instruction must be the first instruction of the entry");
      for (RegId D : I.defs())
        if (D >= F.numValues())
          Report("def operand id out of range");
      for (RegId U : I.uses())
        if (U >= F.numValues())
          Report("use operand id out of range");
    }
  }
  if (!Diags.empty())
    return Diags; // The predecessor checks below assume basic structure.

  // Phi incoming lists must match CFG predecessors exactly. The checks
  // above put every phi at the top of its block, so only blocks that
  // open with a phi need their predecessors.
  std::vector<std::vector<const BasicBlock *>> PhiBlockPreds(F.numBlocks());
  for (const auto &BB : F.blocks())
    for (BasicBlock *S : BB->successors())
      if (S->front().isPhi())
        PhiBlockPreds[S->id()].push_back(BB.get());
  // The phi that last listed each block as incoming.
  std::vector<const Instruction *> ListedBy(F.numBlocks(), nullptr);
  for (const auto &BB : F.blocks()) {
    const auto &Preds = PhiBlockPreds[BB->id()];
    for (const Instruction &I : BB->instructions()) {
      if (!I.isPhi())
        break;
      if (I.numUses() != Preds.size()) {
        Report(formatStr("block %s: phi has %u incoming, block has %zu preds",
                         BB->name().c_str(), I.numUses(), Preds.size()));
        continue;
      }
      for (unsigned K = 0; K < I.numUses(); ++K) {
        const BasicBlock *In = I.incomingBlock(K);
        if (ListedBy[In->id()] == &I)
          Report(formatStr("block %s: phi lists pred %s twice",
                           BB->name().c_str(), In->name().c_str()));
        ListedBy[In->id()] = &I;
        if (std::find(Preds.begin(), Preds.end(), In) == Preds.end())
          Report(formatStr("block %s: phi incoming %s is not a predecessor",
                           BB->name().c_str(), In->name().c_str()));
      }
    }
    if (BB.get() == &F.entry() && !BB->empty() && BB->front().isPhi())
      Report("entry block must not contain phis");
  }
  return Diags;
}

std::vector<std::string> lao::verifyPinning(const Function &F) {
  std::vector<std::string> Diags;
  auto Report = [&](const std::string &Msg) { Diags.push_back(Msg); };

  for (const auto &BB : F.blocks()) {
    // Case 3: distinct phi defs of one block pinned to a common resource.
    std::map<RegId, RegId> PhiDefPinOwner; // resource -> phi result
    for (const Instruction &I : BB->instructions()) {
      // Case 1: two defs pinned to the same resource.
      for (unsigned A = 0; A < I.numDefs(); ++A) {
        if (I.defPin(A) == InvalidReg)
          continue;
        for (unsigned B = A + 1; B < I.numDefs(); ++B)
          if (I.defPin(B) == I.defPin(A) && I.def(A) != I.def(B))
            Report(formatStr(
                "case 1: defs %%%s and %%%s of one %s pinned to %s",
                F.valueName(I.def(A)).c_str(), F.valueName(I.def(B)).c_str(),
                opcodeName(I.op()), F.valueName(I.defPin(A)).c_str()));
      }
      // Case 2: two uses pinned to the same resource.
      for (unsigned A = 0; A < I.numUses(); ++A) {
        if (I.usePin(A) == InvalidReg)
          continue;
        for (unsigned B = A + 1; B < I.numUses(); ++B)
          if (I.usePin(B) == I.usePin(A) && I.use(A) != I.use(B))
            Report(formatStr(
                "case 2: uses %%%s and %%%s of one %s pinned to %s",
                F.valueName(I.use(A)).c_str(), F.valueName(I.use(B)).c_str(),
                opcodeName(I.op()), F.valueName(I.usePin(A)).c_str()));
      }
      if (I.isPhi()) {
        RegId DP = I.defPin(0);
        if (DP != InvalidReg) {
          auto [It, Inserted] = PhiDefPinOwner.emplace(DP, I.def(0));
          if (!Inserted && It->second != I.def(0))
            Report(formatStr(
                "case 3: phi defs %%%s and %%%s of block %s pinned to %s",
                F.valueName(It->second).c_str(),
                F.valueName(I.def(0)).c_str(), BB->name().c_str(),
                F.valueName(DP).c_str()));
        }
        // Case 5: phi arguments are implicitly pinned to the resource of
        // the result; an explicit different pin is illegal.
        for (unsigned K = 0; K < I.numUses(); ++K)
          if (I.usePin(K) != InvalidReg && I.usePin(K) != DP)
            Report(formatStr(
                "case 5: phi arg %%%s pinned to %s, result pinned to %s",
                F.valueName(I.use(K)).c_str(),
                F.valueName(I.usePin(K)).c_str(),
                DP == InvalidReg ? "<none>" : F.valueName(DP).c_str()));
      }
    }
  }
  return Diags;
}
