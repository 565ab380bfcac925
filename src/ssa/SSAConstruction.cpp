//===- SSAConstruction.cpp - Pruned SSA construction --------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ssa/SSAConstruction.h"

#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "ir/CFG.h"
#include "support/Stats.h"
#include "support/StringUtils.h"

#include <cassert>
#include <numeric>
#include <span>
#include <vector>

using namespace lao;

bool lao::buildSSA(Function &F, std::string *Error) {
  auto Reject = [&](std::string Why) {
    if (Error)
      *Error = std::move(Why);
    return false;
  };
  CFG Cfg(F);
  DominatorTree DT(Cfg);
  Liveness LV(Cfg);

  // Definition blocks per virtual variable, grouped: those of V are
  // DefSites[DefBegin[V] .. DefBegin[V + 1]) (a block may repeat).
  size_t NumOrigValues = F.numValues();
  std::vector<size_t> DefBegin(NumOrigValues + 1, 0);
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions()) {
      if (I.isPhi())
        return Reject(formatStr("block '%s' already has a phi; SSA "
                                "construction wants a non-SSA function",
                                BB->name().c_str()));
      for (RegId D : I.defs())
        if (!F.isPhysical(D))
          ++DefBegin[D + 1];
    }
  std::partial_sum(DefBegin.begin(), DefBegin.end(), DefBegin.begin());
  std::vector<const BasicBlock *> DefSites(DefBegin.back());
  std::vector<size_t> Fill(DefBegin.begin(), DefBegin.end() - 1);
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      for (RegId D : I.defs())
        if (!F.isPhysical(D))
          DefSites[Fill[D]++] = BB.get();

  // A variable live into the entry block is read on some path before
  // any definition: renaming would find no reaching name for it.
  for (RegId V = Target::NumPhysRegs; V < NumOrigValues; ++V)
    if (LV.isLiveIn(V, &F.entry()))
      return Reject(formatStr("%%%s is used before it is defined on some "
                              "path from the entry",
                              F.valueName(V).c_str()));

  // Place phis at the iterated dominance frontier, pruned by liveness.
  // Each goes to the top of its block, so a block's phis end up in
  // descending variable order. Every operand names the phi's variable
  // until renaming visits that predecessor.
  unsigned NumPhisInserted = 0;
  PhiPlacement Placement(Cfg, DT);
  for (RegId V = Target::NumPhysRegs; V < NumOrigValues; ++V) {
    std::span<const BasicBlock *const> Defs(DefSites.data() + DefBegin[V],
                                            DefSites.data() + DefBegin[V + 1]);
    Placement.place(
        Defs, [&](const BasicBlock *Join) { return LV.isLiveIn(V, Join); },
        [&](BasicBlock *Join) {
          Instruction Phi(Opcode::Phi);
          Phi.addDef(V);
          for (BasicBlock *P : Cfg.preds(Join))
            Phi.addIncoming(V, P);
          Join->insert(Join->instructions().begin(), std::move(Phi));
          ++NumPhisInserted;
        });
  }

  // Rename along the dominator tree. Cur[V] is the name of original
  // variable V that reaches the current point; the undo log restores
  // it when the walk leaves a block's subtree.
  unsigned NumVarsRenamed = 0;
  std::vector<RegId> Cur(NumOrigValues, InvalidReg);
  std::vector<std::pair<RegId, RegId>> Undo; // (variable, previous name)
  auto Reaching = [&](RegId Orig) {
    assert(Cur[Orig] != InvalidReg && "use of undefined variable");
    return Cur[Orig];
  };
  walkDominatorTree(
      DT,
      [&](BasicBlock *BB) {
        size_t Mark = Undo.size();
        for (Instruction &I : BB->instructions()) {
          // Phi operands are filled from the predecessors.
          for (unsigned K = 0; !I.isPhi() && K < I.numUses(); ++K)
            if (!F.isPhysical(I.use(K)))
              I.setUse(K, Reaching(I.use(K)));
          for (unsigned K = 0; K < I.numDefs(); ++K) {
            RegId Orig = I.def(K);
            if (F.isPhysical(Orig))
              continue;
            RegId New = F.makeVirtual(F.valueName(Orig));
            Undo.push_back({Orig, Cur[Orig]});
            Cur[Orig] = New;
            ++NumVarsRenamed;
            I.setDef(K, New);
          }
        }
        // An operand still holding an original id is one this edge has
        // not filled yet (a branch may list one successor twice).
        for (BasicBlock *S : Cfg.succs(BB))
          for (Instruction &Phi : S->instructions()) {
            if (!Phi.isPhi())
              break;
            for (unsigned K = 0; K < Phi.numUses(); ++K)
              if (Phi.incomingBlock(K) == BB && Phi.use(K) < NumOrigValues)
                Phi.setUse(K, Reaching(Phi.use(K)));
          }
        return Mark;
      },
      [&](size_t Mark) {
        for (; Undo.size() > Mark; Undo.pop_back())
          Cur[Undo.back().first] = Undo.back().second;
      });
  LAO_STAT(ssa, phis_inserted) += NumPhisInserted;
  LAO_STAT(ssa, vars_renamed) += NumVarsRenamed;
  return true;
}
