//===- SSAConstruction.cpp - Pruned SSA construction --------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ssa/SSAConstruction.h"

#include "analysis/Dominators.h"
#include "analysis/Liveness.h"
#include "ir/CFG.h"
#include "support/StringUtils.h"

#include <cassert>
#include <map>
#include <set>
#include <vector>

using namespace lao;

namespace {

/// Renaming state: one definition stack per original variable.
class Renamer {
public:
  Renamer(Function &F, const DominatorTree &DT, const CFG &Cfg,
          const std::map<const Instruction *, RegId> &PhiOriginal,
          SSAStats &Stats)
      : F(F), DT(DT), Cfg(Cfg), PhiOriginal(PhiOriginal), Stats(Stats) {
    Stacks.resize(F.numValues());
  }

  void run() { renameBlock(&F.entry()); }

private:
  Function &F;
  const DominatorTree &DT;
  const CFG &Cfg;
  const std::map<const Instruction *, RegId> &PhiOriginal;
  SSAStats &Stats;
  std::vector<std::vector<RegId>> Stacks;

  RegId top(RegId Orig) const {
    assert(!Stacks[Orig].empty() && "use of undefined variable");
    return Stacks[Orig].back();
  }

  void renameBlock(BasicBlock *BB) {
    // Record the variables this block pushes a name for, one entry per
    // push, so they can be popped on exit.
    std::vector<RegId> Pushed;

    auto pushDef = [&](Instruction &I, unsigned DefIdx) {
      RegId Orig = I.def(DefIdx);
      if (F.isPhysical(Orig))
        return;
      RegId New = F.makeVirtual(F.valueName(Orig));
      Stacks[Orig].push_back(New);
      Pushed.push_back(Orig);
      ++Stats.NumVarsRenamed;
      I.setDef(DefIdx, New);
    };

    for (Instruction &I : BB->instructions()) {
      if (I.isPhi()) {
        // Phi defs are renamed here; args are filled from predecessors.
        pushDef(I, 0);
        continue;
      }
      for (unsigned K = 0; K < I.numUses(); ++K) {
        RegId Orig = I.use(K);
        if (!F.isPhysical(Orig))
          I.setUse(K, top(Orig));
      }
      for (unsigned K = 0; K < I.numDefs(); ++K)
        pushDef(I, K);
    }

    // Fill phi arguments of successors with the current reaching names.
    for (BasicBlock *S : Cfg.succs(BB)) {
      for (Instruction &I : S->instructions()) {
        if (!I.isPhi())
          break;
        auto It = PhiOriginal.find(&I);
        assert(It != PhiOriginal.end() && "phi without original variable");
        RegId Orig = It->second;
        for (unsigned K = 0; K < I.numUses(); ++K)
          if (I.incomingBlock(K) == BB && I.use(K) == Orig)
            I.setUse(K, top(Orig));
      }
    }

    for (BasicBlock *Child : DT.children(BB))
      renameBlock(Child);

    for (RegId Orig : Pushed)
      Stacks[Orig].pop_back();
  }
};

} // namespace

SSAStats lao::buildSSA(Function &F, std::string *Error) {
  SSAStats Stats;
  auto Reject = [&](std::string Why) {
    if (Error)
      *Error = std::move(Why);
    return Stats;
  };
  CFG Cfg(F);
  DominatorTree DT(Cfg);
  DominanceFrontier DF(Cfg, DT);
  Liveness LV(Cfg);

  // Definition sites per virtual variable.
  size_t NumOrigValues = F.numValues();
  std::vector<std::set<BasicBlock *>> DefBlocks(NumOrigValues);
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions()) {
      if (I.isPhi())
        return Reject(formatStr("block '%s' already has a phi; SSA "
                                "construction wants a non-SSA function",
                                BB->name().c_str()));
      for (RegId D : I.defs())
        if (!F.isPhysical(D))
          DefBlocks[D].insert(BB.get());
    }
  // A variable live into the entry block is read on some path before
  // any definition: renaming would find no reaching name for it.
  for (RegId V = Target::NumPhysRegs; V < NumOrigValues; ++V)
    if (LV.isLiveIn(V, &F.entry()))
      return Reject(formatStr("%%%s is used before it is defined on some "
                              "path from the entry",
                              F.valueName(V).c_str()));

  // Place phis at the iterated dominance frontier, pruned by liveness.
  // Remember each phi's original variable for argument filling.
  std::map<const Instruction *, RegId> PhiOriginal;
  for (RegId V = Target::NumPhysRegs; V < NumOrigValues; ++V) {
    if (DefBlocks[V].empty())
      continue;
    std::vector<BasicBlock *> Work(DefBlocks[V].begin(), DefBlocks[V].end());
    std::set<BasicBlock *> HasPhi;
    while (!Work.empty()) {
      BasicBlock *BB = Work.back();
      Work.pop_back();
      for (BasicBlock *Join : DF.frontier(BB)) {
        if (HasPhi.count(Join))
          continue;
        if (!LV.isLiveIn(V, Join))
          continue; // Pruned SSA: dead at the join point.
        HasPhi.insert(Join);
        Instruction Phi(Opcode::Phi);
        Phi.addDef(V);
        for (BasicBlock *P : Cfg.preds(Join))
          Phi.addIncoming(V, P);
        auto Pos = Join->instructions().begin();
        auto Inserted = Join->insert(Pos, std::move(Phi));
        PhiOriginal[&*Inserted] = V;
        ++Stats.NumPhisInserted;
        if (!DefBlocks[V].count(Join)) {
          DefBlocks[V].insert(Join);
          Work.push_back(Join);
        }
      }
    }
  }

  Renamer(F, DT, Cfg, PhiOriginal, Stats).run();
  return Stats;
}
