//===- Transforms.cpp - SSA-level optimizations -------------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ssa/Transforms.h"

#include "analysis/Dominators.h"
#include "ir/CFG.h"

#include <cassert>
#include <map>
#include <tuple>
#include <vector>

using namespace lao;

namespace {

/// Applies \p Replacement (old id -> new id) to every operand of \p F.
void replaceAllUses(Function &F, const std::vector<RegId> &Replacement) {
  auto Resolve = [&](RegId V) {
    // Chase chains: a -> b -> c collapses to c.
    while (Replacement[V] != InvalidReg)
      V = Replacement[V];
    return V;
  };
  for (const auto &BB : F.blocks())
    for (Instruction &I : BB->instructions())
      for (unsigned K = 0; K < I.numUses(); ++K)
        I.setUse(K, Resolve(I.use(K)));
}

} // namespace

unsigned lao::propagateCopies(Function &F) {
  unsigned NumRemoved = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<RegId> Replacement(F.numValues(), InvalidReg);
    // Collect replacements, then erase the producing instructions.
    for (const auto &BB : F.blocks()) {
      auto &Insts = BB->instructions();
      for (auto It = Insts.begin(); It != Insts.end();) {
        bool Erase = false;
        if (It->isCopy() && !F.isPhysical(It->def(0)) &&
            It->defPin(0) == InvalidReg && It->usePin(0) == InvalidReg) {
          Replacement[It->def(0)] = It->use(0);
          Erase = true;
        } else if (It->isPhi() && It->defPin(0) == InvalidReg) {
          bool AllSame = true;
          for (unsigned K = 1; K < It->numUses(); ++K)
            AllSame &= It->use(K) == It->use(0);
          // A phi of identical arguments (and not of itself) is a copy.
          if (AllSame && It->numUses() >= 1 && It->use(0) != It->def(0)) {
            Replacement[It->def(0)] = It->use(0);
            Erase = true;
          }
        }
        if (Erase) {
          It = Insts.erase(It);
          ++NumRemoved;
          Changed = true;
        } else {
          ++It;
        }
      }
    }
    if (Changed)
      replaceAllUses(F, Replacement);
  }
  return NumRemoved;
}

unsigned lao::valueNumber(Function &F) {
  CFG Cfg(F);
  DominatorTree DT(Cfg);
  unsigned NumRemoved = 0;

  // Key: opcode, operands, immediate. Scoped map along the dominator tree
  // walk: Added lists its entries in insertion order, and leaving a
  // block's subtree erases those the block added.
  using Key = std::tuple<Opcode, std::vector<RegId>, int64_t>;
  std::map<Key, RegId> Table;
  std::vector<std::map<Key, RegId>::iterator> Added;
  std::vector<RegId> Replacement(F.numValues(), InvalidReg);

  auto IsPure = [](Opcode Op) {
    switch (Op) {
    case Opcode::Make:
    case Opcode::Add:
    case Opcode::Sub:
    case Opcode::Mul:
    case Opcode::And:
    case Opcode::Or:
    case Opcode::Xor:
    case Opcode::Shl:
    case Opcode::Shr:
    case Opcode::AddI:
    case Opcode::CmpLT:
    case Opcode::CmpEQ:
    case Opcode::More:
      return true;
    default:
      return false;
    }
  };

  auto Resolve = [&](RegId V) {
    while (Replacement[V] != InvalidReg)
      V = Replacement[V];
    return V;
  };

  walkDominatorTree(
      DT,
      [&](BasicBlock *BB) {
        size_t Mark = Added.size();
        auto &Insts = BB->instructions();
        for (auto It = Insts.begin(); It != Insts.end();) {
          Instruction &I = *It;
          for (unsigned K = 0; K < I.numUses(); ++K)
            I.setUse(K, Resolve(I.use(K)));
          if (!IsPure(I.op()) || I.numDefs() != 1 ||
              I.defPin(0) != InvalidReg) {
            ++It;
            continue;
          }
          Key K{I.op(), std::vector<RegId>(I.uses().begin(), I.uses().end()),
                I.imm()};
          auto Found = Table.find(K);
          if (Found != Table.end()) {
            Replacement[I.def(0)] = Found->second;
            It = Insts.erase(It);
            ++NumRemoved;
            continue;
          }
          Added.push_back(Table.emplace(std::move(K), I.def(0)).first);
          ++It;
        }
        return Mark;
      },
      [&](size_t Mark) {
        for (; Added.size() > Mark; Added.pop_back())
          Table.erase(Added.back());
      });
  // Resolve any uses reached before their replacement was recorded
  // (back edges / phi arguments filled from dominated blocks).
  replaceAllUses(F, Replacement);
  return NumRemoved;
}

unsigned lao::eliminateDeadCode(Function &F) {
  unsigned NumRemoved = 0;
  bool Changed = true;
  auto HasSideEffects = [](const Instruction &I) {
    switch (I.op()) {
    case Opcode::Store:
    case Opcode::Call:
    case Opcode::Output:
    case Opcode::Ret:
    case Opcode::Jump:
    case Opcode::Branch:
    case Opcode::Input:
      return true;
    default:
      return false;
    }
  };
  while (Changed) {
    Changed = false;
    std::vector<unsigned> NumUses(F.numValues(), 0);
    for (const auto &BB : F.blocks())
      for (const Instruction &I : BB->instructions())
        for (RegId U : I.uses())
          ++NumUses[U];
    for (const auto &BB : F.blocks()) {
      auto &Insts = BB->instructions();
      for (auto It = Insts.begin(); It != Insts.end();) {
        bool Dead = !HasSideEffects(*It) && It->numDefs() > 0;
        for (RegId D : It->defs())
          Dead &= NumUses[D] == 0 && !F.isPhysical(D);
        for (unsigned K = 0; Dead && K < It->numDefs(); ++K)
          Dead &= It->defPin(K) == InvalidReg;
        if (Dead) {
          It = Insts.erase(It);
          ++NumRemoved;
          Changed = true;
        } else {
          ++It;
        }
      }
    }
  }
  return NumRemoved;
}
