//===- MoveStats.cpp - Move instruction counting -------------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "outofssa/MoveStats.h"

#include "analysis/AnalysisManager.h"

using namespace lao;

unsigned lao::countMoves(const Function &F) {
  unsigned N = 0;
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions()) {
      if (I.isCopy())
        ++N;
      else if (I.isParCopy())
        N += I.numDefs();
    }
  return N;
}

uint64_t lao::weightedMoveCount(const Function &F, AnalysisManager &AM) {
  const LoopInfo &LI = AM.loopInfo();
  uint64_t Total = 0;
  for (const auto &BB : F.blocks()) {
    uint64_t Weight = 1;
    for (unsigned D = 0; D < LI.depth(BB.get()); ++D)
      Weight *= 5;
    for (const Instruction &I : BB->instructions()) {
      if (I.isCopy())
        Total += Weight;
      else if (I.isParCopy())
        Total += Weight * I.numDefs();
    }
  }
  return Total;
}
