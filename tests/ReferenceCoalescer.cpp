//===- ReferenceCoalescer.cpp - Rebuild-every-round coalescing -----------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ReferenceCoalescer.h"
#include "ReferenceInterferenceGraph.h"

#include "analysis/Liveness.h"
#include "ir/CFG.h"

#include <sstream>

using namespace lao;

void lao::test::coalesceRebuildingEveryRound(Function &F,
                                             MergeTrace *TraceOut) {
  for (;;) {
    CFG Cfg(F);
    Liveness LV(Cfg);
    ReferenceInterferenceGraph IG(F, LV);

    std::vector<RegId> MergedInto(F.numValues(), InvalidReg);
    auto Resolve = [&](RegId V) {
      while (MergedInto[V] != InvalidReg)
        V = MergedInto[V];
      return V;
    };

    bool MergedOnThisGraph = false;
    for (const auto &BB : F.blocks()) {
      for (Instruction &I : BB->instructions()) {
        if (!I.isCopy())
          continue;
        RegId D = Resolve(I.def(0));
        RegId S = Resolve(I.use(0));
        if (D == S)
          continue;
        if (F.isPhysical(D) && F.isPhysical(S))
          continue;
        if (IG.interfere(D, S))
          continue;
        RegId Survivor = F.isPhysical(S) ? S : D;
        RegId Victim = Survivor == D ? S : D;
        IG.mergeNodes(Survivor, Victim);
        MergedInto[Victim] = Survivor;
        if (TraceOut)
          TraceOut->emplace_back(Survivor, Victim);
        MergedOnThisGraph = true;
      }
    }

    if (!MergedOnThisGraph)
      break;

    for (const auto &BB : F.blocks()) {
      auto &Insts = BB->instructions();
      for (auto It = Insts.begin(); It != Insts.end();) {
        for (unsigned K = 0; K < It->numDefs(); ++K)
          It->setDef(K, Resolve(It->def(K)));
        for (unsigned K = 0; K < It->numUses(); ++K)
          It->setUse(K, Resolve(It->use(K)));
        if (It->isCopy() && It->def(0) == It->use(0))
          It = Insts.erase(It);
        else
          ++It;
      }
    }
  }
}

std::string
lao::test::firstTraceDivergence(const std::vector<MergeRound> &Rounds,
                                const MergeTrace &Reference) {
  MergeTrace Worklist;
  for (const MergeRound &Round : Rounds)
    Worklist.insert(Worklist.end(), Round.begin(), Round.end());
  size_t I = 0;
  while (I < Worklist.size() && I < Reference.size() &&
         Worklist[I] == Reference[I])
    ++I;
  if (I == Worklist.size() && I == Reference.size())
    return "";
  auto Pair = [](const MergeTrace &T, size_t I) {
    std::ostringstream OS;
    if (I < T.size())
      OS << "(v" << T[I].first << " <- v" << T[I].second << ")";
    else
      OS << "nothing (after " << T.size() << " merges)";
    return OS.str();
  };
  std::ostringstream OS;
  OS << "merge " << I << " diverged: worklist merged " << Pair(Worklist, I)
     << ", rebuild-every-round merged " << Pair(Reference, I);
  return OS.str();
}
