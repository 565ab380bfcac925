//===- LivenessQuery.cpp - Fast per-variable liveness queries -----------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/LivenessQuery.h"

#include "support/Stats.h"

using namespace lao;

LivenessQuery::LivenessQuery(const CFG &Cfg, const DominatorTree &DT)
    : Cfg(Cfg), DT(DT), Idx(Cfg.func()) {
  Sets.resize(Cfg.func().numValues());
  ++LAO_STAT(liveness, query_engines);
}

/// Per-variable backward walk solving, for one variable v, the same
/// equations the dense solver iterates globally:
///
///   out(B) = [v is a phi arg flowing out of B] or (exists S in succ(B):
///            in(S))
///   in(B)  = [v has an upward-exposed use in B] or (out(B) and v not
///            defined in B)
///
/// Each block enters the worklist at most once (when in(B) first becomes
/// true), so the walk is O(blocks + edges touched by v's live range).
const LivenessQuery::VarSets &LivenessQuery::solved(RegId V) const {
  VarSets &S = Sets[V];
  if (S.Solved)
    return S;
  S.Solved = true;
  ++LAO_STAT(liveness, var_solves);
  size_t NB = Cfg.func().numBlocks();
  S.In.resize(NB);
  S.Out.resize(NB);

  // The dense solver's fixpoint runs over the full rpo() order, which
  // includes unreachable blocks (appended after the reachable ones), so
  // this walk deliberately does NOT filter on reachability — both solve
  // the same least fixpoint and agree bit for bit.
  std::vector<uint32_t> Worklist;
  auto MarkIn = [&](uint32_t B) {
    if (!S.In.test(B)) {
      S.In.set(B);
      Worklist.push_back(B);
    }
  };
  for (uint32_t B : Idx.ueBlocks(V))
    MarkIn(B);
  for (uint32_t P : Idx.phiOutBlocks(V)) {
    S.Out.set(P);
    if (!Idx.definedIn(V, P))
      MarkIn(P);
  }
  const auto &Blocks = Cfg.func().blocks();
  while (!Worklist.empty()) {
    uint32_t B = Worklist.back();
    Worklist.pop_back();
    for (const BasicBlock *P : Cfg.preds(Blocks[B].get())) {
      S.Out.set(P->id());
      if (!Idx.definedIn(V, P->id()))
        MarkIn(P->id());
    }
  }
  return S;
}

bool LivenessQuery::ruledOutByDominance(RegId V, const BasicBlock *BB,
                                        bool Strict) const {
  // Sound only for single-def variables in reachable code: a strict-SSA
  // value is live only within the dominance region of its definition.
  // Unreachable blocks carry liveness the dominator tree knows nothing
  // about, so they always take the walk.
  if (Idx.numDefs(V) != 1 || !Cfg.isReachable(BB))
    return false;
  const BasicBlock *DefBB = Cfg.func().blocks()[Idx.soleDefBlock(V)].get();
  if (!Cfg.isReachable(DefBB))
    return false;
  return Strict ? !DT.strictlyDominates(DefBB, BB) : !DT.dominates(DefBB, BB);
}

bool LivenessQuery::isLiveIn(RegId V, const BasicBlock *BB) const {
  if (ruledOutByDominance(V, BB, /*Strict=*/true))
    return false;
  return solved(V).In.test(BB->id());
}

bool LivenessQuery::isLiveOut(RegId V, const BasicBlock *BB) const {
  if (ruledOutByDominance(V, BB, /*Strict=*/false))
    return false;
  return solved(V).Out.test(BB->id());
}

bool LivenessQuery::liveFrom(RegId V, const BasicBlock *BB,
                             BasicBlock::InstList::const_iterator Pos,
                             bool Inclusive) const {
  // V is live at the point iff its next occurrence in the block is a use
  // (before being fully redefined), or there is no further occurrence and
  // it survives to the block end. Phi uses are not events of the phi's
  // own block (they flow out of the predecessor), but phi defs are.
  int K = Idx.firstEventFrom(V, BB->id(), Idx.ordinalOf(&*Pos), Inclusive);
  if (K >= 0)
    return K == DefUseIndex::UseEvent;
  return isLiveOut(V, BB);
}

bool LivenessQuery::isLiveAfter(RegId V, const BasicBlock *BB,
                                BasicBlock::InstList::const_iterator Pos)
    const {
  return liveFrom(V, BB, Pos, /*Inclusive=*/false);
}

bool LivenessQuery::isLiveBefore(RegId V, const BasicBlock *BB,
                                 BasicBlock::InstList::const_iterator Pos)
    const {
  return liveFrom(V, BB, Pos, /*Inclusive=*/true);
}
