//===- AnalysisManager.cpp - Caching per-function analysis manager -----------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisManager.h"

#include "support/Stats.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

using namespace lao;

const CFG &AnalysisManager::cfg() {
  if (!TheCFG) {
    ++LAO_STAT(analysis, cfg_builds);
    TheCFG = std::make_unique<CFG>(*F);
  }
  return *TheCFG;
}

const DominatorTree &AnalysisManager::domTree() {
  if (!DT) {
    ++LAO_STAT(analysis, domtree_builds);
    DT = std::make_unique<DominatorTree>(cfg());
  }
  return *DT;
}

const LoopInfo &AnalysisManager::loopInfo() {
  if (!LI) {
    ++LAO_STAT(analysis, loopinfo_builds);
    LI = std::make_unique<LoopInfo>(cfg(), domTree());
  }
  return *LI;
}

Liveness &AnalysisManager::liveness() {
  if (!LV)
    LV = std::make_unique<Liveness>(cfg());
  return *LV;
}

const LivenessQuery &AnalysisManager::livenessQuery() {
  if (!LQ)
    LQ = std::make_unique<LivenessQuery>(cfg(), domTree());
  return *LQ;
}

InterferenceGraph &AnalysisManager::interference() {
  if (!IG)
    IG = std::make_unique<InterferenceGraph>(*F, liveness());
  return *IG;
}

void AnalysisManager::reset(Function &NewF) {
  ++LAO_STAT(analysis, manager_resets);
  bool Dropped = TheCFG || DT || LI || LV || LQ || IG;
  if (Dropped)
    ++Epoch;
  IG.reset();
  LQ.reset();
  LV.reset();
  LI.reset();
  DT.reset();
  TheCFG.reset();
  F = &NewF;
}

bool AnalysisManager::isCached(AnalysisKind K) const {
  switch (K) {
  case AnalysisKind::CFG:
    return TheCFG != nullptr;
  case AnalysisKind::DomTree:
    return DT != nullptr;
  case AnalysisKind::LoopInfo:
    return LI != nullptr;
  case AnalysisKind::Liveness:
    return LV != nullptr;
  case AnalysisKind::LivenessQuery:
    return LQ != nullptr;
  case AnalysisKind::Interference:
    return IG != nullptr;
  }
  return false;
}

void AnalysisManager::invalidate(const PreservedAnalyses &PA) {
  ++LAO_STAT(analysis, invalidations);
  // Dependency closure. CFG is the root: Liveness and DomTree hold
  // references into the CFG object, LivenessQuery into the DomTree, the
  // InterferenceGraph is derived from Liveness, and LoopInfo from the
  // DomTree.
  bool DropCFG = !PA.isPreserved(AnalysisKind::CFG);
  bool DropDT = DropCFG || !PA.isPreserved(AnalysisKind::DomTree);
  bool DropLI = DropDT || !PA.isPreserved(AnalysisKind::LoopInfo);
  bool DropLV = DropCFG || !PA.isPreserved(AnalysisKind::Liveness);
  bool DropLQ = DropDT || !PA.isPreserved(AnalysisKind::LivenessQuery);
  bool DropIG = DropLV || !PA.isPreserved(AnalysisKind::Interference);

  bool Dropped = (DropIG && IG) || (DropLQ && LQ) || (DropLV && LV) ||
                 (DropLI && LI) || (DropDT && DT) || (DropCFG && TheCFG);
  if (Dropped)
    ++Epoch;

  if (DropIG)
    IG.reset();
  if (DropLQ)
    LQ.reset();
  if (DropLV)
    LV.reset();
  if (DropLI)
    LI.reset();
  if (DropDT)
    DT.reset();
  if (DropCFG)
    TheCFG.reset();

  if (VerifyOnInvalidate) {
    std::string Diag = verify();
    if (!Diag.empty()) {
      std::fprintf(stderr,
                   "AnalysisManager: pass lied about preserved analyses:\n%s\n",
                   Diag.c_str());
      std::abort();
    }
  }
}

std::string AnalysisManager::verify() const {
  std::ostringstream Diag;
  size_t NB = F->numBlocks();

  if (TheCFG) {
    if (TheCFG->rpo().size() != NB)
      return "CFG stale: block count changed since it was built";
    CFG Fresh(*F);
    for (const auto &BB : F->blocks())
      if (TheCFG->succs(BB.get()) != Fresh.succs(BB.get()) ||
          TheCFG->isReachable(BB.get()) != Fresh.isReachable(BB.get())) {
        Diag << "CFG stale: successors or reachability of b" << BB->id()
             << " differ";
        return Diag.str();
      }
  }
  if (DT) {
    DominatorTree FreshDT(*TheCFG);
    for (const auto &BB : F->blocks())
      if (DT->idom(BB.get()) != FreshDT.idom(BB.get())) {
        Diag << "DominatorTree stale: idom(b" << BB->id() << ") differs";
        return Diag.str();
      }
  }
  if (LI) {
    LoopInfo FreshLI(*TheCFG, *DT);
    for (const auto &BB : F->blocks())
      if (LI->depth(BB.get()) != FreshLI.depth(BB.get()) ||
          LI->isHeader(BB.get()) != FreshLI.isHeader(BB.get())) {
        Diag << "LoopInfo stale: loop data of b" << BB->id() << " differs";
        return Diag.str();
      }
  }
  if (!LV && !LQ && !IG)
    return std::string();
  Liveness FreshLV(*TheCFG);
  if (LV) {
    for (const auto &BB : F->blocks())
      if (!(LV->liveIn(BB.get()) == FreshLV.liveIn(BB.get())) ||
          !(LV->liveOut(BB.get()) == FreshLV.liveOut(BB.get()))) {
        Diag << "Liveness stale: live sets of b" << BB->id() << " differ";
        return Diag.str();
      }
  }
  if (LQ) {
    for (const auto &BB : F->blocks())
      for (RegId V = 0; V < F->numValues(); ++V)
        if (LQ->isLiveIn(V, BB.get()) != FreshLV.isLiveIn(V, BB.get()) ||
            LQ->isLiveOut(V, BB.get()) != FreshLV.isLiveOut(V, BB.get())) {
          Diag << "LivenessQuery stale: v" << V << " at b" << BB->id()
               << " differs from dense liveness";
          return Diag.str();
        }
  }
  if (IG) {
    // Exact, row by row (rows are sorted), so an edge the cache has and
    // a fresh build lacks is caught as well as the reverse: the coalescer
    // repairs its merged graph to exactness, and the allocator colors
    // the cached graph as if it were built fresh.
    InterferenceGraph FreshIG(*F, FreshLV);
    if (IG->numNodes() != FreshIG.numNodes())
      return "InterferenceGraph stale: node count changed";
    for (RegId A = 0; A < FreshIG.numNodes(); ++A)
      if (IG->neighbors(A) != FreshIG.neighbors(A)) {
        Diag << "InterferenceGraph stale: neighbors of v" << A << " differ";
        return Diag.str();
      }
  }
  return std::string();
}
