//===- Dominators.h - Dominator tree and dominance frontiers ----*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree built with the Cooper-Harvey-Kennedy "simple, fast
/// dominance" algorithm, plus dominance frontiers (Cytron et al.) and the
/// two pieces every SSA-construction-shaped pass shares: a scoped,
/// non-recursive dominator-tree walk (walkDominatorTree) and iterated
/// dominance-frontier placement (PhiPlacement). SSA construction, value
/// numbering and the Leung-George holder analysis run on them.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_ANALYSIS_DOMINATORS_H
#define LAO_ANALYSIS_DOMINATORS_H

#include "ir/CFG.h"
#include "ir/Function.h"

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace lao {

/// Dominator tree over the reachable blocks of a function.
class DominatorTree {
public:
  explicit DominatorTree(const CFG &Cfg);

  /// Immediate dominator of \p BB (nullptr for the entry and for
  /// unreachable blocks).
  BasicBlock *idom(const BasicBlock *BB) const { return Idom[BB->id()]; }

  /// Returns true if \p A dominates \p B (reflexive).
  bool dominates(const BasicBlock *A, const BasicBlock *B) const;

  /// Returns true if \p A strictly dominates \p B.
  bool strictlyDominates(const BasicBlock *A, const BasicBlock *B) const {
    return A != B && dominates(A, B);
  }

  /// Depth of \p BB in the dominator tree (entry = 0; unreachable = 0).
  unsigned depth(const BasicBlock *BB) const { return Depth[BB->id()]; }

  /// DFS preorder number of \p BB in the dominator tree (1-based; 0 for
  /// unreachable blocks). Unique per reachable block, and ordered so that
  /// a dominator always numbers lower than everything it dominates —
  /// sorting defs by this key is the backbone of the dominance-order
  /// class-interference sweep (outofssa/ClassInterference.h).
  unsigned preorderNumber(const BasicBlock *BB) const {
    return DfsIn[BB->id()];
  }

  /// Closing DFS clock of \p BB's dominator subtree: together with
  /// preorderNumber it bounds the half-open preorder interval of the
  /// blocks \p BB dominates (0 for unreachable blocks).
  unsigned preorderLimit(const BasicBlock *BB) const {
    return DfsOut[BB->id()];
  }

  /// Children of \p BB in the dominator tree.
  const std::vector<BasicBlock *> &children(const BasicBlock *BB) const {
    return Children[BB->id()];
  }

  /// The reachable blocks in dominator-tree DFS preorder — the sequence
  /// behind preorderNumber, materialized: every dominator appears before
  /// all blocks it dominates. Walking defs in this order yields a
  /// perfect elimination order of the (chordal) SSA interference graph;
  /// the chordal register allocator seeds its maximum cardinality search
  /// with it (regalloc/Chordal.cpp, docs/REGALLOC.md).
  const std::vector<BasicBlock *> &preorderBlocks() const { return Preorder; }

  const CFG &cfg() const { return Cfg; }

private:
  const CFG &Cfg;
  std::vector<BasicBlock *> Idom;
  std::vector<unsigned> Depth;
  std::vector<std::vector<BasicBlock *>> Children;
  // Dominance via DFS-in/out interval on the dominator tree.
  std::vector<unsigned> DfsIn;
  std::vector<unsigned> DfsOut;
  std::vector<BasicBlock *> Preorder;
};

/// Dominance frontiers (per block) for SSA construction.
class DominanceFrontier {
public:
  DominanceFrontier(const CFG &Cfg, const DominatorTree &DT);

  const std::vector<BasicBlock *> &frontier(const BasicBlock *BB) const {
    return Frontier[BB->id()];
  }

private:
  std::vector<std::vector<BasicBlock *>> Frontier;
};

/// Visits the reachable blocks of \p DT in preorder (children in
/// children() order) without recursion: the dominator tree of a chain
/// of blocks is as deep as the chain. \p Enter(BB) returns an undo mark
/// (say, the length of the visitor's undo log before BB's writes);
/// \p Leave(Mark) gets it back once BB's whole subtree has been
/// visited, innermost block first. A visitor that rolls its state back
/// to the mark therefore enters every block with exactly the effects of
/// the block's dominators in place.
template <typename EnterFn, typename LeaveFn>
void walkDominatorTree(const DominatorTree &DT, EnterFn Enter,
                       LeaveFn Leave) {
  std::vector<std::pair<const BasicBlock *, size_t>> Open;
  for (BasicBlock *BB : DT.preorderBlocks()) {
    while (!Open.empty() && !DT.dominates(Open.back().first, BB)) {
      Leave(Open.back().second);
      Open.pop_back();
    }
    Open.push_back({BB, Enter(BB)});
  }
  for (; !Open.empty(); Open.pop_back())
    Leave(Open.back().second);
}

/// Cytron et al.'s phi placement: the iterated dominance frontier of a
/// set of definition blocks. One object serves every variable of a
/// function; generation stamps replace per-variable visited sets, so a
/// place() call costs only the blocks it touches.
class PhiPlacement {
public:
  PhiPlacement(const CFG &Cfg, const DominatorTree &DT)
      : DF(Cfg, DT), Placed(Cfg.func().numBlocks(), 0),
        Queued(Cfg.func().numBlocks(), 0) {}

  /// Calls \p Place(Y) once for every join Y of the iterated dominance
  /// frontier of \p Defs (a block may repeat) for which \p Keep(Y)
  /// holds. A placed join defines the variable too, so its own frontier
  /// is searched; a join Keep refuses is neither placed nor searched.
  template <typename KeepFn, typename PlaceFn>
  void place(std::span<const BasicBlock *const> Defs, KeepFn Keep,
             PlaceFn Place) {
    ++Gen;
    for (const BasicBlock *BB : Defs)
      queue(BB);
    while (!Work.empty()) {
      const BasicBlock *X = Work.back();
      Work.pop_back();
      for (BasicBlock *Y : DF.frontier(X)) {
        if (Placed[Y->id()] == Gen || !Keep(Y))
          continue;
        Placed[Y->id()] = Gen;
        Place(Y);
        queue(Y);
      }
    }
  }

private:
  void queue(const BasicBlock *BB) {
    if (Queued[BB->id()] == Gen)
      return;
    Queued[BB->id()] = Gen;
    Work.push_back(BB);
  }

  DominanceFrontier DF;
  uint32_t Gen = 0;
  std::vector<uint32_t> Placed, Queued;
  std::vector<const BasicBlock *> Work;
};

} // namespace lao

#endif // LAO_ANALYSIS_DOMINATORS_H
