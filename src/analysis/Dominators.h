//===- Dominators.h - Dominator tree and dominance frontiers ----*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dominator tree built with the Cooper-Harvey-Kennedy "simple, fast
/// dominance" algorithm, plus dominance frontiers (Cytron et al.) used by
/// SSA construction. Instruction-level dominance queries (needed by the
/// interference tests of the paper's Variable_kills) are provided through
/// dominatesAt.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_ANALYSIS_DOMINATORS_H
#define LAO_ANALYSIS_DOMINATORS_H

#include "ir/CFG.h"
#include "ir/Function.h"

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

} // namespace lao

#endif // LAO_ANALYSIS_DOMINATORS_H
