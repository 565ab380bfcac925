//===- LivenessQuery.h - Fast per-variable liveness queries -----*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Liveness queries without a global dense fixpoint, after Boissinot et
/// al., "Revisiting Out-of-SSA Translation for Correctness, Code Quality,
/// and Efficiency" (CGO 2009): instead of iterating
/// bitsets over all (variable, block) pairs up front, answer each query
/// from per-variable def/use data precomputed in one pass (DefUseIndex)
/// plus the dominator tree.
///
///  * isLiveIn/isLiveOut first apply the SSA dominance filter — a value
///    cannot be live at a block its definition does not (strictly)
///    dominate — and only then run a memoized per-variable backward
///    reachability walk from the variable's use blocks.
///  * isLiveAfter/isLiveBefore binary-search the variable's in-block
///    occurrence events and fall back to isLiveOut. This is the project's
///    only engine for liveness at an instruction position.
///
/// The walk solves the same per-variable dataflow equations as the dense
/// `Liveness` (including the paper's Class 2 phi semantics), so answers
/// are identical — LivenessQueryTests cross-checks every suite, the
/// block-level answers against the dense sets and the positional ones
/// against a scan of the block. Multi-def variables (physical registers,
/// pre-SSA code) skip the dominance filter and remain exact.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_ANALYSIS_LIVENESSQUERY_H
#define LAO_ANALYSIS_LIVENESSQUERY_H

#include "analysis/DefUseIndex.h"
#include "analysis/Dominators.h"
#include "ir/CFG.h"
#include "support/BitVector.h"

#include <vector>

namespace lao {

/// Lazily-solved per-variable liveness over one function. Queries are
/// O(log uses) after an O(edges) first touch per variable; nothing is
/// computed for variables never asked about.
class LivenessQuery {
public:
  LivenessQuery(const CFG &Cfg, const DominatorTree &DT);

  bool isLiveIn(RegId V, const BasicBlock *BB) const;
  bool isLiveOut(RegId V, const BasicBlock *BB) const;

  /// True if \p V is live at the program point following \p Pos in
  /// \p BB. Phi uses count as uses at the end of the predecessor block,
  /// so they are covered by the live-out fallback.
  bool isLiveAfter(RegId V, const BasicBlock *BB,
                   BasicBlock::InstList::const_iterator Pos) const;

  /// True if \p V is live at the program point preceding \p Pos.
  bool isLiveBefore(RegId V, const BasicBlock *BB,
                    BasicBlock::InstList::const_iterator Pos) const;

  const CFG &cfg() const { return Cfg; }

private:
  struct VarSets {
    BitVector In, Out; ///< Block-indexed live-in / live-out of one var.
    bool Solved = false;
  };

  const CFG &Cfg;
  const DominatorTree &DT;
  DefUseIndex Idx;
  mutable std::vector<VarSets> Sets;

  const VarSets &solved(RegId V) const;

  /// Liveness at the point after \p Pos, or before it when \p Inclusive:
  /// the kind of V's next in-block event, else live-out of \p BB.
  bool liveFrom(RegId V, const BasicBlock *BB,
                BasicBlock::InstList::const_iterator Pos,
                bool Inclusive) const;

  /// SSA dominance filter: definitely-not-live when the unique reachable
  /// def does not (strictly, for live-in) dominate \p BB.
  bool ruledOutByDominance(RegId V, const BasicBlock *BB, bool Strict) const;
};

} // namespace lao

#endif // LAO_ANALYSIS_LIVENESSQUERY_H
