//===- Liveness.h - Block-level liveness with phi semantics -----*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative backward liveness over the mini-LAI IR. Phi semantics follow
/// the paper (Section 3.2, Class 2): "a phi instruction does not occur
/// where it textually appears, but at the end of each predecessor basic
/// block instead". So a phi argument is live-out of the corresponding
/// predecessor and *not* live-in of the phi's block, and a phi result is
/// defined at its block's entry.
///
/// The same solver handles non-SSA (post-translation) code: it simply has
/// no phis, and ParCopy instructions read all sources before writing all
/// destinations.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_ANALYSIS_LIVENESS_H
#define LAO_ANALYSIS_LIVENESS_H

#include "ir/CFG.h"
#include "ir/Function.h"
#include "support/BitVector.h"

#include <vector>

namespace lao {

/// Liveness sets for every block of a function. Liveness at an
/// instruction position is LivenessQuery's job (analysis/LivenessQuery.h).
class Liveness {
public:
  explicit Liveness(const CFG &Cfg);

  const BitVector &liveIn(const BasicBlock *BB) const {
    return LiveIn[BB->id()];
  }
  const BitVector &liveOut(const BasicBlock *BB) const {
    return LiveOut[BB->id()];
  }

  bool isLiveIn(RegId V, const BasicBlock *BB) const {
    return LiveIn[BB->id()].test(V);
  }
  bool isLiveOut(RegId V, const BasicBlock *BB) const {
    return LiveOut[BB->id()].test(V);
  }

  const CFG &cfg() const { return Cfg; }

  /// Incremental maintenance after an edit that changed the live ranges
  /// of \p Vars only: recomputes their block-level sets exactly, from the
  /// function's current instructions, leaving every other variable's
  /// bits untouched. Clears the Vars' bits, then sets those of a
  /// restricted |Vars|-bit fixpoint: one scan of the function plus a
  /// small iteration, instead of a full dense analysis.
  void recomputeValues(const std::vector<RegId> &Vars);

  /// Clears the block-level bits of \p Vars, values that no longer occur
  /// in the function: one mask subtract per set, O(blocks x values/64).
  void clearValues(const std::vector<RegId> &Vars);

private:
  const CFG &Cfg;
  std::vector<BitVector> LiveIn;
  std::vector<BitVector> LiveOut;
};

} // namespace lao

#endif // LAO_ANALYSIS_LIVENESS_H
