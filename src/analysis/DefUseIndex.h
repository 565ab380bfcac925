//===- DefUseIndex.h - Per-variable def/use occurrence index ----*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A one-pass index of every variable's occurrences, built once per
/// function and shared by the liveness machinery:
///
///  * ordered (block, ordinal, use/def) events, so "is V used or defined
///    after position P?" is a binary search instead of an instruction-list
///    rescan (the hot leaves of LivenessQuery::isLiveAfter and
///    isLiveBefore);
///  * per-variable block summaries (upward-exposed-use blocks, def
///    blocks, phi-argument predecessor blocks) that seed LivenessQuery's
///    per-variable backward solves.
///
/// Phi semantics follow the paper (Section 3.2, Class 2): a phi argument
/// occurs at the end of the corresponding predecessor (recorded in
/// phiOutBlocks, never as a use event of the phi's block), and a phi
/// result is defined at its block's entry (a def event at the phi's
/// textual position, which precedes every non-phi).
///
//===----------------------------------------------------------------------===//

#ifndef LAO_ANALYSIS_DEFUSEINDEX_H
#define LAO_ANALYSIS_DEFUSEINDEX_H

#include "ir/Function.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace lao {

/// Immutable occurrence index over one function. Any mutation of the
/// function's instructions invalidates it.
class DefUseIndex {
public:
  explicit DefUseIndex(const Function &F);

  enum EventKind : uint32_t { UseEvent = 0, DefEvent = 1 };

  /// Textual position of \p I within its block (phis included).
  uint32_t ordinalOf(const Instruction *I) const {
    assert(I->selfRef() < Ordinals.size() &&
           Ordinals[I->selfRef()] != ~0u &&
           "instruction not in the indexed function");
    return Ordinals[I->selfRef()];
  }

  /// Kind of the first occurrence of \p V in \p Block at an ordinal
  /// greater than \p Ord (or greater-or-equal when \p Inclusive), or -1
  /// when the variable has no further occurrence in the block. A use and
  /// a def at one ordinal report the use (operands are read before the
  /// results are written). Phi uses are not events (see file comment).
  int firstEventFrom(RegId V, uint32_t Block, uint32_t Ord,
                     bool Inclusive) const {
    const std::vector<uint64_t> &E = Vars[V].Events;
    uint64_t Lo = (static_cast<uint64_t>(Block) << 32) |
                  ((static_cast<uint64_t>(Ord) + (Inclusive ? 0 : 1)) << 1);
    auto It = std::lower_bound(E.begin(), E.end(), Lo);
    if (It == E.end() || (*It >> 32) != Block)
      return -1;
    return static_cast<int>(*It & 1);
  }

  /// Blocks (by id, ascending) with an upward-exposed use of \p V.
  const std::vector<uint32_t> &ueBlocks(RegId V) const {
    return Vars[V].UE;
  }
  /// Blocks (by id, ascending) containing a def of \p V (phi defs count).
  const std::vector<uint32_t> &defBlocks(RegId V) const {
    return Vars[V].DefB;
  }
  /// Predecessor blocks into whose live-out \p V flows as a phi argument.
  const std::vector<uint32_t> &phiOutBlocks(RegId V) const {
    return Vars[V].PhiOut;
  }

  bool definedIn(RegId V, uint32_t Block) const {
    const auto &D = Vars[V].DefB;
    return std::binary_search(D.begin(), D.end(), Block);
  }

  /// Number of def events of \p V (2+ means non-SSA or a physical reg).
  uint32_t numDefs(RegId V) const { return Vars[V].NumDefEvents; }

  /// Block of the unique def; only meaningful when numDefs(V) == 1.
  uint32_t soleDefBlock(RegId V) const {
    assert(Vars[V].NumDefEvents == 1 && "not a single-def variable");
    return Vars[V].DefB.front();
  }

private:
  struct VarOcc {
    /// Packed (block << 32 | ordinal << 1 | kind), sorted ascending.
    std::vector<uint64_t> Events;
    std::vector<uint32_t> UE;
    std::vector<uint32_t> DefB;
    std::vector<uint32_t> PhiOut;
    uint32_t NumDefEvents = 0;
  };

  std::vector<VarOcc> Vars;
  /// Ordinal per instruction, indexed by InstrRef (dense; ~0u = unused
  /// slot). Replaces a pointer-keyed hash map: construction is a stores-
  /// only sweep and ordinalOf is a single indexed load.
  std::vector<uint32_t> Ordinals;
};

} // namespace lao

#endif // LAO_ANALYSIS_DEFUSEINDEX_H
