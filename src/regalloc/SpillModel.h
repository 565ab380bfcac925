//===- SpillModel.h - Spill code insertion ----------------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocator tier's spill rewriter: given the virtuals a coloring
/// round decided to spill, rewrite the function so their live ranges
/// shatter into tiny temp ranges around memory accesses. Every spilled
/// value takes one of two paths (see docs/REGALLOC.md):
///
///  * classic — a load before every use (one reload temp per
///    instruction per value) and a store after every definition. This
///    is the spill-everywhere model the Bouchez–Darte–Rastello
///    complexity results are phrased against.
///  * forwarding — the classic skeleton plus three in-block
///    optimizations that only ever remove accesses: a use after a
///    reload (or after the def whose store temp still holds the value)
///    forwards to that temp instead of reloading; a store made
///    redundant by a later same-block store with no possible
///    intervening read is deleted; and when a round reloads a spilled
///    value nowhere at all, its stores are dead and dropped.
///
/// Under SpillModelKind::SpillEverywhere every value is classic. Under
/// LoadStoreOpt every value forwards, except the rewriter's own temps:
/// a temp an earlier round created that is selected for spilling again
/// takes the classic path, whose fresh temps all have
/// single-instruction ranges, so the round loop converges.
///
/// The rewriter is stateful across the driver's rounds: it owns the
/// value→slot map and the slot high-water mark, so re-spilling the same
/// value in a later round reuses its slot. Slots are assigned to *new*
/// spill values in ascending RegId order — deterministic no matter
/// which container the strategy collected them in (the FrameBytes
/// accounting contract, regression-tested).
///
/// Spill temps and NoSpill: the rewriter grows the driver's NoSpill
/// flags to the function's new size and sets every temp it created
/// with at most one use (spilling it could recurse forever — its live
/// range is already minimal). Forwarded temps (a reload serving several
/// uses) and def temps whose store was dropped stay spillable: their
/// ranges are real again, and if a later round spills one, it is an own
/// temp and takes the classic path.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_REGALLOC_SPILLMODEL_H
#define LAO_REGALLOC_SPILLMODEL_H

#include "regalloc/RegAlloc.h"
#include "support/BitVector.h"

namespace lao {

class SpillRewriter {
public:
  explicit SpillRewriter(SpillModelKind Kind) : Kind(Kind) {}

  /// Rewrites \p F so every register in \p Spilled lives in its stack
  /// slot: inserts loads/stores through fresh temporaries, updates
  /// \p Result's spill counters, resizes \p NoSpill to F.numValues()
  /// and sets the single-use temps in it.
  void insertSpillCode(Function &F, const std::vector<RegId> &Spilled,
                       BitVector &NoSpill, RegAllocResult &Result);

  /// Frame slots assigned so far (8 bytes each).
  unsigned frameSlots() const { return NextSlot; }

private:
  SpillModelKind Kind;
  /// Value -> absolute slot address, 0 for none yet (a dedicated region
  /// far from both the heap the workloads use and the SP frame: the
  /// mini-LAI SP is a *moving* dedicated register, so SP-relative slots
  /// would alias differently before and after spadjust chains).
  std::vector<int64_t> SlotOf;
  unsigned NextSlot = 0;
  /// Every temp an earlier round created: spilled again, it takes the
  /// classic path.
  BitVector OwnTemps;
};

} // namespace lao

#endif // LAO_REGALLOC_SPILLMODEL_H
