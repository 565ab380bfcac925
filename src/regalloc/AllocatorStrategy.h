//===- AllocatorStrategy.h - Coloring strategy interface --------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The internal seam between the allocateRegisters driver and the
/// concrete coloring strategies. One strategy call is one
/// build/.../select round over the analyses of the (possibly
/// spill-rewritten) function; the driver owns the retry loop, the spill
/// rewriter, and the final color rewrite, so a strategy only decides
/// which virtual gets which physical register — or which virtuals to
/// spill.
///
/// Contract for tryColor:
///  * analyses (InterferenceGraph, DominatorTree, spill costs) come
///    from the manager, bound to the function, and stay untouched; the
///    driver keeps only PreservedAnalyses::cfgOnly() across a spill;
///  * ColorOut is indexed by RegId over IG.numNodes() (InvalidReg =
///    no color); on success (return true) it maps every virtual
///    register of F to a member of Pool;
///  * NoSpill is a dense flag set over the function's RegIds, sized to
///    F.numValues(): a set flag marks a temp the spill rewriter
///    created, whose range is already minimal and must not recursively
///    spill. On failure (return false) SpillOut names the virtuals to
///    spill this round; if any of them is NoSpill, the driver reports
///    the "instruction needs more registers" failure;
///  * both containers are cleared by the callee; determinism is part
///    of the contract (no hash-map iteration may leak into decisions).
///
//===----------------------------------------------------------------------===//

#ifndef LAO_REGALLOC_ALLOCATORSTRATEGY_H
#define LAO_REGALLOC_ALLOCATORSTRATEGY_H

#include "regalloc/RegAlloc.h"
#include "support/BitVector.h"

#include <bit>
#include <memory>
#include <queue>

namespace lao {

class AnalysisManager;
class InterferenceGraph;

class AllocatorStrategy {
public:
  virtual ~AllocatorStrategy() = default;

  /// One coloring round (see file comment).
  virtual bool tryColor(AnalysisManager &AM, const std::vector<RegId> &Pool,
                        const BitVector &NoSpill,
                        std::vector<RegId> &ColorOut,
                        std::vector<RegId> &SpillOut) = 0;
};

std::unique_ptr<AllocatorStrategy> makeChaitinBriggsStrategy();
std::unique_ptr<AllocatorStrategy> makeChordalStrategy();
std::unique_ptr<AllocatorStrategy> makeAllocatorStrategy(AllocatorKind K);

/// Shared build infrastructure (RegAlloc.cpp).
///
/// The allocatable register pool, in assignment preference order:
/// R0..R7 then P0..P3, truncated to \p NumRegs (at most 12). Those are
/// the physical ids 0..11, so Pool[i] == i: a register is in a pool of
/// K when its id is below K.
std::vector<RegId> allocatablePool(unsigned NumRegs);

/// Spill-cost weights indexed by RegId: occurrences in \p AM's function
/// weighted 5^loopdepth (the static frequency model of Table 5).
std::vector<double> spillCosts(AnalysisManager &AM);

/// A set of pool colors; bit R stands for the pool register R.
using ColorMask = uint32_t;

/// The colors \p V may not take in a pool of \p K: those of its pool
/// neighbours (precolored) and of its neighbours colored in \p ColorOf.
ColorMask forbiddenColors(const InterferenceGraph &IG, RegId V, unsigned K,
                          const std::vector<RegId> &ColorOf);

/// The strategies' pick queues: smallest key on top. They are lazy —
/// a node is pushed again when its key changes, and a popped entry that
/// no longer matches the node is dropped.
template <typename T>
using MinHeap = std::priority_queue<T, std::vector<T>, std::greater<T>>;

/// The first pool register (preference order) not in \p Taken, or
/// InvalidReg.
inline RegId firstFreeColor(ColorMask Taken, unsigned K) {
  unsigned C = std::countr_one(Taken);
  return C < K ? C : InvalidReg;
}

} // namespace lao

#endif // LAO_REGALLOC_ALLOCATORSTRATEGY_H
