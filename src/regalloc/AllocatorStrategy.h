//===- AllocatorStrategy.h - Coloring strategy interface --------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The internal seam between the allocateRegisters driver and the
/// concrete coloring strategies. One strategy call is one
/// build/.../select round over *fresh* analyses of the (possibly
/// spill-rewritten) function; the driver owns the retry loop, the spill
/// model, and the final color rewrite, so a strategy only decides which
/// virtual gets which physical register — or which virtuals to spill.
///
/// Contract for tryColor:
///  * analyses (CFG, Liveness, InterferenceGraph, spill costs) are
///    built from scratch inside the call — the function changed since
///    the previous round;
///  * ColorOut is indexed by RegId over IG.numNodes() (InvalidReg =
///    no color); on success (return true) it maps every virtual
///    register of F to a member of Pool;
///  * on failure (return false) SpillOut names the virtuals to spill
///    this round. If any of them is in NoSpill (a temp the spill model
///    already created, which must not recursively spill under the
///    spill-everywhere discipline), the driver reports the
///    "instruction needs more registers" failure;
///  * both containers are cleared by the callee; determinism is part
///    of the contract (no hash-map iteration may leak into decisions).
///
//===----------------------------------------------------------------------===//

#ifndef LAO_REGALLOC_ALLOCATORSTRATEGY_H
#define LAO_REGALLOC_ALLOCATORSTRATEGY_H

#include "regalloc/RegAlloc.h"

#include <bit>
#include <memory>
#include <queue>
#include <set>

namespace lao {

class CFG;
class InterferenceGraph;

class AllocatorStrategy {
public:
  virtual ~AllocatorStrategy() = default;

  /// One coloring round (see file comment).
  virtual bool tryColor(Function &F, const std::vector<RegId> &Pool,
                        const std::set<RegId> &NoSpill,
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

/// Spill-cost weights indexed by RegId: occurrences weighted
/// 5^loopdepth (the same static frequency model as the paper's Table 5).
std::vector<double> spillCosts(const Function &F, const CFG &Cfg);

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
