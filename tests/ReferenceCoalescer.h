//===- ReferenceCoalescer.h - Rebuild-every-round coalescing ----*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's [C] "repeated register coalescing" as literally described:
/// rebuild CFG, liveness and the interference graph before every sweep,
/// stop after the first sweep that merges nothing. The graph is the
/// eagerly merged ReferenceInterferenceGraph, so the comparison also
/// holds the production graph's lazy merges to it. Test-only; the
/// coalescer tests (CoalescerTests.cpp) require the production
/// zero-rebuild worklist schedule (outofssa/Coalescer.h) to perform the
/// same merges in the same order and to leave byte-identical IR.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_TESTS_REFERENCECOALESCER_H
#define LAO_TESTS_REFERENCECOALESCER_H

#include "outofssa/Coalescer.h"

#include <string>
#include <utility>
#include <vector>

namespace lao::test {

/// The (survivor, victim) pairs of a coalescing run, in merge order.
using MergeTrace = std::vector<std::pair<RegId, RegId>>;

/// Coalesces non-SSA \p F by rebuilding every analysis before each sweep,
/// appending each merge to \p TraceOut when set. Adds nothing to the
/// coalesce.* registry counters.
void coalesceRebuildingEveryRound(Function &F, MergeTrace *TraceOut = nullptr);

/// "" when the merges of \p Worklist's rounds, in order, equal
/// \p Reference, else the first divergent merge: its index and the pair
/// each schedule merged there.
std::string firstTraceDivergence(const std::vector<MergeRound> &Worklist,
                                 const MergeTrace &Reference);

} // namespace lao::test

#endif // LAO_TESTS_REFERENCECOALESCER_H
