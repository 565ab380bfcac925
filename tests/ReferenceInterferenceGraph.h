//===- ReferenceInterferenceGraph.h - Eagerly merged graph ------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interference graph with the eager vertex merge that the production
/// graph (analysis/InterferenceGraph.h) replaced by a lazy one: every
/// merge rebuilds the survivor's sorted row by one merge-join and patches
/// each of the victim's neighbors' sorted rows in place, so the rows are
/// exact and sorted after every merge. Test-only: the rebuild-every-round
/// coalescer (ReferenceCoalescer.h) merges on it, and CoalescerTests.cpp
/// requires the production graph to answer every interfere() query the
/// same and to hold the same rows after each compact().
///
//===----------------------------------------------------------------------===//

#ifndef LAO_TESTS_REFERENCEINTERFERENCEGRAPH_H
#define LAO_TESTS_REFERENCEINTERFERENCEGRAPH_H

#include "analysis/Liveness.h"
#include "ir/Function.h"
#include "support/BitVector.h"

#include <utility>
#include <vector>

namespace lao::test {

class ReferenceInterferenceGraph {
public:
  /// Builds the graph of non-SSA \p F under forEachInterference's rule.
  ReferenceInterferenceGraph(const Function &F, const Liveness &LV);

  bool interfere(RegId A, RegId B) const {
    return A != B && Matrix.test(triIndex(A, B));
  }

  /// Merges \p Dead into \p Rep: Rep's row becomes the sorted union of
  /// both (without the endpoints), Dead's row empties, and each of Dead's
  /// neighbors has Dead replaced by Rep (or erased, when it already lists
  /// Rep) with one in-place shift. Costs Σ deg(N) over Dead's neighbors.
  void mergeNodes(RegId Rep, RegId Dead);

  size_t numNodes() const { return Adj.size(); }

  /// A's neighbors in ascending RegId order, exact after every merge.
  const std::vector<RegId> &neighbors(RegId A) const { return Adj[A]; }

private:
  static size_t triIndex(RegId A, RegId B) {
    if (A < B)
      std::swap(A, B);
    return static_cast<size_t>(A) * (A - 1) / 2 + B;
  }

  BitVector Matrix;
  std::vector<std::vector<RegId>> Adj;
};

} // namespace lao::test

#endif // LAO_TESTS_REFERENCEINTERFERENCEGRAPH_H
