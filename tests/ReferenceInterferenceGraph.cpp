//===- ReferenceInterferenceGraph.cpp - Eagerly merged graph -------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ReferenceInterferenceGraph.h"

#include "analysis/InterferenceGraph.h"

#include <algorithm>
#include <cassert>

using namespace lao;
using namespace lao::test;

ReferenceInterferenceGraph::ReferenceInterferenceGraph(const Function &F,
                                                       const Liveness &LV) {
  size_t NV = F.numValues();
  Adj.resize(NV);
  Matrix.resize(NV < 2 ? 0 : NV * (NV - 1) / 2);
  auto Add = [&](RegId A, RegId B) {
    if (A == B || Matrix.test(triIndex(A, B)))
      return;
    Matrix.set(triIndex(A, B));
    Adj[A].push_back(B);
    Adj[B].push_back(A);
  };
  forEachInterference(
      F, LV,
      [&](RegId D, const BitVector &Live, RegId ExemptSrc) {
        Live.forEach([&](size_t L) {
          if (static_cast<RegId>(L) != ExemptSrc)
            Add(D, static_cast<RegId>(L));
        });
      },
      Add);
  for (auto &Row : Adj)
    std::sort(Row.begin(), Row.end());
}

namespace {

void sortedErase(std::vector<RegId> &Vec, RegId V) {
  auto It = std::lower_bound(Vec.begin(), Vec.end(), V);
  assert(It != Vec.end() && *It == V && "erasing a missing neighbor");
  Vec.erase(It);
}

/// Replaces \p Old by \p New in the sorted vector \p Vec with a single
/// element shift. \p New must not already be present.
void replaceSorted(std::vector<RegId> &Vec, RegId Old, RegId New) {
  auto OldIt = std::lower_bound(Vec.begin(), Vec.end(), Old);
  assert(OldIt != Vec.end() && *OldIt == Old && "replacing a missing entry");
  if (New > Old) {
    auto Pos = std::lower_bound(OldIt + 1, Vec.end(), New);
    std::move(OldIt + 1, Pos, OldIt);
    *(Pos - 1) = New;
  } else {
    auto Pos = std::lower_bound(Vec.begin(), OldIt, New);
    std::move_backward(Pos, OldIt, OldIt + 1);
    *Pos = New;
  }
}

} // namespace

void ReferenceInterferenceGraph::mergeNodes(RegId Rep, RegId Dead) {
  assert(Rep != Dead && "merging a node into itself");

  // New Rep row first, while both old rows are intact: one merge-join of
  // the two sorted lists, dropping the endpoints themselves.
  std::vector<RegId> Merged;
  Merged.reserve(Adj[Rep].size() + Adj[Dead].size());
  {
    auto A = Adj[Rep].begin(), AE = Adj[Rep].end();
    auto B = Adj[Dead].begin(), BE = Adj[Dead].end();
    while (A != AE || B != BE) {
      RegId V;
      if (B == BE || (A != AE && *A <= *B)) {
        V = *A;
        if (B != BE && *B == V)
          ++B;
        ++A;
      } else {
        V = *B++;
      }
      if (V != Dead && V != Rep)
        Merged.push_back(V);
    }
  }

  // Retire Dead's edges in the matrix and patch its neighbors' rows.
  std::vector<RegId> DeadNbrs = std::move(Adj[Dead]);
  Adj[Dead].clear();
  for (RegId N : DeadNbrs) {
    Matrix.reset(triIndex(Dead, N));
    if (N == Rep)
      continue;
    size_t RepN = triIndex(Rep, N);
    if (Matrix.test(RepN)) {
      sortedErase(Adj[N], Dead); // Rep already present in Adj[N].
    } else {
      Matrix.set(RepN);
      replaceSorted(Adj[N], Dead, Rep);
    }
  }
  Adj[Rep] = std::move(Merged);
}
