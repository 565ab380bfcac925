//===- InterferenceGraph.cpp - Post-SSA interference graph -------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/InterferenceGraph.h"

#include "support/Stats.h"

#include <cassert>

using namespace lao;

InterferenceGraph::InterferenceGraph(const Function &F, const Liveness &LV) {
  ++LAO_STAT(interference, graphs_built);
  size_t NV = F.numValues();
  Adj.resize(NV);
  Matrix.resize(NV < 2 ? 0 : NV * (NV - 1) / 2);

  // During construction, append edges unsorted (the bit matrix already
  // dedups); one sort per node at the end beats a binary-search insert
  // per edge.
  auto AddRaw = [&](RegId A, RegId B) {
    if (A == B)
      return;
    size_t Idx = triIndex(A, B);
    if (Matrix.test(Idx))
      return;
    Matrix.set(Idx);
    Adj[A].push_back(B);
    Adj[B].push_back(A);
  };

  forEachInterference(
      F, LV,
      [&](RegId D, const BitVector &Live, RegId ExemptSrc) {
        Live.forEach([&](size_t L) {
          if (static_cast<RegId>(L) != ExemptSrc)
            AddRaw(D, static_cast<RegId>(L));
        });
      },
      AddRaw);

  for (auto &List : Adj)
    std::sort(List.begin(), List.end());
}

namespace {

/// Replaces \p Old by \p New in the sorted vector \p Vec with a single
/// element shift, instead of an erase followed by a binary-search insert.
/// \p New must not already be present.
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

void InterferenceGraph::mergeNodes(RegId Rep, RegId Dead) {
  assert(Rep != Dead && "merging a node into itself");

  // New Rep row first, while both old rows are intact: one merge-join of
  // the two sorted lists, dropping the endpoints themselves (a Rep-Dead
  // edge dies with the merge, and there are no self-edges).
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

  // Retire Dead's edges in the matrix and patch its neighbors' lists.
  std::vector<RegId> DeadNbrs = std::move(Adj[Dead]);
  Adj[Dead].clear();
  for (RegId N : DeadNbrs) {
    Matrix.reset(triIndex(Dead, N));
    if (N == Rep)
      continue;
    size_t RepN = triIndex(Rep, N);
    if (Matrix.test(RepN))
      sortedErase(Adj[N], Dead); // Rep already present in Adj[N].
    else {
      Matrix.set(RepN);
      replaceSorted(Adj[N], Dead, Rep);
    }
  }
  Adj[Rep] = std::move(Merged);
}
