//===- InterferenceGraph.cpp - Post-SSA interference graph -------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/InterferenceGraph.h"

#include "support/Stats.h"

#include <algorithm>
#include <cassert>

using namespace lao;

InterferenceGraph::InterferenceGraph(const Function &F, const Liveness &LV) {
  ++LAO_STAT(interference, graphs_built);
  size_t NV = F.numValues();
  Adj.resize(NV);
  Merged.grow(NV);
  StaleMask.resize(NV);
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

void InterferenceGraph::mergeNodes(RegId Rep, RegId Dead) {
  assert(Rep != Dead && "merging a node into itself");
  assert(representative(Rep) == Rep && representative(Dead) == Dead &&
         "merging a node that was merged away");

  // Dead's row may name merged-away nodes and repeat a neighbor; the
  // Dead-N matrix bit, reset on first sight, visits each neighbor once.
  for (RegId Entry : Adj[Dead]) {
    RegId N = representative(Entry);
    if (N == Dead)
      continue;
    size_t DeadN = triIndex(Dead, N);
    if (!Matrix.test(DeadN))
      continue;
    Matrix.reset(DeadN);
    if (N == Rep)
      continue; // The Rep-Dead edge dies with the merge.
    // N's row keeps Dead's id, which now resolves to Rep.
    markStale(N);
    size_t RepN = triIndex(Rep, N);
    if (!Matrix.test(RepN)) {
      Matrix.set(RepN);
      Adj[Rep].push_back(N);
    }
  }
  std::vector<RegId>().swap(Adj[Dead]);
  Merged.merge(Rep, Dead, /*PreferA=*/true);
  markStale(Rep);
}

void InterferenceGraph::compact() {
  for (RegId V : StaleList) {
    StaleMask.reset(V);
    if (representative(V) != V)
      continue; // Merged away after it went stale: its row is empty.
    std::vector<RegId> &Row = Adj[V];
    for (RegId &N : Row)
      N = representative(N);
    Row.erase(std::remove(Row.begin(), Row.end(), V), Row.end());
    std::sort(Row.begin(), Row.end());
    Row.erase(std::unique(Row.begin(), Row.end()), Row.end());
  }
  StaleList.clear();
}
