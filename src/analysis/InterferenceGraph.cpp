//===- InterferenceGraph.cpp - Post-SSA interference graph -------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/InterferenceGraph.h"

#include "support/Stats.h"

#include <cassert>

using namespace lao;

namespace {

/// Calls \p Fn(A, B) for every set bit (A, B), B < A, of the
/// lower-triangular \p Matrix over \p NV nodes: A ascending, and B
/// ascending within each A.
template <typename Callable>
void forEachTriangleBit(const BitVector &Matrix, size_t NV, Callable Fn) {
  for (RegId A = 1; A < NV; ++A) {
    size_t Base = static_cast<size_t>(A) * (A - 1) / 2;
    Matrix.forEachInRange(Base, Base + A, [&](size_t Idx) {
      Fn(A, static_cast<RegId>(Idx - Base));
    });
  }
}

} // namespace

InterferenceGraph::InterferenceGraph(const Function &F, const Liveness &LV) {
  ++LAO_STAT(interference, graphs_built);
  size_t NV = F.numValues();
  Adj.resize(NV);
  Merged.grow(NV);
  Matrix.resize(NV < 2 ? 0 : NV * (NV - 1) / 2);

  // The walk only sets matrix bits (which also dedup); the rows are
  // emitted from the matrix afterwards, already sorted.
  auto AddEdge = [&](RegId A, RegId B) {
    if (A != B)
      Matrix.set(triIndex(A, B));
  };
  forEachInterference(
      F, LV,
      [&](RegId D, const BitVector &Live, RegId ExemptSrc) {
        Live.forEach([&](size_t L) {
          if (static_cast<RegId>(L) != ExemptSrc)
            AddEdge(D, static_cast<RegId>(L));
        });
      },
      AddEdge);

  // Size every row exactly before the first emission: no row regrows or
  // keeps slack. compact() re-emits a row into no more entries than it
  // held before, so later emissions fit too.
  std::vector<uint32_t> Degree(NV);
  forEachTriangleBit(Matrix, NV, [&](RegId A, RegId B) {
    ++Degree[A];
    ++Degree[B];
  });
  for (RegId V = 0; V < NV; ++V)
    Adj[V].reserve(Degree[V]);
  emitRows();
}

void InterferenceGraph::emitRows() {
  for (std::vector<RegId> &Row : Adj)
    Row.clear();
  // Row A receives its lower neighbors in ascending order during its own
  // turn and each higher neighbor at that neighbor's turn, so every row
  // comes out ascending.
  forEachTriangleBit(Matrix, Adj.size(), [&](RegId A, RegId B) {
    Adj[A].push_back(B);
    Adj[B].push_back(A);
  });
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
    size_t RepN = triIndex(Rep, N);
    if (!Matrix.test(RepN)) {
      Matrix.set(RepN);
      Adj[Rep].push_back(N);
    }
  }
  std::vector<RegId>().swap(Adj[Dead]);
  Merged.merge(Rep, Dead, /*PreferA=*/true);
  Stale = true;
}

void InterferenceGraph::compact() {
  if (!Stale)
    return;
  emitRows();
  Stale = false;
}
