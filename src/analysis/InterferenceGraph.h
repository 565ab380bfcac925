//===- InterferenceGraph.h - Post-SSA interference graph --------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chaitin-style interference graph for non-SSA code, used by the
/// aggressive "repeated register coalescing" baseline (the paper's [C]
/// configurations). Two registers interfere when one is defined at a point
/// where the other is live, except that the destination of a move does not
/// interfere with its source at that move (Chaitin's refinement).
///
/// Hybrid representation (the classic Chaitin trade-off): a lower-
/// triangular bit matrix answers `interfere(A, B)` in O(1), while sorted
/// per-node adjacency vectors give cache-friendly, *deterministic*
/// neighbor iteration — `neighbors()` always enumerates in ascending
/// RegId order, so every order-sensitive client (coalescer repair scan,
/// allocator color scans) behaves identically run to run.
///
/// Merges are lazy, after the alias union-find of George and Appel's
/// iterated coalescing: `mergeNodes` moves the victim's matrix bits to
/// the survivor at once (so `interfere` stays exact over the current
/// representatives) but leaves the rows stale — the victim's id stays in
/// its neighbors' rows and resolves through the graph's UnionFind.
/// `representative(V)` reads that union-find; it is the one merge map of
/// the coalescer, which resolves every operand through it. `compact()`
/// resolves, sorts and deduplicates every stale row in one pass; the
/// coalescer calls it once per round, and `neighbors()` and `removeEdge`
/// may only be used on a compact graph.
///
/// The edge rule itself lives in one place, forEachInterference: the
/// graph constructor and the coalescer's graph-free confirm and repair
/// scans are its visitors.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_ANALYSIS_INTERFERENCEGRAPH_H
#define LAO_ANALYSIS_INTERFERENCEGRAPH_H

#include "analysis/Liveness.h"
#include "ir/Function.h"
#include "support/BitVector.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <cassert>
#include <utility>
#include <vector>

namespace lao {

/// Observer of forEachInterference's live set that does nothing.
struct NoLiveHook {
  void block(const BitVector &) {}
  void set(RegId) {}
  void reset(RegId) {}
};

/// Chaitin's edge rule as one backward walk over non-SSA \p F. Starting
/// from each block's live-out set, it calls `OnDef(D, Live, ExemptSrc)`
/// for every def D with the set live across that def; a visitor adds an
/// edge from D to each member of Live other than D and ExemptSrc, which
/// is the move's source (or the parallel copy's paired source) and
/// InvalidReg elsewhere. It then calls `OnDefPair(A, B)` for each pair of
/// distinct defs of the instruction (written together), kills the defs
/// and adds the uses. \p Hook sees the walk's live set: `block(Live)` at
/// each block's live-out, then every `reset(D)` and `set(U)`.
template <typename OnDefFn, typename OnDefPairFn, typename HookT = NoLiveHook>
void forEachInterference(const Function &F, const Liveness &LV,
                         OnDefFn &&OnDef, OnDefPairFn &&OnDefPair,
                         HookT &&Hook = HookT()) {
  BitVector Live;
  for (const auto &BB : F.blocks()) {
    Live = LV.liveOut(BB.get());
    Hook.block(Live);
    auto &Insts = BB->instructions();
    for (auto It = Insts.rbegin(); It != Insts.rend(); ++It) {
      const Instruction &I = *It;
      assert(!I.isPhi() && "interference walk expects non-SSA code");
      bool Paired = I.isCopy() || I.isParCopy();
      for (unsigned K = 0; K < I.numDefs(); ++K)
        OnDef(I.def(K), std::as_const(Live), Paired ? I.use(K) : InvalidReg);
      for (unsigned A = 0; A < I.numDefs(); ++A)
        for (unsigned B = A + 1; B < I.numDefs(); ++B)
          if (I.def(A) != I.def(B))
            OnDefPair(I.def(A), I.def(B));
      for (RegId D : I.defs()) {
        Live.reset(D);
        Hook.reset(D);
      }
      for (RegId U : I.uses()) {
        Live.set(U);
        Hook.set(U);
      }
    }
  }
}

/// Undirected interference graph over register ids.
class InterferenceGraph {
public:
  /// Builds the graph for non-SSA code (no phis; parallel copies allowed).
  InterferenceGraph(const Function &F, const Liveness &LV);

  /// Exact for any two current representatives, stale rows or not.
  bool interfere(RegId A, RegId B) const {
    if (A == B)
      return false;
    return Matrix.test(triIndex(A, B));
  }

  /// The node \p V has been merged into, through any chain of merges
  /// (V itself if it was never merged away).
  RegId representative(RegId V) const { return Merged.find(V); }

  /// Merges \p Dead into \p Rep, both current representatives — the
  /// vertex merge after coalescing a move (Section 3.5). Rep's
  /// neighborhood becomes the union of both; a Rep-Dead edge dies with the
  /// merge. O(deg(Dead)): Dead's matrix bits move to Rep, Dead's neighbors
  /// that Rep lacked are appended to Rep's row, Dead's set joins Rep's
  /// (Rep stays its representative), and Rep and Dead's neighbors are
  /// marked stale. Their rows are left unsorted, with Dead's id (now
  /// resolving to Rep) in place, until the next compact().
  void mergeNodes(RegId Rep, RegId Dead);

  /// Replaces every entry of each stale row by its representative, drops
  /// self entries, sorts and deduplicates the row: afterwards each row of
  /// a representative lists its neighbors in ascending order, and a
  /// merged-away node's row is empty. O(Σ |row| log |row|) over the rows
  /// merged into since the last call.
  void compact();

  /// True when no row is stale (no merge since the last compact()).
  bool isCompact() const { return StaleList.empty(); }

  /// Removes the edge {A, B}. The incremental coalescer uses this when
  /// its round-boundary repair scan proves a unioned edge is not present
  /// in the exact graph of the rewritten program.
  void removeEdge(RegId A, RegId B) {
    assert(A != B && "no self-edges");
    assert(isCompact() && "removeEdge on stale rows; call compact() first");
    size_t Idx = triIndex(A, B);
    if (!Matrix.test(Idx))
      return;
    Matrix.reset(Idx);
    sortedErase(Adj[A], B);
    sortedErase(Adj[B], A);
  }

  size_t numNodes() const { return Adj.size(); }

  /// A's neighbors in ascending RegId order (deterministic).
  const std::vector<RegId> &neighbors(RegId A) const {
    assert(isCompact() && "neighbors() of stale rows; call compact() first");
    return Adj[A];
  }

private:
  /// Index of the unordered pair {A, B} in the lower-triangular matrix.
  static size_t triIndex(RegId A, RegId B) {
    assert(A != B && "no self-edges");
    if (A < B)
      std::swap(A, B);
    return static_cast<size_t>(A) * (A - 1) / 2 + B;
  }

  static void sortedErase(std::vector<RegId> &Vec, RegId V) {
    auto It = std::lower_bound(Vec.begin(), Vec.end(), V);
    assert(It != Vec.end() && *It == V && "erasing a missing neighbor");
    Vec.erase(It);
  }

  void markStale(RegId V) {
    if (!StaleMask.test(V)) {
      StaleMask.set(V);
      StaleList.push_back(V);
    }
  }

  BitVector Matrix; ///< Lower-triangular adjacency bits.
  std::vector<std::vector<RegId>> Adj;
  UnionFind Merged; ///< Which nodes have been merged into which.
  BitVector StaleMask; ///< Rows changed by a merge since the last compact().
  std::vector<RegId> StaleList;
};

} // namespace lao

#endif // LAO_ANALYSIS_INTERFERENCEGRAPH_H
