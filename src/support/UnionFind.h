//===- UnionFind.h - Disjoint-set forest ------------------------*- C++ -*-===//
//
// Part of the lao project: reproduction of Rastello, de Ferriere & Guillon,
// "Optimizing Translation Out of SSA Using Renaming Constraints", CGO 2004.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small disjoint-set forest with union by size and path compression,
/// used to maintain resource classes during pinning-based coalescing and
/// the merged nodes of the interference graph (analysis/InterferenceGraph.h).
///
//===----------------------------------------------------------------------===//

#ifndef LAO_SUPPORT_UNIONFIND_H
#define LAO_SUPPORT_UNIONFIND_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace lao {

/// Disjoint-set forest over dense element ids [0, size).
class UnionFind {
public:
  UnionFind() = default;
  explicit UnionFind(size_t N) { grow(N); }

  /// Extends the universe so that ids below \p N are valid, each new id in
  /// its own singleton set.
  void grow(size_t N) {
    size_t Old = Parent.size();
    if (N <= Old)
      return;
    Parent.resize(N);
    Size.resize(N, 1);
    for (size_t I = Old; I < N; ++I)
      Parent[I] = static_cast<uint32_t>(I);
  }

  size_t size() const { return Parent.size(); }

  /// Returns the representative of \p X's set.
  uint32_t find(uint32_t X) const {
    assert(X < Parent.size() && "id out of range");
    uint32_t Root = X;
    while (Parent[Root] != Root)
      Root = Parent[Root];
    // Path compression.
    while (Parent[X] != Root) {
      uint32_t Next = Parent[X];
      Parent[X] = Root;
      X = Next;
    }
    return Root;
  }

  bool sameSet(uint32_t A, uint32_t B) const { return find(A) == find(B); }

  /// Merges the sets of \p A and \p B. Returns the representative of the
  /// merged set. If \p PreferA is true, A's root becomes the representative
  /// regardless of size (used to keep physical registers as class leaders).
  uint32_t merge(uint32_t A, uint32_t B, bool PreferA = false) {
    uint32_t RA = find(A), RB = find(B);
    if (RA == RB)
      return RA;
    if (!PreferA && Size[RA] < Size[RB])
      std::swap(RA, RB);
    Parent[RB] = RA;
    Size[RA] += Size[RB];
    return RA;
  }

private:
  mutable std::vector<uint32_t> Parent;
  std::vector<uint32_t> Size;
};

} // namespace lao

#endif // LAO_SUPPORT_UNIONFIND_H
