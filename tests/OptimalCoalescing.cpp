//===- OptimalCoalescing.cpp - Exact reference for the phi problem -------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "OptimalCoalescing.h"

#include <algorithm>
#include <map>
#include <set>

using namespace lao;

namespace {

struct LocalEdge {
  unsigned U, V; ///< Dense vertex indices.
  unsigned Mult;
};

/// Branch-and-bound over edge subsets: maximize kept multiplicity such
/// that every pair of vertices connected through kept edges is
/// compatible (pairwise non-interfering).
class BlockSolver {
public:
  BlockSolver(unsigned NumVertices, std::vector<LocalEdge> Edges,
              const std::vector<std::vector<bool>> &Interfere)
      : NumVertices(NumVertices), Edges(std::move(Edges)),
        Interfere(Interfere) {
    // Large multiplicities first tightens the bound early.
    std::sort(this->Edges.begin(), this->Edges.end(),
              [](const LocalEdge &A, const LocalEdge &B) {
                return A.Mult > B.Mult;
              });
    Suffix.assign(this->Edges.size() + 1, 0);
    for (size_t K = this->Edges.size(); K-- > 0;)
      Suffix[K] = Suffix[K + 1] + this->Edges[K].Mult;
  }

  unsigned solve() {
    std::vector<unsigned> Comp(NumVertices);
    for (unsigned K = 0; K < NumVertices; ++K)
      Comp[K] = K;
    Best = 0;
    recurse(0, 0, Comp);
    return Best;
  }

private:
  unsigned NumVertices;
  std::vector<LocalEdge> Edges;
  const std::vector<std::vector<bool>> &Interfere;
  std::vector<unsigned> Suffix;
  unsigned Best = 0;

  void recurse(size_t Idx, unsigned Gain, std::vector<unsigned> &Comp) {
    if (Gain > Best)
      Best = Gain;
    if (Idx == Edges.size() || Gain + Suffix[Idx] <= Best)
      return;

    const LocalEdge &E = Edges[Idx];
    unsigned CU = Comp[E.U], CV = Comp[E.V];
    bool CanKeep = true;
    if (CU != CV) {
      for (unsigned A = 0; A < NumVertices && CanKeep; ++A) {
        if (Comp[A] != CU)
          continue;
        for (unsigned B = 0; B < NumVertices && CanKeep; ++B)
          if (Comp[B] == CV && Interfere[A][B])
            CanKeep = false;
      }
    }
    if (CanKeep) {
      // Keep the edge: merge components.
      std::vector<unsigned> Saved = Comp;
      if (CU != CV)
        for (unsigned A = 0; A < NumVertices; ++A)
          if (Comp[A] == CV)
            Comp[A] = CU;
      recurse(Idx + 1, Gain + E.Mult, Comp);
      Comp = Saved;
    }
    // Drop the edge.
    recurse(Idx + 1, Gain, Comp);
  }
};

} // namespace

OptimalGainResult lao::optimalPhiGain(PinningContext &Ctx, const CFG &Cfg,
                                      unsigned MaxEdges) {
  OptimalGainResult Result;
  for (BasicBlock *BB : Cfg.rpo()) {
    if (BB->empty() || !BB->front().isPhi())
      continue;
    ++Result.NumBlocks;

    // Build the block's affinity multigraph over current resources.
    std::map<RegId, unsigned> VertexIdx;
    std::vector<RegId> Vertices;
    auto IdxOf = [&](RegId R) {
      auto [It, Inserted] = VertexIdx.emplace(R, Vertices.size());
      if (Inserted)
        Vertices.push_back(R);
      return It->second;
    };
    std::map<std::pair<unsigned, unsigned>, unsigned> EdgeMult;
    for (const Instruction &I : BB->instructions()) {
      if (!I.isPhi())
        break;
      unsigned DefIdx = IdxOf(Ctx.resourceOf(I.def(0)));
      for (unsigned K = 0; K < I.numUses(); ++K) {
        RegId ArgRes = Ctx.resourceOf(I.use(K));
        if (ArgRes == Vertices[DefIdx])
          continue; // Already coalesced.
        unsigned ArgIdx = IdxOf(ArgRes);
        auto Key = std::minmax(DefIdx, ArgIdx);
        ++EdgeMult[{Key.first, Key.second}];
      }
    }

    // Pairwise interference among the block's vertices.
    unsigned N = static_cast<unsigned>(Vertices.size());
    std::vector<std::vector<bool>> Interfere(N, std::vector<bool>(N));
    for (unsigned A = 0; A < N; ++A)
      for (unsigned B = A + 1; B < N; ++B)
        Interfere[A][B] = Interfere[B][A] =
            Ctx.resourceInterfere(Vertices[A], Vertices[B]);

    std::vector<LocalEdge> Edges;
    unsigned Keepable = 0;
    for (const auto &[Key, Mult] : EdgeMult) {
      if (Interfere[Key.first][Key.second])
        continue; // Can never be kept (Condition 2).
      Edges.push_back(LocalEdge{Key.first, Key.second, Mult});
      Keepable += Mult;
    }

    if (Edges.size() > MaxEdges) {
      // Too big for exhaustive search: fall back to the trivially sound
      // upper bound (all non-interfering edges).
      Result.Exact = false;
      Result.TotalGain += Keepable;
      continue;
    }
    Result.TotalGain += BlockSolver(N, Edges, Interfere).solve();
  }
  return Result;
}
