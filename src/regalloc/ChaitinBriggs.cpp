//===- ChaitinBriggs.cpp - Briggs optimistic graph coloring --------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// The classic build/simplify/select strategy. Simplify keeps the nodes
// of degree < K in K buckets and the others on a lazy min-heap keyed by
// spill ratio, so a round costs O((V + E) log V) instead of a rescan of
// every remaining node per pick. The picks are the scan's, tie-breaks
// included (docs/REGALLOC.md, "Cost"): the committed spills and
// spill_accesses measurements do not move, and the tie-break oracle
// test replays every round against the scan kept in tests/.
//
//===----------------------------------------------------------------------===//

#include "regalloc/AllocatorStrategy.h"

#include "analysis/InterferenceGraph.h"
#include "analysis/Liveness.h"
#include "ir/CFG.h"

using namespace lao;

namespace {

class ChaitinBriggsStrategy : public AllocatorStrategy {
public:
  bool tryColor(Function &F, const std::vector<RegId> &Pool,
                const std::set<RegId> &NoSpill, std::vector<RegId> &ColorOut,
                std::vector<RegId> &SpillOut) override {
    CFG Cfg(F);
    Liveness LV(Cfg);
    InterferenceGraph IG(F, LV);
    std::vector<double> Cost = spillCosts(F, Cfg);

    std::vector<RegId> Nodes = collectVirtualRegs(F);
    unsigned K = static_cast<unsigned>(Pool.size());
    std::vector<char> Remaining(IG.numNodes(), 0), Spillable(Remaining);
    for (RegId V : Nodes)
      Remaining[V] = Spillable[V] = 1;
    for (RegId V : NoSpill)
      Spillable[V] = 0;

    // Degree counts remaining virtual neighbours and pool registers
    // (precolored). A node below K waits in its degree's bucket, smallest
    // RegId on top; a spillable node at or above K waits on the spill
    // heap under (Cost/(1+Degree), RegId). A node is filed again whenever
    // its degree drops.
    std::vector<unsigned> Degree(IG.numNodes(), 0);
    std::vector<MinHeap<RegId>> Bucket(K);
    MinHeap<std::pair<double, RegId>> SpillHeap;
    auto Ratio = [&](RegId V) { return Cost[V] / (1.0 + Degree[V]); };
    auto File = [&](RegId V) {
      if (Degree[V] < K)
        Bucket[Degree[V]].push(V);
      else if (Spillable[V])
        SpillHeap.push({Ratio(V), V});
    };
    for (RegId V : Nodes) {
      for (RegId N : IG.neighbors(V))
        Degree[V] += Remaining[N] || N < K;
      File(V);
    }

    std::vector<RegId> Stack;
    Stack.reserve(Nodes.size());
    size_t Lowest = 0; // Nodes[Lowest] is the smallest remaining RegId.
    while (Stack.size() < Nodes.size()) {
      // Push high-degree-but-colorable first, so it colors late.
      RegId Pick = InvalidReg;
      for (unsigned D = K; D-- > 0 && Pick == InvalidReg;) {
        MinHeap<RegId> &B = Bucket[D];
        while (!B.empty() && (!Remaining[B.top()] || Degree[B.top()] != D))
          B.pop();
        if (!B.empty())
          Pick = B.top();
      }
      // All remaining are high degree: choose the cheapest to spill,
      // push optimistically.
      while (Pick == InvalidReg && !SpillHeap.empty()) {
        auto [Key, V] = SpillHeap.top();
        SpillHeap.pop();
        if (Remaining[V] && Key == Ratio(V))
          Pick = V;
      }
      if (Pick == InvalidReg) { // Only no-spill temps left: force one.
        while (!Remaining[Nodes[Lowest]])
          ++Lowest;
        Pick = Nodes[Lowest];
      }
      Stack.push_back(Pick);
      Remaining[Pick] = 0;
      for (RegId N : IG.neighbors(Pick))
        if (Remaining[N]) {
          --Degree[N];
          File(N);
        }
    }

    // Select.
    ColorOut.assign(IG.numNodes(), InvalidReg);
    SpillOut.clear();
    for (auto It = Stack.rbegin(); It != Stack.rend(); ++It) {
      RegId Color = firstFreeColor(forbiddenColors(IG, *It, K, ColorOut), K);
      if (Color == InvalidReg)
        SpillOut.push_back(*It);
      else
        ColorOut[*It] = Color;
    }
    return SpillOut.empty();
  }
};

} // namespace

std::unique_ptr<AllocatorStrategy> lao::makeChaitinBriggsStrategy() {
  return std::make_unique<ChaitinBriggsStrategy>();
}
