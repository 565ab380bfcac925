//===- Chordal.cpp - MCS/greedy coloring in dominance order --------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// The SSA-flavoured allocator: interference graphs of programs in SSA
// form are chordal, and chordal graphs are colored optimally by a
// greedy pass over a perfect elimination order. The code this allocator
// sees is *post*-out-of-SSA (coalescing deliberately merged ranges), so
// the graph is only near-chordal — maximum cardinality search (MCS)
// still recovers a near-perfect order, and we seed its tie-breaking
// with dominance (the first-def order over
// DominatorTree::preorderBlocks) so that on the chordal subgraphs the
// order is exactly the simplicial elimination order dominance induces.
//
// MCS takes its next node from a bucket queue on weight, so a round
// costs O((V + E) log V); the order is the one a rescan of every
// unnumbered node per pick gives (docs/REGALLOC.md, "Cost").
//
// Two refinements over plain greedy:
//  * biased coloring — when a node has residual move affinities (Mov /
//    ParCopy partners the coalescer could not merge), prefer a legal
//    color already held by a partner, turning the move into a
//    same-register no-op candidate;
//  * NoSpill eviction — a spill temp that greedy cannot color evicts
//    its cheapest spillable colored neighbor instead of failing the
//    round outright (the Chaitin select stack gets this for free by
//    re-picking; greedy needs it explicitly).
//
//===----------------------------------------------------------------------===//

#include "regalloc/AllocatorStrategy.h"

#include "analysis/Dominators.h"
#include "analysis/InterferenceGraph.h"
#include "analysis/Liveness.h"
#include "ir/CFG.h"
#include "support/Stats.h"

#include <algorithm>
#include <map>

using namespace lao;

namespace {

class ChordalStrategy : public AllocatorStrategy {
public:
  bool tryColor(Function &F, const std::vector<RegId> &Pool,
                const std::set<RegId> &NoSpill, std::vector<RegId> &ColorOut,
                std::vector<RegId> &SpillOut) override {
    CFG Cfg(F);
    Liveness LV(Cfg);
    InterferenceGraph IG(F, LV);
    std::vector<double> Cost = spillCosts(F, Cfg);
    DominatorTree DT(Cfg);

    std::vector<RegId> Nodes = collectVirtualRegs(F);
    unsigned K = static_cast<unsigned>(Pool.size());
    std::vector<char> Spillable(IG.numNodes(), 1);
    for (RegId V : NoSpill)
      Spillable[V] = 0;

    // Dominance key: virtuals ordered by the instruction position of
    // their first definition, blocks walked in dominator-tree preorder.
    // On SSA-shaped (single-def) subgraphs this is the simplicial
    // elimination order; values with no def (use-only, possible in
    // hand-written input) sort last by RegId. 0 = not yet keyed.
    std::vector<uint64_t> DefOrder(IG.numNodes(), 0);
    uint64_t Ord = 0;
    for (BasicBlock *BB : DT.preorderBlocks())
      for (const Instruction &I : BB->instructions()) {
        ++Ord;
        for (RegId D : I.defs())
          if (!F.isPhysical(D) && !DefOrder[D])
            DefOrder[D] = Ord;
      }
    for (RegId V : Nodes) // Ascending RegId (Nodes is sorted).
      if (!DefOrder[V])
        DefOrder[V] = ++Ord;

    // Residual move affinities — the merge hints the coalescer left
    // behind as actual Mov/ParCopy instructions. Weighted by occurrence
    // count; partners are tried hottest-first during biased coloring.
    std::vector<std::map<RegId, double>> AffinityW(IG.numNodes());
    for (const auto &BB : F.blocks())
      for (const Instruction &I : BB->instructions()) {
        auto Pair = [&](RegId D, RegId U) {
          if (D == U)
            return;
          if (!F.isPhysical(D))
            AffinityW[D][U] += 1;
          if (!F.isPhysical(U))
            AffinityW[U][D] += 1;
        };
        if (I.isCopy() && I.numDefs() == 1 && I.numUses() == 1)
          Pair(I.def(0), I.use(0));
        else if (I.isParCopy())
          for (unsigned K = 0; K < I.numDefs() && K < I.numUses(); ++K)
            Pair(I.def(K), I.use(K));
      }

    // Maximum cardinality search over the virtual nodes, with
    // allocatable physical neighbours counted as already numbered
    // (they are precolored). Weights only grow, so a bucket queue finds
    // the heaviest node: bucket W holds the ranks of the nodes of weight
    // W, the rank being the node's place in (DefOrder, RegId) order —
    // ties break toward the dominance key. Stale entries (numbered, or
    // filed again at a higher weight) are dropped when they surface.
    std::vector<RegId> ByKey = Nodes;
    std::sort(ByKey.begin(), ByKey.end(), [&](RegId A, RegId B) {
      return std::pair(DefOrder[A], A) < std::pair(DefOrder[B], B);
    });
    std::vector<unsigned> Rank(IG.numNodes()), Weight(IG.numNodes(), 0);
    std::vector<char> Unnumbered(IG.numNodes(), 0);
    std::vector<MinHeap<unsigned>> Bucket;
    unsigned Top = 0;
    auto File = [&](RegId V) {
      if (Weight[V] >= Bucket.size())
        Bucket.resize(Weight[V] + 1);
      Bucket[Weight[V]].push(Rank[V]);
      Top = std::max(Top, Weight[V]);
    };
    for (unsigned R = 0; R < ByKey.size(); ++R) {
      RegId V = ByKey[R];
      Rank[V] = R;
      Unnumbered[V] = 1;
      for (RegId N : IG.neighbors(V))
        Weight[V] += N < K;
      File(V);
    }
    std::vector<RegId> Order;
    Order.reserve(Nodes.size());
    while (Order.size() < Nodes.size()) {
      MinHeap<unsigned> &B = Bucket[Top];
      while (!B.empty() && (!Unnumbered[ByKey[B.top()]] ||
                            Weight[ByKey[B.top()]] != Top))
        B.pop();
      if (B.empty()) {
        --Top;
        continue;
      }
      RegId Pick = ByKey[B.top()];
      Order.push_back(Pick);
      Unnumbered[Pick] = 0;
      for (RegId N : IG.neighbors(Pick))
        if (Unnumbered[N]) {
          ++Weight[N];
          File(N);
        }
    }

    // Greedy coloring in MCS order with biased color choice.
    ColorOut.assign(IG.numNodes(), InvalidReg);
    SpillOut.clear();
    auto PickColor = [&](RegId V, ColorMask Forbidden) {
      // Biased: a legal color already held by the strongest affinity
      // partner makes the residual move coalesceable by assignment.
      std::vector<std::pair<RegId, double>> Partners(AffinityW[V].begin(),
                                                     AffinityW[V].end());
      std::stable_sort(Partners.begin(), Partners.end(),
                       [](const auto &A, const auto &B) {
                         return A.second > B.second;
                       });
      for (const auto &[P, W] : Partners) {
        (void)W;
        // A physical partner in the pool is its own color.
        RegId Want = P < K ? P : ColorOut[P];
        if (Want != InvalidReg && !(Forbidden >> Want & 1)) {
          ++LAO_STAT(regalloc, biased_hits);
          return Want;
        }
      }
      return firstFreeColor(Forbidden, K);
    };

    auto Ratio = [&](RegId V) {
      return Cost[V] / (1.0 + IG.neighbors(V).size());
    };
    for (RegId V : Order) {
      RegId Color = PickColor(V, forbiddenColors(IG, V, K, ColorOut));
      if (Color != InvalidReg) {
        ColorOut[V] = Color;
        continue;
      }
      // Uncolorable: decide who pays, by spill cost (greedy's local
      // version of Chaitin's cost-driven spill choice). A color is
      // freeable by evicting every spillable colored neighbor holding
      // it — unless a precolored or NoSpill neighbor pins it. V spills
      // itself only when it is no costlier than the cheapest freeable
      // color's total eviction bill (NoSpill temps never self-spill; if
      // nothing is freeable for one, the pool is genuinely too small
      // for one instruction and V is reported so the driver turns that
      // into the structured failure).
      double Bill[MaxAllocatableRegs] = {};
      ColorMask Billed = 0, Pinned = 0;
      for (RegId N : IG.neighbors(V)) {
        RegId C = N < K ? N : ColorOut[N];
        if (C == InvalidReg)
          continue;
        if (N < K || !Spillable[N]) {
          Pinned |= ColorMask(1) << C;
        } else {
          Bill[C] += Ratio(N);
          Billed |= ColorMask(1) << C;
        }
      }
      RegId BestColor = InvalidReg;
      for (RegId C = 0; C < K; ++C)
        if ((Billed & ~Pinned) >> C & 1 &&
            (BestColor == InvalidReg || Bill[C] < Bill[BestColor]))
          BestColor = C;
      if (Spillable[V] &&
          (BestColor == InvalidReg || Ratio(V) <= Bill[BestColor])) {
        SpillOut.push_back(V);
        continue;
      }
      if (BestColor == InvalidReg) {
        SpillOut.push_back(V); // NoSpill: the driver reports failure.
        continue;
      }
      for (RegId N : IG.neighbors(V))
        if (ColorOut[N] == BestColor) {
          ColorOut[N] = InvalidReg;
          SpillOut.push_back(N);
          ++LAO_STAT(regalloc, evictions);
        }
      ColorOut[V] = BestColor;
    }
    return SpillOut.empty();
  }
};

} // namespace

std::unique_ptr<AllocatorStrategy> lao::makeChordalStrategy() {
  return std::make_unique<ChordalStrategy>();
}
