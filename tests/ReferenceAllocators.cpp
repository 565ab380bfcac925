//===- ReferenceAllocators.cpp - Scan-based coloring oracles -------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// The two tryColor bodies kept verbatim from the scan-based allocator,
// apart from the dense spill-cost vector they now read (same values,
// same operator[]) and the analyses they read from the round's manager,
// as the production strategies do. Each colors into an ordered map, which the shared
// wrapper spreads over the dense ColorOut the strategy contract asks
// for.
//
//===----------------------------------------------------------------------===//

#include "ReferenceAllocators.h"

#include "analysis/AnalysisManager.h"
#include "support/Stats.h"

#include <algorithm>
#include <map>
#include <set>

using namespace lao;

namespace {

class ScanStrategy : public AllocatorStrategy {
public:
  bool tryColor(AnalysisManager &AM, const std::vector<RegId> &Pool,
                const BitVector &NoSpill, std::vector<RegId> &ColorOut,
                std::vector<RegId> &SpillOut) override {
    std::map<RegId, RegId> Color;
    bool Ok = scan(AM, Pool, NoSpill, Color, SpillOut);
    ColorOut.assign(AM.function().numValues(), InvalidReg);
    for (const auto &[V, C] : Color)
      ColorOut[V] = C;
    return Ok;
  }

protected:
  virtual bool scan(AnalysisManager &AM, const std::vector<RegId> &Pool,
                    const BitVector &NoSpill,
                    std::map<RegId, RegId> &ColorOut,
                    std::vector<RegId> &SpillOut) = 0;
};

class ScanChaitinBriggsStrategy : public ScanStrategy {
protected:
  bool scan(AnalysisManager &AM, const std::vector<RegId> &Pool,
            const BitVector &NoSpill, std::map<RegId, RegId> &ColorOut,
            std::vector<RegId> &SpillOut) override {
    const Function &F = AM.function();
    const InterferenceGraph &IG = AM.interference();
    std::vector<double> Cost = spillCosts(AM);

    std::set<RegId> PoolSet(Pool.begin(), Pool.end());
    std::vector<RegId> Nodes = collectVirtualRegs(F);
    unsigned K = static_cast<unsigned>(Pool.size());

    // Current degree counting both virtual neighbours and allocatable
    // physical neighbours (precolored).
    std::map<RegId, unsigned> Degree;
    std::set<RegId> Remaining(Nodes.begin(), Nodes.end());
    for (RegId V : Nodes) {
      unsigned D = 0;
      for (RegId N : IG.neighbors(V))
        if (Remaining.count(N) || PoolSet.count(N))
          ++D;
      Degree[V] = D;
    }

    // Simplify with optimistic (Briggs) spill candidates.
    std::vector<std::pair<RegId, bool>> Stack; // (node, isSpillCandidate)
    while (!Remaining.empty()) {
      RegId Pick = InvalidReg;
      for (RegId V : Remaining)
        if (Degree[V] < K && (Pick == InvalidReg ||
                              Degree[V] > Degree[Pick])) // Heuristic: push
          Pick = V; // high-degree-but-colorable first, color it late.
      bool Candidate = false;
      if (Pick == InvalidReg) {
        // All remaining are high degree: choose the cheapest to spill,
        // push optimistically.
        double Best = 0;
        for (RegId V : Remaining) {
          if (NoSpill.test(V))
            continue;
          double Ratio = Cost[V] / (1.0 + Degree[V]);
          if (Pick == InvalidReg || Ratio < Best) {
            Pick = V;
            Best = Ratio;
          }
        }
        if (Pick == InvalidReg)
          Pick = *Remaining.begin(); // Only no-spill temps left: force one.
        Candidate = true;
      }
      Stack.push_back({Pick, Candidate});
      Remaining.erase(Pick);
      for (RegId N : IG.neighbors(Pick)) {
        auto It = Degree.find(N);
        if (It != Degree.end() && It->second > 0)
          --It->second;
      }
    }

    // Select.
    ColorOut.clear();
    SpillOut.clear();
    while (!Stack.empty()) {
      auto [V, WasCandidate] = Stack.back();
      Stack.pop_back();
      std::set<RegId> Forbidden;
      for (RegId N : IG.neighbors(V)) {
        if (PoolSet.count(N))
          Forbidden.insert(N);
        auto It = ColorOut.find(N);
        if (It != ColorOut.end())
          Forbidden.insert(It->second);
      }
      RegId Color = InvalidReg;
      for (RegId R : Pool)
        if (!Forbidden.count(R)) {
          Color = R;
          break;
        }
      if (Color == InvalidReg) {
        (void)WasCandidate;
        SpillOut.push_back(V);
        continue;
      }
      ColorOut[V] = Color;
    }
    return SpillOut.empty();
  }
};

class ScanChordalStrategy : public ScanStrategy {
protected:
  bool scan(AnalysisManager &AM, const std::vector<RegId> &Pool,
            const BitVector &NoSpill, std::map<RegId, RegId> &ColorOut,
            std::vector<RegId> &SpillOut) override {
    const Function &F = AM.function();
    const InterferenceGraph &IG = AM.interference();
    std::vector<double> Cost = spillCosts(AM);
    const DominatorTree &DT = AM.domTree();

    std::set<RegId> PoolSet(Pool.begin(), Pool.end());
    std::vector<RegId> Nodes = collectVirtualRegs(F);

    // Dominance key: virtuals ordered by the instruction position of
    // their first definition, blocks walked in dominator-tree preorder.
    // On SSA-shaped (single-def) subgraphs this is the simplicial
    // elimination order; values with no def (use-only, possible in
    // hand-written input) sort last by RegId.
    std::map<RegId, uint64_t> DefOrder;
    uint64_t Ord = 0;
    for (BasicBlock *BB : DT.preorderBlocks())
      for (const Instruction &I : BB->instructions()) {
        ++Ord;
        for (RegId D : I.defs())
          if (!F.isPhysical(D) && !DefOrder.count(D))
            DefOrder[D] = Ord;
      }
    for (RegId V : Nodes) // Ascending RegId (Nodes is sorted).
      if (!DefOrder.count(V))
        DefOrder[V] = ++Ord;

    // Residual move affinities — the merge hints the coalescer left
    // behind as actual Mov/ParCopy instructions. Weighted by occurrence
    // count; partners are tried hottest-first during biased coloring.
    std::map<RegId, std::map<RegId, double>> AffinityW;
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
    // (they are precolored). Ties break toward the dominance key.
    std::map<RegId, unsigned> Weight;
    std::set<RegId> Unnumbered(Nodes.begin(), Nodes.end());
    for (RegId V : Nodes) {
      unsigned W = 0;
      for (RegId N : IG.neighbors(V))
        if (PoolSet.count(N))
          ++W;
      Weight[V] = W;
    }
    std::vector<RegId> Order;
    Order.reserve(Nodes.size());
    while (!Unnumbered.empty()) {
      RegId Pick = InvalidReg;
      for (RegId V : Unnumbered) {
        if (Pick == InvalidReg || Weight[V] > Weight[Pick] ||
            (Weight[V] == Weight[Pick] &&
             (DefOrder[V] < DefOrder[Pick] ||
              (DefOrder[V] == DefOrder[Pick] && V < Pick))))
          Pick = V;
      }
      Order.push_back(Pick);
      Unnumbered.erase(Pick);
      for (RegId N : IG.neighbors(Pick))
        if (Unnumbered.count(N))
          ++Weight[N];
    }

    // Greedy coloring in MCS order with biased color choice.
    ColorOut.clear();
    SpillOut.clear();
    auto ForbiddenOf = [&](RegId V) {
      std::set<RegId> Forbidden;
      for (RegId N : IG.neighbors(V)) {
        if (PoolSet.count(N))
          Forbidden.insert(N);
        auto It = ColorOut.find(N);
        if (It != ColorOut.end())
          Forbidden.insert(It->second);
      }
      return Forbidden;
    };
    auto PickColor = [&](RegId V, const std::set<RegId> &Forbidden) {
      // Biased: a legal color already held by the strongest affinity
      // partner makes the residual move coalesceable by assignment.
      auto AffIt = AffinityW.find(V);
      if (AffIt != AffinityW.end()) {
        std::vector<std::pair<RegId, double>> Partners(AffIt->second.begin(),
                                                       AffIt->second.end());
        std::stable_sort(Partners.begin(), Partners.end(),
                         [](const auto &A, const auto &B) {
                           return A.second > B.second;
                         });
        for (const auto &[P, W] : Partners) {
          (void)W;
          RegId Want = InvalidReg;
          if (PoolSet.count(P))
            Want = P; // Physical partner in the pool.
          else {
            auto It = ColorOut.find(P);
            if (It != ColorOut.end())
              Want = It->second;
          }
          if (Want != InvalidReg && !Forbidden.count(Want)) {
            ++LAO_STAT(regalloc, biased_hits);
            return Want;
          }
        }
      }
      for (RegId R : Pool)
        if (!Forbidden.count(R))
          return R;
      return InvalidReg;
    };

    for (RegId V : Order) {
      std::set<RegId> Forbidden = ForbiddenOf(V);
      RegId Color = PickColor(V, Forbidden);
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
      std::map<RegId, double> EvictCost;
      std::set<RegId> Pinned;
      for (RegId N : IG.neighbors(V)) {
        if (PoolSet.count(N)) {
          Pinned.insert(N);
          continue;
        }
        auto It = ColorOut.find(N);
        if (It == ColorOut.end())
          continue;
        if (NoSpill.test(N))
          Pinned.insert(It->second);
        else
          EvictCost[It->second] +=
              Cost[N] / (1.0 + IG.neighbors(N).size());
      }
      RegId BestColor = InvalidReg;
      double Bill = 0;
      for (const auto &[C, W] : EvictCost) {
        if (Pinned.count(C))
          continue;
        if (BestColor == InvalidReg || W < Bill ||
            (W == Bill && C < BestColor)) {
          BestColor = C;
          Bill = W;
        }
      }
      if (!NoSpill.test(V) &&
          (BestColor == InvalidReg ||
           Cost[V] / (1.0 + IG.neighbors(V).size()) <= Bill)) {
        SpillOut.push_back(V);
        continue;
      }
      if (BestColor == InvalidReg) {
        SpillOut.push_back(V); // NoSpill: the driver reports failure.
        continue;
      }
      for (RegId N : IG.neighbors(V)) {
        auto It = ColorOut.find(N);
        if (It == ColorOut.end() || It->second != BestColor)
          continue;
        ColorOut.erase(It);
        SpillOut.push_back(N);
        ++LAO_STAT(regalloc, evictions);
      }
      ColorOut[V] = BestColor;
    }
    return SpillOut.empty();
  }
};

} // namespace

std::unique_ptr<AllocatorStrategy> lao::test::makeScanChaitinBriggsStrategy() {
  return std::make_unique<ScanChaitinBriggsStrategy>();
}

std::unique_ptr<AllocatorStrategy> lao::test::makeScanChordalStrategy() {
  return std::make_unique<ScanChordalStrategy>();
}
