//===- Sreedhar.cpp - CSSA conversion (Sreedhar et al. method III) -------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "outofssa/Sreedhar.h"

#include "analysis/AnalysisManager.h"
#include "outofssa/PinningContext.h"
#include "support/Stats.h"
#include "support/UnionFind.h"

#include <cassert>
#include <map>
#include <set>

using namespace lao;

namespace {

/// Congruence classes, checked against the dominator tree and the
/// liveness query engine of \p AM, with the kill test of PinningContext.h.
/// Copy insertion only adds instructions inside existing blocks, so it
/// keeps the CFG and the dominator tree and drops the query engine,
/// which \p AM rebuilds on the next query.
class CSSAState {
public:
  explicit CSSAState(AnalysisManager &AM) : F(AM.function()), AM(AM) {
    Classes.grow(F.numValues());
  }

  /// Copies were inserted: liveness and the def sites are stale.
  void copiesInserted() {
    AM.invalidate(PreservedAnalyses::cfgOnly());
    SitesStale = true;
  }

  UnionFind &classes() { return Classes; }

  /// Precise SSA interference between two values.
  bool valuesInterfere(RegId A, RegId B) {
    if (SitesStale) {
      Sites = collectDefSites(F);
      SitesStale = false;
    }
    if (A == B)
      return false;
    const DefSite &SA = Sites[A], &SB = Sites[B];
    if (!SA.Valid || !SB.Valid)
      return false;
    // Same-block phis coexist at block entry.
    if (SA.I->isPhi() && SB.I->isPhi() && SA.BB == SB.BB)
      return true;
    const DominatorTree &DT = AM.domTree();
    if (defDominates(DT, SB, SA))
      return liveAtDef(AM.livenessQuery(), B, SA);
    if (defDominates(DT, SA, SB))
      return liveAtDef(AM.livenessQuery(), A, SB);
    return false;
  }

  /// True if the classes of \p A and \p B interfere (some member pair
  /// does).
  bool classesInterfere(RegId A, RegId B) {
    RegId RA = Classes.find(A), RB = Classes.find(B);
    if (RA == RB)
      return false;
    for (RegId X : membersOf(RA))
      for (RegId Y : membersOf(RB))
        if (valuesInterfere(X, Y))
          return true;
    return false;
  }

  /// True if any member of \p A's class is live out of \p BB.
  bool classLiveOut(RegId A, const BasicBlock *BB) {
    const LivenessQuery &LQ = AM.livenessQuery();
    for (RegId X : membersOf(Classes.find(A)))
      if (LQ.isLiveOut(X, BB))
        return true;
    return false;
  }

  /// True if any member of \p A's class is live into \p BB.
  bool classLiveIn(RegId A, const BasicBlock *BB) {
    const LivenessQuery &LQ = AM.livenessQuery();
    for (RegId X : membersOf(Classes.find(A)))
      if (LQ.isLiveIn(X, BB))
        return true;
    return false;
  }

  void merge(RegId A, RegId B) {
    RegId RA = Classes.find(A), RB = Classes.find(B);
    if (RA == RB)
      return;
    RegId Rep = Classes.merge(RA, RB);
    RegId Other = Rep == RA ? RB : RA;
    auto &Dst = MembersMap[Rep];
    if (Dst.empty())
      Dst.push_back(Rep);
    auto &Src = MembersMap[Other];
    if (Src.empty())
      Dst.push_back(Other);
    else {
      Dst.insert(Dst.end(), Src.begin(), Src.end());
      Src.clear();
    }
  }

  /// Registers a freshly created value (after F.makeVirtual).
  void grow() { Classes.grow(F.numValues()); }

private:
  Function &F;
  AnalysisManager &AM;
  UnionFind Classes;
  std::map<RegId, std::vector<RegId>> MembersMap;
  std::vector<DefSite> Sites;
  bool SitesStale = true;

  const std::vector<RegId> &membersOf(RegId Rep) {
    auto &V = MembersMap[Rep];
    if (V.empty())
      V.push_back(Rep);
    return V;
  }
};

} // namespace

namespace {

/// One pass of the per-phi conversion. Swap-shaped webs can need more
/// than one pass: an inserted copy resolves the pair that triggered it
/// but may itself interfere with another member merged later. Returns
/// the copies inserted; sets \p NumPhis to the phis processed (the same
/// every pass: copies never add or remove phis) and adds the unresolved
/// pairs to \p NumUnresolved.
unsigned convertToCSSAOnce(Function &F, AnalysisManager &AM,
                           unsigned &NumPhis, unsigned &NumUnresolved) {
  unsigned NumCopies = 0;
  CSSAState St(AM);

  // Collect phis up front (in RPO-ish program order); copies never add
  // or remove phis.
  std::vector<Instruction *> Phis;
  std::vector<BasicBlock *> PhiBlock;
  for (const auto &BB : F.blocks())
    for (Instruction &I : BB->instructions()) {
      if (!I.isPhi())
        break;
      Phis.push_back(&I);
      PhiBlock.push_back(BB.get());
    }
  NumPhis = static_cast<unsigned>(Phis.size());

  for (size_t PI = 0; PI < Phis.size(); ++PI) {
    Instruction &Phi = *Phis[PI];
    BasicBlock *L0 = PhiBlock[PI];

    // Resources of this phi: operand index ~0u denotes the result.
    struct Res {
      RegId V;
      unsigned OperandIdx; // ~0u for the def.
      BasicBlock *Block;   // Copy point: end of Block, or entry of L0.
    };
    std::vector<Res> Resources;
    Resources.push_back({Phi.def(0), ~0u, L0});
    for (unsigned K = 0; K < Phi.numUses(); ++K)
      Resources.push_back({Phi.use(K), K, Phi.incomingBlock(K)});

    auto ClassNeededAcross = [&](const Res &A, const Res &B) {
      // Is A's congruence class live at B's copy point?
      if (B.OperandIdx == ~0u)
        return St.classLiveIn(A.V, B.Block);
      return St.classLiveOut(A.V, B.Block);
    };

    std::set<unsigned> Marked; // Indices into Resources needing a copy.
    std::vector<std::pair<unsigned, unsigned>> Unresolved;

    for (unsigned A = 0; A < Resources.size(); ++A)
      for (unsigned B = A + 1; B < Resources.size(); ++B) {
        if (Resources[A].V == Resources[B].V)
          continue;
        if (St.classes().sameSet(Resources[A].V, Resources[B].V))
          continue;
        if (!St.classesInterfere(Resources[A].V, Resources[B].V))
          continue;
        bool ALive = ClassNeededAcross(Resources[A], Resources[B]);
        bool BLive = ClassNeededAcross(Resources[B], Resources[A]);
        if (ALive && !BLive)
          Marked.insert(A);
        else if (BLive && !ALive)
          Marked.insert(B);
        else if (ALive && BLive) {
          Marked.insert(A);
          Marked.insert(B);
        } else {
          Unresolved.push_back({A, B});
          ++NumUnresolved;
        }
      }

    // Process the unresolved resources: repeatedly mark the resource
    // occurring in the most not-yet-resolved pairs.
    while (true) {
      std::map<unsigned, unsigned> Count;
      for (auto &[A, B] : Unresolved)
        if (!Marked.count(A) && !Marked.count(B)) {
          ++Count[A];
          ++Count[B];
        }
      if (Count.empty())
        break;
      unsigned Best = Count.begin()->first;
      for (auto &[R, C] : Count)
        if (C > Count[Best])
          Best = R;
      Marked.insert(Best);
    }

    // Insert the copies.
    for (unsigned Idx : Marked) {
      const Res &R = Resources[Idx];
      if (R.OperandIdx == ~0u) {
        // New phi result X'; X = X' placed at the top of L0.
        RegId NewDef = F.makeVirtual(F.valueName(R.V) + ".c");
        St.grow();
        Instruction Copy(Opcode::Mov);
        Copy.addDef(R.V);
        Copy.addUse(NewDef);
        L0->insert(L0->firstNonPhi(), std::move(Copy));
        Phi.setDef(0, NewDef);
      } else {
        // New argument xi'; xi' = xi at the end of the predecessor.
        RegId NewArg = F.makeVirtual(F.valueName(R.V) + ".c");
        St.grow();
        Instruction Copy(Opcode::Mov);
        Copy.addDef(NewArg);
        Copy.addUse(R.V);
        BasicBlock *Pred = R.Block;
        auto Pos = Pred->instructions().end();
        --Pos; // Before the terminator.
        Pred->insert(Pos, std::move(Copy));
        Phi.setUse(R.OperandIdx, NewArg);
      }
      ++NumCopies;
    }
    if (!Marked.empty())
      St.copiesInserted();

    // Merge the (now interference-free) phi congruence classes.
    for (unsigned K = 0; K < Phi.numUses(); ++K)
      St.merge(Phi.def(0), Phi.use(K));
  }
  return NumCopies;
}

} // namespace

void lao::convertToCSSA(Function &F, AnalysisManager &AM) {
  assert(&AM.function() == &F && "the manager must be bound to F");
  unsigned NumCopies = 0, NumPhis = 0, NumUnresolved = 0;
  for (unsigned Round = 0; Round < 5; ++Round) {
    unsigned Copies = convertToCSSAOnce(F, AM, NumPhis, NumUnresolved);
    NumCopies += Copies;
    if (Copies == 0 || findCSSAViolations(F, AM).empty())
      break;
  }
  LAO_STAT(sreedhar, runs) += 1;
  LAO_STAT(sreedhar, copies_inserted) += NumCopies;
  LAO_STAT(sreedhar, phis_processed) += NumPhis;
  LAO_STAT(sreedhar, unresolved_pairs) += NumUnresolved;
}

std::vector<std::pair<RegId, RegId>>
lao::findCSSAViolations(Function &F, AnalysisManager &AM) {
  assert(&AM.function() == &F && "the manager must be bound to F");
  std::vector<std::pair<RegId, RegId>> Violations;
  CSSAState St(AM);
  // Webs: transitive closure over all phi operand sets.
  UnionFind Webs(F.numValues());
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions()) {
      if (!I.isPhi())
        break;
      for (RegId U : I.uses())
        if (!F.isPhysical(U))
          Webs.merge(I.def(0), U);
    }
  std::map<RegId, std::vector<RegId>> Members;
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      for (RegId D : I.defs())
        if (!F.isPhysical(D))
          Members[Webs.find(D)].push_back(D);
  // Only phis join webs, so in SSA every web of two or more members
  // holds a phi def.
  for (auto &[Root, List] : Members) {
    if (List.size() < 2)
      continue;
    for (size_t A = 0; A < List.size(); ++A)
      for (size_t B = A + 1; B < List.size(); ++B)
        if (St.valuesInterfere(List[A], List[B]))
          Violations.push_back({List[A], List[B]});
  }
  return Violations;
}

unsigned lao::pinCSSAWebs(Function &F) {
  UnionFind Webs(F.numValues());
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions()) {
      if (!I.isPhi())
        break;
      for (RegId U : I.uses())
        Webs.merge(I.def(0), U);
    }

  // Web roots that actually contain a phi (only those need pinning).
  std::set<RegId> PhiRoots;
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions()) {
      if (!I.isPhi())
        break;
      PhiRoots.insert(Webs.find(I.def(0)));
    }

  // Representative per web: an existing physical def pin wins; otherwise
  // the web leader. A physical register may represent at most one web —
  // two phi webs pinned to one machine register would strongly interfere
  // (the failure mode the paper reports for its own Sreedhar+constraints
  // adaptation); later webs fall back to a virtual representative.
  std::map<RegId, RegId> RepFor; // web root -> resource
  std::set<RegId> ClaimedPhys;
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      for (unsigned K = 0; K < I.numDefs(); ++K) {
        RegId Pin = I.defPin(K);
        if (Pin == InvalidReg || !F.isPhysical(Pin))
          continue;
        RegId Root = Webs.find(I.def(K));
        if (!PhiRoots.count(Root) || RepFor.count(Root))
          continue;
        if (ClaimedPhys.insert(Pin).second)
          RepFor.emplace(Root, Pin);
      }

  unsigned NumPinned = 0;
  for (const auto &BB : F.blocks())
    for (Instruction &I : BB->instructions()) {
      if (I.isParCopy())
        continue;
      for (unsigned K = 0; K < I.numDefs(); ++K) {
        RegId D = I.def(K);
        if (F.isPhysical(D))
          continue;
        RegId Root = Webs.find(D);
        if (!PhiRoots.count(Root))
          continue;
        auto It = RepFor.find(Root);
        RegId Res = It != RepFor.end() ? It->second : Root;
        if (I.defPin(K) == InvalidReg || !F.isPhysical(I.defPin(K))) {
          I.pinDef(K, Res);
          ++NumPinned;
        }
      }
    }
  return NumPinned;
}
