//===- ClassInterference.cpp - Dominance-ordered class interference -----------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "outofssa/ClassInterference.h"

#include "outofssa/PinningContext.h"
#include "support/Stats.h"

#include <algorithm>
#include <cassert>

using namespace lao;

namespace {
/// Intra-block sweep key of a slot item: after every definition key of
/// the block (phis are 0, a non-phi at index i is i + 1).
constexpr uint32_t SlotSubKey = 0xffffffffu;

bool sortedIntersect(const std::vector<const Instruction *> &A,
                     const std::vector<const Instruction *> &B) {
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I] < B[J])
      ++I;
    else if (B[J] < A[I])
      ++J;
    else
      return true;
  }
  return false;
}

bool sortedIntersect(const std::vector<uint32_t> &A,
                     const std::vector<uint32_t> &B) {
  size_t I = 0, J = 0;
  while (I < A.size() && J < B.size()) {
    if (A[I] < B[J])
      ++I;
    else if (B[J] < A[I])
      ++J;
    else
      return true;
  }
  return false;
}

template <typename T> void mergeSorted(std::vector<T> &Dst, std::vector<T> &Src,
                                       bool Dedup) {
  std::vector<T> Out;
  Out.reserve(Dst.size() + Src.size());
  std::merge(Dst.begin(), Dst.end(), Src.begin(), Src.end(),
             std::back_inserter(Out));
  if (Dedup)
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  Dst = std::move(Out);
  Src.clear();
  Src.shrink_to_fit();
}
} // namespace

ClassInterference::ClassInterference(const PinningContext &Ctx,
                                     const DominatorTree &DT,
                                     const LivenessQuery &LV)
    : Ctx(Ctx), DT(DT), LV(LV) {
  buildSummaries();
}

ClassInterference::~ClassInterference() {
  LAO_STAT(classinterf, queries) += NumQueries;
  LAO_STAT(classinterf, cache_hits) += NumCacheHits;
  LAO_STAT(classinterf, cache_evictions) += NumCacheEvictions;
  LAO_STAT(classinterf, sweeps) += NumSweeps;
  LAO_STAT(classinterf, probes) += NumProbes;
  LAO_STAT(classinterf, pair_cost) += PairCost;
}

void ClassInterference::buildSummaries() {
  const Function &F = Ctx.func();
  size_t N = F.numValues();
  Data.resize(N);
  Partners.resize(N);

  for (RegId V = 0; V < N; ++V) {
    const DefSite &DS = Ctx.defSite(V);
    if (!DS.Valid)
      continue;
    RegId Rep = Ctx.resourceOf(V);
    ClassData &D = Data[Rep];
    uint32_t PreIn = DT.preorderNumber(DS.BB);
    uint32_t PreOut = DT.preorderLimit(DS.BB);
    assert(PreIn != 0 && "def in an unreachable block");
    uint32_t SubKey = DS.I->isPhi() ? 0 : DS.Order + 1;
    D.Items.push_back(DefItem{(uint64_t(PreIn) << 32) | SubKey, PreOut, V});

    if (DS.I->numDefs() >= 2)
      D.MultiDefs.push_back(DS.I);
    if (DS.I->isPhi()) {
      D.PhiBlocks.push_back(DS.BB->id());
      const Instruction &Phi = *DS.I;
      for (unsigned K = 0; K < Phi.numUses(); ++K) {
        const BasicBlock *Bi = Phi.incomingBlock(K);
        D.Slots.push_back(
            SlotItem{(uint64_t(DT.preorderNumber(Bi)) << 32) | SlotSubKey,
                     DT.preorderLimit(Bi), Bi, Phi.use(K)});
        D.PredArgs.push_back(PredArg{Bi->id(), Phi.use(K), false});
      }
    }
  }

  for (ClassData &D : Data) {
    std::sort(D.Items.begin(), D.Items.end(),
              [](const DefItem &A, const DefItem &B) { return A.Key < B.Key; });
    std::sort(D.Slots.begin(), D.Slots.end(),
              [](const SlotItem &A, const SlotItem &B) {
                return A.Key != B.Key ? A.Key < B.Key
                                      : A.Incoming < B.Incoming;
              });
    D.Slots.erase(std::unique(D.Slots.begin(), D.Slots.end(),
                              [](const SlotItem &A, const SlotItem &B) {
                                return A.Key == B.Key &&
                                       A.Incoming == B.Incoming;
                              }),
                  D.Slots.end());
    std::sort(D.MultiDefs.begin(), D.MultiDefs.end());
    D.MultiDefs.erase(std::unique(D.MultiDefs.begin(), D.MultiDefs.end()),
                      D.MultiDefs.end());
    std::sort(D.PhiBlocks.begin(), D.PhiBlocks.end());
    D.PhiBlocks.erase(std::unique(D.PhiBlocks.begin(), D.PhiBlocks.end()),
                      D.PhiBlocks.end());
    // Compress the raw (block, value) pairs into one digest per block.
    std::sort(D.PredArgs.begin(), D.PredArgs.end(),
              [](const PredArg &A, const PredArg &B) {
                return A.Block != B.Block ? A.Block < B.Block : A.Val < B.Val;
              });
    std::vector<PredArg> Packed;
    for (const PredArg &P : D.PredArgs) {
      if (!Packed.empty() && Packed.back().Block == P.Block) {
        if (Packed.back().Val != P.Val)
          Packed.back().Multi = true;
        continue;
      }
      Packed.push_back(P);
    }
    D.PredArgs = std::move(Packed);
  }
}

void ClassInterference::VictimStack::popTo(uint32_t PreIn, uint32_t SubKey,
                                           uint32_t PreOut) {
  while (!Groups.empty()) {
    const Group &G = Groups.back();
    uint32_t GIn = static_cast<uint32_t>(G.Key >> 32);
    uint32_t GSub = static_cast<uint32_t>(G.Key);
    bool Dominates = GIn == PreIn ? GSub < SubKey
                                  : (GIn < PreIn && PreOut <= G.PreOut);
    if (Dominates)
      break;
    Vals.resize(G.Begin);
    Groups.pop_back();
  }
}

bool ClassInterference::class1Probe(RegId Victim, RegId Killer) {
  // The Class 1 probe of variableKills(Killer, Victim), with
  // defDominates(Victim, Killer) already guaranteed by the stack.
  ++NumProbes;
  return Ctx.liveAcrossDef(Victim, Killer);
}

bool ClassInterference::strongInterfere(const ClassData &A,
                                        const ClassData &B) const {
  // Same-instruction parallel results; phis sharing a block (Case 4).
  if (sortedIntersect(A.MultiDefs, B.MultiDefs))
    return true;
  if (sortedIntersect(A.PhiBlocks, B.PhiBlocks))
    return true;
  // Case 3: a shared predecessor carries parallel copies into the merged
  // resource; legal only when both sides move one and the same value.
  size_t I = 0, J = 0;
  while (I < A.PredArgs.size() && J < B.PredArgs.size()) {
    const PredArg &PA = A.PredArgs[I], &PB = B.PredArgs[J];
    if (PA.Block < PB.Block) {
      ++I;
    } else if (PB.Block < PA.Block) {
      ++J;
    } else {
      if (PA.Multi || PB.Multi || PA.Val != PB.Val)
        return true;
      ++I;
      ++J;
    }
  }
  return false;
}

bool ClassInterference::sweep(RegId RA, RegId RB) {
  const ClassData &A = Data[RA];
  const ClassData &B = Data[RB];
  ++NumSweeps;
  PairCost += uint64_t(A.Items.size()) * B.Items.size();

  StackA.clear();
  StackB.clear();
  size_t IA = 0, IB = 0, SA = 0, SB = 0;

  auto ProbeGroup = [&](const VictimStack &Victims, RegId Killer) {
    if (Victims.Groups.empty())
      return false;
    for (size_t K = Victims.Groups.back().Begin; K < Victims.Vals.size(); ++K)
      if (class1Probe(Victims.Vals[K], Killer))
        return true;
    return false;
  };
  auto ProbeSlot = [&](const VictimStack &Victims, const SlotItem &S) {
    if (Victims.Groups.empty())
      return false;
    for (size_t K = Victims.Groups.back().Begin; K < Victims.Vals.size();
         ++K) {
      RegId X = Victims.Vals[K];
      if (X == S.Incoming)
        continue;
      ++NumProbes;
      if (LV.isLiveOut(X, S.Pred))
        return true;
    }
    return false;
  };

  while (IA < A.Items.size() || IB < B.Items.size() || SA < A.Slots.size() ||
         SB < B.Slots.size()) {
    uint64_t Key = UINT64_MAX;
    if (IA < A.Items.size())
      Key = std::min(Key, A.Items[IA].Key);
    if (IB < B.Items.size())
      Key = std::min(Key, B.Items[IB].Key);
    if (SA < A.Slots.size())
      Key = std::min(Key, A.Slots[SA].Key);
    if (SB < B.Slots.size())
      Key = std::min(Key, B.Slots[SB].Key);

    uint32_t PreIn = static_cast<uint32_t>(Key >> 32);
    uint32_t SubKey = static_cast<uint32_t>(Key);

    if (SubKey != SlotSubKey) {
      // A definition group: all parallel defs at this position, from
      // both classes. Probe each against the other class's nearest
      // non-killed group, then push the non-killed survivors — deferred
      // so parallel defs never see each other as victims.
      size_t BeginA = IA, BeginB = IB;
      uint32_t PreOut = 0;
      while (IA < A.Items.size() && A.Items[IA].Key == Key)
        PreOut = A.Items[IA++].PreOut;
      while (IB < B.Items.size() && B.Items[IB].Key == Key)
        PreOut = B.Items[IB++].PreOut;
      StackA.popTo(PreIn, SubKey, PreOut);
      StackB.popTo(PreIn, SubKey, PreOut);

      for (size_t K = BeginA; K < IA; ++K)
        if (ProbeGroup(StackB, A.Items[K].V))
          return true;
      for (size_t K = BeginB; K < IB; ++K)
        if (ProbeGroup(StackA, B.Items[K].V))
          return true;

      auto Push = [](VictimStack &S, const ClassData &D, size_t Begin,
                     size_t End, const PinningContext &Ctx) {
        uint32_t VBegin = static_cast<uint32_t>(S.Vals.size());
        for (size_t K = Begin; K < End; ++K)
          if (!Ctx.isKilled(D.Items[K].V))
            S.Vals.push_back(D.Items[K].V);
        if (S.Vals.size() != VBegin)
          S.Groups.push_back(VictimStack::Group{D.Items[Begin].Key,
                                                D.Items[Begin].PreOut,
                                                VBegin});
      };
      if (BeginA != IA)
        Push(StackA, A, BeginA, IA, Ctx);
      if (BeginB != IB)
        Push(StackB, B, BeginB, IB, Ctx);
    } else {
      // Class 2 slots at the end of one predecessor block: the parallel
      // copy clobbers every live-out value of the other class except the
      // one flowing through it.
      uint32_t PreOut = 0;
      size_t BeginSA = SA, BeginSB = SB;
      while (SA < A.Slots.size() && A.Slots[SA].Key == Key)
        PreOut = A.Slots[SA++].PreOut;
      while (SB < B.Slots.size() && B.Slots[SB].Key == Key)
        PreOut = B.Slots[SB++].PreOut;
      StackA.popTo(PreIn, SubKey, PreOut);
      StackB.popTo(PreIn, SubKey, PreOut);

      for (size_t K = BeginSA; K < SA; ++K)
        if (ProbeSlot(StackB, A.Slots[K]))
          return true;
      for (size_t K = BeginSB; K < SB; ++K)
        if (ProbeSlot(StackA, B.Slots[K]))
          return true;
    }
  }
  return false;
}

bool ClassInterference::computeUncached(RegId RA, RegId RB) {
  if (strongInterfere(Data[RA], Data[RB]))
    return true;
  return sweep(RA, RB);
}

bool ClassInterference::interfere(RegId RA, RegId RB) {
  assert(RA != RB && Ctx.resourceOf(RA) == RA && Ctx.resourceOf(RB) == RB &&
         "interfere() takes two distinct current representatives");
  uint64_t Key = pairKey(RA, RB);
  auto It = Cache.find(Key);
  if (It != Cache.end()) {
    ++NumCacheHits;
    return It->second;
  }
  ++NumQueries;
  size_t QSize = Data[RA].Items.size() + Data[RB].Items.size();
  if (QSize <= 4)
    ++LAO_STAT(classinterf, qsize_le4);
  else if (QSize <= 16)
    ++LAO_STAT(classinterf, qsize_le16);
  else if (QSize <= 64)
    ++LAO_STAT(classinterf, qsize_le64);
  else
    ++LAO_STAT(classinterf, qsize_gt64);

  bool Verdict = computeUncached(RA, RB);
  Cache.emplace(Key, Verdict);
  Partners[RA].push_back(RB);
  Partners[RB].push_back(RA);
  return Verdict;
}

void ClassInterference::evict(RegId R) {
  for (RegId P : Partners[R]) {
    if (Cache.erase(pairKey(R, P)))
      ++NumCacheEvictions;
    // The back-reference in Partners[P] goes stale; a later evict(P)
    // erases the already-gone key, which is harmless.
  }
  Partners[R].clear();
}

void ClassInterference::onMerge(RegId OldA, RegId OldB) {
  // Kills are only added to members of the merged class, and the merged
  // class's contents changed — every cached verdict touching either old
  // representative is stale; no other pair can have moved.
  evict(OldA);
  evict(OldB);

  RegId Keep = Ctx.resourceOf(OldA);
  assert((Keep == OldA || Keep == OldB) && Keep == Ctx.resourceOf(OldB) &&
         "onMerge expects the two pre-merge representatives");
  RegId Other = Keep == OldA ? OldB : OldA;
  ClassData &Dst = Data[Keep];
  ClassData &Src = Data[Other];

  {
    std::vector<DefItem> Out;
    Out.reserve(Dst.Items.size() + Src.Items.size());
    std::merge(Dst.Items.begin(), Dst.Items.end(), Src.Items.begin(),
               Src.Items.end(), std::back_inserter(Out),
               [](const DefItem &A, const DefItem &B) { return A.Key < B.Key; });
    Dst.Items = std::move(Out);
    Src.Items.clear();
    Src.Items.shrink_to_fit();
  }
  {
    std::vector<SlotItem> Out;
    Out.reserve(Dst.Slots.size() + Src.Slots.size());
    std::merge(Dst.Slots.begin(), Dst.Slots.end(), Src.Slots.begin(),
               Src.Slots.end(), std::back_inserter(Out),
               [](const SlotItem &A, const SlotItem &B) {
                 return A.Key != B.Key ? A.Key < B.Key
                                       : A.Incoming < B.Incoming;
               });
    Out.erase(std::unique(Out.begin(), Out.end(),
                          [](const SlotItem &A, const SlotItem &B) {
                            return A.Key == B.Key && A.Incoming == B.Incoming;
                          }),
              Out.end());
    Dst.Slots = std::move(Out);
    Src.Slots.clear();
    Src.Slots.shrink_to_fit();
  }
  mergeSorted(Dst.MultiDefs, Src.MultiDefs, /*Dedup=*/true);
  mergeSorted(Dst.PhiBlocks, Src.PhiBlocks, /*Dedup=*/true);
  {
    std::vector<PredArg> Out;
    Out.reserve(Dst.PredArgs.size() + Src.PredArgs.size());
    size_t I = 0, J = 0;
    while (I < Dst.PredArgs.size() || J < Src.PredArgs.size()) {
      if (J == Src.PredArgs.size() ||
          (I < Dst.PredArgs.size() &&
           Dst.PredArgs[I].Block < Src.PredArgs[J].Block)) {
        Out.push_back(Dst.PredArgs[I++]);
      } else if (I == Dst.PredArgs.size() ||
                 Src.PredArgs[J].Block < Dst.PredArgs[I].Block) {
        Out.push_back(Src.PredArgs[J++]);
      } else {
        PredArg P = Dst.PredArgs[I];
        const PredArg &Q = Src.PredArgs[J];
        P.Multi = P.Multi || Q.Multi || P.Val != Q.Val;
        Out.push_back(P);
        ++I;
        ++J;
      }
    }
    Dst.PredArgs = std::move(Out);
    Src.PredArgs.clear();
    Src.PredArgs.shrink_to_fit();
  }
}
