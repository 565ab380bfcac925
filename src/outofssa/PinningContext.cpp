//===- PinningContext.cpp - Resource classes and interference -----------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "outofssa/PinningContext.h"

#include "outofssa/ClassInterference.h"
#include "support/Stats.h"

#include <cassert>

using namespace lao;

PinningContext::VerdictObserver PinningContext::Observer = nullptr;

std::vector<DefSite> lao::collectDefSites(const Function &F) {
  std::vector<DefSite> Defs(F.numValues());
  for (const auto &BB : F.blocks()) {
    unsigned Order = 0;
    for (auto It = BB->instructions().begin(),
              End = BB->instructions().end();
         It != End; ++It, ++Order) {
      for (RegId D : It->defs()) {
        if (F.isPhysical(D))
          continue;
        assert(!Defs[D].Valid && "collectDefSites requires SSA input");
        Defs[D] = DefSite{BB.get(), &*It, It, Order, true};
      }
    }
  }
  return Defs;
}

PinningContext::PinningContext(const Function &F, const CFG &Cfg,
                               const DominatorTree &DT, const LivenessQuery &LV,
                               InterferenceMode Mode)
    : F(F), Cfg(Cfg), DT(DT), LV(LV), Mode(Mode) {
  size_t N = F.numValues();
  Classes.grow(N);
  Members.resize(N);
  KilledMask.resize(N);
  PinSites.resize(N);
  Defs = collectDefSites(F);

  for (RegId V = 0; V < N; ++V)
    Members[V].push_back(V);

  for (const auto &BB : F.blocks()) {
    (void)BB;
    assert((BB->empty() || Cfg.isReachable(BB.get())) &&
           "PinningContext requires every non-empty block to be reachable");
  }

  // Record use-pin copy sites (pin copies clobber the target resource).
  for (const auto &BB : F.blocks())
    for (auto It = BB->instructions().begin(),
              End = BB->instructions().end();
         It != End; ++It) {
      if (It->isPhi())
        continue; // Phi argument copies are modeled by Class 2.
      for (unsigned K = 0; K < It->numUses(); ++K)
        if (It->usePin(K) != InvalidReg)
          PinSites[It->usePin(K)].push_back(
              PinSite{BB.get(), It, It->use(K)});
    }

  // Seed the killed mask with self-kills (the lost-copy situation: a phi
  // result live out of a predecessor it does not flow through).
  for (RegId V = 0; V < N; ++V)
    if (Defs[V].Valid && variableKills(V, V))
      KilledMask.set(V);

  // Build initial classes from def-operand pins (variable pinning given
  // by ABI/SP constraint collection).
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      for (unsigned K = 0; K < I.numDefs(); ++K)
        if (I.defPin(K) != InvalidReg)
          pinTogether(I.def(K), I.defPin(K));
}

PinningContext::~PinningContext() = default;

RegId PinningContext::pinTogether(RegId A, RegId B) {
  RegId RA = Classes.find(A), RB = Classes.find(B);
  if (RA == RB)
    return RA;
  assert(!(F.isPhysical(RA) && F.isPhysical(RB)) &&
         "cannot merge two physical resources");

  // Update the killed mask: a member becomes killed if some member of
  // the other side kills it (mandatory pinnings may introduce such
  // kills; checked merges by construction only add kills of
  // already-killed members, which is idempotent). Setting bits as we go
  // is safe: neither variableKills nor pinSiteKills reads the mask.
  for (RegId X : Members[RA])
    for (RegId Y : Members[RB]) {
      if (variableKills(X, Y))
        KilledMask.set(Y);
      if (variableKills(Y, X))
        KilledMask.set(X);
    }
  // Pin-copy kills across the merge.
  for (const PinSite &S : PinSites[RA])
    for (RegId Y : Members[RB])
      if (pinSiteKills(S, Y))
        KilledMask.set(Y);
  for (const PinSite &S : PinSites[RB])
    for (RegId X : Members[RA])
      if (pinSiteKills(S, X))
        KilledMask.set(X);

  // Keep the physical register (if any) as the representative.
  RegId Keep = F.isPhysical(RB) ? RB : RA;
  RegId Other = Keep == RA ? RB : RA;
  RegId Rep = Classes.merge(Keep, Other, /*PreferA=*/true);
  assert(Rep == Keep && "representative preference violated");

  auto &Dst = Members[Keep];
  auto &Src = Members[Other];
  Dst.insert(Dst.end(), Src.begin(), Src.end());
  Src.clear();
  auto &DstSites = PinSites[Keep];
  auto &SrcSites = PinSites[Other];
  DstSites.insert(DstSites.end(), SrcSites.begin(), SrcSites.end());
  SrcSites.clear();
  if (Engine)
    Engine->onMerge(RA, RB);
  return Rep;
}

bool PinningContext::pinSiteKills(const PinSite &S, RegId X) const {
  if (S.UsedVar == X || !Defs[X].Valid)
    return false;
  // The copy executes immediately before S's instruction; X dies there
  // only if nothing reads it at or after that point.
  return LV.isLiveBefore(X, S.BB, S.Pos);
}

bool PinningContext::variableKills(RegId A, RegId B) const {
  const DefSite &DA = Defs[A];
  if (!DA.Valid || !Defs[B].Valid)
    return false;

  // Class 1: B defined first, still live when A's definition writes the
  // shared resource.
  if (A != B && defDominates(DT, Defs[B], DA) && liveAcrossDef(B, A))
    return true;

  // Class 2: A is a phi; the parallel copy writing A's resource at the
  // end of predecessor Bi clobbers B if B lives through that copy and is
  // not the value flowing into it.
  if (DA.I->isPhi()) {
    const Instruction &Phi = *DA.I;
    for (unsigned K = 0; K < Phi.numUses(); ++K) {
      const BasicBlock *Bi = Phi.incomingBlock(K);
      if (Phi.use(K) != B && LV.isLiveOut(B, Bi))
        return true;
    }
  }
  return false;
}

bool PinningContext::resourceInterfere(RegId A, RegId B) const {
  RegId RA = Classes.find(A), RB = Classes.find(B);
  if (RA == RB)
    return false;
  if (F.isPhysical(RA) && F.isPhysical(RB))
    return true;

  if (!Engine)
    Engine = std::make_unique<ClassInterference>(*this, DT, LV);
  bool Verdict = Engine->interfere(RA, RB);
  if (Observer)
    Observer(*this, RA, RB, Verdict);
  return Verdict;
}

void PinningContext::countClassSizes() const {
  uint64_t Hist[6] = {0, 0, 0, 0, 0, 0};
  size_t N = F.numValues();
  for (RegId V = 0; V < N; ++V) {
    if (Classes.find(V) != V || Members[V].empty())
      continue;
    size_t Size = Members[V].size();
    // Size-1 classes only matter when the sole member is a real
    // definition or a machine register; skip never-defined value slots.
    if (Size == 1 && !Defs[V].Valid && !F.isPhysical(V))
      continue;
    unsigned Bucket = Size <= 2   ? static_cast<unsigned>(Size - 1)
                      : Size <= 4 ? 2u
                      : Size <= 8 ? 3u
                      : Size <= 16 ? 4u
                                   : 5u;
    ++Hist[Bucket];
  }
  LAO_STAT(pinning, classes) +=
      Hist[0] + Hist[1] + Hist[2] + Hist[3] + Hist[4] + Hist[5];
  LAO_STAT(pinning, class_size_1) += Hist[0];
  LAO_STAT(pinning, class_size_2) += Hist[1];
  LAO_STAT(pinning, class_size_3_4) += Hist[2];
  LAO_STAT(pinning, class_size_5_8) += Hist[3];
  LAO_STAT(pinning, class_size_9_16) += Hist[4];
  LAO_STAT(pinning, class_size_ge17) += Hist[5];
}
