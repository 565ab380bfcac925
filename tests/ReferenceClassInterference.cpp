//===- ReferenceClassInterference.cpp - Pairwise Resource_interfere ------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ReferenceClassInterference.h"

#include <gtest/gtest.h>

#include <cassert>
#include <sstream>
#include <string>

using namespace lao;

bool lao::test::stronglyInterfere(const PinningContext &Ctx, RegId A,
                                  RegId B) {
  if (A == B)
    return false;
  const DefSite &DA = Ctx.defSite(A), &DB = Ctx.defSite(B);
  if (!DA.Valid || !DB.Valid)
    return false;

  if (DA.I->isPhi() && DB.I->isPhi()) {
    // Case 4 (and same-block Case 3 degenerate): parallel phis of one
    // block can never share a resource.
    if (DA.BB == DB.BB)
      return true;
    // Case 3: a common predecessor would carry two parallel copies into
    // one resource; legal only if the flowing values coincide.
    const Instruction &PA = *DA.I, &PB = *DB.I;
    for (unsigned I = 0; I < PA.numUses(); ++I) {
      const BasicBlock *Shared = PA.incomingBlock(I);
      for (unsigned J = 0; J < PB.numUses(); ++J)
        if (PB.incomingBlock(J) == Shared && PA.use(I) != PB.use(J))
          return true;
    }
    return false;
  }

  // Two results of one instruction are written in parallel.
  return DA.I == DB.I;
}

bool lao::test::pairwiseResourceInterfere(const PinningContext &Ctx, RegId A,
                                          RegId B) {
  RegId RA = Ctx.resourceOf(A), RB = Ctx.resourceOf(B);
  if (RA == RB)
    return false;
  const Function &F = Ctx.func();
  if (F.isPhysical(RA) && F.isPhysical(RB))
    return true;
  for (RegId X : Ctx.members(RA)) {
    if (!Ctx.defSite(X).Valid)
      continue;
    for (RegId Y : Ctx.members(RB)) {
      if (!Ctx.defSite(Y).Valid)
        continue;
      if (!Ctx.isKilled(X) && Ctx.variableKills(Y, X))
        return true;
      if (!Ctx.isKilled(Y) && Ctx.variableKills(X, Y))
        return true;
      if (stronglyInterfere(Ctx, X, Y))
        return true;
    }
  }
  return false;
}

namespace {

/// State of the one live PairwiseVerdictCheck (the observer is a plain
/// function pointer, so it cannot carry any).
bool Armed = false;
uint64_t Checked = 0;
uint64_t Mismatches = 0;
std::string FirstMismatch;

void checkVerdict(const PinningContext &Ctx, RegId RA, RegId RB,
                  bool Verdict) {
  ++Checked;
  bool Reference = lao::test::pairwiseResourceInterfere(Ctx, RA, RB);
  if (Reference == Verdict || Mismatches++ > 0)
    return;
  const Function &F = Ctx.func();
  std::ostringstream OS;
  OS << "in '" << F.name() << "': classes " << F.valueName(RA) << " / "
     << F.valueName(RB) << ", engine " << Verdict << ", pairwise "
     << Reference;
  FirstMismatch = OS.str();
}

} // namespace

lao::test::PairwiseVerdictCheck::PairwiseVerdictCheck() {
  assert(!Armed && "PairwiseVerdictCheck guards do not nest");
  Armed = true;
  Checked = Mismatches = 0;
  FirstMismatch.clear();
  PinningContext::setVerdictObserver(checkVerdict);
}

lao::test::PairwiseVerdictCheck::~PairwiseVerdictCheck() {
  PinningContext::setVerdictObserver(nullptr);
  Armed = false;
  if (Mismatches > 0)
    ADD_FAILURE() << Mismatches << " of " << Checked
                  << " class-interference verdicts differ from the pairwise "
                     "scan; first "
                  << FirstMismatch;
}

uint64_t lao::test::PairwiseVerdictCheck::numChecked() const {
  return Checked;
}
