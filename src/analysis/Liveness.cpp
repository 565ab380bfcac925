//===- Liveness.cpp - Block-level liveness with phi semantics ----------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "support/Stats.h"

using namespace lao;

namespace {

/// The one liveness solver: per-block summaries, then a backward fixpoint
/// in post-order (reverse RPO, for fast convergence), over the values
/// that \p SlotOf maps to a slot below \p Width (UINT32_MAX: not
/// solved). Phi results count as defs of their block (they are defined
/// at entry); phi arguments are uses at the end of their incoming block,
/// not of the phi's block. Every other instruction, parallel copies
/// included, reads all its uses before writing any def. Fills \p In and
/// \p Out with one Width-bit set per block and returns the number of
/// fixpoint iterations.
template <typename SlotFn>
uint64_t solve(const CFG &Cfg, size_t Width, SlotFn SlotOf,
               std::vector<BitVector> &In, std::vector<BitVector> &Out) {
  const Function &F = Cfg.func();
  size_t NB = F.numBlocks();
  std::vector<BitVector> UeUses(NB, BitVector(Width));
  std::vector<BitVector> Defs(NB, BitVector(Width));
  std::vector<BitVector> PhiOut(NB, BitVector(Width));
  for (const auto &BB : F.blocks()) {
    BitVector &UE = UeUses[BB->id()];
    BitVector &DF = Defs[BB->id()];
    for (const Instruction &I : BB->instructions()) {
      if (I.isPhi()) {
        if (uint32_t S = SlotOf(I.def(0)); S != UINT32_MAX)
          DF.set(S);
        for (unsigned K = 0; K < I.numUses(); ++K)
          if (uint32_t S = SlotOf(I.use(K)); S != UINT32_MAX)
            PhiOut[I.incomingBlock(K)->id()].set(S);
        continue;
      }
      for (RegId U : I.uses())
        if (uint32_t S = SlotOf(U); S != UINT32_MAX && !DF.test(S))
          UE.set(S);
      for (RegId D : I.defs())
        if (uint32_t S = SlotOf(D); S != UINT32_MAX)
          DF.set(S);
    }
  }

  In.assign(NB, BitVector(Width));
  Out.assign(NB, BitVector(Width));
  const auto &Rpo = Cfg.rpo();
  uint64_t Iterations = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++Iterations;
    for (auto It = Rpo.rbegin(); It != Rpo.rend(); ++It) {
      size_t B = (*It)->id();
      BitVector NewOut = PhiOut[B];
      for (BasicBlock *S : Cfg.succs(*It))
        NewOut.orWith(In[S->id()]);
      BitVector NewIn = NewOut;
      NewIn.subtract(Defs[B]);
      NewIn.orWith(UeUses[B]);
      if (!(NewOut == Out[B])) {
        Out[B] = std::move(NewOut);
        Changed = true;
      }
      if (!(NewIn == In[B])) {
        In[B] = std::move(NewIn);
        Changed = true;
      }
    }
  }
  return Iterations;
}

} // namespace

Liveness::Liveness(const CFG &Cfg) : Cfg(Cfg) {
  // A full solve is the restricted solve over every value.
  ++LAO_STAT(liveness, analyses);
  LAO_STAT(liveness, fixpoint_iterations) += solve(
      Cfg, Cfg.func().numValues(),
      [](RegId V) { return static_cast<uint32_t>(V); }, LiveIn, LiveOut);
}

void Liveness::recomputeValues(const std::vector<RegId> &Vars) {
  if (Vars.empty())
    return;
  ++LAO_STAT(liveness, partial_recomputes);
  clearValues(Vars);
  size_t K = Vars.size();

  // Dense slot assignment for just the requested variables.
  std::vector<uint32_t> Slot(Cfg.func().numValues(), UINT32_MAX);
  for (size_t I = 0; I < K; ++I)
    Slot[Vars[I]] = static_cast<uint32_t>(I);

  std::vector<BitVector> In, Out;
  solve(Cfg, K, [&](RegId V) { return Slot[V]; }, In, Out);

  // Set the restricted solution's bits in the full-width sets.
  for (size_t B = 0, NB = LiveIn.size(); B < NB; ++B) {
    In[B].forEach([&](size_t I) { LiveIn[B].set(Vars[I]); });
    Out[B].forEach([&](size_t I) { LiveOut[B].set(Vars[I]); });
  }
}

void Liveness::clearValues(const std::vector<RegId> &Vars) {
  if (Vars.empty())
    return;
  BitVector Mask(Cfg.func().numValues());
  for (RegId V : Vars)
    Mask.set(V);
  for (size_t B = 0, NB = LiveIn.size(); B < NB; ++B) {
    LiveIn[B].subtract(Mask);
    LiveOut[B].subtract(Mask);
  }
}
