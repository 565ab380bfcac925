//===- abi_constraints.cpp - The paper's Figure 1, end to end -------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Walks the paper's Figure 1 — the motivating example of renaming
// constraints — through every phase, printing the pinned SSA, the
// reconstruction, and the pinning legality diagnostics for Figure 2's
// illegal SP pinning. Exits 1 when the translation changes Figure 1's
// behaviour.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"
#include "exec/Interpreter.h"
#include "ir/CFG.h"
#include "ir/Clone.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "outofssa/Constraints.h"
#include "outofssa/LeungGeorge.h"
#include "outofssa/MoveStats.h"
#include "support/Stats.h"
#include "workloads/PaperExamples.h"

#include <cstdio>

using namespace lao;

int main() {
  // ---- Figure 1: ABI parameter passing + 2-operand constraints. ----
  auto F = makeFigure1();
  std::printf("=== Figure 1: pinned SSA code ===\n%s\n",
              printFunction(*F).c_str());

  auto Before = cloneFunction(*F);
  splitCriticalEdges(*F);
  collectSPConstraints(*F);
  collectABIConstraints(*F);

  CFG Cfg(*F);
  DominatorTree DT(Cfg);
  LivenessQuery LV(Cfg, DT);
  PinningContext Ctx(*F, Cfg, DT, LV);
  StatsScope Scope; // Records the translate.* counts of this call.
  translateOutOfSSA(*F, Ctx);
  sequentializeParallelCopies(*F);
  StatsSnapshot Counters = Scope.snapshot();

  std::printf("=== Figure 1: after out-of-pinned-SSA ===\n%s\n",
              printFunction(*F).c_str());
  std::printf("moves: %u, elided copies: %llu, repairs: %llu\n\n",
              countMoves(*F),
              (unsigned long long)Counters["translate.elided_copies"],
              (unsigned long long)Counters["translate.repairs"]);

  ExecResult RB = interpret(*Before, {10, 0x2000});
  ExecResult RA = interpret(*F, {10, 0x2000});
  bool Preserved = RB.sameObservable(RA);
  std::printf("behaviour preserved: %s (ret %llu)\n\n",
              Preserved ? "yes" : "NO",
              static_cast<unsigned long long>(RA.RetValue));

  // ---- Figure 2: the SP over-pinning the paper calls incorrect. ----
  auto Fig2 = makeFigure2();
  std::printf("=== Figure 2: over-constrained SP pinning ===\n%s\n",
              printFunction(*Fig2).c_str());
  std::printf("pinning legality diagnostics:\n");
  for (const std::string &D : verifyPinning(*Fig2))
    std::printf("  %s\n", D.c_str());
  return Preserved ? 0 : 1;
}
