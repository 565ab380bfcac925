//===- abi_constraints.cpp - The paper's Figure 1, end to end -------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Walks the paper's Figure 1 — the motivating example of renaming
// constraints — through every phase, printing the pinned SSA, the
// reconstruction, and the pinning legality diagnostics for Figure 2's
// illegal SP pinning.
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
  OutOfSSAStats Stats = translateOutOfSSA(*F, Ctx);
  sequentializeParallelCopies(*F);

  std::printf("=== Figure 1: after out-of-pinned-SSA ===\n%s\n",
              printFunction(*F).c_str());
  std::printf("moves: %u, elided copies: %u, repairs: %u\n\n",
              countMoves(*F), Stats.NumElidedCopies, Stats.NumRepairs);

  ExecResult RB = interpret(*Before, {10, 0x2000});
  ExecResult RA = interpret(*F, {10, 0x2000});
  std::printf("behaviour preserved: %s (ret %llu)\n\n",
              RB.sameObservable(RA) ? "yes" : "NO",
              static_cast<unsigned long long>(RA.RetValue));

  // ---- Figure 2: the SP over-pinning the paper calls incorrect. ----
  auto Fig2 = makeFigure2();
  std::printf("=== Figure 2: over-constrained SP pinning ===\n%s\n",
              printFunction(*Fig2).c_str());
  std::printf("pinning legality diagnostics:\n");
  for (const std::string &D : verifyPinning(*Fig2))
    std::printf("  %s\n", D.c_str());
  return 0;
}
