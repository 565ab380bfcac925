//===- Pipeline.cpp - Out-of-SSA experiment pipelines --------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "outofssa/Pipeline.h"

#include "analysis/AnalysisManager.h"
#include "analysis/LoopInfo.h"
#include "ir/CFG.h"
#include "ir/Verifier.h"
#include "outofssa/Constraints.h"
#include "outofssa/MoveStats.h"
#include "outofssa/NaiveABI.h"
#include "support/BitVector.h"
#include "support/Stats.h"
#include "support/StringUtils.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace lao;

bool lao::prepareInput(Function &F, std::string &Error) {
  if (F.numBlocks() == 0)
    return true;
  std::vector<bool> Dead(F.numBlocks(), true);
  std::vector<BasicBlock *> Stack{&F.entry()};
  Dead[0] = false;
  size_t NumReachable = 1;
  while (!Stack.empty()) {
    BasicBlock *BB = Stack.back();
    Stack.pop_back();
    for (BasicBlock *S : BB->successors())
      if (Dead[S->id()]) {
        Dead[S->id()] = false;
        ++NumReachable;
        Stack.push_back(S);
      }
  }

  BitVector Defined(F.numValues());
  for (const auto &BB : F.blocks()) {
    if (Dead[BB->id()])
      continue;
    for (const Instruction &I : BB->instructions())
      for (RegId D : I.defs()) {
        if (F.isPhysical(D))
          continue;
        if (Defined.test(D)) {
          Error = formatStr("%%%s is defined more than once; the pipeline "
                            "needs SSA input",
                            F.valueName(D).c_str());
          return false;
        }
        Defined.set(D);
      }
  }
  // Phi operands flowing in from a dead block are dropped with it.
  for (const auto &BB : F.blocks()) {
    if (Dead[BB->id()])
      continue;
    for (const Instruction &I : BB->instructions())
      for (unsigned K = 0; K < I.numUses(); ++K) {
        RegId U = I.use(K);
        if (F.isPhysical(U) || Defined.test(U) ||
            (I.isPhi() && Dead[I.incomingBlock(K)->id()]))
          continue;
        Error = formatStr("%%%s is used but never defined; the pipeline "
                          "needs SSA input",
                          F.valueName(U).c_str());
        return false;
      }
  }

  if (NumReachable != F.numBlocks())
    F.eraseBlocks(Dead);
  // What is left must be well formed: phis at the top of a non-entry
  // block, one incoming per predecessor, input first in the entry.
  std::vector<std::string> Diags = verifyStructure(F);
  if (!Diags.empty()) {
    Error = Diags.front();
    return false;
  }
  return true;
}

std::optional<PipelineConfig> lao::pipelinePresetOpt(const std::string &Name) {
  PipelineConfig C;
  C.Name = Name;
  if (Name == "Lphi+C") {
    C.PinPhi = C.Coalesce = true;
  } else if (Name == "C") {
    C.Coalesce = true;
  } else if (Name == "Sphi+C") {
    C.Sreedhar = C.Coalesce = true;
  } else if (Name == "Lphi,ABI+C") {
    C.PinABI = C.PinPhi = C.Coalesce = true;
  } else if (Name == "Sphi+LABI+C") {
    C.Sreedhar = C.PinABI = C.Coalesce = true;
  } else if (Name == "LABI+C") {
    C.PinABI = C.Coalesce = true;
  } else if (Name == "C,naiveABI+C") {
    C.NaiveABI = C.Coalesce = true;
  } else if (Name == "Lphi,ABI") {
    C.PinABI = C.PinPhi = true;
  } else if (Name == "Sphi") {
    C.Sreedhar = C.NaiveABI = true;
  } else if (Name == "LABI") {
    C.PinABI = true;
  } else {
    return std::nullopt;
  }
  return C;
}

PipelineConfig lao::pipelinePreset(const std::string &Name) {
  if (std::optional<PipelineConfig> C = pipelinePresetOpt(Name))
    return *C;
  // Unconditionally fatal: an assert here compiles out of NDEBUG builds
  // and a silently-default config corrupts every downstream measurement.
  std::fprintf(stderr,
               "lao: fatal: unknown pipeline preset '%s' "
               "(see outofssa/Pipeline.h for the Table 1 names)\n",
               Name.c_str());
  std::abort();
}

PipelineResult lao::runPipeline(Function &F, const PipelineConfig &Config) {
  AnalysisManager AM(F);
  return runPipeline(F, Config, AM);
}

PipelineResult lao::runPipeline(Function &F, const PipelineConfig &Config,
                                AnalysisManager &AM) {
  PipelineResult R;
  ++LAO_STAT(pipeline, runs);
  auto CancelRequested = [&] {
    if (!Config.CancelCheck || !Config.CancelCheck())
      return false;
    ++LAO_STAT(pipeline, cancellations);
    R.Cancelled = true;
    return true;
  };
  if (CancelRequested())
    return R;

  {
    ScopedTimer T(R.Timings, "split-critical-edges");
    if (!prepareInput(F, R.InputError))
      return R;
    splitCriticalEdges(F);
  }

  {
    ScopedTimer T(R.Timings, "constraints");
    collectSPConstraints(F);
    if (Config.PinABI)
      collectABIConstraints(F);
  }

  // One analysis manager for the rest of the pipeline: the passes above
  // add blocks and edges and read no analysis, everything below only
  // rewrites instructions inside existing blocks, so CFG / dominators /
  // loop info are computed once and every pass declares what else it
  // preserved. The manager may be a worker-owned one carrying caches
  // from a previous request's function — reset rebinds it to F and
  // drops them all.
  AM.reset(F);
  if (Config.Sreedhar) {
    ScopedTimer T(R.Timings, "sreedhar");
    convertToCSSA(F, AM);
    pinCSSAWebs(F);
  }
  if (CancelRequested())
    return R;

  {
    std::optional<ScopedTimer> Analysis(std::in_place, R.Timings,
                                        "pin-analysis");
    PinningContext Ctx(F, AM.cfg(), AM.domTree(), AM.livenessQuery(),
                       Config.Mode);
    // Ctx (and its class-interference verdict cache) holds references
    // into AM's CFG / dominators / liveness: they must stay cached for
    // Ctx's whole lifetime. The epoch pins that contract.
    uint64_t CtxEpoch = AM.epoch();
    Analysis.reset();
    if (Config.PinPhi) {
      ScopedTimer T(R.Timings, "phi-coalescing");
      coalescePhis(F, Ctx, AM.cfg(), AM.loopInfo(), Config.PhiOpts);
      // Phi-coalescing only merges pinning classes; nothing is stale.
      AM.invalidate(PreservedAnalyses::all());
      assert(AM.epoch() == CtxEpoch &&
             "phi-coalescing must preserve the analyses PinningContext and "
             "its interference cache were built from");
    }
    Ctx.countClassSizes();
    (void)CtxEpoch;
    {
      ScopedTimer T(R.Timings, "translate");
      translateOutOfSSA(F, Ctx);
    }
  }
  // Translation replaced the instruction lists (blocks and branch targets
  // are untouched): anything instruction-derived is stale.
  AM.invalidate(PreservedAnalyses::cfgOnly());
  if (CancelRequested())
    return R;
  {
    ScopedTimer T(R.Timings, "sequentialize");
    sequentializeParallelCopies(F);
    AM.invalidate(PreservedAnalyses::cfgOnly());
  }

  if (Config.NaiveABI) {
    ScopedTimer T(R.Timings, "naive-abi");
    lowerABINaively(F);
    sequentializeParallelCopies(F);
    AM.invalidate(PreservedAnalyses::cfgOnly());
  }

  R.MovesBeforeCoalesce = countMoves(F);
  if (CancelRequested())
    return R;

  if (Config.Coalesce) {
    ScopedTimer T(R.Timings, "coalesce");
    coalesceAggressively(F, {}, &AM);
    // The zero-rebuild coalescer maintains AM's dense liveness exactly
    // through every merge round (and, when it merged, leaves its repaired
    // interference graph cached and exact) — weightedMoveCount below and
    // any later consumer keep riding the same cache.
    assert(AM.isCached(AnalysisKind::Liveness) &&
           "coalesceAggressively must preserve the managed liveness");
  }

  R.NumMoves = countMoves(F);
  R.WeightedMoves = weightedMoveCount(F, AM);
  return R;
}
