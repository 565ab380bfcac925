//===- RegAlloc.cpp - Register allocation driver --------------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// The strategy-independent half of the allocator tier: preset parsing,
// the shared build infrastructure (pool, spill costs, virtual-register
// collection), and the round loop that alternates a coloring strategy
// (AllocatorStrategy.h) with a spill model (SpillModel.h) until the
// function colors or the round budget runs out.
//
//===----------------------------------------------------------------------===//

#include "regalloc/RegAlloc.h"

#include "analysis/InterferenceGraph.h"
#include "analysis/LoopInfo.h"
#include "ir/CFG.h"
#include "regalloc/AllocatorStrategy.h"
#include "regalloc/SpillModel.h"
#include "support/Stats.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <numeric>

using namespace lao;

std::vector<RegId> lao::collectVirtualRegs(const Function &F) {
  std::set<RegId> Seen;
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions()) {
      for (RegId D : I.defs())
        if (!F.isPhysical(D))
          Seen.insert(D);
      for (RegId U : I.uses())
        if (!F.isPhysical(U))
          Seen.insert(U);
    }
  return std::vector<RegId>(Seen.begin(), Seen.end());
}

std::vector<RegId> lao::allocatablePool(unsigned NumRegs) {
  static_assert(Target::R0 == 0 && Target::P0 == 8 && Target::P3 == 11,
                "pool register i is RegId i");
  std::vector<RegId> Pool(std::min(NumRegs, MaxAllocatableRegs));
  std::iota(Pool.begin(), Pool.end(), RegId(Target::R0));
  return Pool;
}

std::vector<double> lao::spillCosts(const Function &F, const CFG &Cfg) {
  DominatorTree DT(Cfg);
  LoopInfo LI(Cfg, DT);
  std::vector<double> Cost(F.numValues(), 0.0);
  for (const auto &BB : F.blocks()) {
    double W = 1;
    for (unsigned D = 0; D < LI.depth(BB.get()); ++D)
      W *= 5;
    for (const Instruction &I : BB->instructions()) {
      for (RegId D : I.defs())
        if (!F.isPhysical(D))
          Cost[D] += W;
      for (RegId U : I.uses())
        if (!F.isPhysical(U))
          Cost[U] += W;
    }
  }
  return Cost;
}

ColorMask lao::forbiddenColors(const InterferenceGraph &IG, RegId V,
                               unsigned K, const std::vector<RegId> &ColorOf) {
  ColorMask Taken = 0;
  for (RegId N : IG.neighbors(V)) {
    RegId C = N < K ? N : ColorOf[N];
    if (C != InvalidReg)
      Taken |= ColorMask(1) << C;
  }
  return Taken;
}

//===----------------------------------------------------------------------===//
// Preset names
//===----------------------------------------------------------------------===//

const char *lao::allocatorName(AllocatorKind K) {
  switch (K) {
  case AllocatorKind::ChaitinBriggs:
    return "chaitin-briggs";
  case AllocatorKind::Chordal:
    return "chordal";
  }
  return "unknown";
}

const char *lao::spillModelName(SpillModelKind K) {
  switch (K) {
  case SpillModelKind::SpillEverywhere:
    return "spill-everywhere";
  case SpillModelKind::LoadStoreOpt:
    return "load-store-opt";
  }
  return "unknown";
}

std::optional<RegAllocOptions>
lao::regAllocPresetOpt(const std::string &Name) {
  RegAllocOptions Opts;
  std::string Alloc = Name, Spill;
  size_t Slash = Name.find('/');
  if (Slash != std::string::npos) {
    Alloc = Name.substr(0, Slash);
    Spill = Name.substr(Slash + 1);
  }
  if (Alloc == "chaitin-briggs")
    Opts.Allocator = AllocatorKind::ChaitinBriggs;
  else if (Alloc == "chordal")
    Opts.Allocator = AllocatorKind::Chordal;
  else
    return std::nullopt;
  if (!Spill.empty() || Slash != std::string::npos) {
    if (Spill == "spill-everywhere")
      Opts.SpillMode = SpillModelKind::SpillEverywhere;
    else if (Spill == "load-store-opt")
      Opts.SpillMode = SpillModelKind::LoadStoreOpt;
    else
      return std::nullopt;
  }
  return Opts;
}

std::unique_ptr<AllocatorStrategy> lao::makeAllocatorStrategy(AllocatorKind K) {
  switch (K) {
  case AllocatorKind::ChaitinBriggs:
    return makeChaitinBriggsStrategy();
  case AllocatorKind::Chordal:
    return makeChordalStrategy();
  }
  return makeChaitinBriggsStrategy();
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

RegAllocResult lao::allocateRegisters(Function &F,
                                      const RegAllocOptions &Opts) {
  RegAllocResult Result;
  ++LAO_STAT(regalloc, runs);
  auto Fail = [&Result](std::string Error) {
    Result.Error = std::move(Error);
    ++LAO_STAT(regalloc, failures);
    return Result;
  };
  if (Opts.NumRegs < 2)
    return Fail("need at least two allocatable registers");
  for (const auto &BB : F.blocks())
    for (const Instruction &I : BB->instructions())
      if (I.isPhi() || I.isParCopy())
        return Fail(formatStr("input has a %s in block %s; register "
                              "allocation needs non-SSA code, run an "
                              "out-of-SSA pipeline first",
                              opcodeName(I.op()), BB->name().c_str()));
  std::vector<RegId> Pool = allocatablePool(Opts.NumRegs);
  std::unique_ptr<AllocatorStrategy> Strategy =
      makeAllocatorStrategy(Opts.Allocator);
  std::unique_ptr<SpillModel> Model = makeSpillModel(Opts.SpillMode);
  std::set<RegId> NoSpill;

  unsigned MaxRounds = std::max(Opts.MaxRounds, 1u);
  for (unsigned Round = 0; Round < MaxRounds; ++Round) {
    ++Result.NumRounds;
    ++LAO_STAT(regalloc, rounds);
    std::vector<RegId> Color;
    std::vector<RegId> Spills;
    if (Strategy->tryColor(F, Pool, NoSpill, Color, Spills)) {
      // Rewrite operands to their colors.
      ColorMask Used = 0;
      auto ColorOf = [&](RegId V) {
        assert(Color[V] != InvalidReg && "strategy left a virtual uncolored");
        Used |= ColorMask(1) << Color[V];
        return Color[V];
      };
      for (const auto &BB : F.blocks())
        for (Instruction &I : BB->instructions()) {
          for (unsigned K = 0; K < I.numDefs(); ++K)
            if (!F.isPhysical(I.def(K)))
              I.setDef(K, ColorOf(I.def(K)));
          for (unsigned K = 0; K < I.numUses(); ++K)
            if (!F.isPhysical(I.use(K)))
              I.setUse(K, ColorOf(I.use(K)));
        }
      Result.NumRegsUsed = std::popcount(Used);
      Result.FrameBytes = 8 * Model->frameSlots();
      Result.Ok = true;
      LAO_STAT(regalloc, spill_loads) += Result.NumSpillLoads;
      LAO_STAT(regalloc, spill_stores) += Result.NumSpillStores;
      return Result;
    }
    // Spill and retry. A spilled no-spill temp means the pool is too
    // small for a single instruction's operands.
    for (RegId V : Spills)
      if (NoSpill.count(V))
        return Fail(formatStr(
            "cannot allocate: instruction needs more than %zu registers",
            Pool.size()));
    Model->insertSpillCode(F, Spills, NoSpill, Result);
  }
  return Fail(formatStr(
      "register allocation did not converge after %u spill rounds",
      MaxRounds));
}
