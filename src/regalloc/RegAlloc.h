//===- RegAlloc.h - Register allocation strategy tier -----------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register allocation for the non-SSA machine code produced by the
/// out-of-SSA pipelines. This implements the paper's *downstream
/// consumer*: its [LIM4] remark observes that under register pressure,
/// coalescing decisions change the colorability of the interference
/// graph — the allocators make that effect measurable (bench_regpressure).
///
/// The tier is two orthogonal axes, selected through RegAllocOptions:
///
///  * **Allocator** (AllocatorStrategy.h) — how a round colors the
///    interference graph:
///      - `chaitin-briggs`: Briggs-style optimistic simplify/select;
///        potential spill choice by lowest (occurrences weighted
///        5^loopdepth) / degree;
///      - `chordal`: SSA-flavoured greedy coloring in a maximum
///        cardinality search (MCS) order seeded by dominance
///        (DominatorTree::preorderBlocks), with biased coloring that
///        prefers the colors of residual move partners — the affinities
///        the coalescer could not merge.
///  * **Spill model** (SpillModel.h) — how a failed round rewrites the
///    function:
///      - `spill-everywhere`: a store after each definition, a load
///        before each use;
///      - `load-store-opt`: per-block load reuse (a reload or the def's
///        store temp forwards to later uses), redundant-store
///        elimination, and dropping stores of values never reloaded.
///
/// Shared by every combination: allocatable classes are the
/// general-purpose registers R0..R7 for all virtuals except SP
/// (dedicated, never allocated); P0..P3 join the pool as general
/// registers (the mini-LAI ISA does not restrict pointer operands);
/// physical operands are precolored nodes; spill slots are absolute
/// addresses assigned deterministically (ascending RegId per round);
/// the result is verified structurally (no virtual registers remain)
/// and behaviourally (the interpreter oracle, in tests).
///
//===----------------------------------------------------------------------===//

#ifndef LAO_REGALLOC_REGALLOC_H
#define LAO_REGALLOC_REGALLOC_H

#include "ir/Function.h"

#include <optional>

namespace lao {

/// Which coloring strategy a round uses (see file comment).
enum class AllocatorKind {
  ChaitinBriggs,
  Chordal,
};

/// How spill decisions are materialized as loads/stores (see file
/// comment).
enum class SpillModelKind {
  SpillEverywhere,
  LoadStoreOpt,
};

/// The pool's size limit: R0..R7 and P0..P3.
constexpr unsigned MaxAllocatableRegs = 12;

struct RegAllocOptions {
  AllocatorKind Allocator = AllocatorKind::ChaitinBriggs;
  SpillModelKind SpillMode = SpillModelKind::SpillEverywhere;
  /// Number of general-purpose registers available (taken from
  /// R0..R7, P0..P3 in that order). Lowering this creates the "strong
  /// register pressure" regime of the paper's [LIM4].
  unsigned NumRegs = 12;
  /// Hard cap on build/simplify/select rounds. Each round spills at
  /// least one value, so convergence is the norm within a handful of
  /// rounds; the cap turns any pathological pressure setting (or a
  /// future spill-choice bug) into a structured
  /// `RegAllocResult{Ok=false}` instead of an unbounded retry loop —
  /// mandatory now that the allocator can run inside a long-lived
  /// compile service. 0 is normalized to 1.
  unsigned MaxRounds = 32;
};

/// Wire/CLI name of \p K ("chaitin-briggs", "chordal").
const char *allocatorName(AllocatorKind K);

/// Wire/CLI name of \p K ("spill-everywhere", "load-store-opt").
const char *spillModelName(SpillModelKind K);

/// Parses an allocator preset "<allocator>[/<spill-model>]" — e.g.
/// "chordal", "chaitin-briggs/load-store-opt" — into options carrying
/// the default NumRegs/MaxRounds. Returns std::nullopt for an unknown
/// name (mirrors pipelinePresetOpt).
std::optional<RegAllocOptions> regAllocPresetOpt(const std::string &Name);

struct RegAllocResult {
  bool Ok = false;           ///< False if allocation failed (see Error).
  std::string Error;
  unsigned NumRounds = 0;    ///< Build/simplify/select iterations.
  unsigned NumSpilled = 0;   ///< Distinct values spilled to the stack.
  unsigned NumSpillLoads = 0;
  unsigned NumSpillStores = 0;
  unsigned NumRegsUsed = 0;  ///< Distinct physical registers assigned.
  unsigned FrameBytes = 0;   ///< Spill frame size (8 bytes per slot).
};

/// Allocates every virtual register of non-SSA \p F (no phis, no
/// parallel copies) to a physical register, inserting spill code as
/// needed. Mutates F; afterwards all operands are physical. A thin
/// driver over the AllocatorStrategy / SpillModel selected by \p Opts.
/// Input with a phi or a parallel copy fails (Ok=false) untouched.
RegAllocResult allocateRegisters(Function &F,
                                 const RegAllocOptions &Opts = {});

/// Returns the virtual registers still referenced by \p F (empty after
/// a successful allocation), in ascending RegId order.
std::vector<RegId> collectVirtualRegs(const Function &F);

} // namespace lao

#endif // LAO_REGALLOC_REGALLOC_H
