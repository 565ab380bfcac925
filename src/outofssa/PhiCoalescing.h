//===- PhiCoalescing.h - Pinning-based phi coalescing -----------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution (Section 3): a coalescing phase that
/// runs *before* the out-of-SSA reconstruction and expresses its decisions
/// as variable pinning. Per confluence block, visited inner-to-outer
/// (most deeply nested loops first):
///
///   1. Create_affinity_graph: vertices are resources (pinning classes),
///      one affinity edge per (phi result, phi argument) pair, with
///      multiplicities (Algorithm 2; Algorithm 3 adds the depth filter of
///      the Table 5 "depth" variant).
///   2. Graph_InitialPruning: drop edges whose endpoint resources
///      interfere (Resource_interfere).
///   3. BipartiteGraph_pruning: weigh each remaining edge by how many
///      neighbour resources interfere across it, then greedily delete the
///      heaviest edges until no positive weight remains.
///   4. PrunedGraph_pinning: merge each connected component into a single
///      resource (the physical register if the component has one) and pin
///      all member definitions to it.
///
/// The resulting pinning makes Leung & George's reconstruction emit no
/// move for each phi argument sharing its result's resource.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_OUTOFSSA_PHICOALESCING_H
#define LAO_OUTOFSSA_PHICOALESCING_H

#include "analysis/LoopInfo.h"
#include "outofssa/PinningContext.h"

namespace lao {

/// Edge-selection heuristic used by the pruning loop (ablation knob; the
/// paper uses Weighted).
enum class PruneHeuristic {
  Weighted,  ///< Paper: heaviest edge first.
  FirstFound ///< Ablation: arbitrary positive-weight edge.
};

struct PhiCoalescingOptions {
  /// Table 5 "depth" variant: build affinity graphs per definition depth,
  /// processed from the innermost depth outwards (Algorithm 3).
  bool DepthConstrained = false;
  PruneHeuristic Heuristic = PruneHeuristic::Weighted;
  /// Minimum phi-edge multiplicity required before a component joins a
  /// *physical* register class (Figure 8 partial coalescing). 1 merges
  /// on any affinity; large values never merge with machine registers,
  /// leaving them to the post coalescer. Default 2: measured best (see
  /// the ablation table of bench_tables).
  unsigned PhysMergeMinMult = 2;
  /// Also pin each variable to the resource of its pinned uses when that
  /// creates no interference — the pre-pass the paper sketches against
  /// Leung & George's limitation [LIM2]. Off by default: measured on the
  /// suites it trades pin copies for phi copies and repairs at a net
  /// loss (see the ablation table of bench_tables), which matches the
  /// paper leaving it as a remark rather than implementing it.
  bool UsePinAffinity = false;
};

/// Runs the pinning-based phi coalescing over \p F, updating \p Ctx's
/// resource classes and the def-operand pins of coalesced variables.
///
/// One deliberate strengthening over the paper's pseudo-code: weight-0
/// pruning does not by itself guarantee that *transitively* connected
/// component members never interfere, so components are merged
/// incrementally and a vertex whose resource interferes with the
/// accumulated class is skipped (counted by phicoalesce.safety_skips).
/// This keeps the pinning free of strong interference in all cases.
///
/// The affinity edges, prunings, merges, class-pair queries and the
/// final gain (phi arguments sharing their result's resource) are
/// counted by the phicoalesce.* counters.
void coalescePhis(Function &F, PinningContext &Ctx, const CFG &Cfg,
                  const LoopInfo &LI, const PhiCoalescingOptions &Opts = {});

} // namespace lao

#endif // LAO_OUTOFSSA_PHICOALESCING_H
