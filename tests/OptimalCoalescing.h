//===- OptimalCoalescing.h - Exact reference for the phi problem -*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper proves the phi coalescing problem NP-complete ([LIM3], with
/// the proof in the companion report) and therefore uses the greedy
/// weighted pruning of Algorithm 2. This module provides the exact
/// reference: per confluence block, an exponential search over edge
/// subsets finds the maximum total multiplicity of affinity edges that
/// can be kept such that no two resources in a connected component
/// interfere (the paper's Conditions 1 and 2).
///
/// It is usable only on small affinity graphs (the search is capped), but
/// the paper's own conclusion — "affinity and interference graphs are
/// usually quite simple" — means real blocks are almost always within
/// reach, so the heuristic's optimality gap can be measured directly
/// (see OptimalCoalescingTests). Test-only code: no library links it.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_TESTS_OPTIMALCOALESCING_H
#define LAO_TESTS_OPTIMALCOALESCING_H

#include "analysis/LoopInfo.h"
#include "outofssa/PinningContext.h"

namespace lao {

struct OptimalGainResult {
  bool Exact = true;      ///< False if some block exceeded the search cap
                          ///< and fell back to the greedy bound.
  unsigned TotalGain = 0; ///< Sum over blocks of kept edge multiplicity.
  unsigned NumBlocks = 0; ///< Confluence blocks evaluated.
};

/// Computes the per-block optimal phi-coalescing gain for the function
/// of \p Cfg under the interference relation of \p Ctx, *without*
/// mutating any pinning.
/// Blocks are evaluated against the initial classes, i.e. this bounds
/// what a single block-local decision could achieve — the quantity the
/// paper's heuristic approximates per block. \p MaxEdges caps the
/// exhaustive search per block.
OptimalGainResult optimalPhiGain(PinningContext &Ctx, const CFG &Cfg,
                                 unsigned MaxEdges = 18);

} // namespace lao

#endif // LAO_TESTS_OPTIMALCOALESCING_H
