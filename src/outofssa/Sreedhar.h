//===- Sreedhar.h - CSSA conversion (Sreedhar et al. method III) -*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The [Sreedhar] baseline (SAS 1999, method III): converts SSA to
/// Conventional SSA by inserting copies so that, for every phi, the
/// congruence classes of its result and arguments can be merged without
/// interference. Each phi is processed independently (the paper's point
/// [CS1]); interfering class pairs choose which side to copy using
/// liveness of the classes at the relevant copy points, deferring the
/// symmetric "neither is live across" case and resolving those greedily
/// ("process the unresolved resources").
///
/// pinCSSAWebs then expresses the resulting phi webs as variable pinning
/// so that the Leung & George translation acts as the out-of-CSSA phase
/// (the paper's pinningCSSA pass).
///
/// Caveat reproduced from the paper: combining this conversion with
/// dedicated-register (SP) constraints can split SP webs illegally; the
/// paper reports its Sreedhar+SP numbers as an "optimistic approximation"
/// and so do we (our reconstruction repairs what it can, and the
/// benches label the configuration accordingly).
///
//===----------------------------------------------------------------------===//

#ifndef LAO_OUTOFSSA_SREEDHAR_H
#define LAO_OUTOFSSA_SREEDHAR_H

#include "ir/Function.h"

#include <utility>
#include <vector>

namespace lao {

class AnalysisManager;

/// Converts \p F (SSA, critical edges split) to CSSA by copy insertion,
/// reading \p AM (bound to \p F), which keeps its cfgOnly() part. The
/// copies, phis and unresolved interfering pairs are counted by the
/// sreedhar.* counters.
void convertToCSSA(Function &F, AnalysisManager &AM);

/// Pins every phi web (result and arguments, transitively) to a common
/// resource via def pins, preferring a member already pinned to a
/// physical register. Returns the number of defs pinned.
unsigned pinCSSAWebs(Function &F);

/// Checks the defining property of Conventional SSA: within every phi
/// web (result and arguments, transitively across phis), no two members
/// interfere, per \p AM (bound to \p F). \p F must be SSA. Returns the
/// interfering pairs found (empty = CSSA).
std::vector<std::pair<RegId, RegId>> findCSSAViolations(Function &F,
                                                        AnalysisManager &AM);

} // namespace lao

#endif // LAO_OUTOFSSA_SREEDHAR_H
