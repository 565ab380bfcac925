//===- SSAConstruction.h - Pruned SSA construction --------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pruned SSA construction after Cytron et al. (TOPLAS 1991), the flavour
/// the paper uses. Phi instructions are placed at the iterated dominance
/// frontier of each variable's definition blocks (PhiPlacement), restricted
/// to blocks where the variable is live-in (pruning), then definitions are
/// renamed along the non-recursive dominator-tree walk of
/// analysis/Dominators.h: one flat array holds each variable's reaching
/// name and an undo log restores it as the walk leaves a subtree, so the
/// depth of the dominator tree costs no stack. Leung-George's holder
/// analysis (outofssa/LeungGeorge.h) is the same construction over
/// resource slots and uses the same two pieces.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_SSA_SSACONSTRUCTION_H
#define LAO_SSA_SSACONSTRUCTION_H

#include "ir/Function.h"

#include <string>

namespace lao {

/// Converts \p F (non-SSA, virtual registers possibly multiply defined,
/// no phis) into pruned SSA form, in place, and returns true. Every use
/// must have a definition on every path from the entry. An input that
/// breaks either rule — it already has a phi, or some variable is live
/// into the entry block — is rejected: \p F is left unchanged, false is
/// returned and \p Error (when given) says why. An accepted input adds
/// its inserted phis and renamed definitions to the ssa.phis_inserted
/// and ssa.vars_renamed counters.
bool buildSSA(Function &F, std::string *Error = nullptr);

} // namespace lao

#endif // LAO_SSA_SSACONSTRUCTION_H
