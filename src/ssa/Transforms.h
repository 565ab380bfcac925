//===- Transforms.h - SSA-level optimizations -------------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SSA-level optimizations the paper's compiler (LAO) performs before
/// translating out of SSA: copy propagation, dominator-scoped value
/// numbering and dead-code elimination. These passes are what make the
/// out-of-SSA coalescing problem non-trivial: they rewrite phi webs so
/// that a naive phi replacement would introduce many move instructions.
///
/// All passes run on unpinned SSA code (before constraint collection);
/// normalizeToOptimizedSSA builds that SSA from non-SSA code and chains
/// them.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_SSA_TRANSFORMS_H
#define LAO_SSA_TRANSFORMS_H

#include "ir/Function.h"

#include <string>

namespace lao {

/// Replaces every use of d with s for each SSA copy "d = mov s" and each
/// trivial phi "d = phi(s, s, ...)" whose arguments are all equal, then
/// deletes the instruction. Iterates to a fixpoint. Returns the number of
/// copies/phis removed.
unsigned propagateCopies(Function &F);

/// Dominator-scoped value numbering over OpcodeTable's Pure opcodes
/// (arithmetic, make, more). Redundant instructions are replaced by the
/// dominating equivalent and removed. Returns the number of instructions
/// removed.
unsigned valueNumber(Function &F);

/// Removes instructions below EffectClass::SideEffect whose results are
/// unused, including dead phis, to a fixpoint. Returns the number removed.
unsigned eliminateDeadCode(Function &F);

/// Converts a non-SSA function into the optimized pruned SSA form the
/// out-of-SSA pipeline expects and the suites ship (buildSSA + copy
/// propagation + value numbering + DCE). Returns false, with \p F
/// unchanged and \p Error (when given) set, when \p F is not a valid
/// buildSSA input — lao-opt --ssa and the server's "ssa: 1" rely on this
/// to refuse such text instead of asserting.
bool normalizeToOptimizedSSA(Function &F, std::string *Error = nullptr);

} // namespace lao

#endif // LAO_SSA_TRANSFORMS_H
