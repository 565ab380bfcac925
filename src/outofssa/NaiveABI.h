//===- NaiveABI.h - Post-translation ABI move insertion ---------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's [NaiveABI] baseline: when renaming constraints were NOT
/// handled during the out-of-SSA translation (pinningABI off), this pass
/// makes the non-SSA code ABI-correct by inserting move instructions
/// locally around every constrained instruction. It lowers the same
/// constraints the pinning path pins, read from OpcodeTable through
/// forEachRenamingConstraint: a constrained def is copied out of its
/// register after the instruction (parameters out of R0..R3 after
/// `input`, in order; the call result out of R0), a constrained use is
/// copied in before it (call arguments into R0..R3 as one parallel copy;
/// the return value into R0; the 2-operand and psi ties as a copy into
/// the destination; SP for `spadjust`). A subsequent aggressive
/// coalescing pass is then expected to clean most of these up (Tables 3
/// and 4).
///
//===----------------------------------------------------------------------===//

#ifndef LAO_OUTOFSSA_NAIVEABI_H
#define LAO_OUTOFSSA_NAIVEABI_H

#include "ir/Function.h"

namespace lao {

/// Inserts ABI moves on non-SSA code. The moves inserted (parallel-copy
/// entries count individually) are counted by the
/// naiveabi.moves_inserted counter.
void lowerABINaively(Function &F);

} // namespace lao

#endif // LAO_OUTOFSSA_NAIVEABI_H
