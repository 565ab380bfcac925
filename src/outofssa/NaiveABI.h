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
/// locally around every constrained instruction — parameters copied out
/// of R0..R3 after `input`, arguments copied into R0..R3 before `call`
/// (and the result out of R0 after it), the return value copied into R0,
/// and a destination-tying copy before each 2-operand instruction. A
/// subsequent aggressive coalescing pass is then expected to clean most
/// of these up (Tables 3 and 4).
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
