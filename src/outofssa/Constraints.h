//===- Constraints.h - Renaming constraint collection -----------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "collect" phase of Leung & George, split as the paper's Section 5
/// splits it: pinningSP (dedicated stack pointer — must always run, see
/// the paper's discussion of Figure 2) and pinningABI (argument/result
/// registers, 2-operand ISA constraints, psi predication constraints).
/// Both phases only *record* pins on operands; classes are formed later
/// by PinningContext.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_OUTOFSSA_CONSTRAINTS_H
#define LAO_OUTOFSSA_CONSTRAINTS_H

#include "ir/Function.h"

namespace lao {

/// Pins SP-derived variables (SpAdjust defs and uses) to the physical SP.
/// The operands pinned are counted by the constraints.sp_pins counter.
void collectSPConstraints(Function &F);

/// Pins ABI-constrained operands:
///  * `input` parameter k (k < NumArgRegs) defs to R0..R3
///  * `call` argument k (k < NumArgRegs) uses to R0..R3, result def to R0
///  * `ret` use to R0
///  * 2-operand instructions (`more`, `autoadd`): first use pinned to the
///    destination variable's resource
///  * `psi`: the else-operand pinned to the destination (the
///    psi-conventional conversion; predicated code overwrites its else
///    value in place)
/// The operands pinned are counted by the constraints.abi_pins counter.
void collectABIConstraints(Function &F);

} // namespace lao

#endif // LAO_OUTOFSSA_CONSTRAINTS_H
