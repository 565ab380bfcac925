//===- IfConversion.h - Diamond if-conversion to psi ------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// If-conversion for the mini-LAI's predication support. The paper's
/// target (ST120) is fully predicated and its compiler works on psi-SSA
/// [Stoutchinin & de Ferriere, MICRO 2001]; this pass creates such code:
/// small, side-effect-free diamonds and triangles are flattened, their
/// join phis becoming psi instructions guarded by the branch predicate.
///
/// A converted psi carries the 2-operand-like renaming constraint the
/// paper describes ("psi instructions introduce constraints similar to
/// 2-operands constraints"): collectABIConstraints pins its else-operand
/// to the destination, and the out-of-SSA machinery handles the rest.
///
/// Runs on SSA. Only converts when both arms are speculation-safe (pure
/// arithmetic, no calls/stores/loads) and short.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_SSA_IFCONVERSION_H
#define LAO_SSA_IFCONVERSION_H

#include "ir/Function.h"

namespace lao {

/// Converts eligible diamonds/triangles of SSA \p F into straight-line
/// predicated code. \p MaxArmInsts bounds the speculated instruction
/// count per arm. The conversions and psis are counted by the
/// ifconvert.diamonds, ifconvert.triangles and ifconvert.psis counters.
void convertIfsToPsi(Function &F, unsigned MaxArmInsts = 4);

} // namespace lao

#endif // LAO_SSA_IFCONVERSION_H
