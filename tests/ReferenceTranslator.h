//===- ReferenceTranslator.h - Dense holder-analysis translation -*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Leung & George's mark and reconstruct phases with the holder analysis
/// solved densely: an In and an Out holder vector of every written slot
/// for every block, iterated over a worklist to the optimistic fixpoint,
/// and a copy of In per replayed block. Test-only; LeungGeorgeTests.cpp
/// requires the sparse production translator (outofssa/LeungGeorge.h) to
/// print byte-identical IR and report equal OutOfSSAStats.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_TESTS_REFERENCETRANSLATOR_H
#define LAO_TESTS_REFERENCETRANSLATOR_H

#include "outofssa/LeungGeorge.h"

namespace lao::test {

/// Translates \p F out of SSA under the pinning in \p Ctx like
/// translateOutOfSSA, with the dense solver over \p Cfg (a CFG of F;
/// \p Ctx is only asked for resources, so it may have been built for a
/// clone with the same value ids). Adds nothing to the translate.*
/// registry counters.
OutOfSSAStats translateOutOfSSADense(Function &F, const PinningContext &Ctx,
                                     const CFG &Cfg);

} // namespace lao::test

#endif // LAO_TESTS_REFERENCETRANSLATOR_H
