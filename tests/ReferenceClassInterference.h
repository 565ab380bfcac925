//===- ReferenceClassInterference.h - Pairwise oracle -----------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Algorithm 2 Resource_interfere as literally described: an
/// O(|A|*|B|) scan over the member pairs of two pinning classes, built on
/// PinningContext's public per-variable tests and on
/// Variable_stronglyInterfere, which only this scan needs (production
/// answers strong interference from ClassInterference's digests).
/// Test-only; it is the
/// reference the dominance-ordered class-interference engine
/// (outofssa/ClassInterference.h) is held to, per query and, through
/// PairwiseVerdictCheck, over every verdict of whole runs.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_TESTS_REFERENCECLASSINTERFERENCE_H
#define LAO_TESTS_REFERENCECLASSINTERFERENCE_H

#include "outofssa/PinningContext.h"

#include <cstdint>

namespace lao::test {

/// Paper: Variable_stronglyInterfere(a, b) of \p Ctx — unrepairable
/// conflicts: two phis of one block, two phis whose shared predecessor
/// would carry different values into one resource, or two results of
/// one instruction.
bool stronglyInterfere(const PinningContext &Ctx, RegId A, RegId B);

/// Resource_interfere(A, B) of \p Ctx by the member-pair scan: false for
/// one class, true for two physical registers, else true iff some member
/// pair gives a kill of a not-yet-killed member or a strong interference.
bool pairwiseResourceInterfere(const PinningContext &Ctx, RegId A, RegId B);

/// While alive, checks every verdict PinningContext::resourceInterfere
/// returns against pairwiseResourceInterfere and, on destruction, records
/// the disagreements (their count and the first one) as a gtest failure.
/// It installs the process-wide verdict observer: hold one only while no
/// other thread uses a PinningContext. Guards do not nest.
class PairwiseVerdictCheck {
public:
  PairwiseVerdictCheck();
  ~PairwiseVerdictCheck();
  PairwiseVerdictCheck(const PairwiseVerdictCheck &) = delete;
  PairwiseVerdictCheck &operator=(const PairwiseVerdictCheck &) = delete;

  /// Verdicts checked so far (a test can require that some were).
  uint64_t numChecked() const;
};

} // namespace lao::test

#endif // LAO_TESTS_REFERENCECLASSINTERFERENCE_H
