//===- ReferenceAllocators.h - Scan-based coloring oracles ------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocator strategies as they were before simplify and MCS moved
/// to buckets and heaps: every pick rescans the remaining nodes, which
/// costs O(V^2 log V) per round but states each tie-break as a plain
/// comparison. Test-only; the tie-break oracle test
/// (TieBreakOracleTests.cpp) replays every round through these and the
/// production strategies and requires identical colors and spills.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_TESTS_REFERENCEALLOCATORS_H
#define LAO_TESTS_REFERENCEALLOCATORS_H

#include "regalloc/AllocatorStrategy.h"

namespace lao::test {

/// Chaitin-Briggs simplify/select, scanning for every pick.
std::unique_ptr<AllocatorStrategy> makeScanChaitinBriggsStrategy();

/// Chordal MCS and greedy coloring, scanning for every pick.
std::unique_ptr<AllocatorStrategy> makeScanChordalStrategy();

} // namespace lao::test

#endif // LAO_TESTS_REFERENCEALLOCATORS_H
