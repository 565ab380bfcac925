//===- Suites.h - Benchmark suite factories ---------------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Factories for the benchmark suites standing in for the paper's
/// Section 5 benchmarks:
///
///   VALcc1 / VALcc2 : ~40 small DSP-ish kernels; variant 2 re-expands
///                     the same programs with a sloppier lowering style
///                     (extra copy chains), mimicking the two ST120 C
///                     compilers.
///   example1-8      : the paper's hand-written figures (see
///                     PaperExamples.h).
///   LAI_Large       : fewer, larger functions with deep loop nests
///                     (efr vocoder stand-in).
///   SPECint-like    : many medium/large functions with heavy call/ABI
///                     density (SPEC CINT2000 stand-in).
///
/// Every suite function is returned in *optimized pruned SSA* (built with
/// buildSSA, then copy propagation, value numbering and DCE — the same
/// shape the LAO pipeline hands to its out-of-SSA phase), together with
/// deterministic input vectors for interpreter-based equivalence checks.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_WORKLOADS_SUITES_H
#define LAO_WORKLOADS_SUITES_H

#include "ir/Function.h"
#include "ssa/Transforms.h" // normalizeToOptimizedSSA, which the suites apply

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace lao {

/// One suite member: an SSA function plus input vectors for equivalence
/// testing.
struct Workload {
  std::string Name;
  std::unique_ptr<Function> F;
  std::vector<std::vector<uint64_t>> Inputs;
};

/// The five suites of the paper's results section.
std::vector<Workload> makeValccSuite(int Variant); ///< Variant 1 or 2.
std::vector<Workload> makeExamplesSuite();         ///< example1-8.
std::vector<Workload> makeLargeSuite();
std::vector<Workload> makeSpecLikeSuite();

/// Names and factories of all suites, in the paper's table order.
struct SuiteSpec {
  const char *Name;
  std::vector<Workload> (*Make)();
};
const std::vector<SuiteSpec> &allSuites();

} // namespace lao

#endif // LAO_WORKLOADS_SUITES_H
