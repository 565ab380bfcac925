//===- TestUtil.h - Shared test helpers -------------------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef LAO_TESTS_TESTUTIL_H
#define LAO_TESTS_TESTUTIL_H

#include "exec/Interpreter.h"
#include "ir/Clone.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Verifier.h"
#include "support/Stats.h"
#include "support/StringUtils.h"
#include "workloads/Generator.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

namespace lao {
namespace test {

/// Parses \p Text, failing the test on parse errors.
inline std::unique_ptr<Function> parse(const std::string &Text) {
  std::string Error;
  auto F = parseFunction(Text, &Error);
  EXPECT_TRUE(F != nullptr) << "parse error: " << Error;
  return F;
}

/// Runs \p Body under a StatsScope and returns the registry counters it
/// bumped on the calling thread, keyed "pass.name". A counter that did
/// not move is absent, so `countersOf(...)["x.y"]` reads it as 0. Safe on
/// pool threads: a scope records only its own thread's bumps.
template <typename BodyFn> StatsSnapshot countersOf(BodyFn &&Body) {
  StatsScope Scope;
  Body();
  return Scope.snapshot();
}

/// Expects \p F to be structurally well-formed.
inline void expectWellFormed(const Function &F) {
  for (const std::string &D : verifyStructure(F))
    ADD_FAILURE() << F.name() << ": " << D;
}

/// Runs \p Before and \p After on the same inputs and expects identical
/// observable traces.
inline void expectEquivalent(const Function &Before, const Function &After,
                             const std::vector<uint64_t> &Args) {
  ExecResult RB = interpret(Before, Args);
  ExecResult RA = interpret(After, Args);
  ASSERT_TRUE(RB.ok()) << Before.name() << " (before): " << RB.Error;
  ASSERT_TRUE(RA.ok()) << After.name() << " (after): " << RA.Error
                     << "\n--- after code ---\n"
                     << printFunction(After);
  EXPECT_EQ(RB.RetValue, RA.RetValue)
      << "return values differ\n--- before ---\n"
      << printFunction(Before) << "--- after ---\n" << printFunction(After);
  EXPECT_EQ(RB.Outputs, RA.Outputs)
      << "output traces differ\n--- before ---\n"
      << printFunction(Before) << "--- after ---\n" << printFunction(After);
}

/// A size-ladder point: one generated function of about \p Target
/// blocks, shaped like the ladder points the benchmark compiles (nesting
/// depth 2, 20% calls, a statement budget of half the target), in SSA.
/// Its variables live across the whole function, so its interference
/// graph is dense and hub-heavy.
inline std::unique_ptr<Function> makeLadderFunction(unsigned Target,
                                                    uint64_t Seed) {
  GeneratorParams P;
  P.Seed = Seed;
  P.NumStatements = Target / 2;
  P.MaxNesting = 2;
  P.CallPercent = 20;
  auto F = generateProgram(P, formatStr("ladder%u", Target));
  EXPECT_TRUE(normalizeToOptimizedSSA(*F));
  return F;
}

/// A call-heavy generated function of 844 blocks, in SSA: 940 statements
/// at nesting depth 1, 80% of them calls. Naive ABI lowering routes
/// thousands of values through R0, so under `C,naiveABI+C` the coalescer
/// sees one physical register with about 2,000 copy partners.
inline std::unique_ptr<Function> makeCallHeavyFunction() {
  GeneratorParams P;
  P.Seed = 0x1adde5 + 800;
  P.NumStatements = 940;
  P.MaxNesting = 1;
  P.CallPercent = 80;
  auto F = generateProgram(P, "callheavy");
  EXPECT_TRUE(normalizeToOptimizedSSA(*F));
  return F;
}

/// A chain of \p NumBlocks blocks (at least 2), each adding 1 to one
/// variable, as non-SSA text: its dominator tree is a path as deep as the
/// chain. 60,000 blocks overflowed the recursive dominator-tree walks
/// that SSA construction and value numbering once made.
inline std::string chainFunctionText(unsigned NumBlocks) {
  std::string Text = "func @chain {\nb0:\n  %v = make 0\n  jump b1\n";
  for (unsigned B = 1; B < NumBlocks; ++B) {
    Text += formatStr("b%u:\n  %%v = addi %%v, 1\n", B);
    Text += B + 1 < NumBlocks ? formatStr("  jump b%u\n", B + 1)
                              : std::string("  ret %v\n");
  }
  return Text + "}\n";
}

/// The exemption-switch gadget of the coalescer tests, in two halves:
///
///   head: %s<Tag> = addi <Prev>, 1
///         %d<Tag> = mov %s<Tag>
///   tail: %x<Tag> = mov %s<Tag>
///         <Result> = add %x<Tag>, %d<Tag>
///
/// (x, d) interfere until the coalescer merges s into d; the rewritten
/// `x = mov d` then falls under Chaitin's source exemption, so the second
/// copy, deferred in its first round, must be re-enqueued after the round
/// boundary, where the first round's survivor d is merged away. The
/// halves may sit in different blocks when the head's block dominates the
/// tail's.
struct ExemptionSwitch {
  std::string Head, Tail;
};
inline ExemptionSwitch exemptionSwitch(const std::string &Prev,
                                       const std::string &Tag,
                                       const std::string &Result) {
  const char *T = Tag.c_str();
  return {formatStr("  %%s%s = addi %s, 1\n  %%d%s = mov %%s%s\n", T,
                    Prev.c_str(), T, T),
          formatStr("  %%x%s = mov %%s%s\n  %s = add %%x%s, %%d%s\n", T, T,
                    Result.c_str(), T, T)};
}

} // namespace test
} // namespace lao

#endif // LAO_TESTS_TESTUTIL_H
