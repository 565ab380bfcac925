//===- AnalysisManager.h - Caching per-function analysis manager *- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A caching analysis manager in the spirit of LLVM's new pass manager,
/// sized for this project's fixed analysis menagerie. Passes request
/// analyses lazily through the manager — each is computed at most once
/// until invalidated — and report what they kept intact through a
/// PreservedAnalyses token; the manager then drops only the stale
/// entries, honoring the dependency cascade:
///
///   CFG dropped        -> everything dropped
///   DomTree dropped    -> LoopInfo, LivenessQuery dropped
///   Liveness dropped   -> InterferenceGraph dropped
///
/// A debug verifier (`verify()`, optionally run on every invalidation of
/// one manager via setVerifyOnInvalidate) recomputes the retained
/// analyses from scratch and diffs them against the cache, catching
/// passes that lie about what they preserve. See docs/ANALYSIS.md for the
/// full contract.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_ANALYSIS_ANALYSISMANAGER_H
#define LAO_ANALYSIS_ANALYSISMANAGER_H

#include "analysis/Dominators.h"
#include "analysis/InterferenceGraph.h"
#include "analysis/Liveness.h"
#include "analysis/LivenessQuery.h"
#include "analysis/LoopInfo.h"
#include "ir/CFG.h"
#include "ir/Function.h"

#include <memory>
#include <string>

namespace lao {

/// The analyses the manager knows about, as bitmask positions.
enum class AnalysisKind : unsigned {
  CFG = 1u << 0,
  DomTree = 1u << 1,
  LoopInfo = 1u << 2,
  Liveness = 1u << 3,
  LivenessQuery = 1u << 4,
  Interference = 1u << 5,
};

/// What a pass left intact. Passes construct one of these and hand it to
/// AnalysisManager::invalidate when they finish mutating the function.
class PreservedAnalyses {
public:
  /// Nothing survives (the default for an unknown transformation).
  static PreservedAnalyses none() { return PreservedAnalyses(0); }

  /// Everything survives (an analysis-only pass).
  static PreservedAnalyses all() { return PreservedAnalyses(~0u); }

  /// The common case for passes that rewrite instructions inside existing
  /// blocks without touching edges: block structure and dominance remain
  /// valid, but anything derived from instructions does not.
  static PreservedAnalyses cfgOnly() {
    return PreservedAnalyses(bit(AnalysisKind::CFG) |
                             bit(AnalysisKind::DomTree) |
                             bit(AnalysisKind::LoopInfo));
  }

  PreservedAnalyses &preserve(AnalysisKind K) {
    Mask |= bit(K);
    return *this;
  }

  bool isPreserved(AnalysisKind K) const { return (Mask & bit(K)) != 0; }

private:
  explicit PreservedAnalyses(unsigned Mask) : Mask(Mask) {}
  static unsigned bit(AnalysisKind K) { return static_cast<unsigned>(K); }
  unsigned Mask;
};

/// Lazily computes and caches the standard analyses over one function.
/// References returned by the getters stay valid until the corresponding
/// analysis is invalidated — passes must not hold them across an
/// invalidate() of that analysis.
class AnalysisManager {
public:
  explicit AnalysisManager(Function &F) : F(&F) {}

  Function &function() { return *F; }

  /// Rebinds the manager to \p NewF, dropping every cached analysis (the
  /// epoch bumps if anything was cached). The manager object itself
  /// survives — a compile-service worker keeps one manager alive and
  /// resets it for each incoming function, so the reuse pattern is
  /// construct-once, reset-per-request. Rebinding to the same function
  /// is a full invalidation.
  void reset(Function &NewF);

  const CFG &cfg();
  const DominatorTree &domTree();
  const LoopInfo &loopInfo();
  Liveness &liveness();
  const LivenessQuery &livenessQuery();
  InterferenceGraph &interference();

  bool isCached(AnalysisKind K) const;

  /// Monotonic counter bumped whenever an invalidate() actually drops a
  /// cached analysis. A holder of analysis references (e.g. the
  /// PinningContext + its class-interference cache, which stay exact
  /// only while the liveness they were built from is current) can record
  /// the epoch at construction and assert it unchanged at use.
  uint64_t epoch() const { return Epoch; }

  /// Drops every cached analysis the pass did not preserve, plus the
  /// dependency closure. With verify-on-invalidate set, it then
  /// cross-checks the surviving entries against fresh recomputation
  /// and aborts on a mismatch (a pass lied about preservation).
  void invalidate(const PreservedAnalyses &PA);

  /// Recomputes each cached analysis from the function's current state
  /// and diffs it against the cache. Returns an empty string when
  /// everything matches, else a human-readable description of the first
  /// inconsistency found.
  std::string verify() const;

  /// When set, this manager's invalidate() calls verify() on the
  /// survivors and aborts on any mismatch. Meant for tests; the setting
  /// survives reset().
  void setVerifyOnInvalidate(bool On) { VerifyOnInvalidate = On; }

private:
  Function *F;
  std::unique_ptr<CFG> TheCFG;
  std::unique_ptr<DominatorTree> DT;
  std::unique_ptr<LoopInfo> LI;
  std::unique_ptr<Liveness> LV;
  std::unique_ptr<LivenessQuery> LQ;
  std::unique_ptr<InterferenceGraph> IG;
  uint64_t Epoch = 0;
  bool VerifyOnInvalidate = false;
};

} // namespace lao

#endif // LAO_ANALYSIS_ANALYSISMANAGER_H
