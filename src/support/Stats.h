//===- Stats.h - Process-wide pass statistics registry ----------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide registry of named counters, in the spirit of LLVM's
/// `-stats` machinery, and the only record of a pass's counts: no pass
/// returns a statistics struct. A pass keeps its tally in locals and
/// bumps each counter once per call through the LAO_STAT macro:
///
///   LAO_STAT(coalesce, merges) += NumMerges;
///   ++LAO_STAT(liveness, analyses);
///
/// The macro expands to a function-local static StatCounter that
/// registers itself with the StatsRegistry singleton on first use, so a
/// counter costs one relaxed atomic add per bump and nothing when never
/// reached. Counters are monotonically increasing over the process
/// lifetime; consumers that want per-run numbers (the bench binaries'
/// `--json` mode, `lao-opt --stats`) take a snapshot before and after
/// the run and report the delta.
///
/// Counters are thread-safe: the bench suite runner executes pipelines
/// from a ThreadPool and the per-run deltas stay exact because integer
/// atomic adds commute.
///
/// Whole-process snapshot deltas are exact only when nothing else runs
/// concurrently — the blocker for a sharded compile *service*, where N
/// workers bump the same global counters at once. StatsScope solves the
/// attribution problem: while a scope is alive on a thread, every bump
/// made *by that thread* is additionally recorded into the scope, so a
/// server worker wraps each request in a scope and reads an exact
/// per-request delta no matter what the other workers are doing. The
/// global counters keep their monotonic process-lifetime semantics
/// untouched and stay the service's totals.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_SUPPORT_STATS_H
#define LAO_SUPPORT_STATS_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <unordered_map>

namespace lao {

class StatCounter;
class StatsRegistry;

/// Point-in-time counter values, keyed "pass.name". std::map gives a
/// deterministic (sorted) iteration order, which the JSON emitters rely
/// on for schema-stable output.
using StatsSnapshot = std::map<std::string, uint64_t>;

/// Prints \p Snap's non-zero entries under a "=== <Title> ===" line,
/// LLVM `-stats` style: the value right-aligned, then the key.
void printSnapshot(std::FILE *Out, const char *Title,
                   const StatsSnapshot &Snap);

/// RAII per-thread recording of counter bumps. While the innermost scope
/// on a thread is alive, StatCounter::operator+= also accumulates the
/// delta into it (scopes nest by shadowing: only the innermost records).
/// Cost when no scope is active: one thread-local load and a predictable
/// branch per bump.
class StatsScope {
public:
  StatsScope() : Prev(activeSlot()) { activeSlot() = this; }
  ~StatsScope() { activeSlot() = Prev; }
  StatsScope(const StatsScope &) = delete;
  StatsScope &operator=(const StatsScope &) = delete;

  /// The scope recording bumps on the calling thread, or nullptr.
  static StatsScope *active() { return activeSlot(); }

  /// Called from StatCounter::operator+= on the owning thread.
  void record(const StatCounter *C, uint64_t Delta) { Local[C] += Delta; }

  /// Deltas recorded since construction, keyed "pass.name" like
  /// StatsRegistry snapshots; zero entries and entries from other
  /// threads never appear.
  StatsSnapshot snapshot() const;

private:
  /// The innermost scope on this thread. A function-local thread_local
  /// (rather than an extern class static): every TU then reaches it
  /// through the same inline wrapper, which sidesteps a GCC issue where
  /// cross-TU extern-TLS access trips -fsanitize=null.
  static StatsScope *&activeSlot() {
    static thread_local StatsScope *Active = nullptr;
    return Active;
  }

  std::unordered_map<const StatCounter *, uint64_t> Local;
  StatsScope *Prev;
};

/// One named statistic. Construct only through LAO_STAT (or as a static
/// with process lifetime): the registry keeps a pointer to it forever.
class StatCounter {
public:
  StatCounter(const char *Pass, const char *Name);

  StatCounter &operator+=(uint64_t Delta) {
    Value.fetch_add(Delta, std::memory_order_relaxed);
    if (StatsScope *S = StatsScope::active())
      S->record(this, Delta);
    return *this;
  }
  StatCounter &operator++() { return *this += 1; }

  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  const char *pass() const { return Pass; }
  const char *name() const { return Name; }

private:
  friend class StatsRegistry;
  const char *Pass;
  const char *Name;
  std::atomic<uint64_t> Value{0};
  StatCounter *Next = nullptr; ///< Intrusive registry list.
};

/// The process-wide counter list. Registration is lock-free (counters
/// are only ever added, never removed).
class StatsRegistry {
public:
  static StatsRegistry &instance();

  /// Current value of every registered counter.
  StatsSnapshot snapshot() const;

  /// Counter-wise After - Before, dropping entries that did not move.
  /// Counters born after Before was taken count from zero.
  static StatsSnapshot delta(const StatsSnapshot &Before,
                             const StatsSnapshot &After);

private:
  friend class StatCounter;
  void add(StatCounter *C);

  std::atomic<StatCounter *> Head{nullptr};
};

} // namespace lao

/// Returns a reference to the static counter for (PASS, NAME),
/// registering it on first execution.
#define LAO_STAT(PASS, NAME)                                                   \
  ([]() -> ::lao::StatCounter & {                                              \
    static ::lao::StatCounter LaoStatCounter(#PASS, #NAME);                    \
    return LaoStatCounter;                                                     \
  }())

#endif // LAO_SUPPORT_STATS_H
