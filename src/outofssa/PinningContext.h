//===- PinningContext.h - Resource classes and interference ----*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pinning machinery of the paper's Section 3: resources as sets of
/// variables pinned together (kept in a union-find), the Variable_kills /
/// Variable_stronglyInterfere / Resource_killed / Resource_interfere
/// procedures of Algorithm 2, and the optimistic / pessimistic kill
/// variants of Algorithm 4 used in the Table 5 experiments.
///
/// Resource_interfere has one production path, the dominance-ordered
/// class-interference engine (outofssa/ClassInterference.h), which is
/// exact only over reachable code: the context requires every non-empty
/// block to be reachable, as runPipeline's entry step guarantees. The
/// paper-literal pairwise scan, the engine's reference, is test code
/// (tests/ReferenceClassInterference.h). ClassInterference's
/// SuiteVerdictsMatchPairwise and Adversarial*AllModes tests compare
/// single queries against it; its SuiteMergeTracesMatchPairwise,
/// AdversarialMergeTraces and OracleCleanOnCoalescingRuns, and the
/// Pipeline.EntryErases* tests, check every verdict of whole runs through
/// the verdict observer (setVerdictObserver).
///
/// Terminology (paper Section 3.2):
///  * "a kills b": pinning a and b to one resource clobbers b's value at
///    a's definition (Class 1) or at a phi-related parallel copy
///    (Class 2). A kill is a *simple* interference: Leung & George's
///    reconstruction repairs it with extra moves.
///  * "a strongly interferes with b": pinning them together is incorrect
///    and cannot be repaired (Classes 3 and 4, same-instruction defs,
///    distinct physical registers).
///
//===----------------------------------------------------------------------===//

#ifndef LAO_OUTOFSSA_PINNINGCONTEXT_H
#define LAO_OUTOFSSA_PINNINGCONTEXT_H

#include "analysis/Dominators.h"
#include "analysis/LivenessQuery.h"
#include "ir/Function.h"
#include "support/BitVector.h"
#include "support/UnionFind.h"

#include <memory>
#include <vector>

namespace lao {

class ClassInterference;

/// How Class 1 kills are detected (paper Algorithm 4).
enum class InterferenceMode {
  Precise,    ///< Exact SSA liveness at the killing definition.
  Optimistic, ///< b in liveout(block of def(a)) — may miss kills.
  Pessimistic ///< b in livein(block of def(a)) or same block — may
              ///< report spurious kills.
};

/// Definition site of an SSA variable.
struct DefSite {
  const BasicBlock *BB = nullptr;
  const Instruction *I = nullptr;
  BasicBlock::InstList::const_iterator Pos; ///< Iterator to I within BB.
  unsigned Order = 0;                       ///< Index of I within BB.
  bool Valid = false;
};

/// Definition site of every virtual register of SSA function \p F,
/// indexed by value (Valid == false for physical registers and
/// never-defined values). Asserts that no virtual register is defined
/// twice.
std::vector<DefSite> collectDefSites(const Function &F);

/// True if definition \p A comes strictly before definition \p B on
/// every path to B: the precondition of a Class 1 kill of A's value by
/// B's (paper Section 3.2). Phis define at their block's entry, before
/// every non-phi; two defs of one instruction, or two phis of one block,
/// are parallel. Both sites must be valid.
inline bool defDominates(const DominatorTree &DT, const DefSite &A,
                         const DefSite &B) {
  if (A.I == B.I)
    return false;
  if (A.BB != B.BB)
    return DT.strictlyDominates(A.BB, B.BB);
  if (A.I->isPhi())
    return !B.I->isPhi();
  if (B.I->isPhi())
    return false;
  return A.Order < B.Order;
}

/// True if \p V is live where the definition at \p D writes: live into
/// the block for a phi, live after the instruction otherwise.
inline bool liveAtDef(const LivenessQuery &LQ, RegId V, const DefSite &D) {
  return D.I->isPhi() ? LQ.isLiveIn(V, D.BB)
                      : LQ.isLiveAfter(V, D.BB, D.Pos);
}

/// Resource classes over the variables of one SSA function, built from
/// def-operand pins, with the paper's interference tests.
///
/// The function must be in SSA form with critical edges split, and every
/// non-empty block must be reachable (runPipeline erases the unreachable
/// ones at entry; the constructor asserts it). The analyses passed in
/// must be current; PinningContext never mutates the function (pin
/// updates are applied separately by the caller).
class PinningContext {
public:
  PinningContext(const Function &F, const CFG &Cfg, const DominatorTree &DT,
                 const LivenessQuery &LV,
                 InterferenceMode Mode = InterferenceMode::Precise);
  ~PinningContext();

  const Function &func() const { return F; }
  /// The CFG and dominator tree the context was built from; the
  /// out-of-pinned-SSA translation walks them too.
  const CFG &cfg() const { return Cfg; }
  const DominatorTree &domTree() const { return DT; }

  /// Resource of \p V: the representative of its pinning class
  /// (the paper's Resource_def, transitively resolved).
  RegId resourceOf(RegId V) const { return Classes.find(V); }

  /// Members of the class of \p R (variables pinned together, including
  /// the physical register if any).
  const std::vector<RegId> &members(RegId R) const {
    return Members[Classes.find(R)];
  }

  /// True if \p V is already killed within its class (the paper's
  /// Resource_killed, maintained incrementally across merges). Classes
  /// are disjoint and a kill never leaves its class, so "killed within
  /// its class" is a per-value property: one flat bit vector replaces
  /// the old per-class hashed sets on the resourceInterfere hot path.
  bool isKilled(RegId V) const { return KilledMask.test(V); }

  /// The flat killed mask over all values (bit V == isKilled(V)).
  const BitVector &killedMask() const { return KilledMask; }

  /// Merges the classes of \p A and \p B. The caller must have verified
  /// the merge (resourceInterfere(A, B) == false) unless the pinning is
  /// mandatory (ABI/SP), in which case new kills are absorbed into the
  /// killed set. Returns the new representative.
  RegId pinTogether(RegId A, RegId B);

  /// Paper: Variable_kills(a, b) — true if pinning a and b together
  /// clobbers b's value at a's definition point (Class 1) or at a
  /// phi-related copy of a (Class 2). Honors the interference mode.
  bool variableKills(RegId A, RegId B) const;

  /// The Class 1 liveness test of variableKills(Killer, Victim), under
  /// the interference mode: is \p Victim still live where \p Killer's
  /// definition writes? The caller has checked that Victim's definition
  /// dominates Killer's.
  bool liveAcrossDef(RegId Victim, RegId Killer) const;

  /// Paper: Variable_stronglyInterfere(a, b) — unrepairable conflicts.
  bool stronglyInterfere(RegId A, RegId B) const;

  /// Paper: Resource_interfere(A, B) — true if merging the two classes
  /// would create a new simple interference or any strong interference.
  /// Answered by the dominance-ordered sweep engine
  /// (outofssa/ClassInterference.h).
  bool resourceInterfere(RegId A, RegId B) const;

  /// Definition site of \p V (Valid == false for physical registers and
  /// never-defined values).
  const DefSite &defSite(RegId V) const { return Defs[V]; }

  /// True if the class of \p R contains a physical register (which is
  /// then its representative).
  bool hasPhysical(RegId R) const { return F.isPhysical(Classes.find(R)); }

  /// Called with every verdict resourceInterfere returns from the
  /// engine: the context, the two class representatives and the answer.
  /// Null outside tests, which install one to check each verdict of a
  /// whole run against the pairwise scan. A plain static: set it only
  /// while no other thread uses a PinningContext.
  using VerdictObserver = void (*)(const PinningContext &Ctx, RegId RA,
                                   RegId RB, bool Verdict);
  static void setVerdictObserver(VerdictObserver Fn) { Observer = Fn; }

  /// Field-diagnosis summary for lao-opt --stats: the class-size
  /// histogram of the current class partition plus the engine's
  /// cache/probe counters.
  struct InterferenceReport {
    uint64_t NumClasses = 0;  ///< Classes counted in SizeHist.
    uint64_t SizeHist[6] = {0, 0, 0, 0, 0, 0}; ///< Members: 1, 2, 3-4,
                                               ///< 5-8, 9-16, >= 17.
    uint64_t Queries = 0;       ///< Uncached engine computations.
    uint64_t CacheHits = 0;
    uint64_t CacheEvictions = 0;
    uint64_t Probes = 0;        ///< Sweep liveness probes.
    uint64_t PairCost = 0;      ///< Pairwise probe bound (sum |A|*|B|).
  };
  InterferenceReport interferenceReport() const;

private:
  /// A use operand pinned to (the class of) some resource: the
  /// reconstruction places a copy into that resource right before the
  /// instruction, which clobbers whatever the resource held. These
  /// "pin-copy kills" are part of the interference model, alongside the
  /// Class 1 / Class 2 kills of Variable_kills.
  struct PinSite {
    const BasicBlock *BB;
    BasicBlock::InstList::const_iterator Pos;
    RegId UsedVar;
  };

  const Function &F;
  const CFG &Cfg;
  const DominatorTree &DT;
  const LivenessQuery &LV;
  InterferenceMode Mode;

  mutable UnionFind Classes;
  std::vector<std::vector<RegId>> Members;    ///< Indexed by representative.
  BitVector KilledMask;                       ///< Flat, indexed by value.
  std::vector<std::vector<PinSite>> PinSites; ///< Indexed by representative.
  std::vector<DefSite> Defs;

  /// The dominance-ordered sweep engine, built lazily at the first
  /// resourceInterfere query (mutable: queries are const, memoization is
  /// not). Null until then.
  mutable std::unique_ptr<ClassInterference> Engine;

  static VerdictObserver Observer;

  /// True if the pin copy at \p S would clobber \p X's live value.
  bool pinSiteKills(const PinSite &S, RegId X) const;
};

inline bool PinningContext::liveAcrossDef(RegId Victim, RegId Killer) const {
  const DefSite &DK = Defs[Killer];
  switch (Mode) {
  case InterferenceMode::Precise:
    return liveAtDef(LV, Victim, DK);
  case InterferenceMode::Optimistic:
    return LV.isLiveOut(Victim, DK.BB);
  case InterferenceMode::Pessimistic:
    return LV.isLiveIn(Victim, DK.BB) || DK.BB == Defs[Victim].BB;
  }
  return false;
}

} // namespace lao

#endif // LAO_OUTOFSSA_PINNINGCONTEXT_H
