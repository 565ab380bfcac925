//===- Coalescer.cpp - Aggressive repeated register coalescing ----------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "outofssa/Coalescer.h"

#include "analysis/AnalysisManager.h"
#include "analysis/InterferenceGraph.h"
#include "analysis/Liveness.h"
#include "support/Stats.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <vector>

using namespace lao;

namespace {

/// The copies the coalescer may merge: every move that is not an identity
/// and does not join two physical registers, in instruction order.
std::vector<Instruction *> candidateCopies(Function &F) {
  std::vector<Instruction *> Copies;
  for (const auto &BB : F.blocks()) {
    for (Instruction &I : BB->instructions()) {
      if (!I.isCopy())
        continue;
      RegId D = I.def(0), S = I.use(0);
      if (D == S)
        continue;
      if (F.isPhysical(D) && F.isPhysical(S))
        continue;
      Copies.push_back(&I);
    }
  }
  return Copies;
}

/// Graph-free fixpoint check: would a freshly built exact interference
/// graph let the sweep merge at least one of \p Copies?
///
/// A visitor of forEachInterference, the walk that builds the graph:
/// instead of materializing edges it only *marks* the candidate pairs —
/// the distinct (def, use) pairs of the copies — that would receive an
/// edge. A candidate left unmarked is exactly a copy the sweep would merge
/// on a fresh graph, so "any candidate unmarked" <=> "a rebuild would be
/// productive".
///
/// Each register keeps a list of its candidate partners, every entry
/// naming its candidate. A def probes its own list; a hit marks the
/// candidate and drops the entry, and an entry whose candidate the other
/// operand's list already marked is dropped on sight. A partner is thus
/// probed only while its pair is still unsettled, and a count of marked
/// candidates is the whole answer: no pair keys, no sort.
bool anyCoalescableCopy(const Function &F, const Liveness &LV,
                        const std::vector<Instruction *> &Copies) {
  ++LAO_STAT(coalesce, confirm_scans);
  if (Copies.empty())
    return false;

  struct Partner {
    RegId Reg;
    unsigned Cand;
  };
  size_t NV = F.numValues();
  std::vector<std::vector<Partner>> Partners(NV);
  // Number each distinct pair once (a repeated pair would be settled
  // with its twin, but would double its probes). The copies first go to
  // the list of their larger operand; then, larger operand ascending,
  // Owner[Lo] == Hi marks (Hi, Lo) as numbered, and a numbered pair
  // enters Lo's list too.
  for (const Instruction *I : Copies) {
    RegId D = I->def(0), S = I->use(0);
    Partners[std::max(D, S)].push_back({std::min(D, S), 0});
  }
  std::vector<RegId> Owner(NV, InvalidReg);
  unsigned NumCandidates = 0;
  for (RegId Hi = 0; Hi < NV; ++Hi) {
    std::vector<Partner> &List = Partners[Hi];
    size_t Kept = 0;
    for (Partner P : List) {
      if (Owner[P.Reg] == Hi)
        continue;
      Owner[P.Reg] = Hi;
      Partners[P.Reg].push_back({Hi, NumCandidates});
      List[Kept++] = {P.Reg, NumCandidates++};
    }
    List.resize(Kept);
  }

  BitVector Marked(NumCandidates);
  unsigned NumMarked = 0;
  uint64_t Probes = 0;
  // Probes \p List for the partners \p Hit accepts, marking and dropping
  // each hit.
  auto Settle = [&](std::vector<Partner> &List, auto &&Hit) {
    for (size_t K = 0; K < List.size();) {
      ++Probes;
      Partner P = List[K];
      if (!Marked.test(P.Cand)) {
        if (!Hit(P.Reg)) {
          ++K;
          continue;
        }
        Marked.set(P.Cand);
        ++NumMarked;
      }
      List[K] = List.back();
      List.pop_back();
    }
  };
  // The graph's edge rule, restricted to a def's candidate partners
  // (everything else cannot affect the answer).
  forEachInterference(
      F, LV,
      [&](RegId D, const BitVector &Live, RegId ExemptSrc) {
        Settle(Partners[D],
               [&](RegId P) { return P != ExemptSrc && Live.test(P); });
      },
      [&](RegId A, RegId B) {
        if (Partners[B].size() < Partners[A].size())
          std::swap(A, B);
        Settle(Partners[A], [&](RegId P) { return P == B; });
      });
  LAO_STAT(coalesce, gate_probes) += Probes;
  return NumMarked < NumCandidates;
}

/// Round-boundary repair: recomputes the rows of the dirty nodes — the
/// nodes this round's merges left as representatives — exactly, by one
/// forEachInterference walk over the already-maintained liveness of the
/// rewritten program. Staleness is confined to those rows (see the
/// header's confinement lemmas), so removing each dirty row's
/// unconfirmed edges restores the whole graph to exactness.
void repairDirtyRows(const Function &F, const Liveness &LV,
                     InterferenceGraph &IG,
                     const std::vector<RegId> &DirtyList,
                     CoalescerStats &Stats) {
  ++Stats.NumRepairScans;
  size_t NV = F.numValues();
  size_t ND = DirtyList.size();
  std::vector<uint32_t> Slot(NV, UINT32_MAX);
  for (size_t I = 0; I < ND; ++I)
    Slot[DirtyList[I]] = static_cast<uint32_t>(I);
  // Confirmed exact neighbors per dirty node, as bit rows: marking is
  // idempotent, so the multi-def webs of out-of-SSA code (each def site
  // of a neighbor re-confirms the same edge) cost one bit-set each
  // instead of growing a duplicate-heavy list that needs sorting.
  std::vector<BitVector> Exact(ND, BitVector(NV));

  auto MarkPair = [&](RegId A, RegId B) {
    if (Slot[A] != UINT32_MAX)
      Exact[Slot[A]].set(B);
    if (Slot[B] != UINT32_MAX)
      Exact[Slot[B]].set(A);
  };
  // The graph's edge rule, restricted to pairs with a dirty endpoint. A
  // dirty def (rare: a def of a merge survivor) scans everything live
  // across it. Clean defs — the overwhelming majority — only need the
  // *dirty* subset of the live set, which the hook below mirrors into
  // |dirty| slots: the per-def cost is one scan of |dirty|/64 words plus
  // the actual hits, independent of the function's total value count.
  struct DirtyLiveHook {
    const std::vector<RegId> &DirtyList;
    const std::vector<uint32_t> &Slot;
    BitVector Live;
    void block(const BitVector &BlockLive) {
      Live.clear();
      for (size_t I = 0; I < DirtyList.size(); ++I)
        if (BlockLive.test(DirtyList[I]))
          Live.set(I);
    }
    void set(RegId V) {
      if (Slot[V] != UINT32_MAX)
        Live.set(Slot[V]);
    }
    void reset(RegId V) {
      if (Slot[V] != UINT32_MAX)
        Live.reset(Slot[V]);
    }
  } DirtyLive{DirtyList, Slot, BitVector(ND)};

  forEachInterference(
      F, LV,
      [&](RegId D, const BitVector &Live, RegId ExemptSrc) {
        if (Slot[D] != UINT32_MAX) {
          Live.forEach([&](size_t L) {
            RegId R = static_cast<RegId>(L);
            if (R != D && R != ExemptSrc)
              MarkPair(D, R);
          });
          return;
        }
        DirtyLive.Live.forEach([&](size_t SlotIdx) {
          RegId R = DirtyList[SlotIdx];
          if (R != ExemptSrc)
            Exact[SlotIdx].set(D);
        });
      },
      MarkPair, DirtyLive);

  for (size_t I = 0; I < ND; ++I) {
    RegId R = DirtyList[I];
    // The maintained graph is conservative (exact edges are a subset of
    // the unioned ones), so repairing a row only ever *removes* edges.
    // Collect first: removeEdge mutates the row being walked.
    std::vector<RegId> Stale;
    const std::vector<RegId> &Row = IG.neighbors(R);
    for (RegId N : Row)
      if (!Exact[I].test(N))
        Stale.push_back(N);
    assert(Exact[I].count() == Row.size() - Stale.size() &&
           "repair found an exact edge the unioned graph was missing");
    for (RegId N : Stale)
      IG.removeEdge(R, N);
    Stats.NumStaleEdgesRemoved += static_cast<unsigned>(Stale.size());
  }
}

/// The zero-rebuild worklist schedule (see the header for the exactness
/// argument).
void coalesceWithWorklist(Function &F, AnalysisManager &AM,
                          CoalescerStats &Stats,
                          std::vector<std::pair<RegId, RegId>> *TraceOut) {
  Liveness &LV = AM.liveness();

  // Graph-free gate first: after phi coalescing without ABI pinning
  // (Lphi+C, Sphi+C) nearly every call finds nothing to merge and never
  // builds a graph; under ABI pinning nearly every call builds one.
  std::vector<Instruction *> Copies = candidateCopies(F);
  ++Stats.NumConfirmScans;
  if (!anyCoalescableCopy(F, LV, Copies))
    return;

  bool HadGraph = AM.isCached(AnalysisKind::Interference);
  InterferenceGraph &IG = AM.interference();
  if (!HadGraph)
    ++Stats.NumRebuilds; // The one and only build of this call.

  // The move worklist: every candidate copy, in instruction order
  // (matching the reference sweep order). Entries index Copies, and
  // Retired marks the copies deleted as identities, so no entry is left
  // dangling.
  std::vector<bool> Retired(Copies.size());
  std::vector<unsigned> Queue; // This round's pops, ascending copy index.
  Queue.reserve(Copies.size());
  for (unsigned Idx = 0; Idx < Copies.size(); ++Idx)
    Queue.push_back(Idx);
  Stats.NumWorklistPushes += static_cast<unsigned>(Queue.size());

  std::vector<unsigned> Deferred; // Blocked moves, ascending copy index.
  // Operands resolve through the graph's merge map. Each merge marks its
  // survivor dirty, so DirtyList holds every victim's final
  // representative.
  BitVector DirtyMask(F.numValues());
  std::vector<RegId> DirtyList;
  std::vector<RegId> Victims;

  while (!Queue.empty()) {
    ++Stats.NumRounds;
    Stats.MaxWorklistDepth = std::max(
        Stats.MaxWorklistDepth, static_cast<unsigned>(Queue.size()));
    unsigned MergesThisRound = 0;

    for (unsigned Idx : Queue) {
      ++Stats.NumWorklistPops;
      assert(!Retired[Idx] && "a dead move stayed enqueued");
      RegId D = IG.representative(Copies[Idx]->def(0));
      RegId S = IG.representative(Copies[Idx]->use(0));
      if (D == S)
        continue; // Became an identity; deleted at the boundary.
      if (F.isPhysical(D) && F.isPhysical(S))
        continue; // Cannot merge two machine registers; dropped for good.
      if (IG.interfere(D, S)) {
        Deferred.push_back(Idx);
        continue;
      }
      RegId Survivor = F.isPhysical(S) ? S : D;
      RegId Victim = Survivor == D ? S : D;
      IG.mergeNodes(Survivor, Victim);
      Victims.push_back(Victim);
      if (!DirtyMask.test(Survivor)) {
        DirtyMask.set(Survivor);
        DirtyList.push_back(Survivor);
      }
      if (TraceOut)
        TraceOut->emplace_back(Survivor, Victim);
      ++Stats.NumMerges;
      ++MergesThisRound;
    }
    assert(MergesThisRound > 0 &&
           "every scheduled round must merge at least once");
    Stats.RoundMerges.push_back(MergesThisRound);
    // A survivor merged away later in the round is one of its victims:
    // only the final representatives stay dirty (DirtyMask is only ever
    // tested on representatives).
    std::erase_if(DirtyList,
                  [&](RegId V) { return IG.representative(V) != V; });

    // Round boundary: apply the renames, drop identity moves (retiring
    // their worklist entries), and maintain the dense liveness exactly.
    //
    // Retire the records whose copies the rewrite below will erase as
    // identities BEFORE touching the instructions: resolving the recorded
    // operands needs no pointer map, and the erase loop then never has to
    // map an instruction back to its record.
    for (unsigned Idx = 0; Idx < Copies.size(); ++Idx)
      if (!Retired[Idx] && IG.representative(Copies[Idx]->def(0)) ==
                               IG.representative(Copies[Idx]->use(0)))
        Retired[Idx] = true;
    for (const auto &BB : F.blocks()) {
      auto &Insts = BB->instructions();
      for (auto It = Insts.begin(); It != Insts.end();) {
        for (unsigned K = 0; K < It->numDefs(); ++K)
          It->setDef(K, IG.representative(It->def(K)));
        for (unsigned K = 0; K < It->numUses(); ++K)
          It->setUse(K, IG.representative(It->use(K)));
        if (It->isCopy() && It->def(0) == It->use(0)) {
          It = Insts.erase(It);
          ++Stats.NumMovesRemoved;
        } else {
          ++It;
        }
      }
    }

    // Only the dirty values' ranges changed (each victim's joined its
    // final representative's); the victims no longer occur anywhere.
    LV.recomputeValues(DirtyList);
    LV.clearValues(Victims);

    // Settle this round's lazy merges into sorted rows, then restore
    // G = exact graph of the rewritten program (dirty rows only).
    IG.compact();
    repairDirtyRows(F, LV, IG, DirtyList, Stats);

    // Re-enqueue exactly the deferred moves whose operands alias a node
    // merged this round and whose pair no longer interferes; clean pairs
    // kept their (exact) edge, so they stay parked without a query.
    std::sort(Deferred.begin(), Deferred.end());
    Queue.clear();
    std::vector<unsigned> StillDeferred;
    for (unsigned Idx : Deferred) {
      if (Retired[Idx])
        continue; // Deleted as an identity above.
      // Rewritten: already resolved.
      RegId D = Copies[Idx]->def(0), S = Copies[Idx]->use(0);
      assert(D != S && "identity copies are deleted, not deferred");
      if (F.isPhysical(D) && F.isPhysical(S))
        continue; // Permanently unmergeable.
      if ((DirtyMask.test(D) || DirtyMask.test(S)) && !IG.interfere(D, S)) {
        Queue.push_back(Idx);
        ++Stats.NumRequeues;
        ++Stats.NumWorklistPushes;
      } else {
        StillDeferred.push_back(Idx);
      }
    }
    Deferred.swap(StillDeferred);

    DirtyMask.clear();
    DirtyList.clear();
    Victims.clear();
  }
  // Worklist dry: every surviving copy pair carries an exact interference
  // edge — the rebuild-every-round fixpoint condition.
}

} // namespace

CoalescerStats lao::coalesceAggressively(Function &F,
                                         const CoalescerOptions &Opts,
                                         AnalysisManager *AM) {
  CoalescerStats Stats;
  std::optional<AnalysisManager> LocalAM;
  if (!AM) {
    LocalAM.emplace(F);
    AM = &*LocalAM;
  }

  coalesceWithWorklist(F, *AM, Stats, Opts.TraceOut);

  if (Stats.NumMerges > 0) {
    // The maintained liveness is exact, and the repaired graph is the
    // exact graph of the final program; only the SSA-position query
    // engine is stale. With verify-on-invalidate enabled both survivors
    // are cross-checked against fresh recomputation here.
    AM->invalidate(PreservedAnalyses::cfgOnly()
                       .preserve(AnalysisKind::Liveness)
                       .preserve(AnalysisKind::Interference));
  }

  LAO_STAT(coalesce, runs) += 1;
  LAO_STAT(coalesce, rounds) += Stats.NumRounds;
  LAO_STAT(coalesce, rebuilds) += Stats.NumRebuilds;
  LAO_STAT(coalesce, merges) += Stats.NumMerges;
  LAO_STAT(coalesce, moves_removed) += Stats.NumMovesRemoved;
  LAO_STAT(coalesce, repair_scans) += Stats.NumRepairScans;
  LAO_STAT(coalesce, worklist_pushes) += Stats.NumWorklistPushes;
  LAO_STAT(coalesce, worklist_pops) += Stats.NumWorklistPops;
  LAO_STAT(coalesce, worklist_requeues) += Stats.NumRequeues;
  LAO_STAT(coalesce, stale_edges_removed) += Stats.NumStaleEdgesRemoved;
  return Stats;
}
