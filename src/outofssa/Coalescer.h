//===- Coalescer.h - Aggressive repeated register coalescing ----*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's [Coalescing] baseline: a Chaitin-style aggressive
/// "repeated" register coalescer run on non-SSA code, outside any
/// register-allocation context (so it ignores colorability). It removes
/// every move whose operands do not interfere by merging them, and stops
/// at a fixpoint: no copy is mergeable under an exact interference graph.
///
/// Zero-rebuild schedule
/// ---------------------
/// The interference graph is built exactly once per call. A graph-free
/// *confirm scan* first proves a merge exists (after phi coalescing
/// without ABI pinning nearly every call finds nothing and never builds
/// a graph; under ABI pinning nearly every call builds one). It probes
/// each register's list of copy partners and drops a partner once its
/// pair interferes, so it is linear in the walk plus the probes. Then a FIFO worklist of the
/// remaining copies drives merge *rounds*:
///
///  1. pop each copy, resolve its operands through the graph's merge map
///     (InterferenceGraph::representative, a union-find: the schedule
///     keeps no rename map of its own), and either merge it or defer it
///     when the current graph carries an edge between the operands.
///     InterferenceGraph::mergeNodes unions the two neighborhoods lazily,
///     in O(deg(victim)): the bit matrix, which answers every mid-round
///     query, moves the victim's edges to the survivor at once, while the
///     survivor's row only gains the victim's new neighbors and the other
///     rows go stale (the victim's id stays in them and resolves to the
///     survivor);
///  2. at the round boundary, rewrite every operand to its
///     representative, delete the moves that became identities, maintain
///     the dense liveness exactly (Liveness::recomputeValues on the
///     round's survivors, which include every victim's final
///     representative, then Liveness::clearValues on its victims),
///     re-emit the rows once from the exact bit matrix, and run
///     one *repair scan* that restores the graph to exactness (see
///     below); then re-enqueue exactly the deferred copies whose operands
///     alias a node merged this round and whose repaired pair no longer
///     interferes.
///
/// The sweep stops when nothing is re-enqueued: every surviving copy then
/// carries an exact interference edge, which is the fixpoint condition.
///
/// Both scans are visitors of forEachInterference
/// (analysis/InterferenceGraph.h), the walk the graph constructor uses:
/// the edge rule they restrict is the constructor's by construction.
///
/// Exactness argument (why the merge trace equals rebuild-every-round)
/// -------------------------------------------------------------------
/// Let E(P) be the exact graph of program P and G the maintained graph.
/// Unioning neighborhoods on a merge is conservative: every exact edge of
/// the renamed program maps to some unioned edge, so E(P') is a subgraph
/// of G throughout a round — G never lets through a merge that an exact
/// graph would block. G can, however, hold *stale* edges (e.g. the copy
/// `x = s` contributes no (x, s) edge by Chaitin's source exemption, but
/// after s merges into d the same instruction reads `x = d` and a unioned
/// (x, d) edge may survive that the exemption would now suppress). Two
/// confinement lemmas bound the damage: (a) a merge changes the liveness
/// only of its own constituents (a merged range is contained in the union
/// of the old ranges), and (b) re-running the graph construction on the
/// rewritten program changes only edges incident to nodes touched by a
/// merge. Hence every stale edge lies on a row of a *dirty* node — a
/// merge survivor — and the round-boundary repair scan, which recomputes
/// exactly those rows from the maintained (exact) liveness, restores
/// G = E(P') at every round boundary. By induction each round therefore
/// starts from the same exact graph a full rebuild would produce, pops in
/// the same instruction order the rebuild path sweeps in, and mid-round
/// queries agree as well (unions only add edges, and rebuild-every-round
/// blocks on its own unions identically), so the (survivor, victim) merge
/// sequence is identical to the rebuild-every-round reference.
///
/// The tests hold the schedule to that claim literally: the reference,
/// which rebuilds CFG, liveness and graph before every sweep, lives in
/// the test tree (tests/ReferenceCoalescer.h), and
/// Coalescer.WorklistTraceMatchesRebuildEveryRoundOnEverySuite and
/// Coalescer.AdversarialRequeueForcerMatchesReference require the same
/// merge trace and byte-identical IR from both on the coalescer input of
/// every `+C` preset, every suite function and generated programs.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_OUTOFSSA_COALESCER_H
#define LAO_OUTOFSSA_COALESCER_H

#include "ir/Function.h"

#include <utility>
#include <vector>

namespace lao {

class AnalysisManager;

/// The resolved (survivor, victim) pairs of one merge round, in merge
/// order.
using MergeRound = std::vector<std::pair<RegId, RegId>>;

struct CoalescerOptions {
  /// When set, receives one MergeRound per merge round, in round order:
  /// the exact trace the tests compare against the reference schedule,
  /// cut at the round boundaries.
  std::vector<MergeRound> *TraceOut = nullptr;
};

/// Runs aggressive repeated coalescing on non-SSA \p F (no phis; parallel
/// copies must have been sequentialized).
///
/// When \p AM is provided it supplies the CFG and dense liveness, and on
/// return its Liveness is still cached and *valid* (the coalescer
/// maintains it exactly through every rename/deletion). When merges
/// happened, the repaired interference graph — exact for the final
/// program — stays cached too; only the liveness-query engine is
/// invalidated. Passing nullptr uses a private manager.
///
/// The call's work is counted by the coalesce.* counters: rounds,
/// merges (interference-graph node merges, the cost the paper's
/// compile-time discussion attributes to this phase), moves removed,
/// graph builds (rebuilds: at most one, none when the confirm scan finds
/// nothing to merge), confirm scans and their partner probes, repair
/// scans (one per round), stale edges those scans removed, and the
/// worklist's pushes, pops and re-enqueues.
void coalesceAggressively(Function &F, const CoalescerOptions &Opts = {},
                          AnalysisManager *AM = nullptr);

} // namespace lao

#endif // LAO_OUTOFSSA_COALESCER_H
