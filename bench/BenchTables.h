//===- BenchTables.h - The paper tables and the ablation as data -*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The table list bench_tables prints and writes: the paper's Tables 2-5
/// and our design-choice ablation. Each entry names its JSON file
/// (BENCH_<bench>.json) and lists its columns as pipeline configurations;
/// the config names are the JSON record keys, so they must stay stable
/// and be distinct within a table (ObservabilityTests checks this).
///
//===----------------------------------------------------------------------===//

#ifndef LAO_BENCH_BENCHTABLES_H
#define LAO_BENCH_BENCHTABLES_H

#include "BenchUtil.h"

namespace lao {
namespace bench {

/// Table 5's algorithm variants: the Lphi,ABI pipeline (no cleanup
/// coalescer) with Algorithm 3 or an Algorithm 4 interference mode.
inline TableColumn table5Variant(const std::string &Variant) {
  PipelineConfig C = pipelinePreset("Lphi,ABI");
  C.Name = "Lphi,ABI(" + Variant + ")";
  if (Variant == "depth")
    C.PhiOpts.DepthConstrained = true;
  else if (Variant == "opt")
    C.Mode = InterferenceMode::Optimistic;
  else if (Variant == "pess")
    C.Mode = InterferenceMode::Pessimistic;
  return {Variant, C, Metric::WeightedMoves};
}

/// An ablation column: the paper-default Lphi,ABI+C with one
/// phi-coalescing option changed. The config takes the ablation's name —
/// the options differ, not the preset.
inline TableColumn ablation(const std::string &Name,
                            void (*Change)(PhiCoalescingOptions &)) {
  PipelineConfig C = pipelinePreset("Lphi,ABI+C");
  C.Name = Name;
  Change(C.PhiOpts);
  return {Name, C, Metric::Moves};
}

/// A move-count column running the Table 1 preset \p Preset.
inline TableColumn movesOf(const std::string &Header, const char *Preset) {
  return {Header, pipelinePreset(Preset), Metric::Moves};
}

/// Every table bench_tables prints, in print order.
inline std::vector<PaperTable> paperTables() {
  return {
      // Table 2: no ABI constraint (the SP constraint always applies, as
      // in the paper). Expected: Lphi+C <= C everywhere; Sphi+C close.
      {"table2",
       "Table 2: move instruction count with no ABI constraint",
       "(Sphi+C is an optimistic approximation, as in the paper: the\n"
       " Sreedhar conversion is not dedicated-register safe.)",
       {movesOf("Lphi+C", "Lphi+C"), movesOf("C", "C"),
        movesOf("Sphi+C", "Sphi+C")}},
      // Table 3: all renaming constraints. "C" is the paper's fully naive
      // column: phis replaced without coalescing pins and the ABI lowered
      // locally, then the aggressive coalescer. Expected: Lphi,ABI+C best
      // everywhere, the naive column dramatically worse.
      {"table3",
       "Table 3: move instruction count with renaming constraints",
       "",
       {movesOf("Lphi,ABI+C", "Lphi,ABI+C"),
        movesOf("Sphi+LABI+C", "Sphi+LABI+C"), movesOf("LABI+C", "LABI+C"),
        movesOf("C", "C,naiveABI+C")}},
      // Table 4: the moves a repeated-coalescing post-pass would have to
      // chew through under naive lowering, versus the pinned residual
      // ([CC3]: the coalescer's cost is proportional to these counts).
      {"table4",
       "Table 4: moves left for a post coalescer under naive lowering",
       "(columns 2 and 3 are deltas: the extra ABI moves left by Sphi and\n"
       " the extra phi moves left by LABI, as in the paper's Table 4)",
       {movesOf("Lphi,ABI", "Lphi,ABI"), movesOf("Sphi(ABI mov)", "Sphi"),
        movesOf("LABI(phi mov)", "LABI")}},
      // Table 5: moves weighed 5^depth. Expected: depth about neutral,
      // opt slightly worse, pess dramatically worse.
      {"table5",
       "Table 5: 5^depth-weighted move count, variants of the algorithm",
       "",
       {table5Variant("base"), table5Variant("depth"), table5Variant("opt"),
        table5Variant("pess")}},
      // Ablation (ours): the pruning heuristic, the physical-class merge
      // threshold (Figure 8 partial coalescing) and the [LIM2] use-pin
      // pre-pass, measured after the cleanup coalescer — does the
      // decision still matter once an aggressive coalescer runs?
      {"ablation",
       "Ablation: residual moves after full pipeline (+C)",
       "",
       {ablation("paper-default", [](PhiCoalescingOptions &) {}),
        ablation("prune-firstfound",
                 [](PhiCoalescingOptions &O) {
                   O.Heuristic = PruneHeuristic::FirstFound;
                 }),
        ablation("phys-merge-always",
                 [](PhiCoalescingOptions &O) { O.PhysMergeMinMult = 1; }),
        ablation("phys-merge-never",
                 [](PhiCoalescingOptions &O) { O.PhysMergeMinMult = ~0u; }),
        ablation("lim2-usepin-prepass", [](PhiCoalescingOptions &O) {
          O.UsePinAffinity = true;
        })}},
  };
}

} // namespace bench
} // namespace lao

#endif // LAO_BENCH_BENCHTABLES_H
