//===- Pipeline.h - Out-of-SSA experiment pipelines -------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Composition of the out-of-SSA passes into the experiment
/// configurations of the paper's Table 1. Each configuration is a preset
/// naming which passes run:
///
///   name            Sreedhar CSSA  SP  ABI  phi  NaiveABI  Coalesce
///   "Lphi+C"           -      -    x    -    x      -         x
///   "C"                -      -    x    -    -      -         x
///   "Sphi+C"           x      x    x    -    -      -         x
///   "Lphi,ABI+C"       -      -    x    x    x      -         x
///   "Sphi+LABI+C"      x      x    x    x    -      -         x
///   "LABI+C"           -      -    x    x    -      -         x
///   "C,naiveABI+C"     -      -    x    -    -      x         x
///   "Lphi,ABI"         -      -    x    x    x      -         -
///   "Sphi"             x      x    x    -    -      x         -
///   "LABI"             -      -    x    x    -      -         -
///
/// ("C,naiveABI+C" is the Table 3 column named C in the paper: naive phi
/// replacement and naive ABI lowering, followed by aggressive coalescing.)
/// The out-of-pinned-SSA translation itself runs in every configuration,
/// exactly as in Table 1.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_OUTOFSSA_PIPELINE_H
#define LAO_OUTOFSSA_PIPELINE_H

#include "outofssa/Coalescer.h"
#include "outofssa/LeungGeorge.h"
#include "outofssa/PhiCoalescing.h"
#include "outofssa/Sreedhar.h"
#include "support/Timer.h"

#include <functional>
#include <optional>
#include <string>

namespace lao {

class AnalysisManager;

/// Which passes a pipeline run executes (see the table above).
struct PipelineConfig {
  std::string Name = "Lphi,ABI+C";
  bool Sreedhar = false;  ///< convertToCSSA + pinCSSAWebs
  bool PinABI = false;
  bool PinPhi = false;    ///< The paper's pinning-based coalescing.
  bool NaiveABI = false;
  bool Coalesce = false;
  InterferenceMode Mode = InterferenceMode::Precise;
  PhiCoalescingOptions PhiOpts;
  /// Cooperative cancellation hook, polled between phases. When it
  /// returns true the pipeline stops immediately and the result comes
  /// back with Cancelled set; the function is left half-transformed and
  /// must be discarded. The compile server's deadline enforcement plugs
  /// in here — an empty function (the default) is never polled.
  std::function<bool()> CancelCheck;
};

/// Returns the preset for \p Name (see header table), or std::nullopt
/// for an unknown name. Use this from anything that parses user input.
std::optional<PipelineConfig> pipelinePresetOpt(const std::string &Name);

/// Returns the preset for \p Name (see header table). Unknown names are
/// a fatal error in every build type (message to stderr, then abort) —
/// callers pass compile-time constants; user-facing code wanting a
/// recoverable failure goes through pipelinePresetOpt.
PipelineConfig pipelinePreset(const std::string &Name);

/// Phase names runPipeline reports in PipelineResult::Timings, in
/// execution order (phases a configuration skips are absent).
///
///   split-critical-edges, constraints, sreedhar, pin-analysis,
///   phi-coalescing, translate, sequentialize, naive-abi, coalesce
///
/// Outcome of one pipeline run over one function.
struct PipelineResult {
  bool Cancelled = false;       ///< CancelCheck fired; all else invalid.
  /// Set when the entry step rejected the input (a value of the reachable
  /// code is defined twice, or used and never defined, so it is not SSA;
  /// or verifyStructure found a malformed phi or input); nothing ran and
  /// all else is invalid.
  std::string InputError;
  unsigned NumMoves = 0;        ///< Residual moves (Tables 2-4 metric).
  uint64_t WeightedMoves = 0;   ///< 5^depth-weighted (Table 5 metric).
  TimerGroup Timings;           ///< Per-phase wall time (see above).
  unsigned MovesBeforeCoalesce = 0;
  // Every other count of the run is a registry counter (support/Stats.h):
  // the passes' own (translate.*, phicoalesce.*, coalesce.*, ...) and the
  // class-size histogram after phi-coalescing (pinning.*).
};

/// The pipeline's entry step, also run by the compile job before
/// if-conversion: a DFS over successors() marks the reachable blocks, one
/// pass over their instructions checks that no virtual register is
/// defined twice, a second pass that every virtual register used there is
/// defined there (either failure is reported in \p Error), and then the
/// unreachable blocks are erased. Last, verifyStructure checks what is
/// left, and its first diagnostic becomes \p Error. No analysis is built,
/// so the analysis counters of a run do not change.
bool prepareInput(Function &F, std::string &Error);

/// Runs the configured pipeline over \p F (mutating it from SSA to final
/// non-SSA code) and returns the measurements.
///
/// The entry step, timed under split-critical-edges, checks that \p F is
/// single-assignment and defines every value it uses, erases its
/// unreachable blocks and then requires verifyStructure to pass (else
/// InputError). So every later phase sees only reachable, well-formed
/// code: there, SSA live ranges are dominator subtrees, which the
/// class-interference engine needs.
PipelineResult runPipeline(Function &F, const PipelineConfig &Config);

/// Same, but reusing the caller-owned \p AM instead of building a fresh
/// manager: the pipeline rebinds it to \p F (AnalysisManager::reset)
/// before its first analysis-reading phase (Sreedhar, else
/// pin-analysis) and returns it still bound, caches and all, for
/// allocateRegisters. This is the
/// compile-service entry point — one long-lived manager per worker,
/// reset per request, identical results to the one-shot overload.
PipelineResult runPipeline(Function &F, const PipelineConfig &Config,
                           AnalysisManager &AM);

} // namespace lao

#endif // LAO_OUTOFSSA_PIPELINE_H
