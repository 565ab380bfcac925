//===- CompileJob.h - The one compile job of every front door ---*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The translation of the paper's Table 1 as one library call, made by
/// lao-opt, Server::compileRequest and lao-client's selftest reference:
///
///   parse -> [normalizeToOptimizedSSA] -> [convertIfsToPsi]
///         -> runPipeline -> [allocateRegisters] -> printFunction
///         -> [interpret / executeVM]
///
/// The job never aborts on bad input: a failure is an outcome class and
/// one line of error text.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_DRIVER_COMPILEJOB_H
#define LAO_DRIVER_COMPILEJOB_H

#include "exec/Interpreter.h"
#include "regalloc/RegAlloc.h"
#include "support/Arena.h"
#include "support/Timer.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace lao {

class AnalysisManager;
class Function;

/// The options of one compile job. The server reads a frame's wire keys
/// into it (Protocol.h); IfConvert and Verify are lao-opt's.
struct RequestOptions {
  std::string Pipeline = "Lphi,ABI+C"; ///< Empty = no out-of-SSA pipeline.
  bool BuildSSA = false;
  uint64_t DeadlineMs = 0; ///< 0 = none (the server default may apply);
                           ///< measured from frame arrival.
  uint64_t SleepMs = 0;    ///< Diagnostic pre-compile idle (Protocol.h).
  std::string RegAlloc;    ///< Allocator preset; empty = no allocation
                           ///< (unless the server has a default).
  uint64_t RegAllocRegs = 0; ///< Pool-size override; 0 = preset default.
  std::string Exec;        ///< Execution engine ("interp"/"vm"/"both");
                           ///< empty = do not execute.
  std::vector<uint64_t> ExecArgs; ///< Arguments for the entry `input`.
  bool IfConvert = false;  ///< convertIfsToPsi after SSA construction.
  bool Verify = false;     ///< Self-check SSA construction (Diagnostics).
};

/// How one request ended. Mirrored textually in the record's "outcome".
/// The job answers the first five; the server's framing the rest.
enum class RequestOutcome {
  Ok,
  ParseError,    ///< Text or options did not parse, or input is invalid.
  UnknownPreset, ///< Pipeline, allocator or engine name is unknown.
  Timeout,       ///< Deadline expired (queued, sleeping, or mid-phase).
  PipelineError, ///< Allocation failed, engines diverged, or it threw.
  Oversized,     ///< Declared body length over the frame limit.
  BatchError,    ///< Malformed batch sub-framing inside a framed body.
  Protocol,      ///< Framing failure (the final, fatal record).
};

/// Returns the wire name of \p O ("ok", "parse_error", ...).
const char *outcomeName(RequestOutcome O);

/// Reusable state of whoever runs jobs back to back: the long-lived
/// AnalysisManager, the Function it is bound to (after a job, the one
/// it compiled; both are replaced together), and a chunk recycler.
struct WorkerContext {
  WorkerContext(); // Out of line, where Function and AM are complete.
  ~WorkerContext();
  std::unique_ptr<Function> F;
  std::unique_ptr<AnalysisManager> AM;
  ArenaRecycler Recycler;
};

/// Everything one compile job produced (the server's RequestRecord
/// adds the request's identity and timing).
struct CompileOutcome {
  RequestOutcome Outcome = RequestOutcome::Ok;
  bool ok() const { return Outcome == RequestOutcome::Ok; }
  std::string Error; ///< One line naming the failure; empty when ok.
  /// Residual and 5^depth-weighted moves, counted before allocation.
  unsigned Moves = 0;
  uint64_t WeightedMoves = 0;
  /// Allocation summary; a failed allocation is a PipelineError.
  bool HasRegAlloc = false;
  std::string Allocator;       ///< allocatorName() of the applied preset.
  std::string SpillMode;       ///< spillModelName() of the applied preset.
  unsigned NumRegs = 0;        ///< The applied pool size.
  unsigned Spills = 0;         ///< RegAllocResult::NumSpilled.
  unsigned SpillAccesses = 0;  ///< NumSpillLoads + NumSpillStores.
  unsigned RegsUsed = 0;       ///< RegAllocResult::NumRegsUsed.
  unsigned FrameBytes = 0;     ///< RegAllocResult::FrameBytes.
  /// Execution summary from the reporting engine (the VM for "vm" and
  /// "both"); only a "both" divergence fails the job (docs/EXEC.md).
  bool HasExec = false;
  std::string ExecEngine;      ///< "interp", "vm" or "both", as requested.
  std::string ExecStatus;      ///< "ok", "error" or "timeout".
  std::string ExecError;       ///< Program-level diagnostic; empty on ok.
  uint64_t DynInstrs = 0;      ///< ExecResult::Steps.
  uint64_t DynMoves = 0;       ///< ExecResult::DynMoves.
  std::vector<uint64_t> ExecOutputs; ///< The `output` trace.
  uint64_t ExecRet = 0;        ///< The `ret` value; 0 unless ok.
  uint64_t InterpSteps = 0;    ///< "both": the interpreter's step count.
  bool ExecDiverged = false;   ///< "both": the engines disagreed.
  std::string IR;              ///< The printed result; empty on failure.
  /// Per-phase wall time: the pipeline's phases, then "regalloc". The
  /// passes' counts (SSA construction, if-conversion, the pipeline's
  /// passes, the allocator) are registry counters: a caller reads them
  /// from a StatsScope around the job, as Server::compileRequest does.
  TimerGroup Timings;
  /// With Verify and BuildSSA: verifySSA's findings, as "ssa: ..." lines.
  std::vector<std::string> Diagnostics;
};

/// Compiles \p Text under \p Opts, leaving the function in \p Ctx.
/// \p Cancel, when set, is polled between pipeline phases and once after
/// the pipeline (before allocation, printing and execution); once true,
/// the job stops with a Timeout outcome.
CompileOutcome runCompileJob(const std::string &Text,
                             const RequestOptions &Opts, WorkerContext &Ctx,
                             const std::function<bool()> &Cancel = {});

} // namespace lao

#endif // LAO_DRIVER_COMPILEJOB_H
