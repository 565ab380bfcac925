//===- CompileJob.cpp - The one compile job of every front door ----------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "driver/CompileJob.h"

#include "analysis/AnalysisManager.h"
#include "exec/VM.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "outofssa/MoveStats.h"
#include "outofssa/Pipeline.h"
#include "ssa/IfConversion.h"
#include "ssa/SSAVerifier.h"
#include "support/StringUtils.h"
#include "workloads/Suites.h"

#include <optional>

using namespace lao;

const char *lao::outcomeName(RequestOutcome O) {
  static const char *const Names[] = {
      "ok", "parse_error", "unknown_preset", "timeout", "pipeline_error",
      "oversized", "batch_error", "protocol_error"};
  static_assert(std::size(Names) == size_t(RequestOutcome::Protocol) + 1,
                "one name per RequestOutcome, in order");
  return Names[static_cast<size_t>(O)];
}

WorkerContext::WorkerContext() = default;
WorkerContext::~WorkerContext() = default;

namespace {

const char *execStatusName(const ExecResult &R) {
  return R.ok() ? "ok" : R.timedOut() ? "timeout" : "error";
}

void fail(CompileOutcome &O, RequestOutcome Class, std::string Error) {
  O.Outcome = Class;
  O.Error = std::move(Error);
  O.IR.clear();
}

/// The job proper; it stops at the first failure, recorded in \p O.
void compile(CompileOutcome &O, const std::string &Text,
             const RequestOptions &Opts, WorkerContext &Ctx,
             const std::function<bool()> &Cancel) {
  std::string Error;
  std::unique_ptr<Function> Parsed = parseFunction(Text, &Error);
  if (!Parsed)
    return fail(O, RequestOutcome::ParseError, "parse error: " + Error);

  std::optional<PipelineConfig> Config;
  if (!Opts.Pipeline.empty() && !(Config = pipelinePresetOpt(Opts.Pipeline)))
    return fail(O, RequestOutcome::UnknownPreset,
                formatStr("unknown pipeline preset '%s'",
                          Opts.Pipeline.c_str()));
  std::optional<RegAllocOptions> RA;
  if (!Opts.RegAlloc.empty()) {
    if (!(RA = regAllocPresetOpt(Opts.RegAlloc)))
      return fail(O, RequestOutcome::UnknownPreset,
                  formatStr("unknown regalloc preset '%s'",
                            Opts.RegAlloc.c_str()));
    if (uint64_t N = Opts.RegAllocRegs) {
      // Checked before the narrowing cast, so NumRegs is the pool used.
      if (N < 2 || N > MaxAllocatableRegs)
        return fail(O, RequestOutcome::ParseError,
                    formatStr("regalloc_regs must be 2..%u, got %llu",
                              MaxAllocatableRegs,
                              static_cast<unsigned long long>(N)));
      RA->NumRegs = static_cast<unsigned>(N);
    }
  }
  if (!Opts.Exec.empty() && Opts.Exec != "interp" && Opts.Exec != "vm" &&
      Opts.Exec != "both")
    return fail(O, RequestOutcome::UnknownPreset,
                formatStr("unknown exec engine '%s' (want interp, vm or both)",
                          Opts.Exec.c_str()));

  // The previous job's function dies only now, after this one parsed:
  // with the context's recycler bound to the thread, its arena chunks
  // park there and the next job's parse bump-allocates into them.
  Ctx.F = std::move(Parsed);
  Function &F = *Ctx.F;

  if (Opts.BuildSSA) {
    if (!normalizeToOptimizedSSA(F, &Error))
      return fail(O, RequestOutcome::ParseError, "ssa error: " + Error);
    if (Opts.Verify)
      for (const std::string &D : verifySSA(F))
        O.Diagnostics.push_back("ssa: " + D);
  }
  if (Opts.IfConvert) {
    // If-conversion reads the phis of every join: it needs the input the
    // pipeline's entry step guarantees, so that step runs first.
    if (!prepareInput(F, Error))
      return fail(O, RequestOutcome::ParseError, "ssa error: " + Error);
    convertIfsToPsi(F);
  }

  // One manager from the pipeline to the last allocation round: the
  // pipeline binds it to F, or the job does when there is no pipeline.
  if (!Ctx.AM)
    Ctx.AM = std::make_unique<AnalysisManager>(F);
  AnalysisManager &AM = *Ctx.AM;
  bool Cancelled = false;
  if (Config) {
    Config->CancelCheck = Cancel;
    PipelineResult R = runPipeline(F, *Config, AM);
    if (!R.InputError.empty())
      return fail(O, RequestOutcome::ParseError, "ssa error: " + R.InputError);
    Cancelled = R.Cancelled;
    O.Moves = R.NumMoves;
    O.WeightedMoves = R.WeightedMoves;
    O.Timings = std::move(R.Timings);
  } else {
    AM.reset(F);
    O.Moves = countMoves(F);
    O.WeightedMoves = weightedMoveCount(F, AM);
  }

  // One poll after the pipeline, whatever follows: a deadline that
  // expired in its last phase fails the job instead of answering late.
  if (Cancelled || (Cancel && Cancel()))
    return fail(O, RequestOutcome::Timeout,
                "deadline exceeded during compilation");
  if (RA) {
    RegAllocResult R;
    {
      ScopedTimer T(O.Timings, "regalloc");
      R = allocateRegisters(F, *RA, AM);
    }
    if (!R.Ok)
      return fail(O, RequestOutcome::PipelineError,
                  "regalloc error: " + R.Error);
    O.HasRegAlloc = true;
    O.Allocator = allocatorName(RA->Allocator);
    O.SpillMode = spillModelName(RA->SpillMode);
    O.NumRegs = RA->NumRegs;
    O.Spills = R.NumSpilled;
    O.SpillAccesses = R.NumSpillLoads + R.NumSpillStores;
    O.RegsUsed = R.NumRegsUsed;
    O.FrameBytes = R.FrameBytes;
  }

  O.IR = printFunction(F);

  if (!Opts.Exec.empty()) {
    ExecResult ER = Opts.Exec == "interp" ? interpret(F, Opts.ExecArgs)
                                          : executeVM(F, Opts.ExecArgs);
    if (Opts.Exec == "both") {
      // An in-process differential: the interpreter must reproduce the
      // VM's outcome on the same transformed function.
      ExecResult I = interpret(F, Opts.ExecArgs);
      O.InterpSteps = I.Steps;
      if (!ER.sameOutcome(I)) {
        O.ExecDiverged = true;
        return fail(O, RequestOutcome::PipelineError,
                    formatStr("exec divergence: vm %s (%s), interp %s (%s)",
                              execStatusName(ER), ER.Error.c_str(),
                              execStatusName(I), I.Error.c_str()));
      }
    }
    O.HasExec = true;
    O.ExecEngine = Opts.Exec;
    O.ExecStatus = execStatusName(ER);
    O.ExecError = std::move(ER.Error);
    O.DynInstrs = ER.Steps;
    O.DynMoves = ER.DynMoves;
    O.ExecOutputs = std::move(ER.Outputs);
    O.ExecRet = ER.ok() ? ER.RetValue : 0;
  }
}

} // namespace

CompileOutcome lao::runCompileJob(const std::string &Text,
                                  const RequestOptions &Opts,
                                  WorkerContext &Ctx,
                                  const std::function<bool()> &Cancel) {
  CompileOutcome O;
  try {
    compile(O, Text, Opts, Ctx, Cancel);
  } catch (const std::exception &E) {
    fail(O, RequestOutcome::PipelineError,
         formatStr("pipeline error: %s", E.what()));
  } catch (...) {
    fail(O, RequestOutcome::PipelineError, "pipeline error: unknown");
  }
  return O;
}
