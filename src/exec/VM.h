//===- VM.h - Threaded-dispatch bytecode VM ---------------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register-machine executor for the bytecode in Bytecode.h. The dispatch
/// loop uses computed goto, a GCC/Clang extension (the only compilers the
/// tree builds with).
///
/// The VM observes the same machine model as `interpret()` — dense
/// register frame with definedness tracking, SP preinitialized, sparse
/// memory with deterministic hashes for unwritten addresses, the pure
/// built-in for calls — and must satisfy `ExecResult::sameOutcome`
/// against it on every input (docs/EXEC.md). Each run tallies the
/// `exec.dyn_instrs` and `exec.dyn_moves` counters: executed bytecode
/// instructions and executed copies, the dynamic cost axis the static
/// move counts in the paper tables approximate.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_EXEC_VM_H
#define LAO_EXEC_VM_H

#include "exec/Bytecode.h"
#include "exec/Interpreter.h"

namespace lao {

/// Executes \p BF with \p Args bound to its Input instruction. \p
/// MaxSteps bounds executed bytecode instructions; note lowered copies
/// and edge stubs make the budget engine-specific relative to
/// `interpret()`.
ExecResult runBytecode(const BytecodeFunction &BF,
                       const std::vector<uint64_t> &Args,
                       uint64_t MaxSteps = 1u << 22);

/// Convenience wrapper: compile \p F and run it.
ExecResult executeVM(const Function &F, const std::vector<uint64_t> &Args,
                     uint64_t MaxSteps = 1u << 22);

} // namespace lao

#endif // LAO_EXEC_VM_H
