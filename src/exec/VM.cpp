//===- VM.cpp - Threaded-dispatch bytecode VM ----------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "exec/VM.h"

#include "ir/Target.h"
#include "support/Stats.h"
#include "support/StringUtils.h"

#include <unordered_map>

using namespace lao;

// Computed goto (a GCC/Clang extension, like __builtin_expect) keeps one
// indirect jump per instruction at each handler's tail: separate
// branch-predictor slots per opcode.
#define LAO_VM_UNLIKELY(X) __builtin_expect(!!(X), 0)

namespace {

/// Per-thread reusable frame storage. Allocating (and for large frames,
/// mmap-ing plus page-faulting) fresh Regs/Defined vectors every run
/// costs as much as executing a mid-sized function, so the frame
/// persists across runs and definedness is an epoch match instead of a
/// zeroed byte array: bumping the epoch undefines every slot in O(1).
/// thread_local keeps concurrent server workers independent.
struct alignas(16) VMSlot {
  uint64_t Val;
  uint32_t Epoch;
};

struct VMScratch {
  std::vector<VMSlot> Frame;
  uint32_t Epoch = 0;
};
thread_local VMScratch Scratch;

/// Cold error path for undefined-register reads. Kept out of line so the
/// hot handlers carry only a compare and a jump, not string assembly.
__attribute__((cold, noinline))
void failUndef(ExecResult &R, const BytecodeFunction &BF, uint32_t Reg) {
  if (R.ok())
    R.Status = ExecStatus::Error;
  if (R.Error.empty())
    R.Error = "read of undefined register %" + BF.RegNames[Reg];
}

} // namespace

ExecResult lao::runBytecode(const BytecodeFunction &BF,
                            const std::vector<uint64_t> &Args,
                            uint64_t MaxSteps) {
  ExecResult R;
  R.Status = ExecStatus::Ok;

  VMScratch &S = Scratch;
  if (S.Frame.size() < BF.NumRegs)
    S.Frame.resize(BF.NumRegs, VMSlot{0, 0});
  if (++S.Epoch == 0) { // Epoch wrap: stale slots could look defined.
    for (VMSlot &SL : S.Frame)
      SL.Epoch = 0;
    S.Epoch = 1;
  }
  VMSlot *const Frame = S.Frame.data();
  const uint32_t Epoch = S.Epoch;
  // Same frame model as the interpreter: SP starts at a fixed frame base,
  // everything else starts undefined so clobbered-value bugs surface.
  if (Target::SP < BF.NumRegs)
    Frame[Target::SP] = VMSlot{0x100000, Epoch};
  std::unordered_map<uint64_t, uint64_t> Memory;

  const BcInstr *Code = BF.Code.data();
  const BcInstr *IP = Code;
  uint64_t Steps = 0;
  uint64_t DynMoves = 0;

  auto Fail = [&](std::string Msg) {
    if (R.ok())
      R.Status = ExecStatus::Error;
    if (R.Error.empty())
      R.Error = std::move(Msg);
  };

// The current instruction; IP moves by pointer so fetch needs no index
// scaling.
#define VM_I (*IP)
// Reads register RegExpr into Var, failing like the interpreter on a
// never-written slot.
#define VM_READ(RegExpr, Var)                                                \
  do {                                                                       \
    uint32_t R_ = (RegExpr);                                                 \
    if (LAO_VM_UNLIKELY(Frame[R_].Epoch != Epoch)) {                         \
      failUndef(R, BF, R_);                                                  \
      goto vm_done;                                                          \
    }                                                                        \
    (Var) = Frame[R_].Val;                                                   \
  } while (0)
#define VM_WRITE(RegExpr, Val)                                               \
  do {                                                                       \
    uint32_t W_ = (RegExpr);                                                 \
    Frame[W_] = VMSlot{static_cast<uint64_t>(Val), Epoch};                                        \
  } while (0)

  // Must match the BcOp declaration order exactly.
  static const void *Table[] = {
      &&vm_Input, &&vm_Make,   &&vm_Mov,   &&vm_CheckDef, &&vm_Add,
      &&vm_Sub,   &&vm_Mul,    &&vm_And,   &&vm_Or,       &&vm_Xor,
      &&vm_Shl,   &&vm_Shr,    &&vm_CmpLT, &&vm_CmpEQ,    &&vm_AddImm,
      &&vm_More,  &&vm_Load,   &&vm_Store, &&vm_Call,     &&vm_Psi,
      &&vm_Output, &&vm_Ret,   &&vm_Jump,  &&vm_Branch,   &&vm_Error};
#define VM_CASE(Name) vm_##Name
#define VM_NEXT()                                                            \
  do {                                                                       \
    if (LAO_VM_UNLIKELY(++Steps > MaxSteps))                                 \
      goto vm_timeout;                                                       \
    goto *Table[static_cast<unsigned>(VM_I.Op)];                             \
  } while (0)

  VM_NEXT();

  VM_CASE(Input) : {
    if (VM_I.B != Args.size()) {
      Fail(formatStr("input expects %u arguments, got %zu", VM_I.B,
                     Args.size()));
      goto vm_done;
    }
    for (uint32_t K = 0; K < VM_I.B; ++K)
      VM_WRITE(BF.Pool[VM_I.A + K], Args[K]);
    ++IP;
    VM_NEXT();
  }
  VM_CASE(Make) : {
    VM_WRITE(VM_I.A, static_cast<uint64_t>(VM_I.Imm));
    ++IP;
    VM_NEXT();
  }
  VM_CASE(Mov) : {
    uint64_t V;
    VM_READ(VM_I.B, V);
    VM_WRITE(VM_I.A, V);
    ++DynMoves;
    ++IP;
    VM_NEXT();
  }
  VM_CASE(CheckDef) : {
    uint64_t V;
    VM_READ(VM_I.A, V);
    (void)V;
    ++IP;
    VM_NEXT();
  }
  VM_CASE(Add) : {
    uint64_t A, B;
    VM_READ(VM_I.B, A);
    VM_READ(VM_I.C, B);
    VM_WRITE(VM_I.A, A + B);
    ++IP;
    VM_NEXT();
  }
  VM_CASE(Sub) : {
    uint64_t A, B;
    VM_READ(VM_I.B, A);
    VM_READ(VM_I.C, B);
    VM_WRITE(VM_I.A, A - B);
    ++IP;
    VM_NEXT();
  }
  VM_CASE(Mul) : {
    uint64_t A, B;
    VM_READ(VM_I.B, A);
    VM_READ(VM_I.C, B);
    VM_WRITE(VM_I.A, A * B);
    ++IP;
    VM_NEXT();
  }
  VM_CASE(And) : {
    uint64_t A, B;
    VM_READ(VM_I.B, A);
    VM_READ(VM_I.C, B);
    VM_WRITE(VM_I.A, A & B);
    ++IP;
    VM_NEXT();
  }
  VM_CASE(Or) : {
    uint64_t A, B;
    VM_READ(VM_I.B, A);
    VM_READ(VM_I.C, B);
    VM_WRITE(VM_I.A, A | B);
    ++IP;
    VM_NEXT();
  }
  VM_CASE(Xor) : {
    uint64_t A, B;
    VM_READ(VM_I.B, A);
    VM_READ(VM_I.C, B);
    VM_WRITE(VM_I.A, A ^ B);
    ++IP;
    VM_NEXT();
  }
  VM_CASE(Shl) : {
    uint64_t A, B;
    VM_READ(VM_I.B, A);
    VM_READ(VM_I.C, B);
    VM_WRITE(VM_I.A, A << (B & 63));
    ++IP;
    VM_NEXT();
  }
  VM_CASE(Shr) : {
    uint64_t A, B;
    VM_READ(VM_I.B, A);
    VM_READ(VM_I.C, B);
    VM_WRITE(VM_I.A, A >> (B & 63));
    ++IP;
    VM_NEXT();
  }
  VM_CASE(CmpLT) : {
    uint64_t A, B;
    VM_READ(VM_I.B, A);
    VM_READ(VM_I.C, B);
    VM_WRITE(VM_I.A,
             static_cast<int64_t>(A) < static_cast<int64_t>(B) ? 1 : 0);
    ++IP;
    VM_NEXT();
  }
  VM_CASE(CmpEQ) : {
    uint64_t A, B;
    VM_READ(VM_I.B, A);
    VM_READ(VM_I.C, B);
    VM_WRITE(VM_I.A, A == B ? 1 : 0);
    ++IP;
    VM_NEXT();
  }
  VM_CASE(AddImm) : {
    uint64_t A;
    VM_READ(VM_I.B, A);
    VM_WRITE(VM_I.A, A + static_cast<uint64_t>(VM_I.Imm));
    ++IP;
    VM_NEXT();
  }
  VM_CASE(More) : {
    uint64_t A;
    VM_READ(VM_I.B, A);
    VM_WRITE(VM_I.A,
             A | (static_cast<uint64_t>(VM_I.Imm) & 0xFFFF) << 16);
    ++IP;
    VM_NEXT();
  }
  VM_CASE(Load) : {
    uint64_t Addr;
    VM_READ(VM_I.B, Addr);
    auto Found = Memory.find(Addr);
    // Unwritten memory reads as the interpreter's deterministic address
    // hash, so traces stay stable without initialized heaps.
    uint64_t V = Found != Memory.end()
                     ? Found->second
                     : (Addr * 0x9E3779B97F4A7C15ULL) ^ 0xA5A5A5A5ULL;
    VM_WRITE(VM_I.A, V);
    ++IP;
    VM_NEXT();
  }
  VM_CASE(Store) : {
    uint64_t Addr, V;
    VM_READ(VM_I.A, Addr);
    VM_READ(VM_I.B, V);
    Memory[Addr] = V;
    ++IP;
    VM_NEXT();
  }
  VM_CASE(Call) : {
    // The callee-name hash prefix was computed at compile time; only the
    // arguments get mixed here (same fold as builtinCall).
    uint64_t H = BF.CalleeSeeds[static_cast<size_t>(VM_I.Imm)];
    for (uint32_t K = 0; K < VM_I.C; ++K) {
      uint64_t V;
      VM_READ(BF.Pool[VM_I.B + K], V);
      H = builtinCallMix(H, V);
    }
    VM_WRITE(VM_I.A, H);
    ++IP;
    VM_NEXT();
  }
  VM_CASE(Psi) : {
    uint64_t P, A, B;
    VM_READ(VM_I.B, P);
    VM_READ(VM_I.C, A);
    VM_READ(static_cast<uint32_t>(VM_I.Imm), B);
    VM_WRITE(VM_I.A, P != 0 ? A : B);
    ++IP;
    VM_NEXT();
  }
  VM_CASE(Output) : {
    uint64_t V;
    VM_READ(VM_I.A, V);
    R.Outputs.push_back(V);
    ++IP;
    VM_NEXT();
  }
  VM_CASE(Ret) : {
    uint64_t V;
    VM_READ(VM_I.A, V);
    R.RetValue = V;
    goto vm_done;
  }
  VM_CASE(Jump) : {
    IP = Code + VM_I.A;
    VM_NEXT();
  }
  VM_CASE(Branch) : {
    uint64_t C;
    VM_READ(VM_I.A, C);
    IP = Code + (C != 0 ? VM_I.B : VM_I.C);
    VM_NEXT();
  }
  VM_CASE(Error) : {
    Fail(BF.Errors[static_cast<size_t>(VM_I.Imm)]);
    goto vm_done;
  }

vm_timeout:
  // The interpreter discovers control-flow errors ("fell off the end of
  // block ...") positionally, before charging a step — so a compiled-in
  // Error outranks the budget expiring at the same instruction.
  if (VM_I.Op == BcOp::Error) {
    Fail(BF.Errors[static_cast<size_t>(VM_I.Imm)]);
    goto vm_done;
  }
  if (R.ok()) {
    R.Status = ExecStatus::TimedOut;
    R.Error = "step limit exceeded";
  }

vm_done:
  R.Steps = Steps;
  R.DynMoves = DynMoves;
  LAO_STAT(exec, vm_runs) += 1;
  LAO_STAT(exec, dyn_instrs) += Steps;
  LAO_STAT(exec, dyn_moves) += DynMoves;
  return R;

#undef VM_I
#undef VM_READ
#undef VM_WRITE
#undef VM_CASE
#undef VM_NEXT
}

ExecResult lao::executeVM(const Function &F, const std::vector<uint64_t> &Args,
                          uint64_t MaxSteps) {
  return runBytecode(compileToBytecode(F), Args, MaxSteps);
}
