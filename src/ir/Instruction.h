//===- Instruction.h - Mini-LAI instructions --------------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instruction representation for the mini-LAI IR. Instructions carry
/// explicit def/use operand lists plus, for each operand slot, an optional
/// *pin* to a resource (a physical register or a virtual register id).
/// Pinning is the paper's mechanism for expressing renaming constraints
/// (Section 2.1) and, later, coalescing decisions (Section 3).
///
/// Storage model (the arena/SoA core, see docs/IR.md): an Instruction is a
/// fixed-size record. Operands and pins live in one slot run laid out as
/// [defs | defpins | uses | usepins]; the common case (<= 2 defs, <= 3
/// uses) fits the record's inline slots and never allocates. Larger
/// instructions (parcopies, calls, inputs) spill the run to the owning
/// Function's bump arena — or, while the instruction is still *detached*
/// (built by value, not yet appended to a block), to a heap slab that
/// InstrList::insert migrates into the arena. Instructions inside a
/// function are addressed by stable 32-bit InstrRef indices into the
/// function's chunked instruction table; Prev/Next links thread them into
/// per-block sequences, replacing the former std::list<Instruction>.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_IR_INSTRUCTION_H
#define LAO_IR_INSTRUCTION_H

#include "ir/Opcode.h"
#include "ir/Target.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>

namespace lao {

class BasicBlock;
class Function;
class InstrList;

/// Stable index of an instruction within its Function's table.
using InstrRef = uint32_t;
constexpr InstrRef InvalidInstrRef = ~0u;

/// Returns true if \p Op ends a basic block.
inline bool isTerminatorOpcode(Opcode Op) {
  return effectClass(Op) == EffectClass::Terminator;
}

/// Lightweight read-only view of an instruction's def or use ids.
/// Replaces the former const std::vector<RegId>& accessors; iteration and
/// indexing are unchanged, but the data lives in the instruction's slot
/// run (inline or arena), not in a per-instruction heap vector.
class OperandSpan {
public:
  OperandSpan(const RegId *Data, uint32_t N) : Data(Data), N(N) {}
  const RegId *begin() const { return Data; }
  const RegId *end() const { return Data + N; }
  size_t size() const { return N; }
  bool empty() const { return N == 0; }
  RegId operator[](size_t I) const {
    assert(I < N && "operand index out of range");
    return Data[I];
  }

private:
  const RegId *Data;
  uint32_t N;
};

/// A mini-LAI instruction.
///
/// Operand pins express renaming constraints: defPin(I) (resp. usePin(I))
/// is the resource the I-th def (resp. use) is pinned to, or InvalidReg.
/// Following the paper, *variable pinning* is the pinning of a variable's
/// unique definition; phi arguments are implicitly pinned to the resource
/// of the phi result and carry no explicit use-pin entries.
///
/// References and pointers to instructions that live inside a Function
/// are stable: the chunked table never moves records, so passes may hold
/// Instruction* across inserts and erases of *other* instructions.
class Instruction {
  /// Inline slot-run capacity: 2 defs + 3 uses (with their pins) covers
  /// every fixed-arity opcode, so the common case allocates nothing.
  static constexpr uint32_t InlineDefCap = 2;
  static constexpr uint32_t InlineUseCap = 3;
  static constexpr uint32_t NumInlineSlots =
      2 * InlineDefCap + 2 * InlineUseCap;

  /// Flags bits. Heap* mark detached-owned heap slabs that the record
  /// destructor must free; instructions inside a function never carry
  /// them (interning migrates slabs into the arena).
  enum : uint8_t { HeapSlots = 1, HeapIncoming = 2 };

public:
  explicit Instruction(Opcode Op)
      : Op(Op), DefCap(InlineDefCap), UseCap(InlineUseCap) {}

  ~Instruction() {
    if (Flags & HeapSlots)
      delete[] Ext;
    if (Flags & HeapIncoming)
      delete[] Inc;
  }

  /// Copying deep-copies into a *detached* instruction (no parent, heap
  /// slabs if the operands overflow the inline run).
  Instruction(const Instruction &O) : Instruction(O.Op) { copyPayload(O); }
  Instruction &operator=(const Instruction &) = delete;

  /// Moving steals detached slabs; moving from an attached instruction
  /// deep-copies (its slabs belong to the function's arena).
  Instruction(Instruction &&O) noexcept : Instruction(static_cast<Opcode>(O.Op)) {
    if (O.Parent) {
      copyPayload(O);
      return;
    }
    std::memcpy(InlineSlots, O.InlineSlots, sizeof(InlineSlots));
    Ext = O.Ext;
    Inc = O.Inc;
    Targets[0] = O.Targets[0];
    Targets[1] = O.Targets[1];
    CalleeStr = O.CalleeStr;
    Imm = O.Imm;
    Flags = O.Flags;
    NDefs = O.NDefs;
    NUses = O.NUses;
    DefCap = O.DefCap;
    UseCap = O.UseCap;
    IncCap = O.IncCap;
    O.Ext = nullptr;
    O.Inc = nullptr;
    O.Flags = 0;
    O.NDefs = O.NUses = 0;
    O.DefCap = InlineDefCap;
    O.UseCap = InlineUseCap;
    O.IncCap = 0;
  }

  Opcode op() const { return Op; }

  bool isTerminator() const { return isTerminatorOpcode(Op); }
  bool isPhi() const { return Op == Opcode::Phi; }
  bool isCopy() const { return Op == Opcode::Mov; }
  bool isParCopy() const { return Op == Opcode::ParCopy; }

  unsigned numDefs() const { return NDefs; }
  unsigned numUses() const { return NUses; }

  RegId def(unsigned I) const {
    assert(I < NDefs && "def index out of range");
    return slots()[I];
  }
  RegId use(unsigned I) const {
    assert(I < NUses && "use index out of range");
    return slots()[2 * DefCap + I];
  }

  void setDef(unsigned I, RegId R) {
    assert(I < NDefs && "def index out of range");
    slots()[I] = R;
  }
  void setUse(unsigned I, RegId R) {
    assert(I < NUses && "use index out of range");
    slots()[2 * DefCap + I] = R;
  }

  void addDef(RegId R) {
    if (NDefs == DefCap)
      growSlots(DefCap * 2, UseCap);
    RegId *S = slots();
    S[NDefs] = R;
    S[DefCap + NDefs] = InvalidReg;
    ++NDefs;
  }
  void addUse(RegId R) {
    if (NUses == UseCap)
      growSlots(DefCap, UseCap * 2);
    RegId *S = slots() + 2 * DefCap;
    S[NUses] = R;
    S[UseCap + NUses] = InvalidReg;
    ++NUses;
  }

  RegId defPin(unsigned I) const {
    assert(I < NDefs && "def index out of range");
    return slots()[DefCap + I];
  }
  RegId usePin(unsigned I) const {
    assert(I < NUses && "use index out of range");
    return slots()[2 * DefCap + UseCap + I];
  }
  void pinDef(unsigned I, RegId Res) {
    assert(I < NDefs && "def index out of range");
    slots()[DefCap + I] = Res;
  }
  void pinUse(unsigned I, RegId Res) {
    assert(I < NUses && "use index out of range");
    slots()[2 * DefCap + UseCap + I] = Res;
  }

  OperandSpan defs() const { return OperandSpan(slots(), NDefs); }
  OperandSpan uses() const { return OperandSpan(slots() + 2 * DefCap, NUses); }

  /// Immediate operand (Make/AddI/More/AutoAdd/SpAdjust).
  int64_t imm() const { return Imm; }
  void setImm(int64_t V) { Imm = V; }

  /// Callee name (Call only). Names are interned process-wide so the
  /// record stays fixed-size.
  const std::string &callee() const;
  void setCallee(const std::string &Name);

  /// Phi incoming block for the I-th use. Phi only.
  BasicBlock *incomingBlock(unsigned I) const {
    assert(isPhi() && I < NUses && I < IncCap && "bad phi incoming index");
    return Inc[I];
  }
  void addIncoming(RegId V, BasicBlock *Pred) {
    assert(isPhi() && "not a phi");
    addUse(V);
    if (NUses > IncCap)
      growIncoming(IncCap ? IncCap * 2 : 2);
    Inc[NUses - 1] = Pred;
  }
  void setIncomingBlock(unsigned I, BasicBlock *Pred) {
    assert(isPhi() && I < NUses && "bad phi incoming index");
    Inc[I] = Pred;
  }
  /// Removes the \p I-th (value, pred) pair of a phi.
  void removeIncoming(unsigned I) {
    assert(isPhi() && I < NUses && "bad phi incoming index");
    RegId *U = slots() + 2 * DefCap;
    for (unsigned K = I + 1; K < NUses; ++K) {
      U[K - 1] = U[K];
      U[UseCap + K - 1] = U[UseCap + K];
      Inc[K - 1] = Inc[K];
    }
    --NUses;
  }

  /// Branch/Jump targets: Jump uses Targets[0]; Branch uses both.
  BasicBlock *target(unsigned I) const {
    assert(I < 2 && "bad target index");
    return Targets[I];
  }
  void setTarget(unsigned I, BasicBlock *BB) {
    assert(I < 2 && "bad target index");
    Targets[I] = BB;
  }

  /// The function whose table holds this instruction, or nullptr while
  /// detached.
  Function *parent() const { return Parent; }

  /// This instruction's stable table index (attached instructions only).
  InstrRef selfRef() const {
    assert(Parent && "detached instruction has no ref");
    return Self;
  }

private:
  friend class Function;
  friend class InstrList;

  RegId *slots() { return Ext ? Ext : InlineSlots; }
  const RegId *slots() const { return Ext ? Ext : InlineSlots; }

  /// Number of RegId slots a run with the given capacities occupies.
  static uint32_t runSize(uint32_t DCap, uint32_t UCap) {
    return 2 * DCap + 2 * UCap;
  }

  /// Re-lays the slot run with the given (larger) capacities; defined in
  /// IRCore.cpp (arena when attached, heap when detached).
  void growSlots(uint32_t NewDefCap, uint32_t NewUseCap);
  void growIncoming(uint32_t NewCap);

  /// Deep copy of everything but Op (already set) from \p O.
  void copyPayload(const Instruction &O);

  // --- Storage. The record is fixed-size; all variable-length state
  // --- lives behind Ext / Inc (or in InlineSlots).
  RegId InlineSlots[NumInlineSlots] = {};
  RegId *Ext = nullptr;       ///< Overflow slot run, layout as inline.
  BasicBlock **Inc = nullptr; ///< Phi incoming blocks (aligned with uses).
  Function *Parent = nullptr;
  BasicBlock *Targets[2] = {nullptr, nullptr};
  const std::string *CalleeStr = nullptr; ///< Interned; null = "".
  int64_t Imm = 0;
  InstrRef Self = InvalidInstrRef;
  InstrRef PrevRef = InvalidInstrRef; ///< Chain link within the block.
  InstrRef NextRef = InvalidInstrRef; ///< Chain link within the block.
  Opcode Op;
  uint8_t Flags = 0;
  uint16_t NDefs = 0, NUses = 0;
  uint16_t DefCap, UseCap;
  uint16_t IncCap = 0;
};

/// One renaming constraint: operand Index of I's defs (IsDef) or uses
/// must sit in Res.
struct RenamingConstraint {
  bool IsDef;
  unsigned Index;
  RegId Res;      ///< A physical register, or for a tie I.def(0).
  RenameRes Kind; ///< The table rule that produced Res.
};

/// Calls \p Fn with each renaming constraint OpcodeTable gives \p I: its
/// defs in order, then its uses in order. Operands past the argument
/// registers (argReg(K) is none) have no constraint. Fn may rewrite I's
/// operands; a tie reads def 0 when it is reported.
template <typename FnT>
void forEachRenamingConstraint(const Instruction &I, FnT &&Fn) {
  const OpcodeInfo &Info = opcodeInfo(I.op());
  auto Resource = [](RenameRes Kind, unsigned K) -> RegId {
    if (Kind == RenameRes::ArgReg)
      return Target::argReg(K);
    if (Kind == RenameRes::RetReg)
      return Target::retReg();
    return Kind == RenameRes::SP ? RegId(Target::SP) : InvalidReg;
  };
  if (Info.DefRes != RenameRes::None)
    for (unsigned K = 0; K < I.numDefs(); ++K)
      if (RegId Res = Resource(Info.DefRes, K); Res != InvalidReg)
        Fn(RenamingConstraint{true, K, Res, Info.DefRes});
  if (Info.UseRes != RenameRes::None)
    for (unsigned K = 0; K < I.numUses(); ++K)
      if (RegId Res = Resource(Info.UseRes, K); Res != InvalidReg)
        Fn(RenamingConstraint{false, K, Res, Info.UseRes});
  if (Info.TiedUse != NoTie)
    Fn(RenamingConstraint{false, Info.TiedUse, I.def(0), RenameRes::TiedDef});
}

} // namespace lao

#endif // LAO_IR_INSTRUCTION_H
