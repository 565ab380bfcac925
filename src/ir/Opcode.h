//===- Opcode.h - Mini-LAI opcodes and their table --------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mini-LAI opcodes and the one table that describes them: mnemonic,
/// def/use arity and syntax form (read by the parser, the printer and the
/// verifier's arity check), the effect class (read by value numbering,
/// dead-code elimination, if-conversion and the terminator test) and the
/// renaming constraints (read through forEachRenamingConstraint by the
/// constraint collectors and the naive ABI lowering). No other code
/// spells a mnemonic or restates these properties; only evaluation stays
/// with the interpreter and the bytecode compiler.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_IR_OPCODE_H
#define LAO_IR_OPCODE_H

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace lao {

/// Opcodes of the mini-LAI instruction set. Each renaming-constraint class
/// of the paper is represented: ABI registers (Call/Ret/Input/Output),
/// 2-operand instructions (More/AutoAdd), the dedicated SP register
/// (SpAdjust), and predication (Psi). Psi stays last: the table below
/// checks that it has one row per enumerator up to it.
enum class Opcode : uint8_t {
  // Data movement.
  Mov,      ///< d = s
  Make,     ///< d = imm
  ParCopy,  ///< (d1, d2, ...) = (s1, s2, ...) executed in parallel

  // Three-address arithmetic.
  Add,      ///< d = a + b
  Sub,      ///< d = a - b
  Mul,      ///< d = a * b
  And,      ///< d = a & b
  Or,       ///< d = a | b
  Xor,      ///< d = a ^ b
  Shl,      ///< d = a << (b & 63)
  Shr,      ///< d = a >> (b & 63)
  AddI,     ///< d = a + imm
  CmpLT,    ///< d = (a < b) ? 1 : 0  (signed)
  CmpEQ,    ///< d = (a == b) ? 1 : 0

  // 2-operand ISA constraints: the def must be assigned the same resource
  // as the first use (paper Figure 1, statements S1 and S6).
  More,     ///< d = s | (imm << 16); constraint res(d) == res(s)
  AutoAdd,  ///< d = s + imm (post-modified address); res(d) == res(s)

  // Dedicated-register constraint: SP-relative adjustment. Both operands
  // must live in SP (paper Figure 2).
  SpAdjust, ///< d = s + imm; res(d) == res(s) == SP

  // Memory.
  Load,     ///< d = mem[a]
  Store,    ///< mem[a] = s ; uses = {a, s}

  // Calls and function boundary (ABI constraints).
  Call,     ///< d = call @callee(args...); args in R0..R3, result in R0
  Input,    ///< defs = function parameters (entry block only)
  Output,   ///< emit value to the observable output trace
  Ret,      ///< return value in R0

  // Control flow.
  Jump,     ///< unconditional branch
  Branch,   ///< if (cond != 0) goto Targets[0] else Targets[1]

  // SSA-only instructions.
  Phi,      ///< d = phi([v, pred]...) ; parallel at block entry
  Psi,      ///< d = psi(p, a, b): p != 0 ? a : b (predicated, psi-SSA)
};

/// What follows the mnemonic in an instruction's text. A row with one
/// def is written `%d = <mnemonic> ...`; every other row starts with its
/// mnemonic (input and parcopy write their defs after it).
enum class OpForm : uint8_t {
  Imm,     ///< <imm>
  Uses,    ///< %u, ... (exactly the row's use count)
  UseImm,  ///< %u, <imm>
  Call,    ///< @callee(%u, ...)
  Input,   ///< %d, ...
  Jump,    ///< label
  Branch,  ///< %c, then, else
  Phi,     ///< [%v, pred], ...
  ParCopy, ///< %d = %s, ...
};

/// Arity of a def or use list that takes any length.
constexpr uint8_t VarArity = 0xff;

/// What executing an opcode may do besides writing its defs. Each class
/// allows what the ones before it allow.
enum class EffectClass : uint8_t {
  Pure,         ///< A function of its uses and immediate: value numbering
                ///< may merge two equal ones.
  Speculatable, ///< Safe on a path that did not ask for it: if-conversion
                ///< may hoist it.
  Plain,        ///< Neither, but dead once its defs are unused.
  SideEffect,   ///< Observable beyond its defs: never dead.
  Terminator,   ///< Ends a block.
};

/// The resource a constrained operand must sit in (the paper's renaming
/// constraints, Section 2.1). A row's DefRes applies to each of its defs
/// and its UseRes to each of its uses.
enum class RenameRes : uint8_t {
  None,    ///< Unconstrained.
  ArgReg,  ///< Operand K in Target::argReg(K); none for K >= NumArgRegs.
  RetReg,  ///< Target::retReg().
  SP,      ///< Target::SP.
  TiedDef, ///< The resource of def 0 (2-operand and psi ties); used only
           ///< by TiedUse, never as a row's DefRes or UseRes.
};

/// TiedUse of a row whose uses are not tied to def 0.
constexpr uint8_t NoTie = 0xff;

/// One opcode's row.
struct OpcodeInfo {
  Opcode Op;
  const char *Name; ///< Stable lower-case mnemonic.
  uint8_t Defs;     ///< 0, 1 or VarArity.
  uint8_t Uses;     ///< Fixed count or VarArity.
  OpForm Form;
  EffectClass Effect;
  RenameRes DefRes = RenameRes::None;
  RenameRes UseRes = RenameRes::None;
  uint8_t TiedUse = NoTie; ///< The use that shares def 0's resource.
};

/// The opcode table, in enum order. Load and autoadd are Plain: value
/// numbering and if-conversion leave them where they are, as they always
/// have, so no suite function changes shape.
inline constexpr OpcodeInfo OpcodeTable[] = {
    {Opcode::Mov, "mov", 1, 1, OpForm::Uses, EffectClass::Speculatable},
    {Opcode::Make, "make", 1, 0, OpForm::Imm, EffectClass::Pure},
    {Opcode::ParCopy, "parcopy", VarArity, VarArity, OpForm::ParCopy,
     EffectClass::Plain},
    {Opcode::Add, "add", 1, 2, OpForm::Uses, EffectClass::Pure},
    {Opcode::Sub, "sub", 1, 2, OpForm::Uses, EffectClass::Pure},
    {Opcode::Mul, "mul", 1, 2, OpForm::Uses, EffectClass::Pure},
    {Opcode::And, "and", 1, 2, OpForm::Uses, EffectClass::Pure},
    {Opcode::Or, "or", 1, 2, OpForm::Uses, EffectClass::Pure},
    {Opcode::Xor, "xor", 1, 2, OpForm::Uses, EffectClass::Pure},
    {Opcode::Shl, "shl", 1, 2, OpForm::Uses, EffectClass::Pure},
    {Opcode::Shr, "shr", 1, 2, OpForm::Uses, EffectClass::Pure},
    {Opcode::AddI, "addi", 1, 1, OpForm::UseImm, EffectClass::Pure},
    {Opcode::CmpLT, "cmplt", 1, 2, OpForm::Uses, EffectClass::Pure},
    {Opcode::CmpEQ, "cmpeq", 1, 2, OpForm::Uses, EffectClass::Pure},
    {Opcode::More, "more", 1, 1, OpForm::UseImm, EffectClass::Pure,
     RenameRes::None, RenameRes::None, 0},
    {Opcode::AutoAdd, "autoadd", 1, 1, OpForm::UseImm, EffectClass::Plain,
     RenameRes::None, RenameRes::None, 0},
    {Opcode::SpAdjust, "spadjust", 1, 1, OpForm::UseImm, EffectClass::Plain,
     RenameRes::SP, RenameRes::SP},
    {Opcode::Load, "load", 1, 1, OpForm::Uses, EffectClass::Plain},
    {Opcode::Store, "store", 0, 2, OpForm::Uses, EffectClass::SideEffect},
    {Opcode::Call, "call", 1, VarArity, OpForm::Call, EffectClass::SideEffect,
     RenameRes::RetReg, RenameRes::ArgReg},
    {Opcode::Input, "input", VarArity, 0, OpForm::Input,
     EffectClass::SideEffect, RenameRes::ArgReg},
    {Opcode::Output, "output", 0, 1, OpForm::Uses, EffectClass::SideEffect},
    {Opcode::Ret, "ret", 0, 1, OpForm::Uses, EffectClass::Terminator,
     RenameRes::None, RenameRes::RetReg},
    {Opcode::Jump, "jump", 0, 0, OpForm::Jump, EffectClass::Terminator},
    {Opcode::Branch, "branch", 0, 1, OpForm::Branch, EffectClass::Terminator},
    {Opcode::Phi, "phi", 1, VarArity, OpForm::Phi, EffectClass::Plain},
    {Opcode::Psi, "psi", 1, 3, OpForm::Uses, EffectClass::Speculatable,
     RenameRes::None, RenameRes::None, 2},
};

constexpr bool opcodeTableIsComplete() {
  for (size_t I = 0; I < std::size(OpcodeTable); ++I)
    if (OpcodeTable[I].Op != static_cast<Opcode>(I))
      return false;
  return std::size(OpcodeTable) == static_cast<size_t>(Opcode::Psi) + 1;
}
static_assert(opcodeTableIsComplete(),
              "OpcodeTable needs one row per Opcode, in enum order");

/// Returns \p Op's row.
inline const OpcodeInfo &opcodeInfo(Opcode Op) {
  return OpcodeTable[static_cast<size_t>(Op)];
}

/// Returns a stable lower-case mnemonic for \p Op.
inline const char *opcodeName(Opcode Op) { return opcodeInfo(Op).Name; }

/// Returns \p Op's effect class.
inline EffectClass effectClass(Opcode Op) { return opcodeInfo(Op).Effect; }

} // namespace lao

#endif // LAO_IR_OPCODE_H
