//===- Opcode.h - Mini-LAI opcodes and their table --------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mini-LAI opcodes and the one table that describes their text:
/// mnemonic, def/use arity and syntax form. The parser, the printer and
/// the verifier's arity check read the table; no other code spells a
/// mnemonic. What an opcode *means* (evaluation, constraints, value
/// numbering) stays with the pass that needs it.
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

/// One opcode's row.
struct OpcodeInfo {
  Opcode Op;
  const char *Name; ///< Stable lower-case mnemonic.
  uint8_t Defs;     ///< 0, 1 or VarArity.
  uint8_t Uses;     ///< Fixed count or VarArity.
  OpForm Form;
};

/// The opcode table, in enum order.
inline constexpr OpcodeInfo OpcodeTable[] = {
    {Opcode::Mov, "mov", 1, 1, OpForm::Uses},
    {Opcode::Make, "make", 1, 0, OpForm::Imm},
    {Opcode::ParCopy, "parcopy", VarArity, VarArity, OpForm::ParCopy},
    {Opcode::Add, "add", 1, 2, OpForm::Uses},
    {Opcode::Sub, "sub", 1, 2, OpForm::Uses},
    {Opcode::Mul, "mul", 1, 2, OpForm::Uses},
    {Opcode::And, "and", 1, 2, OpForm::Uses},
    {Opcode::Or, "or", 1, 2, OpForm::Uses},
    {Opcode::Xor, "xor", 1, 2, OpForm::Uses},
    {Opcode::Shl, "shl", 1, 2, OpForm::Uses},
    {Opcode::Shr, "shr", 1, 2, OpForm::Uses},
    {Opcode::AddI, "addi", 1, 1, OpForm::UseImm},
    {Opcode::CmpLT, "cmplt", 1, 2, OpForm::Uses},
    {Opcode::CmpEQ, "cmpeq", 1, 2, OpForm::Uses},
    {Opcode::More, "more", 1, 1, OpForm::UseImm},
    {Opcode::AutoAdd, "autoadd", 1, 1, OpForm::UseImm},
    {Opcode::SpAdjust, "spadjust", 1, 1, OpForm::UseImm},
    {Opcode::Load, "load", 1, 1, OpForm::Uses},
    {Opcode::Store, "store", 0, 2, OpForm::Uses},
    {Opcode::Call, "call", 1, VarArity, OpForm::Call},
    {Opcode::Input, "input", VarArity, 0, OpForm::Input},
    {Opcode::Output, "output", 0, 1, OpForm::Uses},
    {Opcode::Ret, "ret", 0, 1, OpForm::Uses},
    {Opcode::Jump, "jump", 0, 0, OpForm::Jump},
    {Opcode::Branch, "branch", 0, 1, OpForm::Branch},
    {Opcode::Phi, "phi", 1, VarArity, OpForm::Phi},
    {Opcode::Psi, "psi", 1, 3, OpForm::Uses},
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

} // namespace lao

#endif // LAO_IR_OPCODE_H
