//===- IRBuilder.h - Convenience instruction builder ------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Append-only builder for mini-LAI instructions. Used by tests, examples
/// and the workload generators; the out-of-SSA passes mutate instruction
/// lists directly.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_IR_IRBUILDER_H
#define LAO_IR_IRBUILDER_H

#include "ir/Function.h"

#include <initializer_list>

namespace lao {

/// Builds instructions at the end of a basic block.
class IRBuilder {
public:
  explicit IRBuilder(BasicBlock *BB) : BB(BB) {}

  void setBlock(BasicBlock *NewBB) { BB = NewBB; }
  BasicBlock *block() const { return BB; }
  Function &func() const { return *BB->parent(); }

  /// d = imm
  RegId make(int64_t Imm, const std::string &Hint = "c") {
    Instruction I(Opcode::Make);
    RegId D = func().makeVirtual(Hint);
    I.addDef(D);
    I.setImm(Imm);
    BB->append(std::move(I));
    return D;
  }

  /// Generic three-address binary operation.
  RegId binary(Opcode Op, RegId A, RegId B, const std::string &Hint = "t") {
    Instruction I(Op);
    RegId D = func().makeVirtual(Hint);
    I.addDef(D);
    I.addUse(A);
    I.addUse(B);
    BB->append(std::move(I));
    return D;
  }

  RegId add(RegId A, RegId B, const std::string &Hint = "t") {
    return binary(Opcode::Add, A, B, Hint);
  }
  RegId sub(RegId A, RegId B, const std::string &Hint = "t") {
    return binary(Opcode::Sub, A, B, Hint);
  }
  RegId mul(RegId A, RegId B, const std::string &Hint = "t") {
    return binary(Opcode::Mul, A, B, Hint);
  }

  /// d = s (plain move)
  RegId mov(RegId S, const std::string &Hint = "t") {
    Instruction I(Opcode::Mov);
    RegId D = func().makeVirtual(Hint);
    I.addDef(D);
    I.addUse(S);
    BB->append(std::move(I));
    return D;
  }

  /// Move into an existing register (non-SSA code).
  void movTo(RegId D, RegId S) {
    Instruction I(Opcode::Mov);
    I.addDef(D);
    I.addUse(S);
    BB->append(std::move(I));
  }

  // --- Destination-targeting variants for building non-SSA (pre-SSA)
  // --- code, used by the workload generators.

  void binaryTo(RegId D, Opcode Op, RegId A, RegId B) {
    Instruction I(Op);
    I.addDef(D);
    I.addUse(A);
    I.addUse(B);
    BB->append(std::move(I));
  }

  void makeTo(RegId D, int64_t Imm) {
    Instruction I(Opcode::Make);
    I.addDef(D);
    I.setImm(Imm);
    BB->append(std::move(I));
  }

  void immOpTo(RegId D, Opcode Op, RegId S, int64_t Imm) {
    Instruction I(Op);
    I.addDef(D);
    I.addUse(S);
    I.setImm(Imm);
    BB->append(std::move(I));
  }

  void loadTo(RegId D, RegId Addr) {
    Instruction I(Opcode::Load);
    I.addDef(D);
    I.addUse(Addr);
    BB->append(std::move(I));
  }

  void callTo(RegId D, const std::string &Callee,
              const std::vector<RegId> &Args) {
    Instruction I(Opcode::Call);
    I.addDef(D);
    for (RegId A : Args)
      I.addUse(A);
    I.setCallee(Callee);
    BB->append(std::move(I));
  }

  void psiTo(RegId D, RegId P, RegId A, RegId B) {
    Instruction I(Opcode::Psi);
    I.addDef(D);
    I.addUse(P);
    I.addUse(A);
    I.addUse(B);
    BB->append(std::move(I));
  }

  /// 2-operand constrained: d = s | (imm << 16).
  RegId more(RegId S, int64_t Imm, const std::string &Hint = "k") {
    Instruction I(Opcode::More);
    RegId D = func().makeVirtual(Hint);
    I.addDef(D);
    I.addUse(S);
    I.setImm(Imm);
    BB->append(std::move(I));
    return D;
  }

  RegId load(RegId Addr, const std::string &Hint = "l") {
    Instruction I(Opcode::Load);
    RegId D = func().makeVirtual(Hint);
    I.addDef(D);
    I.addUse(Addr);
    BB->append(std::move(I));
    return D;
  }

  void store(RegId Addr, RegId Val) {
    Instruction I(Opcode::Store);
    I.addUse(Addr);
    I.addUse(Val);
    BB->append(std::move(I));
  }

  RegId call(const std::string &Callee, std::initializer_list<RegId> Args,
             const std::string &Hint = "r") {
    Instruction I(Opcode::Call);
    RegId D = func().makeVirtual(Hint);
    I.addDef(D);
    for (RegId A : Args)
      I.addUse(A);
    I.setCallee(Callee);
    BB->append(std::move(I));
    return D;
  }

  /// Declares the function parameters (entry block, first instruction).
  std::vector<RegId> input(std::initializer_list<std::string> Names) {
    Instruction I(Opcode::Input);
    std::vector<RegId> Params;
    for (const std::string &N : Names) {
      RegId R = func().makeVirtual(N);
      I.addDef(R);
      Params.push_back(R);
    }
    BB->append(std::move(I));
    return Params;
  }

  void output(RegId V) {
    Instruction I(Opcode::Output);
    I.addUse(V);
    BB->append(std::move(I));
  }

  void ret(RegId V) {
    Instruction I(Opcode::Ret);
    I.addUse(V);
    BB->append(std::move(I));
  }

  void jump(BasicBlock *Target) {
    Instruction I(Opcode::Jump);
    I.setTarget(0, Target);
    BB->append(std::move(I));
  }

  void branch(RegId Cond, BasicBlock *Then, BasicBlock *Else) {
    Instruction I(Opcode::Branch);
    I.addUse(Cond);
    I.setTarget(0, Then);
    I.setTarget(1, Else);
    BB->append(std::move(I));
  }

  /// Appends an (empty) phi; fill with addIncoming on the returned ref.
  /// Phis must precede all non-phi instructions.
  Instruction &phi(RegId D) {
    Instruction I(Opcode::Phi);
    I.addDef(D);
    assert((BB->empty() || BB->instructions().back().isPhi()) &&
           "phis must be grouped at block entry");
    return BB->append(std::move(I));
  }

  /// d = psi(p, a, b) — predicated select (psi-SSA stand-in).
  RegId psi(RegId P, RegId A, RegId B, const std::string &Hint = "ps") {
    Instruction I(Opcode::Psi);
    RegId D = func().makeVirtual(Hint);
    I.addDef(D);
    I.addUse(P);
    I.addUse(A);
    I.addUse(B);
    BB->append(std::move(I));
    return D;
  }

private:
  BasicBlock *BB;
};

} // namespace lao

#endif // LAO_IR_IRBUILDER_H
