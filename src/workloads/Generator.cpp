//===- Generator.cpp - Structured random program generator ---------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "workloads/Generator.h"

#include "ir/IRBuilder.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <vector>

using namespace lao;

namespace {

/// Statement-level generator keeping the set of initialized variables.
class ProgramGen {
public:
  ProgramGen(const GeneratorParams &P, const std::string &Name)
      : P(P), Rng(P.Seed), F(std::make_unique<Function>(Name)),
        B(F->createBlock("entry")), Builder(B) {}

  std::unique_ptr<Function> run() {
    // Parameters.
    Instruction Input(Opcode::Input);
    for (unsigned K = 0; K < P.NumParams; ++K) {
      RegId V = F->makeVirtual(formatStr("p%u", K));
      Input.addDef(V);
      IntVars.push_back(V);
    }
    B->append(std::move(Input));

    if (P.UseSP) {
      SpVar = F->makeVirtual("sp");
      Builder.immOpTo(SpVar, Opcode::SpAdjust, Target::SP, -16);
      PtrVars.push_back(SpVar);
    }
    if (IntVars.empty()) {
      RegId Z = F->makeVirtual("z");
      Builder.makeTo(Z, 7);
      IntVars.push_back(Z);
    }
    if (P.UsePointers && PtrVars.empty()) {
      RegId Ptr = F->makeVirtual("ptr");
      Builder.makeTo(Ptr, 0x2000);
      PtrVars.push_back(Ptr);
    }

    genStatements(P.NumStatements, 0);

    // Epilogue: observable trace + return.
    if (P.UseSP) {
      RegId SpOut = F->makeVirtual("spout");
      Builder.immOpTo(SpOut, Opcode::SpAdjust, SpVar, 16);
    }
    Builder.output(pickInt());
    Builder.ret(pickInt());
    return std::move(F);
  }

private:
  const GeneratorParams &P;
  lao::Rng Rng;
  std::unique_ptr<Function> F;
  BasicBlock *B;
  IRBuilder Builder;
  std::vector<RegId> IntVars;
  std::vector<RegId> PtrVars;
  std::vector<RegId> ProtectedVars; ///< Live loop inductions: never mutated
                                    ///< by random statements, or loop trip
                                    ///< counts would become unbounded.
  RegId SpVar = InvalidReg;
  unsigned LoopCount = 0;

  RegId pickInt() { return IntVars[Rng.below(IntVars.size())]; }
  RegId pickPtr() { return PtrVars[Rng.below(PtrVars.size())]; }

  bool isProtected(RegId V) const {
    for (RegId Pv : ProtectedVars)
      if (Pv == V)
        return true;
    return false;
  }

  /// Destination for an assignment: an existing variable (mutation) or a
  /// fresh one.
  RegId pickDest() {
    if (Rng.chance(P.MutatePercent, 100)) {
      for (unsigned Try = 0; Try < 4; ++Try) {
        RegId V = pickInt();
        if (!isProtected(V))
          return V;
      }
    }
    RegId V = F->makeVirtual("x");
    IntVars.push_back(V);
    return V;
  }

  /// Possibly wraps \p V through a redundant temporary (VALcc2 style).
  RegId maybeCopy(RegId V) {
    if (!P.ExtraCopies || !Rng.chance(35, 100))
      return V;
    RegId T = F->makeVirtual("t");
    Builder.movTo(T, V);
    IntVars.push_back(T);
    return T;
  }

  void switchTo(BasicBlock *NewBB) {
    B = NewBB;
    Builder.setBlock(NewBB);
  }

  void genStatements(unsigned Budget, unsigned Nesting) {
    for (unsigned S = 0; S < Budget; ++S)
      genStatement(Nesting);
  }

  void genStatement(unsigned Nesting) {
    unsigned Kind = static_cast<unsigned>(Rng.below(100));

    // Control-flow statements only below the nesting cap, with a budget
    // so programs stay bounded.
    if (Nesting < P.MaxNesting && Kind < 14 && LoopCount < 24) {
      genLoop(Nesting);
      return;
    }
    if (Nesting < P.MaxNesting && Kind < 30) {
      genIf(Nesting);
      return;
    }
    if (Kind < 30 + P.CallPercent) {
      genCall();
      return;
    }
    if (P.UsePointers && Kind < 52 + P.CallPercent) {
      genPointerOp();
      return;
    }
    if (P.UsePsi && Kind < 60 + P.CallPercent) {
      RegId Pred = F->makeVirtual("pr");
      Builder.binaryTo(Pred, Opcode::CmpLT, maybeCopy(pickInt()),
                       maybeCopy(pickInt()));
      RegId A = pickInt();
      RegId B = pickInt();
      Builder.psiTo(pickDest(), Pred, A, B);
      return;
    }
    genArith();
  }

  void genArith() {
    static const Opcode Ops[] = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                                 Opcode::And, Opcode::Or,  Opcode::Xor};
    unsigned Which = static_cast<unsigned>(Rng.below(9));
    // Sources are chosen before the destination: pickDest may create a
    // fresh (still undefined) variable that must not be readable yet.
    if (Which < 6) {
      RegId A = maybeCopy(pickInt());
      RegId B = maybeCopy(pickInt());
      Builder.binaryTo(pickDest(), Ops[Which], A, B);
    } else if (Which == 6) {
      Builder.makeTo(pickDest(), Rng.range(-100, 100));
    } else if (Which == 7) {
      RegId A = maybeCopy(pickInt());
      Builder.immOpTo(pickDest(), Opcode::AddI, A, Rng.range(-8, 8));
    } else {
      // 2-operand constrained instruction (More).
      RegId A = maybeCopy(pickInt());
      Builder.immOpTo(pickDest(), Opcode::More, A, Rng.range(0, 0xFFFF));
    }
  }

  void genCall() {
    unsigned NumArgs = static_cast<unsigned>(Rng.range(1, 4));
    std::vector<RegId> Args;
    for (unsigned K = 0; K < NumArgs; ++K)
      Args.push_back(maybeCopy(pickInt()));
    static const char *const Callees[] = {"f", "g", "h", "mac", "sat"};
    Builder.callTo(pickDest(), Callees[Rng.below(5)], Args);
  }

  void genPointerOp() {
    unsigned Which = static_cast<unsigned>(Rng.below(4));
    if (Which == 0) {
      // Post-modified address: 2-operand constraint on a pointer.
      RegId NewPtr = F->makeVirtual("q");
      Builder.immOpTo(NewPtr, Opcode::AutoAdd, pickPtr(),
                      Rng.range(1, 8) * 4);
      PtrVars.push_back(NewPtr);
    } else if (Which == 1) {
      Builder.loadTo(pickDest(), pickPtr());
    } else if (Which == 2) {
      Builder.store(pickPtr(), maybeCopy(pickInt()));
    } else {
      // Load-modify chain, the DSP access idiom of the paper's Figure 1.
      RegId Ptr = pickPtr();
      Builder.loadTo(pickDest(), Ptr);
      RegId NewPtr = F->makeVirtual("q");
      Builder.immOpTo(NewPtr, Opcode::AutoAdd, Ptr, 4);
      PtrVars.push_back(NewPtr);
    }
  }

  void genIf(unsigned Nesting) {
    RegId Cond = F->makeVirtual("c");
    Builder.binaryTo(Cond, Rng.chance(1, 2) ? Opcode::CmpLT : Opcode::CmpEQ,
                     pickInt(), pickInt());
    BasicBlock *Then = F->createBlock();
    BasicBlock *Else = F->createBlock();
    BasicBlock *Join = F->createBlock();
    Builder.branch(Cond, Then, Else);

    // Variables created inside a branch must not escape (they would be
    // uninitialized on the other path), so snapshot and restore.
    size_t IntMark = IntVars.size(), PtrMark = PtrVars.size();
    unsigned SubBudget = 1 + static_cast<unsigned>(Rng.below(4));

    switchTo(Then);
    genStatements(SubBudget, Nesting + 1);
    Builder.jump(Join);
    IntVars.resize(IntMark);
    PtrVars.resize(PtrMark);

    switchTo(Else);
    if (Rng.chance(3, 4))
      genStatements(1 + static_cast<unsigned>(Rng.below(3)), Nesting + 1);
    Builder.jump(Join);
    IntVars.resize(IntMark);
    PtrVars.resize(PtrMark);

    switchTo(Join);
  }

  void genLoop(unsigned Nesting) {
    ++LoopCount;
    RegId Induction = F->makeVirtual("i");
    Builder.makeTo(Induction, 0);
    RegId Bound = F->makeVirtual("n");
    Builder.makeTo(Bound, Rng.range(2, 5));
    IntVars.push_back(Induction);

    BasicBlock *Header = F->createBlock();
    BasicBlock *Body = F->createBlock();
    BasicBlock *Exit = F->createBlock();
    Builder.jump(Header);

    switchTo(Header);
    RegId Cond = F->makeVirtual("c");
    Builder.binaryTo(Cond, Opcode::CmpLT, Induction, Bound);
    Builder.branch(Cond, Body, Exit);

    size_t IntMark = IntVars.size(), PtrMark = PtrVars.size();
    ProtectedVars.push_back(Induction);
    switchTo(Body);
    genStatements(1 + static_cast<unsigned>(Rng.below(4)), Nesting + 1);
    Builder.immOpTo(Induction, Opcode::AddI, Induction, 1);
    Builder.jump(Header);
    IntVars.resize(IntMark);
    PtrVars.resize(PtrMark);
    ProtectedVars.pop_back();

    switchTo(Exit);
  }
};

} // namespace

std::unique_ptr<Function> lao::generateProgram(const GeneratorParams &Params,
                                               const std::string &Name) {
  ProgramGen Gen(Params, Name);
  return Gen.run();
}
