//===- Suites.cpp - Benchmark suite factories -----------------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "workloads/Suites.h"

#include "ir/IRBuilder.h"
#include "ssa/SSAConstruction.h"
#include "ssa/Transforms.h"
#include "support/Rng.h"
#include "workloads/Generator.h"
#include "workloads/PaperExamples.h"

using namespace lao;

bool lao::normalizeToOptimizedSSA(Function &F, std::string *Error) {
  if (!buildSSA(F, Error))
    return false;
  propagateCopies(F);
  valueNumber(F);
  propagateCopies(F);
  eliminateDeadCode(F);
  return true;
}

namespace {

/// Deterministic input vectors for a function with \p NumParams params.
std::vector<std::vector<uint64_t>> makeInputs(uint64_t Seed,
                                              unsigned NumParams) {
  Rng R(Seed * 0x51eed + 17);
  std::vector<std::vector<uint64_t>> Sets;
  for (unsigned S = 0; S < 3; ++S) {
    std::vector<uint64_t> In;
    for (unsigned K = 0; K < NumParams; ++K)
      In.push_back(R.below(1000));
    Sets.push_back(std::move(In));
  }
  return Sets;
}

Workload finishWorkload(std::string Name, std::unique_ptr<Function> F,
                        uint64_t Seed) {
  normalizeToOptimizedSSA(*F);
  unsigned NumParams = F->numParams();
  Workload W;
  W.Name = std::move(Name);
  W.F = std::move(F);
  W.Inputs = makeInputs(Seed, NumParams);
  return W;
}

/// Hand-written DSP-style kernels (dot product, saturated MAC loop,
/// FIR-ish pointer walk, branchy max-search), in the spirit of the
/// paper's "basic digital signal processing kernels".
std::unique_ptr<Function> makeDotProduct() {
  auto F = std::make_unique<Function>("dotprod");
  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder B(Entry);
  auto Params = B.input({"pa", "pb", "len"});
  RegId Acc = F->makeVirtual("acc");
  B.makeTo(Acc, 0);
  RegId I = F->makeVirtual("i");
  B.makeTo(I, 0);
  RegId Pa = F->makeVirtual("cpa");
  B.movTo(Pa, Params[0]);
  RegId Pb = F->makeVirtual("cpb");
  B.movTo(Pb, Params[1]);
  RegId Bound = F->makeVirtual("n");
  B.makeTo(Bound, 4);

  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  B.jump(Header);

  B.setBlock(Header);
  RegId C = F->makeVirtual("c");
  B.binaryTo(C, Opcode::CmpLT, I, Bound);
  B.branch(C, Body, Exit);

  B.setBlock(Body);
  RegId Va = B.load(Pa, "va");
  RegId Vb = B.load(Pb, "vb");
  RegId Prod = B.mul(Va, Vb, "prod");
  B.binaryTo(Acc, Opcode::Add, Acc, Prod);
  // Post-modified pointer walk (2-operand constrained).
  B.immOpTo(Pa, Opcode::AutoAdd, Pa, 4);
  B.immOpTo(Pb, Opcode::AutoAdd, Pb, 4);
  B.immOpTo(I, Opcode::AddI, I, 1);
  B.jump(Header);

  B.setBlock(Exit);
  B.output(Acc);
  B.ret(Acc);
  return F;
}

std::unique_ptr<Function> makeSatMac() {
  auto F = std::make_unique<Function>("satmac");
  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder B(Entry);
  auto Params = B.input({"x", "ylen"});
  RegId Acc = F->makeVirtual("acc");
  B.movTo(Acc, Params[0]);
  RegId I = F->makeVirtual("i");
  B.makeTo(I, 0);
  RegId N = F->makeVirtual("n");
  B.makeTo(N, 5);
  RegId Limit = F->makeVirtual("lim");
  B.makeTo(Limit, 1 << 20);

  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Sat = F->createBlock("sat");
  BasicBlock *Cont = F->createBlock("cont");
  BasicBlock *Exit = F->createBlock("exit");
  B.jump(Header);

  B.setBlock(Header);
  RegId C = F->makeVirtual("c");
  B.binaryTo(C, Opcode::CmpLT, I, N);
  B.branch(C, Body, Exit);

  B.setBlock(Body);
  RegId M = B.call("mul16", {Acc, Params[1]}, "m");
  B.binaryTo(Acc, Opcode::Add, Acc, M);
  RegId Over = F->makeVirtual("over");
  B.binaryTo(Over, Opcode::CmpLT, Limit, Acc);
  B.branch(Over, Sat, Cont);

  B.setBlock(Sat);
  B.movTo(Acc, Limit); // Saturate.
  B.jump(Cont);

  B.setBlock(Cont);
  B.immOpTo(I, Opcode::AddI, I, 1);
  B.jump(Header);

  B.setBlock(Exit);
  B.output(Acc);
  B.ret(Acc);
  return F;
}

std::unique_ptr<Function> makeFirWalk() {
  auto F = std::make_unique<Function>("firwalk");
  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder B(Entry);
  auto Params = B.input({"base", "coef"});
  RegId Sp = F->makeVirtual("sp");
  B.immOpTo(Sp, Opcode::SpAdjust, Target::SP, -32);
  RegId P = F->makeVirtual("p");
  B.movTo(P, Params[0]);
  RegId Sum = F->makeVirtual("sum");
  B.makeTo(Sum, 0);
  RegId I = F->makeVirtual("i");
  B.makeTo(I, 0);
  RegId N = F->makeVirtual("n");
  B.makeTo(N, 3);

  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Exit = F->createBlock("exit");
  B.jump(Header);

  B.setBlock(Header);
  RegId C = F->makeVirtual("c");
  B.binaryTo(C, Opcode::CmpLT, I, N);
  B.branch(C, Body, Exit);

  B.setBlock(Body);
  RegId V = B.load(P, "v");
  RegId Scaled = B.mul(V, Params[1], "sc");
  RegId K = F->makeVirtual("k");
  B.immOpTo(K, Opcode::More, Scaled, 0x2BFA);
  B.binaryTo(Sum, Opcode::Add, Sum, K);
  B.store(Sp, Sum);
  B.immOpTo(P, Opcode::AutoAdd, P, 4);
  B.immOpTo(I, Opcode::AddI, I, 1);
  B.jump(Header);

  B.setBlock(Exit);
  RegId SpOut = F->makeVirtual("spout");
  B.immOpTo(SpOut, Opcode::SpAdjust, Sp, 32);
  B.output(Sum);
  B.ret(Sum);
  return F;
}

std::unique_ptr<Function> makeMaxSearch() {
  auto F = std::make_unique<Function>("maxsearch");
  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder B(Entry);
  auto Params = B.input({"p0", "seed"});
  RegId Best = F->makeVirtual("best");
  B.movTo(Best, Params[1]);
  RegId P = F->makeVirtual("p");
  B.movTo(P, Params[0]);
  RegId I = F->makeVirtual("i");
  B.makeTo(I, 0);
  RegId N = F->makeVirtual("n");
  B.makeTo(N, 6);

  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Better = F->createBlock("better");
  BasicBlock *Next = F->createBlock("next");
  BasicBlock *Exit = F->createBlock("exit");
  B.jump(Header);

  B.setBlock(Header);
  RegId C = F->makeVirtual("c");
  B.binaryTo(C, Opcode::CmpLT, I, N);
  B.branch(C, Body, Exit);

  B.setBlock(Body);
  RegId V = B.load(P, "v");
  RegId Gt = F->makeVirtual("gt");
  B.binaryTo(Gt, Opcode::CmpLT, Best, V);
  B.branch(Gt, Better, Next);

  B.setBlock(Better);
  B.movTo(Best, V);
  B.jump(Next);

  B.setBlock(Next);
  B.immOpTo(P, Opcode::AutoAdd, P, 4);
  B.immOpTo(I, Opcode::AddI, I, 1);
  B.jump(Header);

  B.setBlock(Exit);
  B.output(Best);
  B.ret(Best);
  return F;
}

std::vector<Workload> generatedSuite(const char *Prefix, unsigned Count,
                                     uint64_t BaseSeed,
                                     GeneratorParams Template) {
  std::vector<Workload> Suite;
  for (unsigned K = 0; K < Count; ++K) {
    GeneratorParams P = Template;
    P.Seed = BaseSeed + K * 7919;
    // Mix the shapes a little across the suite.
    P.NumParams = 1 + K % 4;
    P.UseSP = K % 3 == 0;
    P.UsePsi = K % 4 == 1;
    std::string Name = std::string(Prefix) + std::to_string(K);
    Suite.push_back(
        finishWorkload(Name, generateProgram(P, Name), P.Seed));
  }
  return Suite;
}

} // namespace

std::vector<Workload> lao::makeValccSuite(int Variant) {
  GeneratorParams P;
  P.NumStatements = 18;
  P.MaxNesting = 2;
  // DSP kernels are loop-heavy and call-light (the paper's VALcc set is
  // "basic digital signal processing kernels, integer DCT, sorting,
  // searching"); keep ABI pressure to the function boundary.
  P.CallPercent = 5;
  P.MutatePercent = 55;
  P.ExtraCopies = Variant == 2;
  std::vector<Workload> Suite = generatedSuite(
      Variant == 2 ? "valcc2_" : "valcc1_", 36,
      /*BaseSeed=*/Variant == 2 ? 90001 : 40001, P);

  // Hand-written DSP kernels complete the suite (both compilers see the
  // same sources; variant 2's extra-copy style only applies to the
  // generated members).
  for (auto Make : {makeDotProduct, makeSatMac, makeFirWalk, makeMaxSearch})
    Suite.push_back(finishWorkload(std::string("valcc") +
                                       (Variant == 2 ? "2_" : "1_"),
                                   Make(), 1234));
  for (size_t K = Suite.size() - 4; K < Suite.size(); ++K)
    Suite[K].Name += Suite[K].F->name();
  return Suite;
}

std::vector<Workload> lao::makeExamplesSuite() {
  std::vector<Workload> Suite;
  struct Entry {
    const char *Name;
    std::unique_ptr<Function> (*Make)();
  };
  const Entry Entries[] = {
      {"example1_fig1", makeFigure1},   {"example2_fig3", makeFigure3},
      {"example3_fig5", makeFigure5},   {"example4_fig7", makeFigure7},
      {"example5_fig8", makeFigure8},   {"example6_fig9", makeFigure9},
      {"example7_fig10", makeFigure10}, {"example8_fig11", makeFigure11},
  };
  uint64_t Seed = 777;
  for (const Entry &E : Entries) {
    Workload W;
    W.Name = E.Name;
    W.F = E.Make(); // Already SSA with the figure's pins.
    W.Inputs = makeInputs(Seed++, W.F->numParams());
    Suite.push_back(std::move(W));
  }
  return Suite;
}

std::vector<Workload> lao::makeLargeSuite() {
  GeneratorParams P;
  P.NumStatements = 140;
  P.MaxNesting = 4;
  P.CallPercent = 6; // Vocoder-style: big loop nests, few calls.
  P.MutatePercent = 60;
  return generatedSuite("large_", 10, 70001, P);
}

std::vector<Workload> lao::makeSpecLikeSuite() {
  GeneratorParams P;
  P.NumStatements = 60;
  P.MaxNesting = 3;
  P.CallPercent = 25;
  P.MutatePercent = 50;
  return generatedSuite("spec_", 48, 110001, P);
}

const std::vector<SuiteSpec> &lao::allSuites() {
  static const std::vector<SuiteSpec> Suites = {
      {"VALcc1", [] { return makeValccSuite(1); }},
      {"VALcc2", [] { return makeValccSuite(2); }},
      {"example1-8", makeExamplesSuite},
      {"LAI_Large", makeLargeSuite},
      {"SPECint-like", makeSpecLikeSuite},
  };
  return Suites;
}
