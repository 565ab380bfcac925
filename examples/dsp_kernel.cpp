//===- dsp_kernel.cpp - A DSP kernel through every configuration ----------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Builds a FIR-style kernel with the IRBuilder API (SP frame, autoadd
// pointer walks, a 2-operand `more`, a saturating branch), then runs it
// through every Table 1 configuration and prints the resulting move
// counts side by side — a one-binary miniature of the paper's results
// section. Exits 1 when a configuration that is not Sreedhar-based
// changes the kernel's behaviour.
//
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"
#include "ir/Clone.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "outofssa/Pipeline.h"
#include "workloads/Suites.h"

#include <cstdio>

using namespace lao;

namespace {

/// FIR-flavoured kernel: acc += (load(p) * coef | K<<16); p post-inc.
std::unique_ptr<Function> buildKernel() {
  auto F = std::make_unique<Function>("fir16");
  BasicBlock *Entry = F->createBlock("entry");
  IRBuilder B(Entry);
  auto Params = B.input({"src", "coef"});

  RegId Sp = F->makeVirtual("sp");
  B.immOpTo(Sp, Opcode::SpAdjust, Target::SP, -32);
  RegId P = F->makeVirtual("p");
  B.movTo(P, Params[0]);
  RegId Acc = F->makeVirtual("acc");
  B.makeTo(Acc, 0);
  RegId I = F->makeVirtual("i");
  B.makeTo(I, 0);
  RegId N = F->makeVirtual("n");
  B.makeTo(N, 5);
  RegId Cap = F->makeVirtual("cap");
  B.makeTo(Cap, 1 << 24);

  BasicBlock *Head = F->createBlock("head");
  BasicBlock *Body = F->createBlock("body");
  BasicBlock *Sat = F->createBlock("sat");
  BasicBlock *Next = F->createBlock("next");
  BasicBlock *Done = F->createBlock("done");
  B.jump(Head);

  B.setBlock(Head);
  RegId C = F->makeVirtual("c");
  B.binaryTo(C, Opcode::CmpLT, I, N);
  B.branch(C, Body, Done);

  B.setBlock(Body);
  RegId V = B.load(P, "v");
  RegId Prod = B.mul(V, Params[1], "prod");
  RegId K = F->makeVirtual("k");
  B.immOpTo(K, Opcode::More, Prod, 0x2BFA); // 2-operand constrained.
  B.binaryTo(Acc, Opcode::Add, Acc, K);
  B.immOpTo(P, Opcode::AutoAdd, P, 4);      // Post-modified address.
  RegId Over = F->makeVirtual("over");
  B.binaryTo(Over, Opcode::CmpLT, Cap, Acc);
  B.branch(Over, Sat, Next);

  B.setBlock(Sat);
  B.movTo(Acc, Cap);
  B.jump(Next);

  B.setBlock(Next);
  B.immOpTo(I, Opcode::AddI, I, 1);
  B.jump(Head);

  B.setBlock(Done);
  B.store(Sp, Acc);
  RegId SpOut = F->makeVirtual("spout");
  B.immOpTo(SpOut, Opcode::SpAdjust, Sp, 32);
  B.output(Acc);
  B.ret(Acc);
  return F;
}

} // namespace

int main() {
  auto F = buildKernel();
  normalizeToOptimizedSSA(*F);
  std::printf("=== fir16, optimized SSA ===\n%s\n",
              printFunction(*F).c_str());

  static const char *const Presets[] = {
      "Lphi,ABI+C", "Sphi+LABI+C", "LABI+C", "C,naiveABI+C",
      "Lphi+C",     "Sphi+C",      "C",      "Lphi,ABI",
      "LABI",       "Sphi"};

  std::printf("%-14s %8s %10s %12s\n", "configuration", "moves",
              "weighted", "equivalent");
  // A miscompile fails the run, except under the Sreedhar-based
  // presets, which the paper calls optimistic approximations.
  bool Failed = false;
  for (const char *Preset : Presets) {
    auto Clone = cloneFunction(*F);
    PipelineConfig Config = pipelinePreset(Preset);
    PipelineResult R = runPipeline(*Clone, Config);
    ExecResult Before = interpret(*F, {0x4000, 3});
    ExecResult After = interpret(*Clone, {0x4000, 3});
    bool Same = Before.sameObservable(After);
    Failed |= !Same && !Config.Sreedhar;
    std::printf("%-14s %8u %10llu %12s\n", Preset, R.NumMoves,
                static_cast<unsigned long long>(R.WeightedMoves),
                Same ? "yes" : "NO");
  }

  std::printf("\nFinal code under the paper's configuration:\n");
  auto FinalF = cloneFunction(*F);
  runPipeline(*FinalF, pipelinePreset("Lphi,ABI+C"));
  std::printf("%s", printFunction(*FinalF).c_str());
  return Failed ? 1 : 0;
}
