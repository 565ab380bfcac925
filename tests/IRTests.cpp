//===- IRTests.cpp - IR container, printer, parser, clone tests -------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "ir/CFG.h"
#include "ir/DotExport.h"
#include "ir/IRBuilder.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

using namespace lao;
using namespace lao::test;

TEST(Function, PhysicalRegistersPreallocated) {
  Function F("f");
  EXPECT_EQ(F.numValues(), static_cast<size_t>(Target::NumPhysRegs));
  EXPECT_TRUE(F.isPhysical(Target::R0));
  EXPECT_TRUE(F.isPhysical(Target::SP));
  EXPECT_EQ(F.valueName(Target::SP), "SP");
  EXPECT_EQ(F.findValue("R3"), Target::R3);
}

TEST(Function, MakeVirtualDisambiguatesNames) {
  Function F("f");
  RegId A = F.makeVirtual("x");
  RegId B = F.makeVirtual("x");
  EXPECT_NE(A, B);
  EXPECT_NE(F.valueName(A), F.valueName(B));
  EXPECT_EQ(F.findValue(F.valueName(B)), B);
  EXPECT_FALSE(F.isPhysical(A));
}

TEST(Function, NumParamsComesFromEntryInput) {
  Function F("f");
  BasicBlock *BB = F.createBlock("entry");
  IRBuilder B(BB);
  B.input({"a", "b", "c"});
  B.ret(Target::R0);
  EXPECT_EQ(F.numParams(), 3u);
}

TEST(BasicBlock, SuccessorsFollowTerminator) {
  Function F("f");
  BasicBlock *E = F.createBlock("entry");
  BasicBlock *T = F.createBlock("t");
  BasicBlock *U = F.createBlock("u");
  IRBuilder B(E);
  RegId C = B.make(1);
  B.branch(C, T, U);
  auto Succs = E->successors();
  ASSERT_EQ(Succs.size(), 2u);
  EXPECT_EQ(Succs[0], T);
  EXPECT_EQ(Succs[1], U);
  IRBuilder BT(T);
  BT.jump(U);
  EXPECT_EQ(T->successors().size(), 1u);
}

TEST(Printer, RendersPins) {
  Function F("f");
  BasicBlock *BB = F.createBlock("entry");
  IRBuilder B(BB);
  auto P = B.input({"a"});
  BB->instructions().front().pinDef(0, Target::R0);
  Instruction Ret(Opcode::Ret);
  Ret.addUse(P[0]);
  Ret.pinUse(0, Target::R0);
  BB->append(std::move(Ret));
  std::string Text = printFunction(F);
  EXPECT_NE(Text.find("input %a^R0"), std::string::npos) << Text;
  EXPECT_NE(Text.find("ret %a^R0"), std::string::npos) << Text;
}

TEST(Parser, RoundTripsAllOpcodes) {
  // Canonical text: the printer must reproduce it byte for byte.
  const std::string Text = R"(func @all {
entry:
  input %a^R0, %b^R1
  %c = make -12
  %m = mov %a
  %s = add %a, %b
  %d = sub %s, %c
  %p = mul %d, %d
  %q = and %p, %a
  %r = or %q, %b
  %x = xor %r, %r
  %sl = shl %x, %a
  %sr = shr %sl, %b
  %ai = addi %sr, 5
  %lt = cmplt %ai, %a
  %eq = cmpeq %lt, %b
  %k = more %eq^k, 11258
  %au = autoadd %k^au, 4
  %sp1 = spadjust %SP, -16
  %ld = load %au
  store %au, %ld
  %cl = call @f(%a^R0, %b^R1)
  %ps = psi %lt, %a, %b
  output %ps
  branch %lt, next, fin
next:
  jump fin
fin:
  %ph = phi [%s, entry], [%d, next]
  parcopy %R0 = %ph, %R1 = %a
  ret %ph^R0
}
)";
  auto F = parse(Text);
  ASSERT_TRUE(F);
  expectWellFormed(*F);
  // Every row of the opcode table appears in the text.
  std::vector<bool> Seen(std::size(OpcodeTable));
  for (const auto &BB : F->blocks())
    for (const Instruction &I : BB->instructions())
      Seen[static_cast<size_t>(I.op())] = true;
  for (const OpcodeInfo &Info : OpcodeTable)
    EXPECT_TRUE(Seen[static_cast<size_t>(Info.Op)]) << Info.Name;
  std::string P1 = printFunction(*F);
  EXPECT_EQ(P1, Text);
  auto F2 = parse(P1);
  ASSERT_TRUE(F2);
  EXPECT_EQ(P1, printFunction(*F2));
}

TEST(Parser, RoundTripsAllSuitesByteIdentical) {
  // Print -> parse -> print must be byte-identical on every suite
  // function: the arena-backed core stores operands in slot runs, and
  // this pins down that no ordering or naming drifts through the
  // parser/printer pair.
  for (const SuiteSpec &Spec : allSuites()) {
    for (const Workload &W : Spec.Make()) {
      std::string P1 = printFunction(*W.F);
      std::string Error;
      auto F2 = parseFunction(P1, &Error);
      ASSERT_TRUE(F2) << Spec.Name << "/" << W.Name << ": " << Error;
      EXPECT_EQ(P1, printFunction(*F2)) << Spec.Name << "/" << W.Name;
    }
  }
}

TEST(Parser, ReportsErrors) {
  std::string Error;
  EXPECT_EQ(parseFunction("garbage", &Error), nullptr);
  EXPECT_FALSE(Error.empty());

  EXPECT_EQ(parseFunction("func @f {\nentry:\n  %x = bogus %y\n}", &Error),
            nullptr);
  EXPECT_NE(Error.find("bogus"), std::string::npos);

  EXPECT_EQ(parseFunction("func @f {\nentry:\n  jump nowhere\n}", &Error),
            nullptr);
  EXPECT_NE(Error.find("nowhere"), std::string::npos);

  // A def on an opcode that has none used to be dropped in silence.
  const std::pair<const char *, const char *> NoDef[] = {
      {"%x = store %a, %b", "store"},
      {"%y = output %a", "output"},
      {"%w = ret %b", "ret"},
      {"%z = jump next", "jump"},
      {"%v = branch %a, next, next", "branch"},
      {"%u = input %a, %b", "input"},
      {"%t = parcopy %a = %b", "parcopy"},
  };
  for (const auto &[Line, Op] : NoDef) {
    std::string Text = std::string("func @f {\nentry:\n  input %a, %b\n  ") +
                       Line + "\n  ret %a\nnext:\n  ret %b\n}\n";
    EXPECT_EQ(parseFunction(Text, &Error), nullptr) << Line;
    EXPECT_EQ(Error, std::string("line 4: ") + Op + " takes no def operand");
  }

  // Immediates outside int64_t used to be clamped by strtoll.
  for (const char *Line : {"%x = make 99999999999999999999",
                           "%x = make 0x1ffffffffffffffff",
                           "%x = make 9223372036854775808",
                           "%x = make -9223372036854775809",
                           "%x = addi %a, -99999999999999999999"}) {
    std::string Text = std::string("func @f {\nentry:\n  input %a\n  ") +
                       Line + "\n  ret %a\n}\n";
    EXPECT_EQ(parseFunction(Text, &Error), nullptr) << Line;
    EXPECT_EQ(Error, "line 4: immediate out of range") << Line;
  }
}

TEST(Parser, ReadsImmediatesAtTheEdgesOfTheRange) {
  auto F = parse("func @f {\nentry:\n  %a = make 9223372036854775807\n"
                 "  %b = make -9223372036854775808\n"
                 "  %c = make -0x8000000000000000\n"
                 "  %d = addi %a, 0x7FFFFFFFFFFFFFFF\n  ret %a\n}\n");
  ASSERT_TRUE(F);
  std::vector<int64_t> Imms;
  for (const Instruction &I : F->entry().instructions())
    if (I.op() == Opcode::Make || I.op() == Opcode::AddI)
      Imms.push_back(I.imm());
  EXPECT_EQ(Imms, (std::vector<int64_t>{INT64_MAX, INT64_MIN, INT64_MIN,
                                         INT64_MAX}));
}

TEST(Parser, MalformedLinesNameTheirLineByForm) {
  // One list per syntax form of the opcode table. Each line is the third
  // of "func @f { / entry: / <line> / ret %a / }".
  const std::pair<const char *, const char *> Cases[] = {
      // Any form: the def and the mnemonic.
      {"%x = bogus %a", "unknown opcode 'bogus'"},
      {"%x add %a, %a", "expected '=' after def operand"},
      {"%x =", "expected opcode"},
      {"%x = mov %a %a", "trailing characters after instruction"},
      // <imm>
      {"make 5", "make needs a def operand"},
      {"%x = make", "expected immediate"},
      {"%x = make 12z", "expected immediate"},
      {"%x = make 0x", "expected immediate"},
      {"%x = make 08", "expected immediate"},
      {"%x = make 18446744073709551616", "immediate out of range"},
      // %u, ... (with and without a def)
      {"%x = mov", "expected '%' operand"},
      {"%x = mov %", "expected value name"},
      {"%x = mov %a^", "expected pin resource name"},
      {"%x = add %a", "expected 2 use operands"},
      {"%x = add %a, a", "expected '%' operand"},
      {"%x = psi %a, %a", "expected 3 use operands"},
      {"store %a", "expected 2 use operands"},
      {"%x = load", "expected '%' operand"},
      {"output", "expected '%' operand"},
      {"%x = output %a", "output takes no def operand"},
      // %u, <imm>
      {"%x = addi %a", "expected use operand and immediate"},
      {"%x = addi %a, %a", "expected use operand and immediate"},
      {"%x = more %a, 0x10000000000000000", "immediate out of range"},
      {"addi %a, 1", "addi needs a def operand"},
      // call
      {"call @f()", "call needs a def operand"},
      {"%x = call f()", "expected '@callee'"},
      {"%x = call @()", "expected callee name"},
      {"%x = call @f", "expected '('"},
      {"%x = call @f(%a", "expected ')'"},
      // input
      {"input", "expected '%' operand"},
      {"%x = input %a", "input takes no def operand"},
      // jump
      {"jump nowhere", "unknown block 'nowhere'"},
      {"%x = jump entry", "jump takes no def operand"},
      // branch
      {"branch %a", "expected condition operand"},
      {"branch %a, entry", "expected ',' between branch targets"},
      {"branch %a, entry, nowhere", "unknown block 'nowhere'"},
      // phi
      {"phi [%a, entry]", "phi needs a def operand"},
      {"%x = phi %a", "expected '[' in phi"},
      {"%x = phi [%a entry]", "expected ',' in phi entry"},
      {"%x = phi [%a, nowhere]", "unknown block 'nowhere'"},
      {"%x = phi [%a, entry", "expected ']' in phi entry"},
      // parcopy
      {"parcopy %a %a", "expected '=' in parcopy"},
      {"parcopy %a =", "expected '%' operand"},
      {"%x = parcopy %a = %a", "parcopy takes no def operand"},
  };
  for (const auto &[Line, Diag] : Cases) {
    std::string Error;
    std::string Text = std::string("func @f {\nentry:\n  ") + Line +
                       "\n  ret %a\n}\n";
    EXPECT_EQ(parseFunction(Text, &Error), nullptr) << Line;
    EXPECT_EQ(Error, std::string("line 3: ") + Diag) << Line;
  }
}

TEST(Parser, RejectsInstructionAfterTerminator) {
  // BasicBlock::append asserts on this, so the parser must refuse it.
  std::string Error;
  EXPECT_EQ(parseFunction("func @f {\nentry:\n  input %a\n  ret %a\n"
                          "  output %a\n}",
                          &Error),
            nullptr);
  EXPECT_EQ(Error, "line 5: instruction after the terminator of block "
                   "'entry'");
}

TEST(Parser, RejectsBlockWithoutTerminator) {
  // Accepted, this would pass the pipeline and only fail at run time
  // ("fell off the end of block").
  std::string Error;
  EXPECT_EQ(parseFunction("func @f {\nentry:\n  input %a\n  output %a\n}",
                          &Error),
            nullptr);
  EXPECT_EQ(Error, "line 2: block 'entry' does not end with a terminator");
  // An empty block, named by the line of its label.
  EXPECT_EQ(parseFunction("func @f {\nentry:\n  jump b\nb:\n}", &Error),
            nullptr);
  EXPECT_EQ(Error, "line 4: block 'b' does not end with a terminator");
}

TEST(Parser, RejectsFunctionWithoutBlocks) {
  // Function::entry() asserts on this, so the parser must refuse it.
  std::string Error;
  EXPECT_EQ(parseFunction("func @f {\n}", &Error), nullptr);
  EXPECT_EQ(Error, "line 1: function '@f' has no blocks");
  EXPECT_EQ(parseFunction("# comment\nfunc @g {\n\n}\n", &Error), nullptr);
  EXPECT_EQ(Error, "line 2: function '@g' has no blocks");
}

TEST(Parser, RejectsTextOutsideTheFunction) {
  // Only comments and blank lines may surround the function.
  std::string Error;
  const std::string Body = "func @a {\nentry:\n  input %x\n  ret %x\n}\n";
  EXPECT_EQ(parseFunction("hello world\n" + Body, &Error), nullptr);
  EXPECT_EQ(Error, "line 1: unexpected text before 'func @name {'");
  EXPECT_EQ(parseFunction(Body + "\ntrailing words\n", &Error), nullptr);
  EXPECT_EQ(Error, "line 7: unexpected text after the function's closing '}'");
  // A label after the brace is stray text too, not a block that lacks
  // a terminator.
  EXPECT_EQ(parseFunction(Body + "late:\n", &Error), nullptr);
  EXPECT_EQ(Error, "line 6: unexpected text after the function's closing '}'");
  EXPECT_NE(parseFunction("# lead\n\n" + Body + "; tail\n\n", &Error),
            nullptr)
      << Error;
}

TEST(Parser, RejectsDuplicateLabels) {
  std::string Error;
  EXPECT_EQ(parseFunction("func @f {\na:\n  jump a\na:\n  jump a\n}", &Error),
            nullptr);
  EXPECT_NE(Error.find("duplicate"), std::string::npos);
}

TEST(Clone, ProducesIdenticalText) {
  auto F = parse(R"(
func @c {
entry:
  input %a^R0
  %k = more %a^k, 9
  branch %k, one, two
one:
  jump three
two:
  jump three
three:
  %x = phi [%a, one], [%k, two]
  ret %x^R0
}
)");
  ASSERT_TRUE(F);
  auto C = cloneFunction(*F);
  EXPECT_EQ(printFunction(*F), printFunction(*C));
  // Mutating the clone must not affect the original.
  C->createBlock("extra");
  EXPECT_NE(F->numBlocks(), C->numBlocks());
}

TEST(Clone, MutatedCloneLeavesOriginalIntact) {
  auto F = parse(R"(
func @ind {
entry:
  input %a^R0, %b^R1
  %s = add %a, %b
  branch %s, one, two
one:
  jump three
two:
  jump three
three:
  %x = phi [%s, one], [%a, two]
  %y = mul %x, %b
  ret %y^R0
}
)");
  ASSERT_TRUE(F);
  const std::string Before = printFunction(*F);
  auto C = cloneFunction(*F);

  // Rewrite operands, pins, and immediates in the clone; erase an
  // instruction; append another. Record copies must not share slabs.
  for (const auto &BB : C->blocks())
    for (Instruction &I : BB->instructions()) {
      for (unsigned K = 0; K < I.numUses(); ++K)
        I.setUse(K, Target::R7);
      if (I.numDefs())
        I.pinDef(0, Target::R3);
      I.setImm(99);
    }
  auto &EntryInsts = C->entry().instructions();
  EntryInsts.erase(std::next(EntryInsts.begin()));

  EXPECT_EQ(printFunction(*F), Before);
  EXPECT_NE(printFunction(*C), Before);
}

TEST(Function, InstrRefsStableAcrossInsertEraseClone) {
  Function F("stab");
  BasicBlock *BB = F.createBlock("entry");
  IRBuilder B(BB);
  auto P = B.input({"a", "b"});
  RegId S = B.add(P[0], P[1]);
  B.ret(S);

  Instruction &Add = *std::next(BB->instructions().begin());
  ASSERT_EQ(Add.op(), Opcode::Add);
  const InstrRef AddRef = Add.selfRef();
  const Instruction *AddPtr = &Add;

  // Insert enough instructions to force new table chunks, erase one,
  // and clone the function: the record must not move and its ref must
  // keep resolving to it.
  auto RetIt = std::prev(BB->instructions().end());
  for (int I = 0; I < 1000; ++I) {
    Instruction Mv(Opcode::Mov);
    Mv.addDef(F.makeVirtual());
    Mv.addUse(S);
    BB->insert(RetIt, std::move(Mv));
  }
  BB->instructions().erase(std::next(BB->instructions().begin(), 2));
  auto C = cloneFunction(F);

  EXPECT_EQ(&F.instr(AddRef), AddPtr);
  EXPECT_EQ(AddPtr->op(), Opcode::Add);
  EXPECT_EQ(AddPtr->selfRef(), AddRef);
  EXPECT_EQ(AddPtr->def(0), S);
  // The clone's records are its own; same ref, different storage.
  EXPECT_NE(&C->instr(AddRef), AddPtr);
  EXPECT_EQ(C->instr(AddRef).op(), Opcode::Add);
}

TEST(Function, EraseBlocksDropsPhiIncomingsAndRenumbers) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  jump j
d1:
  %d = make 7
  jump j
j:
  %x = phi [%a, entry], [%d, d1], [%e, d2]
  ret %x
d2:
  %e = make 8
  jump j
}
)");
  size_t Instrs = F->numInstrs();
  F->eraseBlocks({false, true, false, true});
  ASSERT_EQ(F->numBlocks(), 2u);
  for (unsigned Id = 0; Id < F->numBlocks(); ++Id)
    EXPECT_EQ(F->blocks()[Id]->id(), Id);
  EXPECT_EQ(F->blocks()[1]->name(), "j");
  EXPECT_EQ(F->numInstrs(), Instrs - 4) << "erased instructions are freed";
  EXPECT_EQ(printFunction(*F), "func @f {\nentry:\n  input %a\n  jump j\n"
                               "j:\n  %x = phi [%a, entry]\n  ret %x\n}\n");
  expectWellFormed(*F);
}

TEST(Function, InlineOperandsNeverTouchSlabs) {
  // Every fixed-arity opcode (<= 2 defs, <= 3 uses) must fit the
  // record's inline slots: building a whole function out of them may
  // not allocate a single operand slab byte.
  Function F("inline");
  BasicBlock *BB = F.createBlock("entry");
  IRBuilder B(BB);
  auto P = B.input({"a", "b"});
  RegId V = P[0];
  for (int I = 0; I < 200; ++I)
    V = B.add(V, P[1]);
  B.ret(V);
  EXPECT_EQ(F.operandSlabBytes(), 0u);
  EXPECT_GT(F.arena().bytesAllocated(), 0u);

  // A wide parallel copy overflows by design — the slab accounting must
  // see it.
  Instruction Par(Opcode::ParCopy);
  for (int I = 0; I < 8; ++I) {
    Par.addDef(F.makeVirtual());
    Par.addUse(V);
  }
  BB->insert(std::prev(BB->instructions().end()), std::move(Par));
  EXPECT_GT(F.operandSlabBytes(), 0u);
}

TEST(Verifier, CatchesMissingTerminator) {
  Function F("f");
  BasicBlock *BB = F.createBlock("entry");
  IRBuilder B(BB);
  B.make(1);
  auto Diags = verifyStructure(F);
  ASSERT_FALSE(Diags.empty());
  EXPECT_NE(Diags[0].find("terminator"), std::string::npos);
}

TEST(Verifier, CatchesPhiAfterNonPhi) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  jump j
mid:
  jump j
j:
  %x = add %a, %a
  %p = phi [%a, entry], [%x, mid]
  ret %p
}
)");
  // Parsing succeeds; structure check flags the misplaced phi.
  ASSERT_TRUE(F);
  bool Found = false;
  for (const auto &D : verifyStructure(*F))
    Found |= D.find("phi after non-phi") != std::string::npos;
  EXPECT_TRUE(Found);
}

TEST(Verifier, CatchesPhiPredMismatch) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  jump j
other:
  jump j
j:
  %p = phi [%a, entry]
  ret %p
}
)");
  ASSERT_TRUE(F);
  bool Found = false;
  for (const auto &D : verifyStructure(*F))
    Found |= D.find("incoming") != std::string::npos;
  EXPECT_TRUE(Found);
}

TEST(CFG, ReversePostOrderStartsAtEntry) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  branch %a, b1, b2
b1:
  jump b3
b2:
  jump b3
b3:
  ret %a
}
)");
  ASSERT_TRUE(F);
  CFG Cfg(*F);
  const auto &Rpo = Cfg.rpo();
  ASSERT_EQ(Rpo.size(), 4u);
  EXPECT_EQ(Rpo.front()->name(), "entry");
  EXPECT_EQ(Rpo.back()->name(), "b3");
  EXPECT_EQ(Cfg.preds(F->blockByName("b3")).size(), 2u);
}

TEST(CFG, SplitCriticalEdges) {
  // entry branches to {join, side}; side jumps to join: the edge
  // entry->join is critical.
  auto F = parse(R"(
func @f {
entry:
  input %a
  branch %a, join, side
side:
  %b = addi %a, 1
  jump join
join:
  %p = phi [%a, entry], [%b, side]
  ret %p
}
)");
  ASSERT_TRUE(F);
  unsigned NumSplit = splitCriticalEdges(*F);
  EXPECT_EQ(NumSplit, 1u);
  expectWellFormed(*F);
  // The phi's incoming block for the a-path must now be the edge block.
  BasicBlock *Join = F->blockByName("join");
  const Instruction &Phi = Join->front();
  ASSERT_TRUE(Phi.isPhi());
  for (unsigned K = 0; K < Phi.numUses(); ++K)
    EXPECT_NE(Phi.incomingBlock(K)->name(), "entry");
}

TEST(CFG, SplitNormalizesDegenerateBranch) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  branch %a, only, only
only:
  ret %a
}
)");
  ASSERT_TRUE(F);
  splitCriticalEdges(*F);
  EXPECT_EQ(F->entry().terminator().op(), Opcode::Jump);
  expectWellFormed(*F);
}

TEST(CFG, SplitsMultiSuccEdgeToPhiBlock) {
  // side has a single predecessor but starts with a phi-bearing block
  // reached from a multi-successor block: the edge must still be split
  // so parallel copies cannot leak onto the sibling path.
  auto F = parse(R"(
func @f {
entry:
  input %a
  branch %a, left, right
left:
  jump merge
right:
  jump merge
merge:
  %p = phi [%a, left], [%a, right]
  branch %p, merge2, out
merge2:
  jump out
out:
  ret %p
}
)");
  ASSERT_TRUE(F);
  splitCriticalEdges(*F);
  expectWellFormed(*F);
  // Every phi-bearing block's preds must have exactly one successor.
  CFG Cfg(*F);
  for (const auto &BB : F->blocks()) {
    if (BB->empty() || !BB->front().isPhi())
      continue;
    for (BasicBlock *P : Cfg.preds(BB.get()))
      EXPECT_EQ(P->successors().size(), 1u);
  }
}

TEST(DotExport, RendersBlocksEdgesAndPhis) {
  auto F = parse(R"(
func @f {
entry:
  input %a
  branch %a, t, e
t:
  jump j
e:
  jump j
j:
  %x = phi [%a, t], [%a, e]
  ret %x
}
)");
  std::string Dot = exportDot(*F);
  EXPECT_NE(Dot.find("digraph \"f\""), std::string::npos);
  // Four block nodes and the branch/jump edges.
  EXPECT_NE(Dot.find("b0 -> b1"), std::string::npos);
  EXPECT_NE(Dot.find("b0 -> b2"), std::string::npos);
  EXPECT_NE(Dot.find("b1 -> b3"), std::string::npos);
  // Dashed phi data-flow edges labelled with the flowing value.
  EXPECT_NE(Dot.find("style=dashed"), std::string::npos);
  EXPECT_NE(Dot.find("label=\"a\""), std::string::npos);
  // Instruction text appears inside the record labels.
  EXPECT_NE(Dot.find("phi [%a, t]"), std::string::npos);
  EXPECT_NE(Dot.find("ret %x"), std::string::npos);
}

TEST(DotExport, EscapesRecordMetacharacters) {
  // Braces and pipes in names would corrupt a record label.
  Function F("f");
  BasicBlock *BB = F.createBlock("entry");
  IRBuilder B(BB);
  RegId V = F.makeVirtual("weird{|}name");
  B.movTo(V, B.make(1));
  B.ret(V);
  std::string Dot = exportDot(F);
  EXPECT_NE(Dot.find("weird\\{\\|\\}name"), std::string::npos) << Dot;
}
