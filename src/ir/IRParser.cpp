//===- IRParser.cpp - Textual mini-LAI input --------------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"

#include "support/StringUtils.h"

#include <cctype>
#include <cstdlib>
#include <map>

using namespace lao;

namespace {

/// Per-line token cursor.
class LineCursor {
public:
  explicit LineCursor(const std::string &Line) : Text(Line) {}

  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool atEnd() {
    skipSpace();
    return Pos >= Text.size();
  }

  bool consume(char C) {
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  char peek() {
    skipSpace();
    return Pos < Text.size() ? Text[Pos] : '\0';
  }

  /// Reads an identifier ([A-Za-z0-9_.]+).
  std::string ident() {
    skipSpace();
    size_t Start = Pos;
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (std::isalnum(static_cast<unsigned char>(C)) || C == '_' || C == '.')
        ++Pos;
      else
        break;
    }
    return Text.substr(Start, Pos - Start);
  }

  /// Reads a signed integer (decimal or 0x-hex).
  bool integer(int64_t &Out) {
    skipSpace();
    size_t Start = Pos;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    while (Pos < Text.size() &&
           std::isalnum(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    if (Pos == Start)
      return false;
    std::string Tok = Text.substr(Start, Pos - Start);
    char *End = nullptr;
    Out = std::strtoll(Tok.c_str(), &End, 0);
    return End != nullptr && *End == '\0';
  }

private:
  const std::string &Text;
  size_t Pos = 0;
};

/// Stateful single-function parser.
class Parser {
public:
  std::unique_ptr<Function> run(const std::string &Text, std::string *Err);

private:
  std::unique_ptr<Function> F;
  std::map<std::string, BasicBlock *> BlocksByName;
  std::vector<unsigned> LabelLine; ///< Block id -> line of its label.
  std::string Error;
  unsigned LineNo = 0;

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = formatStr("line %u: %s", LineNo, Msg.c_str());
    return false;
  }

  RegId valueFor(const std::string &Name) {
    RegId R = F->findValue(Name);
    if (R != InvalidReg)
      return R;
    return F->makeVirtual(Name);
  }

  BasicBlock *blockFor(const std::string &Label) {
    auto It = BlocksByName.find(Label);
    return It == BlocksByName.end() ? nullptr : It->second;
  }

  /// Parses "%name" with optional "^res" pin; stores pin or InvalidReg.
  bool operand(LineCursor &C, RegId &Reg, RegId &Pin) {
    Pin = InvalidReg;
    if (!C.consume('%'))
      return fail("expected '%' operand");
    std::string Name = C.ident();
    if (Name.empty())
      return fail("expected value name");
    Reg = valueFor(Name);
    if (C.consume('^')) {
      std::string PinName = C.ident();
      if (PinName.empty())
        return fail("expected pin resource name");
      Pin = valueFor(PinName);
    }
    return true;
  }

  /// Appends one use operand parsed from \p C to \p I.
  bool parseUse(LineCursor &C, Instruction &I) {
    RegId R, Pin;
    if (!operand(C, R, Pin))
      return false;
    I.addUse(R);
    if (Pin != InvalidReg)
      I.pinUse(I.numUses() - 1, Pin);
    return true;
  }

  bool parseInstruction(LineCursor &C, BasicBlock *BB);
};

bool Parser::parseInstruction(LineCursor &C, BasicBlock *BB) {
  bool HasDef = false;
  RegId Def = InvalidReg, DefPin = InvalidReg;
  std::string OpName;
  if (C.peek() == '%') {
    if (!operand(C, Def, DefPin))
      return false;
    if (!C.consume('='))
      return fail("expected '=' after def operand");
    HasDef = true;
    OpName = C.ident();
  } else {
    OpName = C.ident();
  }
  if (OpName.empty())
    return fail("expected opcode");

  auto finishDef = [&](Instruction &I) {
    I.addDef(Def);
    if (DefPin != InvalidReg)
      I.pinDef(0, DefPin);
  };

  static const std::map<std::string, Opcode> BinaryOps = {
      {"add", Opcode::Add},     {"sub", Opcode::Sub},
      {"mul", Opcode::Mul},     {"and", Opcode::And},
      {"or", Opcode::Or},       {"xor", Opcode::Xor},
      {"shl", Opcode::Shl},     {"shr", Opcode::Shr},
      {"cmplt", Opcode::CmpLT}, {"cmpeq", Opcode::CmpEQ}};
  static const std::map<std::string, Opcode> ImmOps = {
      {"addi", Opcode::AddI},
      {"more", Opcode::More},
      {"autoadd", Opcode::AutoAdd},
      {"spadjust", Opcode::SpAdjust}};

  if (auto It = BinaryOps.find(OpName); It != BinaryOps.end()) {
    if (!HasDef)
      return fail(OpName + " needs a def operand");
    Instruction I(It->second);
    finishDef(I);
    if (!parseUse(C, I) || !C.consume(',') || !parseUse(C, I))
      return Error.empty() ? fail("expected two use operands") : false;
    BB->append(std::move(I));
    return true;
  }

  if (auto It = ImmOps.find(OpName); It != ImmOps.end()) {
    if (!HasDef)
      return fail(OpName + " needs a def operand");
    Instruction I(It->second);
    finishDef(I);
    int64_t Imm;
    if (!parseUse(C, I) || !C.consume(',') || !C.integer(Imm))
      return Error.empty() ? fail("expected use operand and immediate")
                           : false;
    I.setImm(Imm);
    BB->append(std::move(I));
    return true;
  }

  if (OpName == "make") {
    if (!HasDef)
      return fail("make needs a def operand");
    Instruction I(Opcode::Make);
    finishDef(I);
    int64_t Imm;
    if (!C.integer(Imm))
      return fail("expected immediate");
    I.setImm(Imm);
    BB->append(std::move(I));
    return true;
  }

  if (OpName == "mov") {
    if (!HasDef)
      return fail("mov needs a def operand");
    Instruction I(Opcode::Mov);
    finishDef(I);
    if (!parseUse(C, I))
      return false;
    BB->append(std::move(I));
    return true;
  }

  if (OpName == "load") {
    if (!HasDef)
      return fail("load needs a def operand");
    Instruction I(Opcode::Load);
    finishDef(I);
    if (!parseUse(C, I))
      return false;
    BB->append(std::move(I));
    return true;
  }

  if (OpName == "psi") {
    if (!HasDef)
      return fail("psi needs a def operand");
    Instruction I(Opcode::Psi);
    finishDef(I);
    if (!parseUse(C, I) || !C.consume(',') || !parseUse(C, I) ||
        !C.consume(',') || !parseUse(C, I))
      return Error.empty() ? fail("expected three use operands") : false;
    BB->append(std::move(I));
    return true;
  }

  if (OpName == "store") {
    Instruction I(Opcode::Store);
    if (!parseUse(C, I) || !C.consume(',') || !parseUse(C, I))
      return Error.empty() ? fail("expected address and value") : false;
    BB->append(std::move(I));
    return true;
  }

  if (OpName == "call") {
    if (!HasDef)
      return fail("call needs a def operand");
    Instruction I(Opcode::Call);
    finishDef(I);
    if (!C.consume('@'))
      return fail("expected '@callee'");
    std::string Callee = C.ident();
    if (Callee.empty())
      return fail("expected callee name");
    I.setCallee(Callee);
    if (!C.consume('('))
      return fail("expected '('");
    if (!C.consume(')')) {
      do {
        if (!parseUse(C, I))
          return false;
      } while (C.consume(','));
      if (!C.consume(')'))
        return fail("expected ')'");
    }
    BB->append(std::move(I));
    return true;
  }

  if (OpName == "input") {
    Instruction I(Opcode::Input);
    do {
      RegId R, Pin;
      if (!operand(C, R, Pin))
        return false;
      I.addDef(R);
      if (Pin != InvalidReg)
        I.pinDef(I.numDefs() - 1, Pin);
    } while (C.consume(','));
    BB->append(std::move(I));
    return true;
  }

  if (OpName == "output" || OpName == "ret") {
    Instruction I(OpName == "output" ? Opcode::Output : Opcode::Ret);
    if (!parseUse(C, I))
      return false;
    BB->append(std::move(I));
    return true;
  }

  if (OpName == "jump") {
    std::string Label = C.ident();
    BasicBlock *T = blockFor(Label);
    if (!T)
      return fail("unknown block '" + Label + "'");
    Instruction I(Opcode::Jump);
    I.setTarget(0, T);
    BB->append(std::move(I));
    return true;
  }

  if (OpName == "branch") {
    Instruction I(Opcode::Branch);
    if (!parseUse(C, I) || !C.consume(','))
      return Error.empty() ? fail("expected condition operand") : false;
    for (unsigned K = 0; K < 2; ++K) {
      std::string Label = C.ident();
      BasicBlock *T = blockFor(Label);
      if (!T)
        return fail("unknown block '" + Label + "'");
      I.setTarget(K, T);
      if (K == 0 && !C.consume(','))
        return fail("expected ',' between branch targets");
    }
    BB->append(std::move(I));
    return true;
  }

  if (OpName == "phi") {
    if (!HasDef)
      return fail("phi needs a def operand");
    Instruction I(Opcode::Phi);
    finishDef(I);
    do {
      if (!C.consume('['))
        return fail("expected '[' in phi");
      RegId R, Pin;
      if (!operand(C, R, Pin))
        return false;
      if (!C.consume(','))
        return fail("expected ',' in phi entry");
      std::string Label = C.ident();
      BasicBlock *Pred = blockFor(Label);
      if (!Pred)
        return fail("unknown block '" + Label + "'");
      if (!C.consume(']'))
        return fail("expected ']' in phi entry");
      I.addIncoming(R, Pred);
      if (Pin != InvalidReg)
        I.pinUse(I.numUses() - 1, Pin);
    } while (C.consume(','));
    BB->append(std::move(I));
    return true;
  }

  if (OpName == "parcopy") {
    Instruction I(Opcode::ParCopy);
    do {
      RegId D, DPin;
      if (!operand(C, D, DPin))
        return false;
      if (!C.consume('='))
        return fail("expected '=' in parcopy");
      RegId S, SPin;
      if (!operand(C, S, SPin))
        return false;
      I.addDef(D);
      if (DPin != InvalidReg)
        I.pinDef(I.numDefs() - 1, DPin);
      I.addUse(S);
      if (SPin != InvalidReg)
        I.pinUse(I.numUses() - 1, SPin);
    } while (C.consume(','));
    BB->append(std::move(I));
    return true;
  }

  return fail("unknown opcode '" + OpName + "'");
}

std::unique_ptr<Function> Parser::run(const std::string &Text,
                                      std::string *Err) {
  std::vector<std::string> Lines;
  {
    std::string Cur;
    for (char Ch : Text) {
      if (Ch == '\n') {
        Lines.push_back(Cur);
        Cur.clear();
      } else {
        Cur.push_back(Ch);
      }
    }
    Lines.push_back(Cur);
  }

  // Strip comments and trim.
  for (std::string &L : Lines) {
    size_t Hash = L.find_first_of("#;");
    if (Hash != std::string::npos)
      L = L.substr(0, Hash);
    L = trimString(L);
  }

  // First pass: function header, block labels (so forward references
  // to blocks resolve during instruction parsing) and the closing brace.
  // Only comments and blank lines may come before the header or after
  // the brace.
  unsigned HeaderLine = ~0u, CloseLine = ~0u;
  for (unsigned I = 0; I < Lines.size() && Error.empty(); ++I) {
    const std::string &L = Lines[I];
    if (L.empty())
      continue;
    LineNo = I + 1;
    if (CloseLine != ~0u) {
      fail("unexpected text after the function's closing '}'");
      break;
    }
    if (!F) {
      if (L.rfind("func", 0) != 0) {
        fail("unexpected text before 'func @name {'");
        break;
      }
      LineCursor C(L);
      C.ident(); // "func"
      if (!C.consume('@')) {
        fail("expected '@' after 'func'");
        break;
      }
      std::string Name = C.ident();
      if (!C.consume('{')) {
        fail("expected '{' after function name");
        break;
      }
      F = std::make_unique<Function>(Name);
      HeaderLine = I;
      continue;
    }
    if (L == "}") {
      CloseLine = I;
      continue;
    }
    if (L.back() == ':') {
      std::string Label = trimString(L.substr(0, L.size() - 1));
      if (BlocksByName.count(Label)) {
        fail("duplicate block label '" + Label + "'");
        break;
      }
      BlocksByName[Label] = F->createBlock(Label);
      LabelLine.push_back(I + 1);
    }
  }
  if (!F && Error.empty())
    Error = "no 'func @name {' header found";

  // Second pass: instructions.
  BasicBlock *BB = nullptr;
  for (unsigned I = HeaderLine + 1; I < Lines.size() && Error.empty(); ++I) {
    LineNo = I + 1;
    const std::string &L = Lines[I];
    if (L.empty())
      continue;
    if (L == "}")
      break;
    if (L.back() == ':') {
      BB = BlocksByName[trimString(L.substr(0, L.size() - 1))];
      continue;
    }
    if (!BB) {
      fail("instruction before first block label");
      break;
    }
    if (BB->hasTerminator()) {
      fail("instruction after the terminator of block '" + BB->name() + "'");
      break;
    }
    LineCursor C(L);
    if (!parseInstruction(C, BB))
      break;
    if (!C.atEnd())
      fail("trailing characters after instruction");
  }
  if (F && Error.empty() && F->numBlocks() == 0) {
    // Function::entry() asserts on this; every later stage needs a block.
    LineNo = HeaderLine + 1;
    fail("function '@" + F->name() + "' has no blocks");
  }
  for (unsigned K = 0; F && K < F->numBlocks() && Error.empty(); ++K)
    if (!F->blocks()[K]->hasTerminator()) {
      LineNo = LabelLine[K];
      fail("block '" + F->blocks()[K]->name() +
           "' does not end with a terminator");
    }

  if (!Error.empty()) {
    if (Err)
      *Err = Error;
    return nullptr;
  }
  if (Err)
    Err->clear();
  return std::move(F);
}

} // namespace

std::unique_ptr<Function> lao::parseFunction(const std::string &Text,
                                             std::string *ErrorOut) {
  Parser P;
  return P.run(Text, ErrorOut);
}
