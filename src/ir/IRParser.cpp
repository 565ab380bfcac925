//===- IRParser.cpp - Textual mini-LAI input --------------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ir/IRParser.h"

#include "support/StringUtils.h"

#include <cctype>
#include <charconv>
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

  /// Reads a signed integer: decimal, 0x-hex or (after a leading 0)
  /// octal, as strtoll reads them with base 0. Returns invalid_argument
  /// for a token that is no such number and result_out_of_range for one
  /// outside int64_t.
  std::errc integer(int64_t &Out) {
    skipSpace();
    bool Neg = false;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      Neg = Text[Pos++] == '-';
    const char *First = Text.data() + Pos;
    while (Pos < Text.size() &&
           std::isalnum(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    const char *Last = Text.data() + Pos;
    int Base = 10;
    if (Last - First > 1 && First[0] == '0') {
      Base = 8;
      if (First[1] == 'x' || First[1] == 'X') {
        Base = 16;
        First += 2;
      }
    }
    uint64_t Mag = 0;
    auto [Stop, Ec] = std::from_chars(First, Last, Mag, Base);
    if (Ec == std::errc::invalid_argument || Stop != Last)
      return std::errc::invalid_argument;
    uint64_t Max = Neg ? uint64_t{1} << 63 : INT64_MAX;
    if (Ec == std::errc::result_out_of_range || Mag > Max)
      return std::errc::result_out_of_range;
    Out = static_cast<int64_t>(Neg ? 0 - Mag : Mag);
    return std::errc();
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

  /// Reads an immediate into \p I; \p Missing is the diagnostic for
  /// text that is no number.
  bool immediate(LineCursor &C, Instruction &I, const char *Missing) {
    int64_t Imm;
    std::errc Ec = C.integer(Imm);
    if (Ec == std::errc::result_out_of_range)
      return fail("immediate out of range");
    if (Ec != std::errc())
      return fail(Missing);
    I.setImm(Imm);
    return true;
  }

  /// Reads a label into \p BB; it must name a block of the function.
  bool label(LineCursor &C, BasicBlock *&BB) {
    std::string Label = C.ident();
    BB = blockFor(Label);
    return BB || fail("unknown block '" + Label + "'");
  }

  bool parseInstruction(LineCursor &C, BasicBlock *BB);
  bool parseOperands(LineCursor &C, const OpcodeInfo &Info, Instruction &I);
};

/// Returns the row whose mnemonic is \p Name, or nullptr.
const OpcodeInfo *findOpcode(const std::string &Name) {
  for (const OpcodeInfo &Info : OpcodeTable)
    if (Name == Info.Name)
      return &Info;
  return nullptr;
}

bool Parser::parseInstruction(LineCursor &C, BasicBlock *BB) {
  bool HasDef = C.peek() == '%';
  RegId Def = InvalidReg, DefPin = InvalidReg;
  if (HasDef) {
    if (!operand(C, Def, DefPin))
      return false;
    if (!C.consume('='))
      return fail("expected '=' after def operand");
  }
  std::string OpName = C.ident();
  if (OpName.empty())
    return fail("expected opcode");
  const OpcodeInfo *Info = findOpcode(OpName);
  if (!Info)
    return fail("unknown opcode '" + OpName + "'");
  // Only a row with exactly one def writes it before the mnemonic.
  if (HasDef && Info->Defs != 1)
    return fail(OpName + " takes no def operand");
  if (!HasDef && Info->Defs == 1)
    return fail(OpName + " needs a def operand");

  Instruction I(Info->Op);
  if (HasDef) {
    I.addDef(Def);
    if (DefPin != InvalidReg)
      I.pinDef(0, DefPin);
  }
  if (!parseOperands(C, *Info, I))
    return false;
  BB->append(std::move(I));
  return true;
}

bool Parser::parseOperands(LineCursor &C, const OpcodeInfo &Info,
                           Instruction &I) {
  switch (Info.Form) {
  case OpForm::Imm:
    return immediate(C, I, "expected immediate");

  case OpForm::Uses:
    for (unsigned K = 0; K < Info.Uses; ++K) {
      if (K != 0 && !C.consume(','))
        return fail(formatStr("expected %u use operands", Info.Uses));
      if (!parseUse(C, I))
        return false;
    }
    return true;

  case OpForm::UseImm:
    if (!parseUse(C, I))
      return false;
    if (!C.consume(','))
      return fail("expected use operand and immediate");
    return immediate(C, I, "expected use operand and immediate");

  case OpForm::Call: {
    if (!C.consume('@'))
      return fail("expected '@callee'");
    std::string Callee = C.ident();
    if (Callee.empty())
      return fail("expected callee name");
    I.setCallee(Callee);
    if (!C.consume('('))
      return fail("expected '('");
    if (C.consume(')'))
      return true;
    do {
      if (!parseUse(C, I))
        return false;
    } while (C.consume(','));
    return C.consume(')') || fail("expected ')'");
  }

  case OpForm::Input:
    do {
      RegId R, Pin;
      if (!operand(C, R, Pin))
        return false;
      I.addDef(R);
      if (Pin != InvalidReg)
        I.pinDef(I.numDefs() - 1, Pin);
    } while (C.consume(','));
    return true;

  case OpForm::Jump: {
    BasicBlock *T;
    if (!label(C, T))
      return false;
    I.setTarget(0, T);
    return true;
  }

  case OpForm::Branch:
    if (!parseUse(C, I))
      return false;
    if (!C.consume(','))
      return fail("expected condition operand");
    for (unsigned K = 0; K < 2; ++K) {
      BasicBlock *T;
      if (!label(C, T))
        return false;
      I.setTarget(K, T);
      if (K == 0 && !C.consume(','))
        return fail("expected ',' between branch targets");
    }
    return true;

  case OpForm::Phi:
    do {
      if (!C.consume('['))
        return fail("expected '[' in phi");
      RegId R, Pin;
      if (!operand(C, R, Pin))
        return false;
      if (!C.consume(','))
        return fail("expected ',' in phi entry");
      BasicBlock *Pred;
      if (!label(C, Pred))
        return false;
      if (!C.consume(']'))
        return fail("expected ']' in phi entry");
      I.addIncoming(R, Pred);
      if (Pin != InvalidReg)
        I.pinUse(I.numUses() - 1, Pin);
    } while (C.consume(','));
    return true;

  case OpForm::ParCopy:
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
    return true;
  }
  return false;
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
