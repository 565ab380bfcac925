//===- StringUtils.cpp - Small string helpers -----------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <charconv>
#include <cstdio>

using namespace lao;

std::string lao::formatStr(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  va_list ArgsCopy;
  va_copy(ArgsCopy, Args);
  int Needed = std::vsnprintf(nullptr, 0, Fmt, Args);
  va_end(Args);
  std::string Result;
  if (Needed > 0) {
    Result.resize(static_cast<size_t>(Needed) + 1);
    std::vsnprintf(Result.data(), Result.size(), Fmt, ArgsCopy);
    Result.resize(static_cast<size_t>(Needed));
  }
  va_end(ArgsCopy);
  return Result;
}

std::vector<std::string> lao::splitString(const std::string &Text, char Sep) {
  std::vector<std::string> Parts;
  std::string Cur;
  for (char C : Text) {
    if (C == Sep) {
      if (!Cur.empty())
        Parts.push_back(Cur);
      Cur.clear();
      continue;
    }
    Cur.push_back(C);
  }
  if (!Cur.empty())
    Parts.push_back(Cur);
  return Parts;
}

std::string lao::trimString(const std::string &Text) {
  size_t Begin = Text.find_first_not_of(" \t\r\n");
  if (Begin == std::string::npos)
    return std::string();
  size_t End = Text.find_last_not_of(" \t\r\n");
  return Text.substr(Begin, End - Begin + 1);
}

bool lao::parseU64(std::string_view Text, uint64_t &Out, uint64_t Max) {
  // from_chars takes no sign, space or base prefix for an unsigned type.
  uint64_t V = 0;
  const char *End = Text.data() + Text.size();
  auto [Stop, Ec] = std::from_chars(Text.data(), End, V);
  if (Ec != std::errc() || Stop != End || V > Max)
    return false;
  Out = V;
  return true;
}

bool lao::parseU64List(const std::string &Text, std::vector<uint64_t> &Out) {
  Out.clear();
  for (const std::string &Piece : splitString(Text, ',')) {
    uint64_t V = 0;
    if (!parseU64(trimString(Piece), V))
      return false;
    Out.push_back(V);
  }
  return true;
}
