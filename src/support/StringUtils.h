//===- StringUtils.h - Small string helpers ---------------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style std::string formatting and a few parsing helpers shared by
/// the IR printer/parser, the bench table writers, the wire protocol and
/// the command-line tools.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_SUPPORT_STRINGUTILS_H
#define LAO_SUPPORT_STRINGUTILS_H

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lao {

/// Returns a std::string produced by printf-style formatting.
std::string formatStr(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits \p Text on \p Sep, dropping empty pieces.
std::vector<std::string> splitString(const std::string &Text, char Sep);

/// Returns \p Text with leading/trailing whitespace removed.
std::string trimString(const std::string &Text);

/// Parses \p Text as a decimal number no larger than \p Max into \p Out.
/// Digits only: an empty text, a sign, a space, any other character or
/// an out-of-range value returns false and leaves \p Out alone. Every
/// numeric wire option and command-line flag goes through this.
bool parseU64(std::string_view Text, uint64_t &Out,
              uint64_t Max = UINT64_MAX);

/// Parses comma-separated parseU64 numbers, each with optional spaces
/// around it, into \p Out (replacing its contents). The wire's
/// exec_args and lao-opt's --run share this syntax.
bool parseU64List(const std::string &Text, std::vector<uint64_t> &Out);

} // namespace lao

#endif // LAO_SUPPORT_STRINGUTILS_H
