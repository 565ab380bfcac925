//===- Json.h - Minimal dependency-free JSON writer -------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small streaming JSON writer used by the bench binaries' `--json`
/// mode and `lao-opt --stats=<file>`. Writer-only on purpose: the
/// project never consumes JSON, it only emits machine-readable records,
/// and keeping this dependency-free means the bench binaries stay
/// buildable with nothing beyond the toolchain.
///
///   JsonWriter W;
///   W.beginObject();
///   W.key("moves").value(uint64_t(42));
///   W.key("per_pass_seconds").beginObject();
///   W.key("translate").value(0.25);
///   W.endObject();
///   W.endObject();
///   std::string Text = W.take();
///
/// Commas and colons are inserted automatically; strings are escaped per
/// RFC 8259. Doubles print with %.9g (enough for stable millisecond
/// timings, and never produces exponent-less garbage); non-finite
/// doubles degrade to 0 since JSON cannot represent them.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_SUPPORT_JSON_H
#define LAO_SUPPORT_JSON_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace lao {

class JsonWriter {
public:
  JsonWriter &beginObject() {
    prefix();
    Out += '{';
    Nesting.push_back(false);
    return *this;
  }
  JsonWriter &endObject() {
    Nesting.pop_back();
    Out += '}';
    return *this;
  }
  JsonWriter &beginArray() {
    prefix();
    Out += '[';
    Nesting.push_back(false);
    return *this;
  }
  JsonWriter &endArray() {
    Nesting.pop_back();
    Out += ']';
    return *this;
  }

  JsonWriter &key(std::string_view K) {
    separate();
    appendEscaped(K);
    Out += ':';
    AfterKey = true;
    return *this;
  }

  JsonWriter &value(std::string_view S) {
    prefix();
    appendEscaped(S);
    return *this;
  }
  JsonWriter &value(const char *S) { return value(std::string_view(S)); }
  JsonWriter &value(uint64_t V) {
    prefix();
    Out += std::to_string(V);
    return *this;
  }
  JsonWriter &value(int64_t V) {
    prefix();
    Out += std::to_string(V);
    return *this;
  }
  JsonWriter &value(unsigned V) { return value(static_cast<uint64_t>(V)); }
  JsonWriter &value(int V) { return value(static_cast<int64_t>(V)); }
  JsonWriter &value(double V) {
    prefix();
    if (!std::isfinite(V))
      V = 0.0;
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.9g", V);
    Out += Buf;
    return *this;
  }
  JsonWriter &value(bool V) {
    prefix();
    Out += V ? "true" : "false";
    return *this;
  }

  const std::string &str() const { return Out; }
  std::string take() { return std::move(Out); }

  static std::string escape(std::string_view S) {
    std::string E;
    E.reserve(S.size() + 2);
    for (unsigned char C : S) {
      switch (C) {
      case '"':
        E += "\\\"";
        break;
      case '\\':
        E += "\\\\";
        break;
      case '\n':
        E += "\\n";
        break;
      case '\t':
        E += "\\t";
        break;
      case '\r':
        E += "\\r";
        break;
      case '\b':
        E += "\\b";
        break;
      case '\f':
        E += "\\f";
        break;
      default:
        if (C < 0x20) {
          char Buf[8];
          std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
          E += Buf;
        } else {
          E += static_cast<char>(C);
        }
      }
    }
    return E;
  }

private:
  /// Emits the pending comma inside the enclosing container.
  void separate() {
    if (!Nesting.empty()) {
      if (Nesting.back())
        Out += ',';
      Nesting.back() = true;
    }
  }

  /// Comma handling for a value: suppressed right after a key (the colon
  /// already separates), applied inside arrays and at top level.
  void prefix() {
    if (AfterKey)
      AfterKey = false;
    else
      separate();
  }

  void appendEscaped(std::string_view S) {
    Out += '"';
    Out += escape(S);
    Out += '"';
  }

  std::string Out;
  std::vector<bool> Nesting; ///< Per level: has a previous element.
  bool AfterKey = false;
};

} // namespace lao

#endif // LAO_SUPPORT_JSON_H
