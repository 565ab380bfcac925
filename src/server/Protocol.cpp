//===- Protocol.cpp - lao-server wire protocol ---------------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include "support/StringUtils.h"

#include <istream>

using namespace lao;

namespace {

/// Reads the declared body plus its trailing frame newline. Returns
/// false on a truncated stream.
bool readBody(std::istream &In, size_t N, std::string &Body) {
  Body.resize(N);
  if (N && !In.read(Body.data(), static_cast<std::streamsize>(N)))
    return false;
  if (In.peek() == '\n')
    In.get();
  return true;
}

/// Skips the declared body of an oversized frame without buffering it.
bool skipBody(std::istream &In, size_t N) {
  In.ignore(static_cast<std::streamsize>(N));
  if (static_cast<size_t>(In.gcount()) != N)
    return false;
  if (In.peek() == '\n')
    In.get();
  return true;
}

/// Reads and parses a "LAO1 <kind> <id> <bytes>" header line, skipping
/// blank lines before it. \p KindA / \p KindB are the single and batch
/// kinds acceptable at this point of the stream (request side: REQ/BAT;
/// response side: RSP/RSB); \p KindOut reports which matched. Returns
/// Eof/Malformed/Ok.
FrameStatus readHeaderOf(std::istream &In, const char *KindA,
                         const char *KindB, FrameKind &KindOut, uint64_t &Id,
                         uint64_t &Bytes, std::string &ErrorOut) {
  std::string Line;
  for (;;) {
    if (!std::getline(In, Line))
      return FrameStatus::Eof;
    if (!trimString(Line).empty())
      break;
  }
  std::vector<std::string> Parts = splitString(Line, ' ');
  if (Parts.size() == 4 && Parts[0] == "LAO1" &&
      (Parts[1] == KindA || Parts[1] == KindB) &&
      parseU64(Parts[2], Id) && parseU64(Parts[3], Bytes)) {
    KindOut = Parts[1] == KindB ? FrameKind::Batch : FrameKind::Single;
    return FrameStatus::Ok;
  }
  ErrorOut = formatStr("bad %s frame header: '%s'", KindA, Line.c_str());
  return FrameStatus::Malformed;
}

/// Splits a frame body into its header block and payload at the first
/// blank line. Returns false when the separator is missing.
bool splitBody(const std::string &Body, std::string &Headers,
               std::string &Payload) {
  size_t Sep;
  if (Body.rfind("\n", 0) == 0)
    Sep = 0; // No header lines at all.
  else if ((Sep = Body.find("\n\n")) != std::string::npos)
    Sep += 1;
  else
    return false;
  Headers = Body.substr(0, Sep);
  Payload = Body.substr(Sep + 1);
  return true;
}

/// Parses the "key: value" option block shared by REQ and BAT bodies
/// into \p Opts. "count" is only legal when \p CountOut is non-null
/// (batch frames); \p SawCount reports whether it appeared. Returns
/// false with \p ErrorOut set on the first bad line — a body-level
/// error.
bool parseOptions(const std::string &Headers, RequestOptions &Opts,
                  uint64_t *CountOut, bool *SawCount, std::string &ErrorOut) {
  for (const std::string &Line : splitString(Headers, '\n')) {
    size_t Colon = Line.find(':');
    if (Colon == std::string::npos) {
      ErrorOut = formatStr("bad option line '%s'", Line.c_str());
      return false;
    }
    std::string Key = trimString(Line.substr(0, Colon));
    std::string Value = trimString(Line.substr(Colon + 1));
    if (Key == "pipeline") {
      Opts.Pipeline = Value;
    } else if (Key == "regalloc") {
      // Preset validity is a semantic (server-side) concern, like
      // pipeline's: parsing only records the string.
      Opts.RegAlloc = Value;
    } else if (Key == "exec") {
      // Engine-name validity is semantic too; parsing records the string.
      Opts.Exec = Value;
    } else if (Key == "exec_args") {
      if (!parseU64List(Value, Opts.ExecArgs)) {
        ErrorOut = formatStr("exec_args wants comma-separated numbers, "
                             "got '%s'",
                             Value.c_str());
        return false;
      }
    } else if (Key == "ssa") {
      Opts.BuildSSA = Value == "1" || Value == "true";
    } else if (Key == "deadline_ms" || Key == "sleep_ms" ||
               Key == "regalloc_regs" || (CountOut && Key == "count")) {
      uint64_t V = 0;
      if (!parseU64(Value, V)) {
        ErrorOut = formatStr("option %s wants a number, got '%s'",
                             Key.c_str(), Value.c_str());
        return false;
      }
      if (Key == "deadline_ms")
        Opts.DeadlineMs = V;
      else if (Key == "sleep_ms")
        Opts.SleepMs = V;
      else if (Key == "regalloc_regs")
        Opts.RegAllocRegs = V;
      else {
        *CountOut = V;
        *SawCount = true;
      }
    } else {
      ErrorOut = formatStr("unknown request option '%s'", Key.c_str());
      return false;
    }
  }
  return true;
}

/// Walks a payload of "<bytes>\n<blob>\n" items (the BAT/RSB item
/// sub-framing) and appends each blob to \p Items. Returns false with
/// \p ErrorOut set when the sub-framing is inconsistent with the
/// enclosing frame body.
bool parseItems(const std::string &Payload, std::vector<std::string> &Items,
                std::string &ErrorOut) {
  size_t Pos = 0;
  while (Pos < Payload.size()) {
    size_t Nl = Payload.find('\n', Pos);
    if (Nl == std::string::npos) {
      ErrorOut = "batch item length line is not newline-terminated";
      return false;
    }
    uint64_t Len = 0;
    if (!parseU64(Payload.substr(Pos, Nl - Pos), Len)) {
      ErrorOut = formatStr("bad batch item length line '%s'",
                           Payload.substr(Pos, Nl - Pos).c_str());
      return false;
    }
    if (Nl + 1 + Len > Payload.size()) {
      ErrorOut = "batch item overruns the enclosing frame body";
      return false;
    }
    Items.push_back(Payload.substr(Nl + 1, Len));
    Pos = Nl + 1 + Len;
    if (Pos < Payload.size()) {
      if (Payload[Pos] != '\n') {
        ErrorOut = "batch item is not newline-terminated";
        return false;
      }
      ++Pos;
    }
  }
  return true;
}

/// Renders the shared option block of a request frame body.
std::string encodeOptions(const RequestOptions &Opts) {
  std::string Body;
  Body += "pipeline: " + Opts.Pipeline + "\n";
  if (Opts.BuildSSA)
    Body += "ssa: 1\n";
  if (Opts.DeadlineMs)
    Body += formatStr("deadline_ms: %llu\n",
                      static_cast<unsigned long long>(Opts.DeadlineMs));
  if (Opts.SleepMs)
    Body += formatStr("sleep_ms: %llu\n",
                      static_cast<unsigned long long>(Opts.SleepMs));
  if (!Opts.RegAlloc.empty())
    Body += "regalloc: " + Opts.RegAlloc + "\n";
  if (Opts.RegAllocRegs)
    Body += formatStr("regalloc_regs: %llu\n",
                      static_cast<unsigned long long>(Opts.RegAllocRegs));
  if (!Opts.Exec.empty())
    Body += "exec: " + Opts.Exec + "\n";
  if (!Opts.ExecArgs.empty()) {
    Body += "exec_args: ";
    for (size_t K = 0; K < Opts.ExecArgs.size(); ++K)
      Body += formatStr(K ? ",%llu" : "%llu",
                        static_cast<unsigned long long>(Opts.ExecArgs[K]));
    Body += "\n";
  }
  return Body;
}

/// Wraps \p Body in a "LAO1 <kind> <id> <bytes>" frame.
std::string frame(const char *Kind, uint64_t Id, const std::string &Body) {
  return formatStr("LAO1 %s %llu %zu\n", Kind,
                   static_cast<unsigned long long>(Id), Body.size()) +
         Body + "\n";
}

/// Reads the framed body after a header, handling the oversized and
/// truncated cases uniformly. On Ok, \p Body holds the payload.
FrameStatus readFramedBody(std::istream &In, const FrameLimits &Limits,
                           uint64_t Bytes, const char *What,
                           std::string &Body, std::string &ErrorOut) {
  if (Bytes > Limits.MaxBodyBytes) {
    if (!skipBody(In, Bytes)) {
      ErrorOut = formatStr("truncated stream inside an oversized %s body",
                           What);
      return FrameStatus::Malformed;
    }
    ErrorOut = formatStr("%s body of %llu bytes exceeds the %zu-byte "
                         "frame limit",
                         What, static_cast<unsigned long long>(Bytes),
                         Limits.MaxBodyBytes);
    return FrameStatus::Oversized;
  }
  if (!readBody(In, Bytes, Body)) {
    ErrorOut = formatStr("truncated stream inside a %s body", What);
    return FrameStatus::Malformed;
  }
  return FrameStatus::Ok;
}

/// Parses a RSP-shaped body (record, blank line, IR) into \p Out.
bool parseResponseBody(const std::string &Body, Response &Out,
                       std::string &ErrorOut) {
  std::string Record, IR;
  if (!splitBody(Body, Record, IR)) {
    ErrorOut = "response body has no record/IR separator";
    return false;
  }
  // The record is machine-readable JSON, but this project is
  // deliberately writer-only on JSON: clients that need structure keep
  // the line as-is, and Ok is mirrored textually right after "id" so a
  // substring probe is exact.
  Out.RecordJson = trimString(Record);
  Out.IR = std::move(IR);
  Out.Ok = Out.RecordJson.find("\"ok\":true") != std::string::npos;
  return true;
}

} // namespace

std::string lao::encodeRequest(const Request &R) {
  std::string Body = encodeOptions(R);
  Body += "\n";
  Body += R.Text;
  return frame("REQ", R.Id, Body);
}

std::string lao::encodeResponse(const Response &R) {
  return frame("RSP", R.Id, R.RecordJson + "\n\n" + R.IR);
}

std::string lao::encodeBatchRequest(const BatchRequest &R) {
  std::string Body = encodeOptions(R);
  Body += formatStr("count: %zu\n", R.Texts.size());
  Body += "\n";
  for (const std::string &Text : R.Texts) {
    Body += formatStr("%zu\n", Text.size());
    Body += Text;
    Body += "\n";
  }
  return frame("BAT", R.Id, Body);
}

std::string lao::encodeBatchResponse(const BatchResponse &R) {
  std::string Body = R.SummaryJson;
  Body += "\n\n";
  for (const Response &Item : R.Items) {
    std::string ItemBody = Item.RecordJson + "\n\n" + Item.IR;
    Body += formatStr("%zu\n", ItemBody.size());
    Body += ItemBody;
    Body += "\n";
  }
  return frame("RSB", R.Id, Body);
}

FrameStatus lao::readRequestFrame(std::istream &In, const FrameLimits &Limits,
                                  FrameKind &KindOut, Request &ReqOut,
                                  BatchRequest &BatchOut,
                                  std::string &ErrorOut) {
  ErrorOut.clear();
  ReqOut = Request();
  BatchOut = BatchRequest();
  KindOut = FrameKind::Single;
  uint64_t Id = 0, Bytes = 0;
  FrameStatus S = readHeaderOf(In, "REQ", "BAT", KindOut, Id, Bytes, ErrorOut);
  if (S != FrameStatus::Ok)
    return S;
  bool Batch = KindOut == FrameKind::Batch;
  (Batch ? BatchOut.Id : ReqOut.Id) = Id;
  std::string Body;
  S = readFramedBody(In, Limits, Bytes, Batch ? "batch request" : "request",
                     Body, ErrorOut);
  if (S != FrameStatus::Ok)
    return S;

  std::string Headers, Payload;
  if (!splitBody(Body, Headers, Payload)) {
    ErrorOut = "request body has no blank line separating options from "
               "the function text";
    return FrameStatus::Ok;
  }
  RequestOptions &Opts =
      Batch ? static_cast<RequestOptions &>(BatchOut) : ReqOut;
  uint64_t Count = 0;
  bool SawCount = false;
  if (!parseOptions(Headers, Opts, Batch ? &Count : nullptr, &SawCount,
                    ErrorOut))
    return FrameStatus::Ok;
  if (!Batch) {
    ReqOut.Text = std::move(Payload);
    return FrameStatus::Ok;
  }
  if (!SawCount) {
    ErrorOut = "batch body is missing the required count option";
    return FrameStatus::Ok;
  }
  if (!parseItems(Payload, BatchOut.Texts, ErrorOut)) {
    BatchOut.Texts.clear();
    return FrameStatus::Ok;
  }
  if (Count != BatchOut.Texts.size()) {
    ErrorOut = formatStr("batch declares %llu functions but carries %zu",
                         static_cast<unsigned long long>(Count),
                         BatchOut.Texts.size());
    BatchOut.Texts.clear();
  }
  return FrameStatus::Ok;
}

FrameStatus lao::readResponseFrame(std::istream &In, const FrameLimits &Limits,
                                   FrameKind &KindOut, Response &RspOut,
                                   BatchResponse &BatchOut,
                                   std::string &ErrorOut) {
  ErrorOut.clear();
  RspOut = Response();
  BatchOut = BatchResponse();
  KindOut = FrameKind::Single;
  uint64_t Id = 0, Bytes = 0;
  FrameStatus S = readHeaderOf(In, "RSP", "RSB", KindOut, Id, Bytes, ErrorOut);
  if (S != FrameStatus::Ok)
    return S;
  (KindOut == FrameKind::Batch ? BatchOut.Id : RspOut.Id) = Id;
  std::string Body;
  S = readFramedBody(In, Limits, Bytes,
                     KindOut == FrameKind::Batch ? "batch response"
                                                 : "response",
                     Body, ErrorOut);
  if (S != FrameStatus::Ok)
    return S;
  if (KindOut == FrameKind::Single) {
    if (!parseResponseBody(Body, RspOut, ErrorOut))
      return FrameStatus::Malformed;
    return FrameStatus::Ok;
  }
  std::string Summary, Payload;
  if (!splitBody(Body, Summary, Payload)) {
    ErrorOut = "batch response body has no summary/items separator";
    return FrameStatus::Malformed;
  }
  BatchOut.SummaryJson = trimString(Summary);
  BatchOut.Ok =
      BatchOut.SummaryJson.find("\"ok\":true") != std::string::npos;
  std::vector<std::string> ItemBodies;
  if (!parseItems(Payload, ItemBodies, ErrorOut))
    return FrameStatus::Malformed;
  for (const std::string &ItemBody : ItemBodies) {
    Response Item;
    Item.Id = Id;
    if (!parseResponseBody(ItemBody, Item, ErrorOut))
      return FrameStatus::Malformed;
    BatchOut.Items.push_back(std::move(Item));
  }
  return FrameStatus::Ok;
}
