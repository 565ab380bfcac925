//===- Protocol.h - lao-server wire protocol --------------------*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framed request/response protocol of the lao compile service. The
/// transport is any byte stream (the server reads stdin/writes stdout, a
/// socket streambuf layers on unchanged); every message is one frame:
///
///   LAO1 REQ <id> <body-bytes>\n        request header
///   <body-bytes bytes of body>\n        (trailing newline not counted)
///
///   LAO1 RSP <id> <body-bytes>\n        response header
///   <body-bytes bytes of body>\n
///
/// A request body is a block of "key: value" option lines, a blank line,
/// then the mini-LAI function text:
///
///   pipeline: Lphi,ABI+C
///   ssa: 1
///   deadline_ms: 250
///
///   func @f { ... }
///
/// Recognized keys: pipeline (a Table 1 preset name), ssa (run
/// normalizeToOptimizedSSA first; 0/1; the text must then be non-SSA —
/// a phi, or a use not defined on every path from the entry, is
/// answered as a parse error), deadline_ms (cooperative
/// deadline from frame arrival; 0 = none), sleep_ms (diagnostic: the
/// worker idles this long before compiling, in deadline-checked slices —
/// used by the timeout tests and load drills), regalloc (an allocator
/// preset "<allocator>[/<spill-model>]", see regalloc/RegAlloc.h; runs
/// register allocation after the pipeline), regalloc_regs (overrides
/// the allocator's register-pool size; 0 = preset default; only
/// meaningful with regalloc), exec (execute the transformed function and
/// report dynamic counters: "interp", "vm", or "both" — "both" runs both
/// engines and fails the request if their observables diverge, see
/// docs/EXEC.md), exec_args (comma-separated decimal arguments for the
/// entry `input`; only meaningful with exec). Unknown keys are a
/// per-request error, not a protocol error.
///
/// A response body is a one-line JSON stats/error record, a blank line,
/// then the transformed function text (empty when the request failed).
/// The record always carries "id", "ok" and "outcome"; see docs/SERVER.md
/// for the full schema and the failure taxonomy.
///
/// Batching amortizes the per-frame cost for many-tiny-functions
/// workloads: a "LAO1 BAT <id> <body-bytes>" frame carries the same
/// option block as a REQ (RequestOptions, plus the required "count: N")
/// and N length-prefixed function texts; the server fans the items
/// across its workers and answers a single "LAO1 RSB <id> <body-bytes>"
/// frame holding a batch summary record plus N length-prefixed per-item
/// bodies (each shaped like a RSP body: record, blank line, IR). Items
/// are answered in submission order inside the frame. The exact wire
/// layout is spelled out in docs/SERVER.md.
///
/// Error recovery is by construction: the only unrecoverable condition is
/// a header line that does not parse (or a body shorter than its declared
/// length, i.e. a truncated stream) — everything inside a well-framed
/// body, including an oversized declared length and malformed batch
/// sub-framing, yields an error response for that id while the stream
/// stays in sync.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_SERVER_PROTOCOL_H
#define LAO_SERVER_PROTOCOL_H

#include "driver/CompileJob.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace lao {

/// Transport-level bounds enforced while reading frames.
struct FrameLimits {
  /// Upper bound on a frame body (one BAT frame counts as one body). A
  /// request declaring more is answered with an error record and its
  /// body skipped — the declared length keeps the stream
  /// resynchronizable without trusting the payload. Configurable via
  /// lao-server --max-body-bytes.
  size_t MaxBodyBytes = 4u << 20;
};

/// One compile request, as parsed from a REQ frame (options: CompileJob.h).
struct Request : RequestOptions {
  uint64_t Id = 0;
  std::string Text;        ///< The mini-LAI function.
};

/// One response frame, as seen by a client.
struct Response {
  uint64_t Id = 0;
  bool Ok = false;         ///< Parsed from the record's "ok" field.
  std::string RecordJson;  ///< The one-line stats/error record.
  std::string IR;          ///< Transformed function; empty on error.
};

/// One batch request: shared options, N function texts.
struct BatchRequest : RequestOptions {
  uint64_t Id = 0;
  std::vector<std::string> Texts; ///< The mini-LAI functions, in order.
};

/// One batch response frame: a summary record plus the per-item
/// responses in submission order. Item Response::Id repeats the batch
/// id; items are matched to requests by position.
struct BatchResponse {
  uint64_t Id = 0;
  bool Ok = false;         ///< Summary "ok": every item compiled.
  std::string SummaryJson; ///< One-line batch summary record.
  std::vector<Response> Items;
};

/// Which frame kind a generalized read returned.
enum class FrameKind {
  Single, ///< LAO1 REQ / LAO1 RSP
  Batch,  ///< LAO1 BAT / LAO1 RSB
};

/// Outcome of reading one frame from a stream.
enum class FrameStatus {
  Ok,        ///< Frame parsed; for requests, ErrorOut may still name a
             ///< body-level problem the server must answer as an error.
  Eof,       ///< Clean end of stream before a header.
  Malformed, ///< Unrecoverable: bad header line or truncated body.
  Oversized, ///< Declared body over the limit; body skipped; Id valid.
};

/// Renders \p R as a request frame (header + body + newline).
std::string encodeRequest(const Request &R);

/// Renders \p R as a response frame. The body is
/// RecordJson + "\n\n" + IR.
std::string encodeResponse(const Response &R);

/// Renders \p R as a batch request frame: the shared option block
/// (always including "count: N"), a blank line, then each function text
/// as "<bytes>\n<text>\n".
std::string encodeBatchRequest(const BatchRequest &R);

/// Renders \p R as a batch response frame: SummaryJson, a blank line,
/// then each item's "record\n\nIR" body as "<bytes>\n<body>\n".
std::string encodeBatchResponse(const BatchResponse &R);

/// Reads one request frame of either kind; \p KindOut says which of
/// \p ReqOut / \p BatchOut was filled. On Ok a non-empty \p ErrorOut
/// is a body-level problem (unknown key, bad number, missing blank line,
/// bad count, malformed item sub-framing) the server answers as an error
/// record for the frame's id. Oversized leaves the id (and kind) valid
/// with the body skipped. On Malformed, \p ErrorOut describes the
/// framing failure and the stream must be abandoned.
FrameStatus readRequestFrame(std::istream &In, const FrameLimits &Limits,
                             FrameKind &KindOut, Request &ReqOut,
                             BatchRequest &BatchOut, std::string &ErrorOut);

/// Reads one response frame of either kind (the client side). Same
/// contract as readRequestFrame, except that a RSP body without its
/// record/IR separator, or malformed sub-framing inside a RSB body, is
/// Malformed.
FrameStatus readResponseFrame(std::istream &In, const FrameLimits &Limits,
                              FrameKind &KindOut, Response &RspOut,
                              BatchResponse &BatchOut, std::string &ErrorOut);

} // namespace lao

#endif // LAO_SERVER_PROTOCOL_H
