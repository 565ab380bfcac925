//===- Server.h - Sharded compile service over the pipeline -----*- C++ -*-===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lao compile service: a persistent process that reads framed
/// requests (Protocol.h) from a byte stream, shards them across a
/// ThreadPool, and writes responses back **in arrival order**. There is
/// one request path: a REQ is served as a frame of one item, a BAT as a
/// frame of N, and every item runs the same task (compileRequest on a
/// pooled WorkerContext). Only the rendering of the answer depends on
/// the frame kind — a RSP for a REQ, a RSB for a BAT. Per the
/// "millions of users" architecture step in ROADMAP.md, every piece of
/// request-scoped state is explicit:
///
///  * one WorkerContext (driver/CompileJob.h) per pool slot, holding a
///    reused AnalysisManager (reset per request), the request's Function
///    (kept alive exactly as long as the manager is bound to it), and an
///    ArenaRecycler so the next request on the slot bump-allocates into
///    the chunks the previous one just released;
///  * one StatsScope per item, REQ or BAT, so the counter deltas in
///    every response record are exact no matter how many workers run
///    concurrently. The process-global registry stays monotonic and is
///    the daemon's only tally: its server.* counters count frames and
///    outcomes, and lao-server --stats prints its snapshot;
///  * cooperative deadlines: measured from frame arrival, enforced
///    before compilation, during diagnostic sleeps, and inside the
///    compile job via its cancel callback;
///  * graceful degradation: a request that fails to parse, is not valid
///    input ("ssa: 1" on SSA text, a use nothing defines), names an
///    unknown preset, oversteps the frame limit, times out, carries
///    malformed batch sub-framing, or throws yields a structured error
///    record — the daemon keeps serving. The only fatal condition is an
///    unframeable input stream, answered with a final id-0 protocol
///    error record.
///
/// The worker pool is constructed once per Server and **shared by every
/// serve() call**: serve() may run concurrently on N threads (the
/// socket accept loop starts one per connection, see
/// SocketTransport.h), each with its own reorder buffer, writer thread,
/// sequence space, and bounded in-flight window
/// (ServerOptions::MaxInFlightFrames) that stalls the connection's
/// reader — not the pool — when the client races too far ahead.
///
/// Response *order* is deterministic per connection (arrival order, via
/// the reorder buffer) and response *content* is byte-identical to
/// lao-opt on the same input and options: each item is one call of the
/// compile job lao-opt also calls (runCompileJob, driver/CompileJob.h).
/// Timing fields in the JSON record are the only nondeterminism.
///
//===----------------------------------------------------------------------===//

#ifndef LAO_SERVER_SERVER_H
#define LAO_SERVER_SERVER_H

#include "driver/CompileJob.h"
#include "server/Protocol.h"
#include "support/Stats.h"

#include <chrono>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

namespace lao {

class ThreadPool;

struct ServerOptions {
  unsigned NumWorkers = 4;
  FrameLimits Limits;
  /// Deadline applied to requests that do not carry one; 0 = none.
  uint64_t DefaultDeadlineMs = 0;
  /// Per-connection backpressure: at most this many frames may be
  /// dispatched but not yet flushed before the connection's reader
  /// stalls (a BAT frame counts once). 0 = unbounded.
  unsigned MaxInFlightFrames = 64;
  /// Keep every per-request record (including the IR) in memory for
  /// records(). Tests and the exit report use this; a production serve
  /// loop leaves it off and only aggregates.
  bool CollectRecords = false;
  /// Allocator preset applied to requests that carry no "regalloc" key;
  /// empty = requests without the key skip register allocation
  /// (lao-server --default-regalloc; validated at startup).
  std::string DefaultRegAlloc;
};

/// Everything the server knows about one finished request: the compile
/// job's outcome plus the request's identity and timing. The response
/// frame is rendered from this and nothing else.
struct RequestRecord : CompileOutcome {
  uint64_t Id = 0;
  std::string Pipeline;
  int64_t Item = -1;       ///< Position inside a batch; -1 = not batched.
  double Seconds = 0;      ///< Wall time inside the worker.
  StatsSnapshot Counters;  ///< Exact per-request deltas (StatsScope).
};

/// Renders the one-line JSON record of a response body.
std::string requestRecordJson(const RequestRecord &Rec);

/// What the server.* registry counters cannot say: the high-water of
/// any connection's in-flight window.
struct ServerReport {
  uint64_t MaxInFlight = 0;
};

class Server {
public:
  explicit Server(ServerOptions Opts = {});
  ~Server();

  /// Compiles one request through \p Ctx's reused manager: the deadline
  /// and sleep checks, then one runCompileJob call. \p Arrival anchors
  /// the deadline. This is the whole per-item path — serve() calls it
  /// from pool workers for REQ and BAT items alike, tests call it
  /// directly. The record's Counters are the deltas of a StatsScope open
  /// for the whole call.
  static RequestRecord compileRequest(const Request &Req, WorkerContext &Ctx,
                                      std::chrono::steady_clock::time_point
                                          Arrival,
                                      const ServerOptions &Opts);

  /// Serves framed requests from \p In until EOF, writing responses to
  /// \p Out in arrival order. Returns 0 on clean EOF, 1 after an
  /// unrecoverable framing error (a final id-0 error response is still
  /// emitted). Callable concurrently — one call per connection, all
  /// sharing the worker pool. To wind a loop down, set the stop flag of
  /// the stream's FdStreamBuf: the reader sees EOF, in-flight requests
  /// complete and the reorder buffer flushes.
  int serve(std::istream &In, std::ostream &Out);

  /// Window high-water over all connections. Read it only while no
  /// serve() call is running (after the accept loop drained, or between
  /// tests).
  const ServerReport &report() const { return Report; }

  /// Arrival-ordered per-request records; only filled when
  /// ServerOptions::CollectRecords is set. Multi-connection runs append
  /// each connection's records as one contiguous block at connection
  /// end. Same read discipline as report().
  const std::vector<RequestRecord> &records() const { return Records; }

private:
  struct Connection;
  void complete(Connection &C, uint64_t Seq, FrameKind Kind, uint64_t Id,
                std::vector<RequestRecord> Recs,
                std::chrono::steady_clock::time_point Arrival);
  /// Fans the items of one well-formed frame across the pool. A REQ
  /// arrives here as a frame of one item.
  void dispatch(Connection &C, FrameKind Kind, BatchRequest Frame,
                std::chrono::steady_clock::time_point Arrival, uint64_t Seq);
  unsigned acquireSlot();
  void releaseSlot(unsigned Slot);

  ServerOptions Opts;
  std::unique_ptr<ThreadPool> Pool;
  std::vector<WorkerContext> Contexts;
  std::vector<unsigned> FreeSlots;
  std::mutex SlotM;
  std::mutex ReportM;
  ServerReport Report;
  std::vector<RequestRecord> Records;
};

} // namespace lao

#endif // LAO_SERVER_SERVER_H
