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
///  * one StatsScope per REQ, so the per-request counter deltas in the
///    response record are exact no matter how many workers run
///    concurrently (the process-global registry stays monotonic). BAT
///    items skip the scope — the lean path — and their records carry an
///    empty counters object plus their "item" position;
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

#include <atomic>
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
  StatsSnapshot Counters;  ///< Exact per-request deltas (StatsScope);
                           ///< empty on the lean batch-item path.
};

/// Renders the one-line JSON record of a response body.
std::string requestRecordJson(const RequestRecord &Rec);

/// Service-lifetime aggregate, merged from the per-request records.
struct ServerReport {
  uint64_t NumRequests = 0; ///< REQ frames + BAT items.
  uint64_t NumOk = 0;
  uint64_t NumErrors = 0;   ///< Every non-Ok outcome, timeouts included.
  uint64_t NumTimeouts = 0;
  uint64_t NumParseErrors = 0;
  uint64_t NumOversized = 0;
  uint64_t NumPipelineErrors = 0;
  uint64_t NumBatchErrors = 0; ///< Malformed BAT bodies (whole frame).
  uint64_t NumBatches = 0;     ///< Well-formed BAT frames dispatched.
  uint64_t MaxInFlight = 0;    ///< High-water of any connection's window.
  StatsSnapshot MergedCounters; ///< Sum of per-request deltas.
};

class Server {
public:
  explicit Server(ServerOptions Opts = {});
  ~Server();

  /// Compiles one request through \p Ctx's reused manager: the deadline
  /// and sleep checks, then one runCompileJob call. \p Arrival anchors
  /// the deadline. This is the whole per-item path — serve() calls it
  /// from pool workers for REQ and BAT items alike, tests call it
  /// directly. With \p PerRequestCounters off (the lean batch-item path)
  /// no StatsScope is opened and the record's Counters stay empty.
  static RequestRecord compileRequest(const Request &Req, WorkerContext &Ctx,
                                      std::chrono::steady_clock::time_point
                                          Arrival,
                                      const ServerOptions &Opts,
                                      bool PerRequestCounters = true);

  /// Serves framed requests from \p In until EOF (or requestShutdown),
  /// writing responses to \p Out in arrival order. Returns 0 on clean
  /// EOF, 1 after an unrecoverable framing error (a final id-0 error
  /// response is still emitted). Callable concurrently — one call per
  /// connection, all sharing the worker pool.
  int serve(std::istream &In, std::ostream &Out);

  /// Asks every serve() loop to wind down: in-flight requests complete,
  /// reorder buffers flush, then serve returns as if on EOF. Safe from
  /// any thread; a signal handler may instead set the stop flag of the
  /// stream's FdStreamBuf, which drains identically.
  void requestShutdown() { Stop.store(true, std::memory_order_release); }
  bool shutdownRequested() const {
    return Stop.load(std::memory_order_acquire);
  }

  /// Aggregate over all connections. Read it only while no serve() call
  /// is running (after the accept loop drained, or between tests).
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
  std::atomic<bool> Stop{false};
  std::mutex ReportM;
  ServerReport Report;
  std::vector<RequestRecord> Records;
};

} // namespace lao

#endif // LAO_SERVER_SERVER_H
