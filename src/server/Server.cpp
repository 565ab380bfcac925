//===- Server.cpp - Sharded compile service over the pipeline ------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//

#include "server/Server.h"

#include "support/Json.h"
#include "support/Stats.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>

using namespace lao;
using Clock = std::chrono::steady_clock;

std::string lao::requestRecordJson(const RequestRecord &Rec) {
  JsonWriter W;
  W.beginObject();
  W.key("id").value(Rec.Id);
  // "ok" must directly follow "id": readResponseFrame probes for the
  // substring "\"ok\":true" instead of parsing JSON.
  W.key("ok").value(Rec.ok());
  W.key("outcome").value(outcomeName(Rec.Outcome));
  if (Rec.Item >= 0)
    W.key("item").value(static_cast<uint64_t>(Rec.Item));
  W.key("error").value(Rec.Error);
  W.key("pipeline").value(Rec.Pipeline);
  W.key("moves").value(Rec.Moves);
  W.key("weighted_moves").value(Rec.WeightedMoves);
  W.key("seconds").value(Rec.Seconds);
  if (Rec.HasRegAlloc) {
    W.key("allocator").value(Rec.Allocator);
    W.key("spill_mode").value(Rec.SpillMode);
    W.key("spills").value(Rec.Spills);
    W.key("spill_accesses").value(Rec.SpillAccesses);
    W.key("regs_used").value(Rec.RegsUsed);
    W.key("frame_bytes").value(Rec.FrameBytes);
  }
  if (Rec.HasExec) {
    W.key("exec_engine").value(Rec.ExecEngine);
    W.key("exec_status").value(Rec.ExecStatus);
    if (!Rec.ExecError.empty())
      W.key("exec_error").value(Rec.ExecError);
    W.key("dyn_instrs").value(Rec.DynInstrs);
    W.key("dyn_moves").value(Rec.DynMoves);
    W.key("exec_outputs").beginArray();
    for (uint64_t V : Rec.ExecOutputs)
      W.value(V);
    W.endArray();
    W.key("exec_ret").value(Rec.ExecRet);
  }
  W.key("counters").beginObject();
  for (const auto &[Key, Value] : Rec.Counters)
    W.key(Key).value(Value);
  W.endObject();
  W.endObject();
  return W.take();
}

namespace {

/// The one-line summary record heading a RSB body. Summary "ok" means
/// the batch frame was well-formed and every item was answered; item
/// failures stay per-item and are only counted here (error_count).
std::string batchSummaryJson(uint64_t Id, RequestOutcome O,
                             const std::string &Error, size_t NumFunctions,
                             size_t OkCount, double Seconds) {
  JsonWriter W;
  W.beginObject();
  W.key("id").value(Id);
  // Same contract as the request record: "ok" directly follows "id"
  // for the substring probe in readResponseFrame.
  W.key("ok").value(O == RequestOutcome::Ok);
  W.key("outcome").value(outcomeName(O));
  W.key("error").value(Error);
  W.key("functions").value(static_cast<uint64_t>(NumFunctions));
  W.key("ok_count").value(static_cast<uint64_t>(OkCount));
  W.key("error_count").value(static_cast<uint64_t>(NumFunctions - OkCount));
  W.key("seconds").value(Seconds);
  W.endObject();
  return W.take();
}

/// Drains the worker's recycler hit count into the global counter.
/// Called after compileRequest returned, i.e. after its StatsScope
/// died: warm-path volume depends on scheduling (which worker got the
/// request), so it must never leak into per-request counter deltas —
/// those are test-enforced to be identical serial vs sharded.
void flushRecyclerStats(WorkerContext &Ctx) {
  if (uint64_t B = Ctx.Recycler.takeReuseBytes())
    LAO_STAT(server, arena_reuse_bytes) += B;
}

/// Renders \p Rec as a RSP-shaped body. The IR moves out of the record
/// unless \p KeepIR (records() still wants it).
Response responseOf(RequestRecord &Rec, bool KeepIR) {
  Response Rsp;
  Rsp.Id = Rec.Id;
  Rsp.RecordJson = requestRecordJson(Rec);
  Rsp.IR = KeepIR ? Rec.IR : std::move(Rec.IR);
  return Rsp;
}

} // namespace

//===----------------------------------------------------------------------===//
// Per-request compile path
//===----------------------------------------------------------------------===//

RequestRecord Server::compileRequest(const Request &Req, WorkerContext &Ctx,
                                     Clock::time_point Arrival,
                                     const ServerOptions &Opts) {
  RequestRecord Rec;
  Rec.Id = Req.Id;
  Rec.Pipeline = Req.Pipeline;
  auto Start = Clock::now();

  // Saturated at ~31 years, no practical limit: a larger value would
  // overflow Arrival + DeadlineMs on the clock.
  uint64_t DeadlineMs =
      std::min<uint64_t>(Req.DeadlineMs ? Req.DeadlineMs
                                        : Opts.DefaultDeadlineMs,
                         1'000'000'000'000);
  Clock::time_point Deadline =
      Arrival + std::chrono::milliseconds(DeadlineMs);
  auto Expired = [&] { return DeadlineMs && Clock::now() >= Deadline; };

  // Everything below attributes its counter bumps to this request alone,
  // however many sibling workers are running.
  StatsScope Scope;
  ++LAO_STAT(server, requests);
  auto Finish = [&]() -> RequestRecord & {
    Rec.Counters = Scope.snapshot();
    Rec.Seconds =
        std::chrono::duration<double>(Clock::now() - Start).count();
    return Rec;
  };
  auto TimedOut = [&](const char *When) -> RequestRecord & {
    ++LAO_STAT(server, timeouts);
    Rec.Outcome = RequestOutcome::Timeout;
    Rec.Error = formatStr("deadline exceeded %s", When);
    return Finish();
  };

  if (Expired())
    return TimedOut("before compilation started");
  // Diagnostic idle, in slices so a deadline interrupts it promptly.
  for (Clock::time_point SleepEnd =
           Start + std::chrono::milliseconds(Req.SleepMs);
       Clock::now() < SleepEnd;) {
    if (Expired())
      return TimedOut("during requested sleep");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  CompileOutcome &O = Rec;
  // The job reads an empty pipeline as "none"; on the wire it names no
  // preset. A request without an allocator gets the daemon's default.
  std::optional<RequestOptions> WithDefault;
  if (Req.RegAlloc.empty() && !Opts.DefaultRegAlloc.empty())
    WithDefault.emplace(Req).RegAlloc = Opts.DefaultRegAlloc;
  if (Req.Pipeline.empty()) {
    O.Outcome = RequestOutcome::UnknownPreset;
    O.Error = "unknown pipeline preset ''";
  } else {
    const RequestOptions &AsSent = Req;
    O = runCompileJob(Req.Text, WithDefault ? *WithDefault : AsSent, Ctx,
                      Expired);
  }
  if (O.ok())
    ++LAO_STAT(server, requests_ok);
  else if (O.Outcome == RequestOutcome::ParseError)
    ++LAO_STAT(server, parse_errors);
  else if (O.Outcome == RequestOutcome::UnknownPreset)
    ++LAO_STAT(server, preset_errors);
  else if (O.Outcome == RequestOutcome::Timeout)
    ++LAO_STAT(server, timeouts);
  else if (O.ExecDiverged)
    ++LAO_STAT(server, exec_divergences);
  else
    ++LAO_STAT(server, pipeline_errors);
  return Finish();
}

//===----------------------------------------------------------------------===//
// Connection plumbing
//===----------------------------------------------------------------------===//

/// Per-serve()-call state: one connection's reorder buffer, in-flight
/// window, and (under CollectRecords) its record blocks keyed by frame
/// sequence. All shared fields are guarded by M.
struct Server::Connection {
  std::mutex M;
  std::condition_variable Cv; ///< Wakes the writer and stalled readers.
  std::map<uint64_t, std::string> PendingOut; ///< seq -> encoded frame.
  std::map<uint64_t, std::vector<RequestRecord>> Collected;
  uint64_t NextFlush = 0;
  uint64_t SeqCount = 0;
  bool ReaderDone = false;
  unsigned InFlight = 0; ///< Frames dispatched but not yet flushed.
  unsigned MaxSeen = 0;
};

Server::Server(ServerOptions O) : Opts(std::move(O)) {
  Pool = std::make_unique<ThreadPool>(Opts.NumWorkers ? Opts.NumWorkers : 1);
  Opts.NumWorkers = Pool->numThreads();
  // Worker contexts are handed out through a free-slot stack: at most
  // NumWorkers tasks run at once, so a popping task always finds one,
  // and a context is reused serially even though tasks hop threads and
  // connections.
  Contexts = std::vector<WorkerContext>(Opts.NumWorkers);
  for (unsigned K = 0; K < Opts.NumWorkers; ++K)
    FreeSlots.push_back(K);
}

Server::~Server() = default;

unsigned Server::acquireSlot() {
  std::lock_guard<std::mutex> G(SlotM);
  unsigned Slot = FreeSlots.back();
  FreeSlots.pop_back();
  return Slot;
}

void Server::releaseSlot(unsigned Slot) {
  std::lock_guard<std::mutex> G(SlotM);
  FreeSlots.push_back(Slot);
}

/// Renders the answer to one frame from its records and hands it to the
/// connection's writer under its sequence number. A REQ is answered by a
/// RSP carrying its one record. A BAT is answered by a RSB: a summary,
/// then one body per item; a BAT refused as a whole has a single record
/// without an item position, and only the summary reports it.
void Server::complete(Connection &C, uint64_t Seq, FrameKind Kind,
                      uint64_t Id, std::vector<RequestRecord> Recs,
                      Clock::time_point Arrival) {
  std::string Encoded;
  if (Kind == FrameKind::Single) {
    Encoded = encodeResponse(responseOf(Recs.front(), Opts.CollectRecords));
  } else {
    BatchResponse Rsp;
    Rsp.Id = Id;
    if (Recs.size() == 1 && Recs[0].Item < 0) {
      Rsp.SummaryJson =
          batchSummaryJson(Id, Recs[0].Outcome, Recs[0].Error, 0, 0, 0.0);
    } else {
      double Seconds =
          std::chrono::duration<double>(Clock::now() - Arrival).count();
      size_t OkCount = 0;
      for (RequestRecord &Rec : Recs) {
        OkCount += Rec.ok();
        Rsp.Items.push_back(responseOf(Rec, Opts.CollectRecords));
      }
      Rsp.SummaryJson = batchSummaryJson(Id, RequestOutcome::Ok, "",
                                         Recs.size(), OkCount, Seconds);
    }
    Encoded = encodeBatchResponse(Rsp);
  }
  std::lock_guard<std::mutex> G(C.M);
  if (Opts.CollectRecords)
    C.Collected[Seq] = std::move(Recs);
  C.PendingOut[Seq] = std::move(Encoded);
  C.Cv.notify_all();
}

void Server::dispatch(Connection &C, FrameKind Kind, BatchRequest Frame,
                      Clock::time_point Arrival, uint64_t Seq) {
  struct FrameState {
    FrameKind Kind = FrameKind::Single;
    BatchRequest Req;
    Clock::time_point Arrival;
    uint64_t Seq = 0;
    std::vector<RequestRecord> Items;
    std::atomic<size_t> Remaining{0};
  };
  auto St = std::make_shared<FrameState>();
  St->Kind = Kind;
  St->Req = std::move(Frame);
  St->Arrival = Arrival;
  St->Seq = Seq;
  size_t N = St->Req.Texts.size();
  St->Items.resize(N);
  St->Remaining.store(N, std::memory_order_relaxed);
  if (Kind == FrameKind::Batch) {
    ++LAO_STAT(server, batches);
    LAO_STAT(server, batch_items) += N;
  }

  auto Finish = [this, &C, St] {
    complete(C, St->Seq, St->Kind, St->Req.Id, std::move(St->Items),
             St->Arrival);
  };
  if (N == 0)
    return Finish();

  for (size_t K = 0; K < N; ++K)
    Pool->async([this, St, K, Finish] {
      // Each item's text is read exactly once, so it moves out.
      Request R{St->Req, St->Req.Id, std::move(St->Req.Texts[K])};
      unsigned Slot = acquireSlot();
      WorkerContext &Ctx = Contexts[Slot];
      RequestRecord Rec;
      try {
        ArenaRecycler::Bind Bind(Ctx.Recycler);
        Rec = compileRequest(R, Ctx, St->Arrival, Opts);
      } catch (...) {
        // compileRequest catches compile-path exceptions itself; this is
        // the belt-and-braces backstop that keeps the connection's
        // sequence space gap-free even on a server plumbing bug.
        Rec = RequestRecord();
        Rec.Id = R.Id;
        Rec.Pipeline = R.Pipeline;
        Rec.Outcome = RequestOutcome::PipelineError;
        Rec.Error = "pipeline error: exception escaped the worker";
      }
      if (St->Kind == FrameKind::Batch)
        Rec.Item = static_cast<int64_t>(K);
      flushRecyclerStats(Ctx);
      releaseSlot(Slot);
      St->Items[K] = std::move(Rec);
      // Last finisher renders the frame's answer: one write wakeup per
      // frame, not per function.
      if (St->Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
        Finish();
    });
}

//===----------------------------------------------------------------------===//
// The serve loop
//===----------------------------------------------------------------------===//

int Server::serve(std::istream &In, std::ostream &Out) {
  Connection C;

  // Responses are written strictly in arrival order by a dedicated
  // writer thread, whatever order the workers finish in.
  std::thread Writer([&] {
    std::unique_lock<std::mutex> L(C.M);
    for (;;) {
      C.Cv.wait(L, [&] {
        return C.PendingOut.count(C.NextFlush) != 0 ||
               (C.ReaderDone && C.NextFlush == C.SeqCount);
      });
      for (auto It = C.PendingOut.find(C.NextFlush); It != C.PendingOut.end();
           It = C.PendingOut.find(C.NextFlush)) {
        std::string Frame = std::move(It->second);
        C.PendingOut.erase(It);
        ++C.NextFlush;
        L.unlock();
        Out << Frame;
        Out.flush();
        L.lock();
        // The flush frees one window slot; wake a stalled reader.
        --C.InFlight;
        C.Cv.notify_all();
      }
      if (C.ReaderDone && C.NextFlush == C.SeqCount)
        return;
    }
  });

  uint64_t Seq = 0;
  int Rc = 0;
  for (;;) {
    // Bounded in-flight window: a client pipelining faster than the
    // pool drains stalls here (its own connection only) instead of
    // ballooning the reorder buffer. The writer wakes it after every
    // flush.
    if (Opts.MaxInFlightFrames) {
      std::unique_lock<std::mutex> L(C.M);
      C.Cv.wait(L, [&] { return C.InFlight < Opts.MaxInFlightFrames; });
    }

    FrameKind Kind;
    Request Req;
    BatchRequest Frame;
    std::string Error;
    FrameStatus S = readRequestFrame(In, Opts.Limits, Kind, Req, Frame, Error);
    if (S == FrameStatus::Eof)
      break;
    Clock::time_point Arrival = Clock::now();
    {
      std::lock_guard<std::mutex> G(C.M);
      ++C.InFlight;
      if (C.InFlight > C.MaxSeen)
        C.MaxSeen = C.InFlight;
    }
    if (S == FrameStatus::Malformed) {
      // The stream cannot be resynchronized: answer with a final id-0
      // protocol record and stop reading. Everything already dispatched
      // still completes and flushes in order below.
      ++LAO_STAT(server, protocol_errors);
      RequestRecord Rec;
      Rec.Outcome = RequestOutcome::Protocol;
      Rec.Error = "protocol error: " + Error;
      complete(C, Seq++, FrameKind::Single, 0, {Rec}, Arrival);
      Rc = 1;
      break;
    }
    ++LAO_STAT(server, frames);
    // A REQ is served as a frame of one item; only the shape of the
    // answer (RSP or RSB) remembers the difference.
    if (Kind == FrameKind::Single) {
      Frame.Id = Req.Id;
      Frame.Texts.push_back(std::move(Req.Text));
      static_cast<RequestOptions &>(Frame) = std::move(Req);
    }
    if (S == FrameStatus::Oversized || !Error.empty()) {
      // Body-level failure: answer an error record in the frame's own
      // shape and keep serving.
      RequestRecord Rec;
      Rec.Id = Frame.Id;
      Rec.Pipeline = Frame.Pipeline;
      if (S == FrameStatus::Oversized) {
        Rec.Outcome = RequestOutcome::Oversized;
        ++LAO_STAT(server, oversized);
      } else if (Kind == FrameKind::Batch) {
        Rec.Outcome = RequestOutcome::BatchError;
        ++LAO_STAT(server, batch_errors);
      } else {
        Rec.Outcome = RequestOutcome::ParseError;
        ++LAO_STAT(server, parse_errors);
      }
      Rec.Error = Error;
      ++LAO_STAT(server, requests);
      complete(C, Seq++, Kind, Frame.Id, {Rec}, Arrival);
      continue;
    }
    dispatch(C, Kind, std::move(Frame), Arrival, Seq++);
  }

  // Drain: every dispatched frame still completes and flushes in order;
  // the writer exits once the last sequence number went out.
  {
    std::lock_guard<std::mutex> G(C.M);
    C.ReaderDone = true;
    C.SeqCount = Seq;
  }
  C.Cv.notify_all();
  Writer.join();

  std::lock_guard<std::mutex> G(ReportM);
  if (C.MaxSeen > Report.MaxInFlight)
    Report.MaxInFlight = C.MaxSeen;
  if (Opts.CollectRecords)
    for (auto &[CollectedSeq, Recs] : C.Collected) {
      (void)CollectedSeq;
      for (RequestRecord &Rec : Recs)
        Records.push_back(std::move(Rec));
    }
  return Rc;
}
