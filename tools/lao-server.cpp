//===- lao-server.cpp - Persistent sharded compile daemon -----------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Long-running compile service over the out-of-SSA pipeline: reads
// framed requests (see src/server/Protocol.h and docs/SERVER.md) from
// stdin — or, with --listen-unix/--listen-tcp, from any number of
// concurrent socket connections sharing one worker pool — and writes
// responses back in per-connection request order. Diagnostics and the
// exit report go to stderr, so stdout stays a pure protocol stream.
//
//   lao-server [options]
//     --workers=N             worker pool size (default 4)
//     --max-body-bytes=N      frame body size limit (default 4 MiB)
//     --default-deadline-ms=N deadline for requests that carry none
//                             (default 0 = unlimited)
//     --max-inflight=N        per-connection backpressure window:
//                             frames dispatched but not yet answered
//                             (default 64, 0 = unbounded)
//     --default-regalloc=P    allocator preset applied to requests that
//                             carry no "regalloc" key, e.g. chordal or
//                             chaitin-briggs/load-store-opt (default:
//                             none — such requests skip allocation)
//     --listen-unix=PATH      serve a Unix-domain socket instead of
//                             stdin/stdout
//     --listen-tcp=SPEC       serve TCP ("port" or "host:port"; a bare
//                             port binds loopback only)
//     --stats                 print the stats registry snapshot with
//                             the exit report
//
// SIGINT/SIGTERM request a graceful shutdown: the daemon stops taking
// new frames, drains everything in flight, flushes the reorder
// buffers, and exits 0.
//
// Exit status: 0 on clean EOF or signal-driven drain, 1 after an
// unrecoverable framing error on the stdio stream (a final id-0
// protocol error record is still written; socket-mode framing errors
// only end their own connection), 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "regalloc/RegAlloc.h"
#include "server/FdStream.h"
#include "server/Server.h"
#include "server/SocketTransport.h"
#include "support/Stats.h"
#include "support/StringUtils.h"

#include <atomic>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>

#include <unistd.h>

using namespace lao;

namespace {

/// Set by the signal handlers; polled by the stop-aware streambuf (the
/// stdio reader) and the socket accept loop.
std::atomic<bool> GStop{false};

void onShutdownSignal(int) { GStop.store(true, std::memory_order_release); }

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--workers=N] [--max-body-bytes=N] "
               "[--default-deadline-ms=N] [--max-inflight=N] "
               "[--default-regalloc=<preset>] "
               "[--listen-unix=PATH | --listen-tcp=SPEC] [--stats]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  ServerOptions Opts;
  bool PrintStats = false;
  std::string ListenUnix, ListenTcp;
  for (int K = 1; K < Argc; ++K) {
    std::string A = Argv[K];
    uint64_t V = 0;
    bool Ok = true;
    if (A.rfind("--workers=", 0) == 0) {
      Ok = parseU64(A.substr(std::strlen("--workers=")), V, UINT_MAX);
      Opts.NumWorkers = static_cast<unsigned>(V);
    } else if (A.rfind("--max-body-bytes=", 0) == 0) {
      Ok = parseU64(A.substr(std::strlen("--max-body-bytes=")), V, SIZE_MAX);
      Opts.Limits.MaxBodyBytes = static_cast<size_t>(V);
    } else if (A.rfind("--default-deadline-ms=", 0) == 0) {
      Ok = parseU64(A.substr(std::strlen("--default-deadline-ms=")),
                    Opts.DefaultDeadlineMs);
    } else if (A.rfind("--max-inflight=", 0) == 0) {
      Ok = parseU64(A.substr(std::strlen("--max-inflight=")), V, UINT_MAX);
      Opts.MaxInFlightFrames = static_cast<unsigned>(V);
    } else if (A.rfind("--default-regalloc=", 0) == 0) {
      Opts.DefaultRegAlloc = A.substr(std::strlen("--default-regalloc="));
      if (!regAllocPresetOpt(Opts.DefaultRegAlloc)) {
        std::fprintf(stderr, "unknown regalloc preset '%s'\n",
                     Opts.DefaultRegAlloc.c_str());
        return usage(Argv[0]);
      }
    } else if (A.rfind("--listen-unix=", 0) == 0) {
      ListenUnix = A.substr(std::strlen("--listen-unix="));
    } else if (A.rfind("--listen-tcp=", 0) == 0) {
      ListenTcp = A.substr(std::strlen("--listen-tcp="));
    } else if (A == "--stats") {
      PrintStats = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", A.c_str());
      return usage(Argv[0]);
    }
    if (!Ok) {
      std::fprintf(stderr, "'%s' wants a decimal number\n", A.c_str());
      return usage(Argv[0]);
    }
  }
  if (!ListenUnix.empty() && !ListenTcp.empty()) {
    std::fprintf(stderr, "--listen-unix and --listen-tcp are exclusive\n");
    return usage(Argv[0]);
  }

  // No SA_RESTART: a signal must interrupt blocked reads/accepts so the
  // EINTR-retrying poll loops re-check the stop flag promptly.
  struct sigaction SA = {};
  SA.sa_handler = onShutdownSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = 0;
  sigaction(SIGINT, &SA, nullptr);
  sigaction(SIGTERM, &SA, nullptr);
  signal(SIGPIPE, SIG_IGN); // A vanished client is that client's problem.

  Server S(Opts);
  int Rc = 0;
  if (!ListenUnix.empty() || !ListenTcp.empty()) {
    std::string Error;
    int ListenFd = !ListenUnix.empty()
                       ? listenUnixSocket(ListenUnix, Error)
                       : listenTcpSocket(ListenTcp, Error);
    if (ListenFd < 0) {
      std::fprintf(stderr, "lao-server: %s\n", Error.c_str());
      return 1;
    }
    std::fprintf(stderr, "lao-server: listening on %s\n",
                 (!ListenUnix.empty() ? ListenUnix : ListenTcp).c_str());
    Rc = runSocketServer(S, ListenFd, GStop);
    close(ListenFd);
    if (!ListenUnix.empty())
      unlink(ListenUnix.c_str());
  } else {
    FdStreamBuf InBuf(STDIN_FILENO, &GStop);
    FdStreamBuf OutBuf(STDOUT_FILENO);
    std::istream In(&InBuf);
    std::ostream Out(&OutBuf);
    Rc = S.serve(In, Out);
    Out.flush();
  }

  // The server.* registry counters are the daemon's tally of frames
  // and outcomes; --stats prints the whole registry.
  StatsSnapshot Counters = StatsRegistry::instance().snapshot();
  auto Count = [&](const char *Name) {
    auto It = Counters.find(std::string("server.") + Name);
    return static_cast<unsigned long long>(It == Counters.end() ? 0
                                                                : It->second);
  };
  std::fprintf(stderr,
               "lao-server: %llu requests (%llu ok, %llu errors: "
               "%llu timeout, %llu parse, %llu preset, %llu oversized, "
               "%llu pipeline, %llu exec divergence, %llu batch), "
               "%llu protocol errors, %llu frames, %llu batches, "
               "max in-flight %llu%s\n",
               Count("requests"), Count("requests_ok"),
               Count("requests") - Count("requests_ok"), Count("timeouts"),
               Count("parse_errors"), Count("preset_errors"),
               Count("oversized"), Count("pipeline_errors"),
               Count("exec_divergences"), Count("batch_errors"),
               Count("protocol_errors"), Count("frames"), Count("batches"),
               static_cast<unsigned long long>(S.report().MaxInFlight),
               GStop.load(std::memory_order_acquire)
                   ? " (drained after shutdown signal)"
                   : "");
  if (PrintStats)
    printSnapshot(stderr, "counters", Counters);
  return Rc;
}
