//===- lao-client.cpp - Batch driver for lao-server -----------------------------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Drives a lao-server: spawns one over pipes and/or connects to one
// over a socket, streams compile requests into it — singly or packed
// into BAT batch frames — and collects the framed responses. All
// frames are pipelined before the first response is read (a reader
// thread parses each response frame as it arrives), so a multi-worker
// server really does compile them interleaved. The client watches the
// spawned server process while the reader waits, so a server that dies
// mid-run is reported as a clear error instead of a hang.
//
//   lao-client [transport] [options] <file.lai>...
//     --server="cmd"      server command line, run via /bin/sh -c
//                         (e.g. --server="./tools/lao-server --workers=4").
//                         Alone: talk over its stdin/stdout pipes.
//                         With --connect-*: spawn it, then connect.
//     --connect-unix=PATH talk to a Unix-domain socket server
//     --connect-tcp=SPEC  talk to a TCP server ("port" or "host:port")
//     --batch=N           pack up to N functions per BAT frame
//                         (default 1 = one REQ frame per function)
//     --max-body-bytes=N  response frame size limit (default 64 MiB —
//                         batched responses are large)
//     --pipeline=<name>   preset for every request (default Lphi,ABI+C)
//     --ssa               ask the server to build optimized SSA first
//                         (not with --selftest: the suites already ship
//                         in SSA, which "ssa: 1" refuses)
//     --deadline-ms=N     per-request deadline
//     --regalloc=<preset> ask the server to allocate registers after
//                         the pipeline ("<allocator>[/<spill-model>]",
//                         see regalloc/RegAlloc.h). Under --selftest
//                         the in-process reference applies the same
//                         allocation, so byte-identity still gates.
//     --regalloc-regs=N   register-pool size for --regalloc
//     --print-records     print each response's JSON record to stdout
//     --quiet             don't print the transformed IR
//     --selftest          ignore file arguments: submit every function
//                         of every benchmark suite and require each
//                         response to be byte-identical to the compile
//                         job run in-process on the same text — the
//                         server-vs-lao-opt equivalence gate CI runs
//
// When the client spawned a socket-mode server itself, it finishes by
// sending SIGTERM and requires a clean exit 0 — the graceful-shutdown
// path is part of what a socket selftest proves.
//
// The exit report (stderr) includes per-request latency percentiles
// (p50/p95/p99/max), measured from frame submission to response-frame
// arrival under full pipelining; batch items inherit their frame's
// latency.
//
// Exit status: 0 when every response is ok (and, under --selftest,
// byte-identical); 1 otherwise; 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "ir/IRPrinter.h"
#include "outofssa/Pipeline.h"
#include "server/FdStream.h"
#include "server/Protocol.h"
#include "server/SocketTransport.h"
#include "support/StringUtils.h"
#include "workloads/Suites.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <istream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace lao;
using Clock = std::chrono::steady_clock;

namespace {

struct Options {
  std::string ServerCmd;
  std::string ConnectUnix;
  std::string ConnectTcp;
  uint64_t Batch = 1;
  size_t MaxBodyBytes = 64u << 20;
  RequestOptions Req; ///< Every frame's option block, REQ and BAT alike.
  bool PrintRecords = false;
  bool Quiet = false;
  bool Selftest = false;
  std::vector<std::string> Files;
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--server=\"<cmd>\"] [--connect-unix=PATH | "
               "--connect-tcp=SPEC] [--batch=N] [--max-body-bytes=N] "
               "[--pipeline=<preset>] [--ssa] [--deadline-ms=N] "
               "[--regalloc=<preset>] [--regalloc-regs=N] "
               "[--print-records] [--quiet] (--selftest | <file.lai>...)\n",
               Argv0);
  return 2;
}

/// How the client reaches the server. Over pipes WriteFd/ReadFd differ;
/// over a socket they are the same fd. Pid is -1 for an external
/// (unspawned) server.
struct Transport {
  pid_t Pid = -1;
  int WriteFd = -1;
  int ReadFd = -1;
  bool IsSocket = false;
};

bool spawnServer(const std::string &Cmd, bool OverPipes, Transport &T) {
  int ToChild[2] = {-1, -1}, FromChild[2] = {-1, -1};
  if (OverPipes && (pipe(ToChild) != 0 || pipe(FromChild) != 0))
    return false;
  pid_t P = fork();
  if (P < 0)
    return false;
  if (P == 0) {
    if (OverPipes) {
      dup2(ToChild[0], STDIN_FILENO);
      dup2(FromChild[1], STDOUT_FILENO);
      close(ToChild[0]);
      close(ToChild[1]);
      close(FromChild[0]);
      close(FromChild[1]);
    } else {
      // A socket server never reads stdin; detach it so it cannot
      // steal bytes meant for us.
      int Null = open("/dev/null", O_RDONLY);
      if (Null >= 0) {
        dup2(Null, STDIN_FILENO);
        close(Null);
      }
    }
    // "exec" so the shell replaces itself: the pid we signal and reap
    // is the server, not a wrapper that would orphan it on SIGTERM.
    std::string ExecCmd = "exec " + Cmd;
    execl("/bin/sh", "sh", "-c", ExecCmd.c_str(),
          static_cast<char *>(nullptr));
    _exit(127);
  }
  if (OverPipes) {
    close(ToChild[0]);
    close(FromChild[1]);
    T.WriteFd = ToChild[1];
    T.ReadFd = FromChild[0];
  }
  T.Pid = P;
  return true;
}

/// Reaps T.Pid without blocking. Returns true (and fills \p Status) the
/// first time the child is found dead.
bool reapIfDead(Transport &T, int &Status) {
  if (T.Pid < 0)
    return false;
  int St = 0;
  if (waitpid(T.Pid, &St, WNOHANG) != T.Pid)
    return false;
  Status = St;
  T.Pid = -1;
  return true;
}

/// Connects to the requested socket, retrying while a just-spawned
/// server is still binding. Gives up immediately if that server dies.
int connectWithRetry(const Options &Opts, Transport &T, int &ChildStatus,
                     bool &ChildDead) {
  std::string Error;
  for (int Try = 0; Try < 120; ++Try) {
    int Fd = !Opts.ConnectUnix.empty()
                 ? connectUnixSocket(Opts.ConnectUnix, Error)
                 : connectTcpSocket(Opts.ConnectTcp, Error);
    if (Fd >= 0)
      return Fd;
    if (reapIfDead(T, ChildStatus)) {
      ChildDead = true;
      return -1;
    }
    if (T.Pid < 0)
      break; // External server: no point waiting for it to appear.
    usleep(50 * 1000);
  }
  std::fprintf(stderr, "%s\n", Error.c_str());
  return -1;
}

bool writeAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = write(Fd, Data.data() + Off, Data.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// One request plus what the client knows to check it against.
struct Job {
  Request Req;
  std::string Label;    ///< File path or suite/function name.
  std::string Expected; ///< Byte-exact expected IR (selftest only).
};

/// One wire frame: a single REQ or a BAT covering several jobs.
struct Frame {
  uint64_t Id = 0;
  std::string Encoded;
  std::vector<size_t> JobIdx; ///< Item position -> index into Jobs.
};

bool loadFileJobs(const Options &Opts, std::vector<Job> &Jobs) {
  uint64_t NextId = 1;
  for (const std::string &Path : Opts.Files) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "cannot open '%s'\n", Path.c_str());
      return false;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    Job J;
    J.Req = Request{Opts.Req, NextId++, SS.str()};
    J.Label = Path;
    Jobs.push_back(std::move(J));
  }
  return true;
}

/// False when a reference job failed for any reason but text that does
/// not parse back (such a function is skipped, as it cannot be sent).
bool loadSelftestJobs(const Options &Opts, std::vector<Job> &Jobs) {
  uint64_t NextId = 1;
  bool AllRefsOk = true;
  for (const SuiteSpec &Spec : allSuites())
    for (Workload &W : Spec.Make()) {
      Job J;
      J.Req = Request{Opts.Req, NextId++, printFunction(*W.F)};
      J.Label = std::string(Spec.Name) + "/" + W.Name;
      // The reference: the server's compile job, in-process, on the
      // *text* the server will see (value numbering matches its parse)
      // and on a fresh context, so manager reuse is on one side only.
      WorkerContext Ctx;
      CompileOutcome Ref = runCompileJob(J.Req.Text, J.Req, Ctx);
      if (!Ref.ok()) {
        std::fprintf(stderr, "selftest: %s has no reference: %s\n",
                     J.Label.c_str(), Ref.Error.c_str());
        AllRefsOk &= Ref.Error.rfind("parse error: ", 0) == 0;
        continue;
      }
      J.Expected = std::move(Ref.IR);
      Jobs.push_back(std::move(J));
    }
  return AllRefsOk;
}

/// Packs jobs into wire frames: one REQ each, or BAT frames of up to
/// Opts.Batch functions. Both kinds carry Opts.Req as their option
/// block.
std::vector<Frame> buildFrames(const Options &Opts,
                               const std::vector<Job> &Jobs) {
  std::vector<Frame> Frames;
  if (Opts.Batch <= 1) {
    for (size_t K = 0; K < Jobs.size(); ++K) {
      Frame F;
      F.Id = Jobs[K].Req.Id;
      F.Encoded = encodeRequest(Jobs[K].Req);
      F.JobIdx.push_back(K);
      Frames.push_back(std::move(F));
    }
    return Frames;
  }
  uint64_t NextId = 1;
  for (size_t K = 0; K < Jobs.size();) {
    BatchRequest B{Opts.Req, NextId++, {}};
    Frame F;
    F.Id = B.Id;
    for (uint64_t N = 0; N < Opts.Batch && K < Jobs.size(); ++N, ++K) {
      B.Texts.push_back(Jobs[K].Req.Text);
      F.JobIdx.push_back(K);
    }
    F.Encoded = encodeBatchRequest(B);
    Frames.push_back(std::move(F));
  }
  return Frames;
}

/// Nearest-rank percentile of \p Sorted (ascending), P in [0,100].
double percentileMs(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Rank = static_cast<size_t>(P / 100.0 * Sorted.size());
  return Sorted[std::min(Rank, Sorted.size() - 1)];
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int K = 1; K < Argc; ++K) {
    std::string A = Argv[K];
    uint64_t V = 0;
    bool Ok = true;
    if (A.rfind("--server=", 0) == 0) {
      Opts.ServerCmd = A.substr(std::strlen("--server="));
    } else if (A.rfind("--connect-unix=", 0) == 0) {
      Opts.ConnectUnix = A.substr(std::strlen("--connect-unix="));
    } else if (A.rfind("--connect-tcp=", 0) == 0) {
      Opts.ConnectTcp = A.substr(std::strlen("--connect-tcp="));
    } else if (A.rfind("--batch=", 0) == 0) {
      Ok = parseU64(A.substr(std::strlen("--batch=")), Opts.Batch);
    } else if (A.rfind("--max-body-bytes=", 0) == 0) {
      Ok = parseU64(A.substr(std::strlen("--max-body-bytes=")), V, SIZE_MAX);
      Opts.MaxBodyBytes = static_cast<size_t>(V);
    } else if (A.rfind("--pipeline=", 0) == 0) {
      Opts.Req.Pipeline = A.substr(std::strlen("--pipeline="));
    } else if (A == "--ssa") {
      Opts.Req.BuildSSA = true;
    } else if (A.rfind("--deadline-ms=", 0) == 0) {
      Ok = parseU64(A.substr(std::strlen("--deadline-ms=")),
                    Opts.Req.DeadlineMs);
    } else if (A.rfind("--regalloc=", 0) == 0) {
      Opts.Req.RegAlloc = A.substr(std::strlen("--regalloc="));
    } else if (A.rfind("--regalloc-regs=", 0) == 0) {
      Ok = parseU64(A.substr(std::strlen("--regalloc-regs=")),
                    Opts.Req.RegAllocRegs);
    } else if (A == "--print-records") {
      Opts.PrintRecords = true;
    } else if (A == "--quiet") {
      Opts.Quiet = true;
    } else if (A == "--selftest") {
      Opts.Selftest = true;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", A.c_str());
      return usage(Argv[0]);
    } else {
      Opts.Files.push_back(A);
    }
    if (!Ok) {
      std::fprintf(stderr, "'%s' wants a decimal number\n", A.c_str());
      return usage(Argv[0]);
    }
  }
  bool UseSocket = !Opts.ConnectUnix.empty() || !Opts.ConnectTcp.empty();
  if (!Opts.ConnectUnix.empty() && !Opts.ConnectTcp.empty()) {
    std::fprintf(stderr, "--connect-unix and --connect-tcp are exclusive\n");
    return usage(Argv[0]);
  }
  if ((Opts.ServerCmd.empty() && !UseSocket) ||
      (Opts.Files.empty() && !Opts.Selftest))
    return usage(Argv[0]);
  if (Opts.Selftest && Opts.Req.BuildSSA) {
    // The suites ship in SSA already, and "ssa: 1" refuses SSA input:
    // such a selftest has no valid reference.
    std::fprintf(stderr, "--selftest and --ssa are exclusive\n");
    return usage(Argv[0]);
  }
  if (Opts.Selftest && !pipelinePresetOpt(Opts.Req.Pipeline)) {
    std::fprintf(stderr, "unknown pipeline preset '%s'\n",
                 Opts.Req.Pipeline.c_str());
    return 2;
  }
  if (!Opts.Req.RegAlloc.empty() && !regAllocPresetOpt(Opts.Req.RegAlloc)) {
    std::fprintf(stderr, "unknown regalloc preset '%s'\n",
                 Opts.Req.RegAlloc.c_str());
    return 2;
  }

  std::vector<Job> Jobs;
  if (Opts.Selftest ? !loadSelftestJobs(Opts, Jobs)
                    : !loadFileJobs(Opts, Jobs))
    return 1;
  std::vector<Frame> Frames = buildFrames(Opts, Jobs);

  // A dying server must surface as a failed write, not a fatal signal.
  signal(SIGPIPE, SIG_IGN);
  Transport T;
  T.IsSocket = UseSocket;
  if (!Opts.ServerCmd.empty() &&
      !spawnServer(Opts.ServerCmd, /*OverPipes=*/!UseSocket, T)) {
    std::fprintf(stderr, "cannot spawn server '%s'\n",
                 Opts.ServerCmd.c_str());
    return 1;
  }
  int ChildStatus = 0;
  bool ChildDead = false;
  if (UseSocket) {
    int Fd = connectWithRetry(Opts, T, ChildStatus, ChildDead);
    if (Fd < 0) {
      if (ChildDead)
        std::fprintf(stderr, "server exited with status %d before "
                             "accepting connections\n",
                     WIFEXITED(ChildStatus) ? WEXITSTATUS(ChildStatus) : -1);
      return 1;
    }
    T.WriteFd = T.ReadFd = Fd;
  }

  // Read the responses concurrently with the writes below, so
  // pipelining every frame up front cannot deadlock on a full pipe or
  // the server's backpressure window: RSP frames for single requests,
  // RSB for batches, arriving in request order. Batch items map back to
  // jobs by position; each frame is stamped when it is parsed. Until it
  // is joined, the reader owns everything it fills in.
  FrameLimits Limits;
  Limits.MaxBodyBytes = Opts.MaxBodyBytes;
  std::vector<Response> JobRsp(Jobs.size());
  std::vector<bool> HaveRsp(Jobs.size(), false);
  std::map<uint64_t, const Frame *> FrameById;
  for (const Frame &F : Frames)
    FrameById[F.Id] = &F;
  std::map<uint64_t, Clock::time_point> Arrivals; ///< First arrival per id.
  uint64_t Failures = 0, FrameCount = 0;
  bool OrderOk = true;
  std::atomic<bool> StopReading{false};
  std::future<void> Reader = std::async(std::launch::async, [&] {
    FdStreamBuf Buf(T.ReadFd, &StopReading);
    std::istream In(&Buf);
    for (;;) {
      FrameKind Kind = FrameKind::Single;
      Response Rsp;
      BatchResponse Batch;
      std::string Error;
      FrameStatus S = readResponseFrame(In, Limits, Kind, Rsp, Batch, Error);
      if (S == FrameStatus::Eof)
        return;
      if (S != FrameStatus::Ok) {
        std::fprintf(stderr, "response stream: %s\n", Error.c_str());
        ++Failures;
        // Keep draining, so the server's writer never blocks on us.
        In.ignore(std::numeric_limits<std::streamsize>::max());
        return;
      }
      uint64_t Id = Kind == FrameKind::Single ? Rsp.Id : Batch.Id;
      Arrivals.emplace(Id, Clock::now());
      ++FrameCount;
      OrderOk &= FrameCount > Frames.size() ||
                 Id == Frames[FrameCount - 1].Id;
      auto It = FrameById.find(Id);
      const Frame *F = It == FrameById.end() ? nullptr : It->second;
      if (Kind == FrameKind::Single) {
        if (Opts.PrintRecords)
          std::printf("%s\n", Rsp.RecordJson.c_str());
        if (F && F->JobIdx.size() == 1 && !HaveRsp[F->JobIdx[0]]) {
          JobRsp[F->JobIdx[0]] = std::move(Rsp);
          HaveRsp[F->JobIdx[0]] = true;
        }
        continue;
      }
      if (Opts.PrintRecords) {
        std::printf("%s\n", Batch.SummaryJson.c_str());
        for (const Response &Item : Batch.Items)
          std::printf("%s\n", Item.RecordJson.c_str());
      }
      if (!F || Batch.Items.size() != F->JobIdx.size()) {
        // A summary-only error RSB (malformed/oversized batch) or an id
        // we never sent: the member jobs stay unanswered.
        std::fprintf(stderr, "batch %llu failed: %s\n",
                     static_cast<unsigned long long>(Id),
                     Batch.SummaryJson.c_str());
        ++Failures;
        continue;
      }
      for (size_t K = 0; K < Batch.Items.size(); ++K)
        if (!HaveRsp[F->JobIdx[K]]) {
          JobRsp[F->JobIdx[K]] = std::move(Batch.Items[K]);
          HaveRsp[F->JobIdx[K]] = true;
        }
    }
  });

  // Submit every frame, stamping each submission so the exit report can
  // pair it with the frame's arrival, then half-close our sending
  // direction so the server sees EOF once it drains.
  std::map<uint64_t, Clock::time_point> SendTimes;
  bool WriteFailed = false;
  for (const Frame &F : Frames) {
    SendTimes.emplace(F.Id, Clock::now());
    if (!writeAll(T.WriteFd, F.Encoded)) {
      WriteFailed = true;
      break;
    }
  }
  if (T.IsSocket)
    shutdown(T.WriteFd, SHUT_WR);
  else
    close(T.WriteFd);
  // Watch the spawned child while the reader works. Once it is gone no
  // more responses can come, even if a descendant still holds the pipe
  // open: the stop flag ends the reader once the fd goes quiet.
  while (Reader.wait_for(std::chrono::milliseconds(50)) !=
         std::future_status::ready)
    if (reapIfDead(T, ChildStatus)) {
      ChildDead = true;
      StopReading.store(true, std::memory_order_release);
    }
  Reader.get();
  close(T.ReadFd);

  // Settle the child. A pipe server exits on its own after EOF; a
  // spawned socket server is asked to shut down gracefully — SIGTERM
  // must drain and exit 0, which is exactly the shutdown path CI gates.
  if (T.Pid >= 0) {
    if (T.IsSocket)
      kill(T.Pid, SIGTERM);
    waitpid(T.Pid, &ChildStatus, 0);
    T.Pid = -1;
  }
  // A socket server only leaves on our SIGTERM, and a pipe server
  // answers every frame before it exits: a child that left sooner died.
  ChildDead &= T.IsSocket || FrameCount < Frames.size();
  bool Spawned = !Opts.ServerCmd.empty();
  bool ServerClean =
      !Spawned ||
      (!ChildDead && WIFEXITED(ChildStatus) && WEXITSTATUS(ChildStatus) == 0);

  if (WriteFailed)
    std::fprintf(stderr, "server went away while submitting requests\n");
  if (ChildDead)
    std::fprintf(stderr,
                 "server process %s before answering all requests\n",
                 WIFEXITED(ChildStatus)
                     ? "exited"
                     : WIFSIGNALED(ChildStatus) ? "was killed" : "vanished");
  else if (Spawned && !ServerClean)
    std::fprintf(stderr, "server exited with status %d\n",
                 WIFEXITED(ChildStatus) ? WEXITSTATUS(ChildStatus) : -1);
  if (WriteFailed)
    return 1;

  if (!OrderOk) {
    std::fprintf(stderr, "responses arrived out of request order\n");
    ++Failures;
  }

  for (size_t K = 0; K < Jobs.size(); ++K) {
    const Job &J = Jobs[K];
    if (!HaveRsp[K]) {
      std::fprintf(stderr, "%s: no response\n", J.Label.c_str());
      ++Failures;
      continue;
    }
    const Response &Rsp = JobRsp[K];
    if (!Rsp.Ok) {
      std::fprintf(stderr, "%s: %s\n", J.Label.c_str(),
                   Rsp.RecordJson.c_str());
      ++Failures;
      continue;
    }
    if (Opts.Selftest && Rsp.IR != J.Expected) {
      std::fprintf(stderr,
                   "%s: server IR differs from one-shot pipeline\n"
                   "--- one-shot ---\n%s--- server ---\n%s",
                   J.Label.c_str(), J.Expected.c_str(), Rsp.IR.c_str());
      ++Failures;
      continue;
    }
    if (!Opts.Selftest && !Opts.Quiet)
      std::printf("; --- %s ---\n%s", J.Label.c_str(), Rsp.IR.c_str());
  }

  // Per-request latency, measured frame submission -> response-frame
  // arrival — what a fully pipelining client actually experiences, so
  // queueing behind earlier frames counts. Batch items inherit their
  // frame's latency. Best-effort: frames whose response never parsed
  // (dead server, unframeable bytes) are not counted.
  std::vector<double> LatMs;
  for (const Frame &F : Frames) {
    auto SendIt = SendTimes.find(F.Id);
    auto ArrIt = Arrivals.find(F.Id);
    if (SendIt == SendTimes.end() || ArrIt == Arrivals.end())
      continue;
    double Ms = std::chrono::duration<double, std::milli>(ArrIt->second -
                                                          SendIt->second)
                    .count();
    LatMs.insert(LatMs.end(), F.JobIdx.size(), Ms);
  }
  if (!LatMs.empty()) {
    std::sort(LatMs.begin(), LatMs.end());
    std::fprintf(stderr,
                 "latency: %zu requests, p50=%.3fms p95=%.3fms "
                 "p99=%.3fms max=%.3fms\n",
                 LatMs.size(), percentileMs(LatMs, 50),
                 percentileMs(LatMs, 95), percentileMs(LatMs, 99),
                 LatMs.back());
  }
  if (Opts.Selftest)
    std::fprintf(stderr,
                 "selftest: %zu functions in %zu frames, %llu failures "
                 "(server %s)\n",
                 Jobs.size(), Frames.size(),
                 static_cast<unsigned long long>(Failures),
                 ServerClean ? "clean" : "UNCLEAN");
  return Failures == 0 && ServerClean ? 0 : 1;
}
