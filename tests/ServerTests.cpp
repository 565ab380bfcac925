//===- ServerTests.cpp - Compile-service protocol and server tests -----------===//
//
// Part of the lao project (CGO 2004 out-of-SSA reproduction).
//
//===----------------------------------------------------------------------===//
//
// The lao-server acceptance gates, in-process: framing round-trips,
// byte-identity of served IR against the one-shot pipeline, every
// graceful-degradation path (malformed body, unknown preset, oversized
// frame, deadline expiry) leaving the daemon serving, the one fatal
// path (unframeable stream), and the determinism of per-request stat
// attribution under a concurrent multi-worker pool.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/AnalysisManager.h"
#include "outofssa/Pipeline.h"
#include "regalloc/RegAlloc.h"
#include "server/FdStream.h"
#include "server/Server.h"
#include "server/SocketTransport.h"
#include "support/Stats.h"
#include "workloads/Suites.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <regex>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace lao;
using namespace lao::test;

namespace {

const char *SimpleFunc = R"(
func @f {
entry:
  input %a, %b
  %c = cmplt %a, %b
  branch %c, then, else
then:
  %x = addi %a, 1
  jump join
else:
  %y = addi %b, 2
  jump join
join:
  %z = phi [%x, then], [%y, else]
  ret %z
}
)";

/// Reads every response frame (RSP and RSB) from \p Bytes.
struct AnyResponse {
  FrameKind Kind = FrameKind::Single;
  Response Single;
  BatchResponse Batch;
};
std::vector<AnyResponse> readAllResponses(const std::string &Bytes) {
  std::vector<AnyResponse> Out;
  std::istringstream In(Bytes);
  for (;;) {
    AnyResponse A;
    std::string Error;
    FrameStatus St = readResponseFrame(In, FrameLimits(), A.Kind, A.Single,
                                       A.Batch, Error);
    if (St == FrameStatus::Eof)
      break;
    EXPECT_EQ(St, FrameStatus::Ok) << Error;
    if (St != FrameStatus::Ok)
      break;
    Out.push_back(std::move(A));
  }
  return Out;
}

/// How far the server.* registry counters moved since construction: the
/// daemon's tally, as lao-server's exit line prints it. Exact while
/// nothing else in the process bumps them.
class ServerTally {
public:
  uint64_t moved(const std::string &Name) const {
    StatsSnapshot D =
        StatsRegistry::delta(Before, StatsRegistry::instance().snapshot());
    auto It = D.find("server." + Name);
    return It == D.end() ? 0 : It->second;
  }

private:
  StatsSnapshot Before = StatsRegistry::instance().snapshot();
};

/// Drives a fresh server over the concatenated request frames and
/// returns (exit code, RSP responses in stream order).
int serveFrames(const ServerOptions &Opts, const std::string &Frames,
                std::vector<Response> &Responses, Server *Out = nullptr) {
  Server Local(Opts);
  Server &S = Out ? *Out : Local;
  std::istringstream In(Frames);
  std::ostringstream OutBytes;
  int Rc = S.serve(In, OutBytes);
  // Response frames are read with the default (generous) limits: the
  // request-side limit under test must not throttle the readback.
  for (AnyResponse &A : readAllResponses(OutBytes.str())) {
    EXPECT_EQ(A.Kind, FrameKind::Single);
    Responses.push_back(std::move(A.Single));
  }
  return Rc;
}

/// The exact one-shot reference: what lao-opt would print for \p Text.
std::string oneShot(const std::string &Text,
                    const std::string &Preset = "Lphi,ABI+C") {
  auto F = parseFunction(Text);
  EXPECT_TRUE(F != nullptr);
  runPipeline(*F, pipelinePreset(Preset));
  return printFunction(*F);
}

} // namespace

//===----------------------------------------------------------------------===//
// Protocol framing
//===----------------------------------------------------------------------===//

TEST(ServerProtocol, RequestRoundTrip) {
  Request R;
  R.Id = 42;
  R.Pipeline = "C,naiveABI+C";
  R.BuildSSA = true;
  R.DeadlineMs = 250;
  R.SleepMs = 3;
  R.Text = "func @f {\nentry:\n  input %a\n  ret %a\n}\n";
  std::istringstream In(encodeRequest(R));
  FrameKind Kind;
  Request Back;
  BatchRequest Unused;
  std::string Error;
  ASSERT_EQ(readRequestFrame(In, FrameLimits(), Kind, Back, Unused, Error),
            FrameStatus::Ok);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(Kind, FrameKind::Single);
  EXPECT_EQ(Back.Id, R.Id);
  EXPECT_EQ(Back.Pipeline, R.Pipeline);
  EXPECT_EQ(Back.BuildSSA, R.BuildSSA);
  EXPECT_EQ(Back.DeadlineMs, R.DeadlineMs);
  EXPECT_EQ(Back.SleepMs, R.SleepMs);
  EXPECT_EQ(Back.Text, R.Text);
  // The stream is fully consumed: a second read is a clean EOF.
  EXPECT_EQ(readRequestFrame(In, FrameLimits(), Kind, Back, Unused, Error),
            FrameStatus::Eof);
}

TEST(ServerProtocol, ResponseRoundTrip) {
  Response R;
  R.Id = 7;
  R.Ok = true;
  R.RecordJson = "{\"id\":7,\"ok\":true,\"outcome\":\"ok\"}";
  R.IR = "func @f {\nentry:\n  ret %R0\n}\n";
  std::istringstream In(encodeResponse(R));
  FrameKind Kind;
  Response Back;
  BatchResponse Unused;
  std::string Error;
  ASSERT_EQ(readResponseFrame(In, FrameLimits(), Kind, Back, Unused, Error),
            FrameStatus::Ok);
  EXPECT_EQ(Kind, FrameKind::Single);
  EXPECT_EQ(Back.Id, 7u);
  EXPECT_TRUE(Back.Ok);
  EXPECT_EQ(Back.RecordJson, R.RecordJson);
  EXPECT_EQ(Back.IR, R.IR);
}

TEST(ServerProtocol, UnknownOptionKeyIsBodyLevelError) {
  // A well-framed body with an option key the server does not know is a
  // per-request error (FrameStatus::Ok + non-empty ErrorOut naming the
  // key), never a protocol failure.
  std::string Body = "frobnicate: 1\n\nfunc @f {\nentry:\n  ret %a\n}\n";
  std::ostringstream Frame;
  Frame << "LAO1 REQ 9 " << Body.size() << "\n" << Body << "\n";
  std::istringstream In(Frame.str());
  FrameKind Kind;
  Request R;
  BatchRequest Unused;
  std::string Error;
  ASSERT_EQ(readRequestFrame(In, FrameLimits(), Kind, R, Unused, Error),
            FrameStatus::Ok);
  EXPECT_EQ(Kind, FrameKind::Single);
  EXPECT_EQ(R.Id, 9u);
  EXPECT_FALSE(Error.empty());
  EXPECT_NE(Error.find("frobnicate"), std::string::npos) << Error;
}

TEST(ServerProtocol, BadHeaderIsMalformed) {
  std::istringstream In("HELLO WORLD\n");
  FrameKind Kind;
  Request R;
  BatchRequest Unused;
  std::string Error;
  EXPECT_EQ(readRequestFrame(In, FrameLimits(), Kind, R, Unused, Error),
            FrameStatus::Malformed);
  EXPECT_FALSE(Error.empty());
}

TEST(ServerProtocol, TruncatedBodyIsMalformed) {
  std::istringstream In("LAO1 REQ 1 9999\n\nfunc @f");
  FrameKind Kind;
  Request R;
  BatchRequest Unused;
  std::string Error;
  EXPECT_EQ(readRequestFrame(In, FrameLimits(), Kind, R, Unused, Error),
            FrameStatus::Malformed);
}

TEST(ServerProtocol, OversizedBodyIsSkippedWithIdIntact) {
  // Large enough for the follow-up request's encoded body (option
  // block + one-byte function text), small enough to reject the blob.
  FrameLimits Limits;
  Limits.MaxBodyBytes = 32;
  std::string Body(64, 'x');
  std::ostringstream Frames;
  Frames << "LAO1 REQ 5 " << Body.size() << "\n" << Body << "\n";
  Request Good;
  Good.Id = 6;
  Good.Text = "t";
  Frames << encodeRequest(Good);
  std::istringstream In(Frames.str());
  FrameKind Kind;
  Request R;
  BatchRequest Unused;
  std::string Error;
  EXPECT_EQ(readRequestFrame(In, Limits, Kind, R, Unused, Error),
            FrameStatus::Oversized);
  EXPECT_EQ(Kind, FrameKind::Single);
  EXPECT_EQ(R.Id, 5u);
  // The stream resynchronized: the next frame reads normally.
  EXPECT_EQ(readRequestFrame(In, Limits, Kind, R, Unused, Error),
            FrameStatus::Ok);
  EXPECT_EQ(R.Id, 6u);
  EXPECT_EQ(R.Text, "t");
}

TEST(ServerProtocol, RegAllocOptionsRoundTrip) {
  Request R;
  R.Id = 11;
  R.RegAlloc = "chordal/load-store-opt";
  R.RegAllocRegs = 8;
  R.Text = "func @f {\nentry:\n  input %a\n  ret %a\n}\n";
  std::istringstream In(encodeRequest(R));
  FrameKind Kind;
  Request Back;
  BatchRequest Unused;
  std::string Error;
  ASSERT_EQ(readRequestFrame(In, FrameLimits(), Kind, Back, Unused, Error),
            FrameStatus::Ok);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(Back.RegAlloc, R.RegAlloc);
  EXPECT_EQ(Back.RegAllocRegs, 8u);
  // A request without the keys decodes to the "no allocation" defaults
  // (the encoder omits empty/zero regalloc options entirely).
  Request Plain;
  Plain.Id = 12;
  Plain.Text = R.Text;
  std::string Encoded = encodeRequest(Plain);
  EXPECT_EQ(Encoded.find("regalloc"), std::string::npos) << Encoded;
  std::istringstream In2(Encoded);
  ASSERT_EQ(readRequestFrame(In2, FrameLimits(), Kind, Back, Unused, Error),
            FrameStatus::Ok);
  EXPECT_TRUE(Back.RegAlloc.empty());
  EXPECT_EQ(Back.RegAllocRegs, 0u);
}

TEST(ServerProtocol, BatchRegAllocOptionsRoundTrip) {
  BatchRequest B;
  B.Id = 21;
  B.RegAlloc = "chaitin-briggs";
  B.RegAllocRegs = 6;
  B.Texts = {"func @f {\nentry:\n  input %a\n  ret %a\n}\n"};
  std::istringstream In(encodeBatchRequest(B));
  FrameKind Kind;
  Request Single;
  BatchRequest Back;
  std::string Error;
  ASSERT_EQ(readRequestFrame(In, FrameLimits(), Kind, Single, Back, Error),
            FrameStatus::Ok);
  EXPECT_TRUE(Error.empty()) << Error;
  ASSERT_EQ(Kind, FrameKind::Batch);
  EXPECT_EQ(Back.RegAlloc, B.RegAlloc);
  EXPECT_EQ(Back.RegAllocRegs, 6u);
  ASSERT_EQ(Back.Texts.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Serving
//===----------------------------------------------------------------------===//

TEST(Server, ServedIRMatchesOneShotPipeline) {
  Request R;
  R.Id = 1;
  R.Text = SimpleFunc;
  std::vector<Response> Responses;
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  EXPECT_EQ(serveFrames(Opts, encodeRequest(R), Responses), 0);
  ASSERT_EQ(Responses.size(), 1u);
  EXPECT_TRUE(Responses[0].Ok) << Responses[0].RecordJson;
  EXPECT_EQ(Responses[0].IR, oneShot(SimpleFunc));
}

TEST(Server, RegAllocRequestAllocatesAndRecords) {
  Request R;
  R.Id = 1;
  R.Text = SimpleFunc;
  R.RegAlloc = "chordal/load-store-opt";
  R.RegAllocRegs = 8;
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Opts.CollectRecords = true;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, encodeRequest(R), Responses, &S), 0);
  ASSERT_EQ(Responses.size(), 1u);
  EXPECT_TRUE(Responses[0].Ok) << Responses[0].RecordJson;

  // Reference: the same pipeline, then the same allocation, in-process.
  auto F = parseFunction(SimpleFunc);
  ASSERT_TRUE(F != nullptr);
  runPipeline(*F, pipelinePreset("Lphi,ABI+C"));
  RegAllocOptions RA = *regAllocPresetOpt("chordal/load-store-opt");
  RA.NumRegs = 8;
  ASSERT_TRUE(allocateRegisters(*F, RA).Ok);
  EXPECT_EQ(Responses[0].IR, printFunction(*F));
  EXPECT_TRUE(collectVirtualRegs(*F).empty());

  ASSERT_EQ(S.records().size(), 1u);
  const RequestRecord &Rec = S.records()[0];
  EXPECT_TRUE(Rec.HasRegAlloc);
  EXPECT_EQ(Rec.Allocator, "chordal");
  EXPECT_EQ(Rec.SpillMode, "load-store-opt");
  EXPECT_NE(Responses[0].RecordJson.find("\"allocator\":\"chordal\""),
            std::string::npos)
      << Responses[0].RecordJson;
  EXPECT_NE(Responses[0].RecordJson.find("\"spill_mode\":\"load-store-opt\""),
            std::string::npos)
      << Responses[0].RecordJson;
}

TEST(Server, OutOfRangeRegAllocRegsIsParseError) {
  // The pool holds 2..12 registers. Outside that range the count used to
  // be narrowed to 32 bits (4294967298 allocated with 2 registers) or
  // capped in silence (100 reported num_regs 100 but used 12). Each is
  // now a parse_error naming the range; 0 keeps the preset default.
  const uint64_t Bad[] = {1, 13, 100, 4294967298ull, 4294967304ull};
  std::string Frames;
  for (uint64_t Regs : Bad) {
    Request R;
    R.Id = Regs;
    R.Text = SimpleFunc;
    R.RegAlloc = "chaitin-briggs";
    R.RegAllocRegs = Regs;
    Frames += encodeRequest(R);
  }
  Request Default;
  Default.Id = 0;
  Default.Text = SimpleFunc;
  Default.RegAlloc = "chaitin-briggs";
  ServerOptions Opts;
  Opts.NumWorkers = 1;
  Opts.CollectRecords = true;
  ServerTally Tally;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, Frames + encodeRequest(Default), Responses, &S),
            0);
  ASSERT_EQ(Responses.size(), std::size(Bad) + 1);
  for (size_t I = 0; I < std::size(Bad); ++I) {
    SCOPED_TRACE(Bad[I]);
    EXPECT_EQ(Responses[I].Id, Bad[I]);
    EXPECT_FALSE(Responses[I].Ok);
    EXPECT_NE(Responses[I].RecordJson.find("\"outcome\":\"parse_error\""),
              std::string::npos)
        << Responses[I].RecordJson;
    EXPECT_NE(Responses[I].RecordJson.find(
                  "regalloc_regs must be 2..12, got " + std::to_string(Bad[I])),
              std::string::npos)
        << Responses[I].RecordJson;
  }
  EXPECT_TRUE(Responses.back().Ok) << Responses.back().RecordJson;
  ASSERT_EQ(S.records().size(), std::size(Bad) + 1);
  EXPECT_EQ(S.records().back().NumRegs, 12u);
  EXPECT_EQ(Tally.moved("parse_errors"), std::size(Bad));
}

TEST(Server, DefaultRegAllocAppliesAndRequestOverrides) {
  // The daemon-level default engages for requests carrying no regalloc
  // key; a request naming its own preset wins.
  Request Defaulted;
  Defaulted.Id = 1;
  Defaulted.Text = SimpleFunc;
  Request Explicit;
  Explicit.Id = 2;
  Explicit.Text = SimpleFunc;
  Explicit.RegAlloc = "chordal";
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Opts.CollectRecords = true;
  Opts.DefaultRegAlloc = "chaitin-briggs";
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, encodeRequest(Defaulted) +
                                  encodeRequest(Explicit),
                        Responses, &S),
            0);
  ASSERT_EQ(Responses.size(), 2u);
  ASSERT_EQ(S.records().size(), 2u);
  EXPECT_TRUE(Responses[0].Ok) << Responses[0].RecordJson;
  EXPECT_TRUE(S.records()[0].HasRegAlloc);
  EXPECT_EQ(S.records()[0].Allocator, "chaitin-briggs");
  EXPECT_TRUE(Responses[1].Ok) << Responses[1].RecordJson;
  EXPECT_EQ(S.records()[1].Allocator, "chordal");

  // compileRequest applies the default itself, for a direct caller too.
  WorkerContext Ctx;
  RequestRecord Direct = Server::compileRequest(
      Defaulted, Ctx, std::chrono::steady_clock::now(), Opts);
  ASSERT_TRUE(Direct.ok()) << Direct.Error;
  EXPECT_EQ(Direct.Allocator, "chaitin-briggs");
  EXPECT_EQ(Direct.IR, Responses[0].IR);
}

TEST(Server, UnknownRegAllocPresetIsPerRequestError) {
  Request Bad;
  Bad.Id = 1;
  Bad.Text = SimpleFunc;
  Bad.RegAlloc = "linear-scan";
  Request Good;
  Good.Id = 2;
  Good.Text = SimpleFunc;
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Opts.CollectRecords = true;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, encodeRequest(Bad) + encodeRequest(Good),
                        Responses, &S),
            0);
  ASSERT_EQ(Responses.size(), 2u);
  EXPECT_FALSE(Responses[0].Ok);
  ASSERT_EQ(S.records().size(), 2u);
  EXPECT_EQ(S.records()[0].Outcome, RequestOutcome::UnknownPreset);
  EXPECT_NE(S.records()[0].Error.find("linear-scan"), std::string::npos)
      << S.records()[0].Error;
  // The daemon keeps serving; the follow-up request (no regalloc key,
  // no daemon default) compiles without allocation.
  EXPECT_TRUE(Responses[1].Ok) << Responses[1].RecordJson;
  EXPECT_FALSE(S.records()[1].HasRegAlloc);
  EXPECT_EQ(Responses[1].IR, oneShot(SimpleFunc));
}

TEST(Server, ErrorRequestsDegradeGracefully) {
  // Four requests: unknown preset, unparseable text, fine, timed out.
  // Each bad one yields its own error record; the good one compiles;
  // the daemon reaches clean EOF (exit 0).
  Request Bad1;
  Bad1.Id = 1;
  Bad1.Pipeline = "NotATable1Preset";
  Bad1.Text = SimpleFunc;
  Request Bad2;
  Bad2.Id = 2;
  Bad2.Text = "this is not a function";
  Request Good;
  Good.Id = 3;
  Good.Text = SimpleFunc;
  Request Slow;
  Slow.Id = 4;
  Slow.Text = SimpleFunc;
  Slow.SleepMs = 200;
  Slow.DeadlineMs = 20;
  std::string Frames = encodeRequest(Bad1) + encodeRequest(Bad2) +
                       encodeRequest(Good) + encodeRequest(Slow);

  ServerOptions Opts;
  Opts.NumWorkers = 4;
  Opts.CollectRecords = true;
  ServerTally Tally;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, Frames, Responses, &S), 0);
  ASSERT_EQ(Responses.size(), 4u);
  ASSERT_EQ(S.records().size(), 4u);

  EXPECT_FALSE(Responses[0].Ok);
  EXPECT_EQ(S.records()[0].Outcome, RequestOutcome::UnknownPreset);
  EXPECT_FALSE(Responses[1].Ok);
  EXPECT_EQ(S.records()[1].Outcome, RequestOutcome::ParseError);
  EXPECT_FALSE(S.records()[1].Error.empty());
  EXPECT_TRUE(Responses[2].Ok) << Responses[2].RecordJson;
  EXPECT_EQ(Responses[2].IR, oneShot(SimpleFunc));
  EXPECT_FALSE(Responses[3].Ok);
  EXPECT_EQ(S.records()[3].Outcome, RequestOutcome::Timeout);
  EXPECT_NE(Responses[3].RecordJson.find("\"outcome\":\"timeout\""),
            std::string::npos)
      << Responses[3].RecordJson;

  EXPECT_EQ(Tally.moved("requests"), 4u);
  EXPECT_EQ(Tally.moved("requests_ok"), 1u);
  EXPECT_EQ(Tally.moved("preset_errors"), 1u);
  EXPECT_EQ(Tally.moved("parse_errors"), 1u);
  EXPECT_EQ(Tally.moved("timeouts"), 1u);
}

TEST(Server, SsaOnSsaInputIsParseErrorAndServingContinues) {
  // SimpleFunc already has a phi, so "ssa: 1" cannot rebuild SSA from
  // it. That is the client's mistake: the request gets a parse_error
  // record and the next frame still compiles.
  Request Bad;
  Bad.Id = 1;
  Bad.BuildSSA = true;
  Bad.Text = SimpleFunc;
  Request Good;
  Good.Id = 2;
  Good.Text = SimpleFunc;
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Opts.CollectRecords = true;
  ServerTally Tally;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, encodeRequest(Bad) + encodeRequest(Good),
                        Responses, &S),
            0);
  ASSERT_EQ(Responses.size(), 2u);
  EXPECT_FALSE(Responses[0].Ok);
  EXPECT_NE(Responses[0].RecordJson.find("\"outcome\":\"parse_error\""),
            std::string::npos)
      << Responses[0].RecordJson;
  EXPECT_NE(Responses[0].RecordJson.find("already has a phi"),
            std::string::npos)
      << Responses[0].RecordJson;
  EXPECT_TRUE(Responses[0].IR.empty());
  EXPECT_TRUE(Responses[1].Ok) << Responses[1].RecordJson;
  EXPECT_EQ(Responses[1].IR, oneShot(SimpleFunc));
  EXPECT_EQ(Tally.moved("parse_errors"), 1u);
}

TEST(Server, NonSsaInputIsParseErrorAndServingContinues) {
  // With "ssa: 0" the text must already be SSA; here %x is defined on both
  // arms. The pipeline's entry step rejects it: a parse_error record for
  // this request (not a daemon abort), and the next frame still compiles.
  Request Bad;
  Bad.Id = 1;
  Bad.Text = R"(
func @f {
entry:
  input %a
  branch %a, t, e
t:
  %x = make 1
  jump j
e:
  %x = make 2
  jump j
j:
  ret %x
}
)";
  Request Good;
  Good.Id = 2;
  Good.Text = SimpleFunc;
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Opts.CollectRecords = true;
  ServerTally Tally;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, encodeRequest(Bad) + encodeRequest(Good),
                        Responses, &S),
            0);
  ASSERT_EQ(Responses.size(), 2u);
  EXPECT_FALSE(Responses[0].Ok);
  EXPECT_NE(Responses[0].RecordJson.find("\"outcome\":\"parse_error\""),
            std::string::npos)
      << Responses[0].RecordJson;
  EXPECT_NE(Responses[0].RecordJson.find("defined more than once"),
            std::string::npos)
      << Responses[0].RecordJson;
  EXPECT_TRUE(Responses[0].IR.empty());
  EXPECT_TRUE(Responses[1].Ok) << Responses[1].RecordJson;
  EXPECT_EQ(Responses[1].IR, oneShot(SimpleFunc));
  EXPECT_EQ(Tally.moved("parse_errors"), 1u);
}

TEST(Server, AbortInputsAreParseErrorsAndServingContinues) {
  // Both inputs reach an assertion unless refused first: an instruction
  // after a terminator (BasicBlock::append's, in the parser) and, with
  // "ssa: 0", a use nothing defines (the translator's slot assertion).
  // A def on an opcode without one used to be dropped, leaving a
  // phantom value. Each gets a parse_error record; the frame after them
  // compiles.
  Request AfterRet;
  AfterRet.Id = 1;
  AfterRet.Text = "func @f {\nentry:\n  input %a\n  ret %a\n"
                  "  output %a\n}\n";
  Request Undefined;
  Undefined.Id = 2;
  Undefined.Text = "func @f {\nentry:\n  input %a\n  %b = add %u, %u\n"
                   "  ret %b\n}\n";
  Request DefOnStore;
  DefOnStore.Id = 3;
  DefOnStore.Text = "func @f {\nentry:\n  input %a\n  %x = store %a, %a\n"
                    "  ret %a\n}\n";
  Request Good;
  Good.Id = 4;
  Good.Text = SimpleFunc;
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Opts.CollectRecords = true;
  ServerTally Tally;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts,
                        encodeRequest(AfterRet) + encodeRequest(Undefined) +
                            encodeRequest(DefOnStore) + encodeRequest(Good),
                        Responses, &S),
            0);
  ASSERT_EQ(Responses.size(), 4u);
  ASSERT_EQ(S.records().size(), 4u);
  EXPECT_EQ(S.records()[0].Outcome, RequestOutcome::ParseError);
  EXPECT_EQ(S.records()[0].Error,
            "parse error: line 5: instruction after the terminator of block "
            "'entry'");
  EXPECT_EQ(S.records()[1].Outcome, RequestOutcome::ParseError);
  EXPECT_EQ(S.records()[1].Error, "ssa error: %u is used but never defined; "
                                  "the pipeline needs SSA input");
  EXPECT_EQ(S.records()[2].Outcome, RequestOutcome::ParseError);
  EXPECT_EQ(S.records()[2].Error,
            "parse error: line 4: store takes no def operand");
  EXPECT_TRUE(Responses[0].IR.empty());
  EXPECT_TRUE(Responses[1].IR.empty());
  EXPECT_TRUE(Responses[2].IR.empty());
  EXPECT_TRUE(Responses[3].Ok) << Responses[3].RecordJson;
  EXPECT_EQ(Responses[3].IR, oneShot(SimpleFunc));
  EXPECT_EQ(Tally.moved("parse_errors"), 3u);
}

TEST(Server, FunctionWithoutBlocksIsParseErrorAndServingContinues) {
  // With "ssa: 1" or "exec: vm", a function without blocks reached
  // Function::entry()'s assertion and killed the daemon. The parser now
  // refuses it; the frame after it compiles.
  Request Ssa;
  Ssa.Id = 1;
  Ssa.Text = "func @f {\n}\n";
  Ssa.BuildSSA = true;
  Request Vm;
  Vm.Id = 2;
  Vm.Text = Ssa.Text;
  Vm.Exec = "vm";
  Request Good;
  Good.Id = 3;
  Good.Text = SimpleFunc;
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Opts.CollectRecords = true;
  ServerTally Tally;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts,
                        encodeRequest(Ssa) + encodeRequest(Vm) +
                            encodeRequest(Good),
                        Responses, &S),
            0);
  ASSERT_EQ(Responses.size(), 3u);
  ASSERT_EQ(S.records().size(), 3u);
  for (unsigned I = 0; I < 2; ++I) {
    EXPECT_EQ(S.records()[I].Outcome, RequestOutcome::ParseError);
    EXPECT_EQ(S.records()[I].Error,
              "parse error: line 1: function '@f' has no blocks");
    EXPECT_TRUE(Responses[I].IR.empty());
  }
  EXPECT_TRUE(Responses[2].Ok) << Responses[2].RecordJson;
  EXPECT_EQ(Responses[2].IR, oneShot(SimpleFunc));
  EXPECT_EQ(Tally.moved("parse_errors"), 2u);
}

TEST(Server, DeepChainUnderSsaIsServedAndServingContinues) {
  // "ssa: 1" on a 60,000-block chain overflowed a worker's stack in SSA
  // construction's recursive dominator-tree walk and killed the daemon.
  Request Chain;
  Chain.Id = 1;
  Chain.Text = chainFunctionText(60000);
  Chain.BuildSSA = true;
  Chain.Pipeline = "Lphi,ABI";
  Request Good;
  Good.Id = 2;
  Good.Text = SimpleFunc;
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, encodeRequest(Chain) + encodeRequest(Good),
                        Responses),
            0);
  ASSERT_EQ(Responses.size(), 2u);
  EXPECT_TRUE(Responses[0].Ok) << Responses[0].RecordJson;
  EXPECT_FALSE(Responses[0].IR.empty());
  EXPECT_TRUE(Responses[1].Ok) << Responses[1].RecordJson;
  EXPECT_EQ(Responses[1].IR, oneShot(SimpleFunc));
}

TEST(Server, MalformedPhiIsParseErrorAndServingContinues) {
  // A phi below a non-phi instruction parses, and reached an assertion
  // of the Leung-George translator that killed the daemon and left the
  // frame behind it unanswered. The pipeline's entry step now refuses it.
  Request Bad;
  Bad.Id = 1;
  Bad.Text = "func @f {\nentry:\n  input %a\n  jump j\nj:\n"
             "  %y = make 3\n  %x = phi [%a, entry]\n  ret %x\n}\n";
  Request Good;
  Good.Id = 2;
  Good.Text = SimpleFunc;
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Opts.CollectRecords = true;
  ServerTally Tally;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, encodeRequest(Bad) + encodeRequest(Good),
                        Responses, &S),
            0);
  ASSERT_EQ(Responses.size(), 2u);
  ASSERT_EQ(S.records().size(), 2u);
  EXPECT_EQ(S.records()[0].Outcome, RequestOutcome::ParseError);
  EXPECT_EQ(S.records()[0].Error,
            "ssa error: block j: phi after non-phi instruction");
  EXPECT_TRUE(Responses[0].IR.empty());
  EXPECT_TRUE(Responses[1].Ok) << Responses[1].RecordJson;
  EXPECT_EQ(Responses[1].IR, oneShot(SimpleFunc));
  EXPECT_EQ(Tally.moved("parse_errors"), 1u);
}

TEST(Server, OversizedFrameThenGoodFrame) {
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Opts.Limits.MaxBodyBytes = 512;
  Opts.CollectRecords = true;
  std::string Big(4096, 'x');
  std::ostringstream Frames;
  Frames << "LAO1 REQ 1 " << Big.size() << "\n" << Big << "\n";
  Request Good;
  Good.Id = 2;
  Good.Text = SimpleFunc;
  Frames << encodeRequest(Good);

  ServerTally Tally;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, Frames.str(), Responses, &S), 0);
  ASSERT_EQ(Responses.size(), 2u);
  EXPECT_FALSE(Responses[0].Ok);
  EXPECT_EQ(Responses[0].Id, 1u);
  EXPECT_EQ(S.records()[0].Outcome, RequestOutcome::Oversized);
  EXPECT_TRUE(Responses[1].Ok) << Responses[1].RecordJson;
  EXPECT_EQ(Tally.moved("oversized"), 1u);
}

TEST(Server, MalformedHeaderIsFatalWithFinalRecord) {
  Request Good;
  Good.Id = 1;
  Good.Text = SimpleFunc;
  std::string Frames = encodeRequest(Good) + "GARBAGE HEADER LINE\n";

  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Opts.CollectRecords = true;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, Frames, Responses, &S), 1);
  // The good request before the garbage was still answered, then the
  // fatal id-0 protocol record closed the stream.
  ASSERT_EQ(Responses.size(), 2u);
  EXPECT_TRUE(Responses[0].Ok);
  EXPECT_EQ(Responses[1].Id, 0u);
  EXPECT_FALSE(Responses[1].Ok);
  EXPECT_NE(Responses[1].RecordJson.find("\"outcome\":\"protocol_error\""),
            std::string::npos)
      << Responses[1].RecordJson;
}

TEST(Server, DeadlineAppliesDefaultFromOptions) {
  Request Slow;
  Slow.Id = 1;
  Slow.Text = SimpleFunc;
  Slow.SleepMs = 200; // no per-request deadline: the server default hits
  ServerOptions Opts;
  Opts.NumWorkers = 1;
  Opts.DefaultDeadlineMs = 20;
  Opts.CollectRecords = true;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, encodeRequest(Slow), Responses, &S), 0);
  ASSERT_EQ(Responses.size(), 1u);
  EXPECT_EQ(S.records()[0].Outcome, RequestOutcome::Timeout);
}

TEST(Server, HugeDeadlineMeansNoPracticalLimit) {
  // Arrival + deadline_ms would overflow the clock for values like
  // these; the server clamps them, so they compile instead of timing out.
  ServerOptions Opts;
  Opts.NumWorkers = 1;
  Opts.CollectRecords = true;
  Server S(Opts);
  std::string Frames;
  uint64_t Id = 0;
  for (uint64_t Ms : {uint64_t{9223372036854775}, uint64_t{INT64_MAX},
                      uint64_t{UINT64_MAX}}) {
    Request R;
    R.Id = ++Id;
    R.Text = SimpleFunc;
    R.DeadlineMs = Ms;
    Frames += encodeRequest(R);
  }
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, Frames, Responses, &S), 0);
  ASSERT_EQ(Responses.size(), 3u);
  for (const RequestRecord &Rec : S.records())
    EXPECT_EQ(Rec.Outcome, RequestOutcome::Ok) << Rec.Error;
  for (const Response &R : Responses)
    EXPECT_EQ(R.IR, oneShot(SimpleFunc));
}

//===----------------------------------------------------------------------===//
// Determinism under concurrency
//===----------------------------------------------------------------------===//

TEST(Server, ConcurrentStressIsDeterministic) {
  // Every suite function, pipelined into a 4-worker server, must yield
  // byte-identical IR, identical outcomes, and *identical per-request
  // counter deltas* to a serial 1-worker run — the StatsScope exactness
  // gate — sent once as REQ frames and once as BAT frames of 8. Response
  // order must equal arrival order every time.
  std::vector<std::string> Texts;
  for (const SuiteSpec &Spec : allSuites())
    for (Workload &W : Spec.Make())
      Texts.push_back(printFunction(*W.F));
  ASSERT_GT(Texts.size(), 50u);

  std::string Frames, BatchFrames;
  for (size_t K = 0; K < Texts.size(); ++K) {
    Request R;
    R.Id = K + 1;
    R.Text = Texts[K];
    Frames += encodeRequest(R);
  }
  for (size_t K = 0; K < Texts.size(); K += 8) {
    BatchRequest B;
    B.Id = K / 8 + 1;
    B.Texts.assign(Texts.begin() + K,
                   Texts.begin() + std::min(K + 8, Texts.size()));
    BatchFrames += encodeBatchRequest(B);
  }

  auto Run = [&](unsigned Workers, const std::string &Bytes) {
    ServerOptions Opts;
    Opts.NumWorkers = Workers;
    Opts.CollectRecords = true;
    ServerTally Tally;
    Server S(Opts);
    std::istringstream In(Bytes);
    std::ostringstream Out;
    EXPECT_EQ(S.serve(In, Out), 0);
    std::vector<AnyResponse> Responses = readAllResponses(Out.str());
    for (size_t K = 0; K < Responses.size(); ++K) {
      const AnyResponse &A = Responses[K];
      EXPECT_EQ(A.Kind == FrameKind::Single ? A.Single.Id : A.Batch.Id, K + 1)
          << "response order broke";
    }
    EXPECT_EQ(Tally.moved("requests_ok"), Texts.size());
    return S.records();
  };

  std::vector<RequestRecord> Req = Run(1, Frames);
  std::vector<RequestRecord> Bat = Run(1, BatchFrames);
  ASSERT_EQ(Req.size(), Texts.size());
  ASSERT_EQ(Bat.size(), Texts.size());
  for (size_t K = 0; K < Texts.size(); ++K) {
    EXPECT_EQ(Bat[K].Item, static_cast<int64_t>(K % 8));
    // A BAT item keeps its scope like a REQ: the same counters.
    EXPECT_EQ(Bat[K].Counters, Req[K].Counters) << "function " << K;
  }
  for (auto [Serial, Bytes] :
       {std::pair{&Req, &Frames}, {&Bat, &BatchFrames}}) {
    std::vector<RequestRecord> Sharded = Run(4, *Bytes);
    ASSERT_EQ(Serial->size(), Sharded.size());
    for (size_t K = 0; K < Sharded.size(); ++K) {
      const RequestRecord &Ref = (*Serial)[K];
      EXPECT_EQ(Sharded[K].Id, Ref.Id);
      EXPECT_EQ(Sharded[K].Item, Ref.Item);
      EXPECT_EQ(Sharded[K].Outcome, Ref.Outcome);
      EXPECT_EQ(Sharded[K].IR, Ref.IR) << "function " << K;
      EXPECT_EQ(Sharded[K].Moves, Ref.Moves);
      EXPECT_EQ(Sharded[K].WeightedMoves, Ref.WeightedMoves);
      // The per-request counter snapshot is exact: no worker sees
      // another request's bumps, so 4-way sharding changes nothing.
      EXPECT_EQ(Sharded[K].Counters, Ref.Counters)
          << "per-request stat deltas diverged for function " << K;
    }
  }
}

TEST(Server, EmptyPipelineIsAnUnknownPreset) {
  // The compile job reads an empty pipeline as "run none"; a request
  // must name a preset, so the server answers before calling the job.
  WorkerContext Ctx;
  Request R;
  R.Id = 1;
  R.Text = SimpleFunc;
  R.Pipeline.clear();
  RequestRecord Rec = Server::compileRequest(
      R, Ctx, std::chrono::steady_clock::now(), ServerOptions());
  EXPECT_EQ(Rec.Outcome, RequestOutcome::UnknownPreset);
  EXPECT_EQ(Rec.Error, "unknown pipeline preset ''");
  EXPECT_EQ(Rec.IR, "");
}

TEST(Server, CompileRequestAttributesStatsPerRequest) {
  // Direct compileRequest: the record's counter snapshot must contain
  // pipeline work (nonzero deltas) and two identical requests through
  // the same reused worker context must report identical deltas — the
  // manager reset wipes cross-request cache state.
  WorkerContext Ctx;
  ServerOptions Opts;
  Request R;
  R.Id = 1;
  R.Text = SimpleFunc;
  auto Now = std::chrono::steady_clock::now();
  RequestRecord First = Server::compileRequest(R, Ctx, Now, Opts);
  ASSERT_TRUE(First.ok()) << First.Error;
  EXPECT_FALSE(First.Counters.empty());
  R.Id = 2;
  RequestRecord Second = Server::compileRequest(R, Ctx, Now, Opts);
  ASSERT_TRUE(Second.ok()) << Second.Error;
  EXPECT_EQ(First.Counters, Second.Counters)
      << "reused worker context leaked state between requests";
  EXPECT_EQ(First.IR, Second.IR);
}

//===----------------------------------------------------------------------===//
// Batch framing
//===----------------------------------------------------------------------===//

TEST(ServerProtocol, BatchRequestRoundTrip) {
  BatchRequest B;
  B.Id = 11;
  B.Pipeline = "C,naiveABI+C";
  B.BuildSSA = true;
  B.DeadlineMs = 250;
  B.Texts = {"func @a {\nentry:\n  ret %a\n}\n", "", "x\ny\n"};
  std::istringstream In(encodeBatchRequest(B));
  FrameKind Kind = FrameKind::Single;
  Request R;
  BatchRequest Back;
  std::string Error;
  ASSERT_EQ(readRequestFrame(In, FrameLimits(), Kind, R, Back, Error),
            FrameStatus::Ok);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(Kind, FrameKind::Batch);
  EXPECT_EQ(Back.Id, B.Id);
  EXPECT_EQ(Back.Pipeline, B.Pipeline);
  EXPECT_EQ(Back.BuildSSA, B.BuildSSA);
  EXPECT_EQ(Back.DeadlineMs, B.DeadlineMs);
  EXPECT_EQ(Back.Texts, B.Texts);
  EXPECT_EQ(readRequestFrame(In, FrameLimits(), Kind, R, Back, Error),
            FrameStatus::Eof);
}

TEST(ServerProtocol, BatchResponseRoundTrip) {
  BatchResponse B;
  B.Id = 4;
  B.Ok = true;
  B.SummaryJson = "{\"id\":4,\"ok\":true,\"outcome\":\"ok\",\"functions\":2}";
  Response I0;
  I0.Id = 4;
  I0.Ok = true;
  I0.RecordJson = "{\"id\":4,\"ok\":true,\"outcome\":\"ok\",\"item\":0}";
  I0.IR = "func @a {\nentry:\n  ret %R0\n}\n";
  Response I1;
  I1.Id = 4;
  I1.Ok = false;
  I1.RecordJson = "{\"id\":4,\"ok\":false,\"outcome\":\"parse_error\"}";
  B.Items = {I0, I1};
  std::istringstream In(encodeBatchResponse(B));
  FrameKind Kind = FrameKind::Single;
  Response R;
  BatchResponse Back;
  std::string Error;
  ASSERT_EQ(readResponseFrame(In, FrameLimits(), Kind, R, Back, Error),
            FrameStatus::Ok);
  EXPECT_EQ(Kind, FrameKind::Batch);
  EXPECT_EQ(Back.Id, 4u);
  EXPECT_TRUE(Back.Ok);
  EXPECT_EQ(Back.SummaryJson, B.SummaryJson);
  ASSERT_EQ(Back.Items.size(), 2u);
  EXPECT_TRUE(Back.Items[0].Ok);
  EXPECT_EQ(Back.Items[0].RecordJson, I0.RecordJson);
  EXPECT_EQ(Back.Items[0].IR, I0.IR);
  EXPECT_FALSE(Back.Items[1].Ok);
}

TEST(ServerProtocol, BatchWithoutCountIsBodyLevelError) {
  // "count" is what lets the reader validate the sub-framing; a BAT
  // body without it is a per-frame error, not a stream failure.
  std::string Body = "pipeline: Lphi,ABI+C\n\n2\nab\n";
  std::ostringstream Frame;
  Frame << "LAO1 BAT 3 " << Body.size() << "\n" << Body << "\n";
  std::istringstream In(Frame.str());
  FrameKind Kind = FrameKind::Single;
  Request R;
  BatchRequest Back;
  std::string Error;
  ASSERT_EQ(readRequestFrame(In, FrameLimits(), Kind, R, Back, Error),
            FrameStatus::Ok);
  EXPECT_EQ(Kind, FrameKind::Batch);
  EXPECT_EQ(Back.Id, 3u);
  EXPECT_NE(Error.find("count"), std::string::npos) << Error;
  EXPECT_TRUE(Back.Texts.empty());
}

TEST(ServerProtocol, BatchCountMismatchIsBodyLevelError) {
  BatchRequest B;
  B.Id = 8;
  B.Texts = {"aa", "bb"};
  std::string Frame = encodeBatchRequest(B);
  // Corrupt the declared count: "count: 2" -> "count: 3". The body
  // length stays valid, so the stream must resynchronize afterwards.
  size_t At = Frame.find("count: 2");
  ASSERT_NE(At, std::string::npos);
  Frame[At + std::strlen("count: ")] = '3';
  Request Single;
  Single.Id = 9;
  Single.Text = "t";
  std::istringstream In(Frame + encodeRequest(Single));
  FrameKind Kind = FrameKind::Single;
  Request R;
  BatchRequest Back;
  std::string Error;
  ASSERT_EQ(readRequestFrame(In, FrameLimits(), Kind, R, Back, Error),
            FrameStatus::Ok);
  EXPECT_EQ(Kind, FrameKind::Batch);
  EXPECT_FALSE(Error.empty());
  EXPECT_TRUE(Back.Texts.empty()) << "a mismatched batch yields no items";
  Error.clear();
  ASSERT_EQ(readRequestFrame(In, FrameLimits(), Kind, R, Back, Error),
            FrameStatus::Ok)
      << Error;
  EXPECT_EQ(Kind, FrameKind::Single);
  EXPECT_EQ(R.Id, 9u);
}

TEST(Server, BatchServedIRMatchesOneShot) {
  BatchRequest B;
  B.Id = 1;
  B.Texts = {SimpleFunc, SimpleFunc, SimpleFunc};
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Opts.CollectRecords = true;
  ServerTally Tally;
  Server S(Opts);
  std::istringstream In(encodeBatchRequest(B));
  std::ostringstream OutBytes;
  EXPECT_EQ(S.serve(In, OutBytes), 0);

  auto Responses = readAllResponses(OutBytes.str());
  ASSERT_EQ(Responses.size(), 1u);
  EXPECT_EQ(Responses[0].Kind, FrameKind::Batch);
  const BatchResponse &R = Responses[0].Batch;
  EXPECT_TRUE(R.Ok) << R.SummaryJson;
  ASSERT_EQ(R.Items.size(), 3u);
  std::string Expected = oneShot(SimpleFunc);
  for (size_t K = 0; K < 3; ++K) {
    EXPECT_TRUE(R.Items[K].Ok) << R.Items[K].RecordJson;
    EXPECT_EQ(R.Items[K].IR, Expected) << "batch item " << K;
  }
  // One batch, three compiled functions, items tagged with positions.
  EXPECT_EQ(Tally.moved("batches"), 1u);
  EXPECT_EQ(Tally.moved("batch_items"), 3u);
  EXPECT_EQ(Tally.moved("requests"), 3u);
  EXPECT_EQ(Tally.moved("requests_ok"), 3u);
  ASSERT_EQ(S.records().size(), 3u);
  for (size_t K = 0; K < 3; ++K)
    EXPECT_EQ(S.records()[K].Item, static_cast<int64_t>(K));
}

TEST(Server, RequestMatchesBatchOfOne) {
  // One request path: the same function sent as a REQ and as a BAT of
  // one compiles identically. The records differ only where the frame
  // kind says they must — "item" — and in the timing.
  RequestOptions Shared;
  Shared.RegAlloc = "chordal/load-store-opt";
  Shared.RegAllocRegs = 8;
  Shared.Exec = "vm";
  Shared.ExecArgs = {3, 4};
  Request R{Shared, 5, SimpleFunc};
  BatchRequest B{Shared, 5, {SimpleFunc}};
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Opts.CollectRecords = true;
  ServerTally Tally;
  Server S(Opts);
  std::istringstream In(encodeRequest(R) + encodeBatchRequest(B));
  std::ostringstream OutBytes;
  EXPECT_EQ(S.serve(In, OutBytes), 0);

  auto Responses = readAllResponses(OutBytes.str());
  ASSERT_EQ(Responses.size(), 2u);
  ASSERT_EQ(Responses[0].Kind, FrameKind::Single);
  ASSERT_EQ(Responses[1].Kind, FrameKind::Batch);
  const Response &Single = Responses[0].Single;
  ASSERT_EQ(Responses[1].Batch.Items.size(), 1u);
  const Response &Item = Responses[1].Batch.Items[0];
  EXPECT_TRUE(Single.Ok) << Single.RecordJson;
  EXPECT_TRUE(Item.Ok) << Item.RecordJson;
  EXPECT_EQ(Single.IR, Item.IR);

  // Blank out the fields the frame kind or the clock decide.
  auto Normalize = [](std::string Json) {
    Json = std::regex_replace(Json, std::regex("\"item\":[0-9]+,"), "");
    return std::regex_replace(Json, std::regex("\"seconds\":[^,}]*"),
                              "\"seconds\":0");
  };
  EXPECT_NE(Item.RecordJson.find("\"item\":0,"), std::string::npos)
      << Item.RecordJson;
  EXPECT_EQ(Single.RecordJson.find("\"item\""), std::string::npos)
      << Single.RecordJson;
  EXPECT_EQ(Normalize(Single.RecordJson), Normalize(Item.RecordJson));

  ASSERT_EQ(S.records().size(), 2u);
  const RequestRecord &Req = S.records()[0], &Bat = S.records()[1];
  EXPECT_EQ(Req.IR, Bat.IR);
  EXPECT_EQ(Req.Moves, Bat.Moves);
  EXPECT_EQ(Req.WeightedMoves, Bat.WeightedMoves);
  EXPECT_EQ(Req.Item, -1);
  EXPECT_EQ(Bat.Item, 0);
  EXPECT_FALSE(Req.Counters.empty()) << "a REQ keeps its StatsScope";
  EXPECT_EQ(Bat.Counters, Req.Counters) << "so does a BAT item";
  EXPECT_EQ(Tally.moved("batches"), 1u) << "only the BAT counts as a batch";
  EXPECT_EQ(Tally.moved("requests"), 2u);
  EXPECT_EQ(Tally.moved("requests_ok"), 2u);
}

TEST(Server, MalformedBatchDegradesAndKeepsServing) {
  // A BAT whose items overrun the body is answered with a summary-only
  // error RSB; the next frame still compiles; the daemon exits 0.
  std::string Body = "count: 2\n\n5\nab\n";
  std::ostringstream Frames;
  Frames << "LAO1 BAT 7 " << Body.size() << "\n" << Body << "\n";
  Request Good;
  Good.Id = 8;
  Good.Text = SimpleFunc;
  Frames << encodeRequest(Good);

  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Opts.CollectRecords = true;
  ServerTally Tally;
  Server S(Opts);
  std::istringstream In(Frames.str());
  std::ostringstream OutBytes;
  EXPECT_EQ(S.serve(In, OutBytes), 0);

  auto Responses = readAllResponses(OutBytes.str());
  ASSERT_EQ(Responses.size(), 2u);
  EXPECT_EQ(Responses[0].Kind, FrameKind::Batch);
  EXPECT_FALSE(Responses[0].Batch.Ok);
  EXPECT_TRUE(Responses[0].Batch.Items.empty());
  EXPECT_NE(Responses[0].Batch.SummaryJson.find("\"outcome\":\"batch_error\""),
            std::string::npos)
      << Responses[0].Batch.SummaryJson;
  EXPECT_EQ(Responses[1].Kind, FrameKind::Single);
  EXPECT_TRUE(Responses[1].Single.Ok);
  EXPECT_EQ(Tally.moved("batch_errors"), 1u);
  ASSERT_EQ(S.records().size(), 2u);
  EXPECT_EQ(S.records()[0].Outcome, RequestOutcome::BatchError);
}

//===----------------------------------------------------------------------===//
// Backpressure
//===----------------------------------------------------------------------===//

TEST(Server, BackpressureWindowBoundsInFlight) {
  // With a 2-frame window, pipelining 24 requests into a 4-worker pool
  // must never have more than 2 dispatched-but-unflushed frames, and
  // every request is still answered in order.
  std::string Frames;
  for (uint64_t K = 1; K <= 24; ++K) {
    Request R;
    R.Id = K;
    R.Text = SimpleFunc;
    Frames += encodeRequest(R);
  }
  ServerOptions Opts;
  Opts.NumWorkers = 4;
  Opts.MaxInFlightFrames = 2;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, Frames, Responses, &S), 0);
  ASSERT_EQ(Responses.size(), 24u);
  for (size_t K = 0; K < Responses.size(); ++K) {
    EXPECT_EQ(Responses[K].Id, K + 1);
    EXPECT_TRUE(Responses[K].Ok);
  }
  EXPECT_GE(S.report().MaxInFlight, 1u);
  EXPECT_LE(S.report().MaxInFlight, 2u)
      << "the in-flight window leaked past its bound";
}

TEST(Server, ArenaReuseIsCountedOutsideRequestScopes) {
  // A single worker compiling several requests recycles its arena
  // chunks between them: the global server.arena_reuse_bytes counter
  // must grow, but it must never appear in a per-request counter
  // snapshot — reuse is a worker-lifetime effect, and charging it to
  // whichever request happened to run second would make per-request
  // deltas scheduling-dependent.
  std::string Frames;
  for (uint64_t K = 1; K <= 6; ++K) {
    Request R;
    R.Id = K;
    R.Text = SimpleFunc;
    Frames += encodeRequest(R);
  }
  ServerOptions Opts;
  Opts.NumWorkers = 1;
  Opts.CollectRecords = true;
  Server S(Opts);
  StatsSnapshot Before = StatsRegistry::instance().snapshot();
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, Frames, Responses, &S), 0);
  StatsSnapshot Delta =
      StatsRegistry::delta(Before, StatsRegistry::instance().snapshot());
  EXPECT_GT(Delta["server.arena_reuse_bytes"], 0u)
      << "the warm path never reissued a recycled chunk";
  ASSERT_EQ(S.records().size(), 6u);
  for (const RequestRecord &R : S.records())
    EXPECT_EQ(R.Counters.count("server.arena_reuse_bytes"), 0u)
        << "arena reuse leaked into a per-request snapshot";
}

//===----------------------------------------------------------------------===//
// Socket transport
//===----------------------------------------------------------------------===//

namespace {

bool writeBytes(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = write(Fd, Data.data() + Off, Data.size() - Off);
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

std::string readToEof(int Fd) {
  std::string Bytes;
  char Buf[65536];
  for (ssize_t N; (N = read(Fd, Buf, sizeof(Buf))) > 0;)
    Bytes.append(Buf, static_cast<size_t>(N));
  return Bytes;
}

} // namespace

TEST(ServerSocket, LoopbackRoundTripMatchesOneShot) {
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Server S(Opts);
  std::atomic<bool> Stop{false};
  std::string Path =
      "/tmp/lao-servertests-" + std::to_string(getpid()) + "-rt.sock";
  std::string Error;
  int ListenFd = listenUnixSocket(Path, Error);
  ASSERT_GE(ListenFd, 0) << Error;
  std::thread Acceptor([&] { runSocketServer(S, ListenFd, Stop); });

  int Fd = connectUnixSocket(Path, Error);
  ASSERT_GE(Fd, 0) << Error;
  Request R;
  R.Id = 1;
  R.Text = SimpleFunc;
  BatchRequest B;
  B.Id = 2;
  B.Texts = {SimpleFunc, SimpleFunc};
  ASSERT_TRUE(writeBytes(Fd, encodeRequest(R) + encodeBatchRequest(B)));
  shutdown(Fd, SHUT_WR);
  auto Responses = readAllResponses(readToEof(Fd));
  close(Fd);
  Stop.store(true);
  Acceptor.join();
  close(ListenFd);
  unlink(Path.c_str());

  ASSERT_EQ(Responses.size(), 2u);
  std::string Expected = oneShot(SimpleFunc);
  EXPECT_EQ(Responses[0].Kind, FrameKind::Single);
  EXPECT_TRUE(Responses[0].Single.Ok) << Responses[0].Single.RecordJson;
  EXPECT_EQ(Responses[0].Single.IR, Expected);
  EXPECT_EQ(Responses[1].Kind, FrameKind::Batch);
  ASSERT_EQ(Responses[1].Batch.Items.size(), 2u);
  for (const Response &Item : Responses[1].Batch.Items)
    EXPECT_EQ(Item.IR, Expected);
}

TEST(ServerSocket, ConcurrentConnectionsStayDeterministic) {
  // Two connections share one 4-worker pool. Every response must be
  // byte-identical to a serial 1-worker stdio run of the same text,
  // and the per-request counter deltas must match too — concurrency
  // across *connections* may not bleed state any more than concurrency
  // across workers does.
  std::vector<std::string> Texts;
  for (const SuiteSpec &Spec : allSuites()) {
    for (Workload &W : Spec.Make()) {
      Texts.push_back(printFunction(*W.F));
      if (Texts.size() >= 24)
        break;
    }
    if (Texts.size() >= 24)
      break;
  }
  ASSERT_GE(Texts.size(), 8u);

  // Serial baseline: one worker, one stream, ids 1..N.
  std::string SerialFrames;
  for (size_t K = 0; K < Texts.size(); ++K) {
    Request R;
    R.Id = K + 1;
    R.Text = Texts[K];
    SerialFrames += encodeRequest(R);
  }
  ServerOptions SerialOpts;
  SerialOpts.NumWorkers = 1;
  SerialOpts.CollectRecords = true;
  Server Serial(SerialOpts);
  {
    std::istringstream In(SerialFrames);
    std::ostringstream Out;
    ASSERT_EQ(Serial.serve(In, Out), 0);
  }
  ASSERT_EQ(Serial.records().size(), Texts.size());

  ServerTally Tally;
  ServerOptions Opts;
  Opts.NumWorkers = 4;
  Opts.CollectRecords = true;
  Server S(Opts);
  std::atomic<bool> Stop{false};
  std::string Path =
      "/tmp/lao-servertests-" + std::to_string(getpid()) + "-cc.sock";
  std::string Error;
  int ListenFd = listenUnixSocket(Path, Error);
  ASSERT_GE(ListenFd, 0) << Error;
  std::thread Acceptor([&] { runSocketServer(S, ListenFd, Stop); });

  // Each connection submits every other text, both fully pipelined.
  auto Client = [&](size_t Parity, std::vector<AnyResponse> &Out) {
    std::string Err;
    int Fd = connectUnixSocket(Path, Err);
    ASSERT_GE(Fd, 0) << Err;
    std::string Frames;
    for (size_t K = Parity; K < Texts.size(); K += 2) {
      Request R;
      R.Id = K + 1; // Ids match the serial run's, so records align.
      R.Text = Texts[K];
      Frames += encodeRequest(R);
    }
    ASSERT_TRUE(writeBytes(Fd, Frames));
    shutdown(Fd, SHUT_WR);
    Out = readAllResponses(readToEof(Fd));
    close(Fd);
  };
  std::vector<AnyResponse> Even, Odd;
  std::thread C0([&] { Client(0, Even); });
  std::thread C1([&] { Client(1, Odd); });
  C0.join();
  C1.join();
  Stop.store(true);
  Acceptor.join();
  close(ListenFd);
  unlink(Path.c_str());

  // Responses arrive in per-connection submission order, byte-identical
  // to the serial run's IR for the same id.
  auto CheckStream = [&](const std::vector<AnyResponse> &Got,
                         size_t Parity) {
    ASSERT_EQ(Got.size(), (Texts.size() - Parity + 1) / 2)
        << "some requests went unanswered";
    size_t K = Parity;
    for (const AnyResponse &A : Got) {
      ASSERT_EQ(A.Kind, FrameKind::Single);
      EXPECT_EQ(A.Single.Id, K + 1) << "per-connection order broke";
      EXPECT_TRUE(A.Single.Ok) << A.Single.RecordJson;
      EXPECT_EQ(A.Single.IR, Serial.records()[K].IR)
          << "request " << K + 1;
      K += 2;
    }
  };
  ASSERT_EQ(Even.size() + Odd.size(), Texts.size());
  CheckStream(Even, 0);
  CheckStream(Odd, 1);

  // The registry tallied both connections; per-request counter deltas
  // are identical to the serial run's, matched by id.
  EXPECT_EQ(Tally.moved("requests_ok"), Texts.size());
  ASSERT_EQ(S.records().size(), Texts.size());
  std::map<uint64_t, const RequestRecord *> ById;
  for (const RequestRecord &Rec : S.records())
    ById[Rec.Id] = &Rec;
  for (const RequestRecord &Ref : Serial.records()) {
    ASSERT_TRUE(ById.count(Ref.Id));
    const RequestRecord &Got = *ById[Ref.Id];
    EXPECT_EQ(Got.IR, Ref.IR);
    EXPECT_EQ(Got.Moves, Ref.Moves);
    EXPECT_EQ(Got.Counters, Ref.Counters)
        << "cross-connection stat bleed on request " << Ref.Id;
  }
}

TEST(ServerSocket, ShutdownDrainsInFlightFrames) {
  // Frames already buffered in the kernel when the stop flag rises must
  // still be answered: the stop-aware streambuf only reports EOF once
  // the fd is quiet, and serve() flushes its reorder buffer before
  // returning 0 — the graceful-shutdown contract of SIGTERM.
  int SV[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, SV), 0);
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Server S(Opts);
  std::atomic<bool> Stop{false};
  int Rc = -1;
  std::thread Serving([&] {
    FdStreamBuf InBuf(SV[0], &Stop);
    FdStreamBuf OutBuf(SV[0]);
    std::istream In(&InBuf);
    std::ostream Out(&OutBuf);
    Rc = S.serve(In, Out);
    Out.flush();
    shutdown(SV[0], SHUT_WR);
  });

  std::string Frames;
  for (uint64_t K = 1; K <= 6; ++K) {
    Request R;
    R.Id = K;
    R.Text = SimpleFunc;
    Frames += encodeRequest(R);
  }
  ASSERT_TRUE(writeBytes(SV[1], Frames));
  // No half-close on the client side: EOF can only come from the flag.
  Stop.store(true);
  auto Responses = readAllResponses(readToEof(SV[1]));
  Serving.join();
  close(SV[0]);
  close(SV[1]);

  EXPECT_EQ(Rc, 0) << "a drained shutdown is a clean exit";
  ASSERT_EQ(Responses.size(), 6u);
  for (size_t K = 0; K < Responses.size(); ++K) {
    EXPECT_EQ(Responses[K].Single.Id, K + 1);
    EXPECT_TRUE(Responses[K].Single.Ok) << Responses[K].Single.RecordJson;
  }
}

//===----------------------------------------------------------------------===//
// Execution requests (the "exec" key)
//===----------------------------------------------------------------------===//

TEST(ServerProtocol, ExecOptionsRoundTrip) {
  Request R;
  R.Id = 31;
  R.Exec = "both";
  R.ExecArgs = {3, 4, 997};
  R.Text = "func @f {\nentry:\n  input %a\n  ret %a\n}\n";
  std::istringstream In(encodeRequest(R));
  FrameKind Kind;
  Request Back;
  BatchRequest Unused;
  std::string Error;
  ASSERT_EQ(readRequestFrame(In, FrameLimits(), Kind, Back, Unused, Error),
            FrameStatus::Ok);
  EXPECT_TRUE(Error.empty()) << Error;
  EXPECT_EQ(Back.Exec, "both");
  EXPECT_EQ(Back.ExecArgs, R.ExecArgs);
  // Requests without the keys encode without them and decode to the
  // "no execution" defaults.
  Request Plain;
  Plain.Id = 32;
  Plain.Text = R.Text;
  std::string Encoded = encodeRequest(Plain);
  EXPECT_EQ(Encoded.find("exec"), std::string::npos) << Encoded;
  std::istringstream In2(Encoded);
  ASSERT_EQ(readRequestFrame(In2, FrameLimits(), Kind, Back, Unused, Error),
            FrameStatus::Ok);
  EXPECT_TRUE(Back.Exec.empty());
  EXPECT_TRUE(Back.ExecArgs.empty());
}

TEST(ServerProtocol, BadExecArgsIsBodyLevelError) {
  std::string Body = "exec: vm\nexec_args: 1,x,3\n\n"
                     "func @f {\nentry:\n  input %a\n  ret %a\n}\n";
  std::string Frame =
      "LAO1 REQ 33 " + std::to_string(Body.size()) + "\n" + Body + "\n";
  std::istringstream In(Frame);
  FrameKind Kind;
  Request Back;
  BatchRequest Unused;
  std::string Error;
  ASSERT_EQ(readRequestFrame(In, FrameLimits(), Kind, Back, Unused, Error),
            FrameStatus::Ok);
  EXPECT_EQ(Back.Id, 33u);
  EXPECT_NE(Error.find("exec_args"), std::string::npos) << Error;
}

TEST(ServerProtocol, SignedOrNonDecimalNumberIsBodyLevelError) {
  // Numbers are decimal digits only: "-1" must not wrap to 2^64-1.
  for (const char *Value : {"-1", "+5", "5x", "0x10", ""}) {
    std::string Body = std::string("deadline_ms: ") + Value +
                       "\n\nfunc @f {\nentry:\n  input %a\n  ret %a\n}\n";
    std::string Frame =
        "LAO1 REQ 34 " + std::to_string(Body.size()) + "\n" + Body + "\n";
    std::istringstream In(Frame);
    FrameKind Kind;
    Request Back;
    BatchRequest Unused;
    std::string Error;
    ASSERT_EQ(readRequestFrame(In, FrameLimits(), Kind, Back, Unused, Error),
              FrameStatus::Ok);
    EXPECT_EQ(Back.Id, 34u);
    EXPECT_NE(Error.find("deadline_ms"), std::string::npos)
        << Value << ": " << Error;
  }
}

TEST(Server, ExecVmRequestReportsDynCounters) {
  Request R;
  R.Id = 1;
  R.Text = SimpleFunc;
  R.Exec = "vm";
  R.ExecArgs = {3, 4};
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Opts.CollectRecords = true;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, encodeRequest(R), Responses, &S), 0);
  ASSERT_EQ(Responses.size(), 1u);
  EXPECT_TRUE(Responses[0].Ok) << Responses[0].RecordJson;
  // The compiled function still matches the one-shot pipeline byte for
  // byte: execution is observation, not transformation.
  EXPECT_EQ(Responses[0].IR, oneShot(SimpleFunc));

  ASSERT_EQ(S.records().size(), 1u);
  const RequestRecord &Rec = S.records()[0];
  EXPECT_TRUE(Rec.HasExec);
  EXPECT_EQ(Rec.ExecEngine, "vm");
  EXPECT_EQ(Rec.ExecStatus, "ok");
  // 3 < 4 takes the then-branch: ret (3 addi 1) = 4.
  EXPECT_EQ(Rec.ExecRet, 4u);
  EXPECT_GT(Rec.DynInstrs, 0u);
  EXPECT_NE(Responses[0].RecordJson.find("\"exec_engine\":\"vm\""),
            std::string::npos)
      << Responses[0].RecordJson;
  EXPECT_NE(Responses[0].RecordJson.find("\"exec_ret\":4"), std::string::npos)
      << Responses[0].RecordJson;
  EXPECT_NE(Responses[0].RecordJson.find("\"dyn_instrs\":"), std::string::npos)
      << Responses[0].RecordJson;
  // Single requests attribute the VM's counter bumps to the request:
  // the exec.* deltas land in the record's counters object.
  EXPECT_EQ(Rec.Counters.count("exec.vm_runs"), 1u);
  EXPECT_EQ(Rec.Counters.at("exec.vm_runs"), 1u);
  EXPECT_EQ(Rec.Counters.at("exec.dyn_instrs"), Rec.DynInstrs);
}

TEST(Server, SsaRequestRecordCountsSSAConstruction) {
  // SSA construction's counts are registry counters, so an "ssa: 1"
  // request's record carries them: one phi at the join for %v.
  Request R;
  R.Id = 5;
  R.Text = R"(func @f {
entry:
  input %a, %b
  %v = make 1
  %c = cmplt %a, %b
  branch %c, t, j
t:
  %v = addi %a, 1
  jump j
j:
  ret %v
}
)";
  R.BuildSSA = true;
  R.Pipeline = "Lphi,ABI+C";
  ServerOptions Opts;
  Opts.NumWorkers = 1;
  Opts.CollectRecords = true;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, encodeRequest(R), Responses, &S), 0);
  ASSERT_EQ(Responses.size(), 1u);
  EXPECT_TRUE(Responses[0].Ok) << Responses[0].RecordJson;
  ASSERT_EQ(S.records().size(), 1u);
  const StatsSnapshot &C = S.records()[0].Counters;
  ASSERT_EQ(C.count("ssa.phis_inserted"), 1u) << Responses[0].RecordJson;
  EXPECT_EQ(C.at("ssa.phis_inserted"), 1u);
  ASSERT_EQ(C.count("ssa.vars_renamed"), 1u) << Responses[0].RecordJson;
  EXPECT_GT(C.at("ssa.vars_renamed"), 0u);
  EXPECT_NE(Responses[0].RecordJson.find("\"ssa.phis_inserted\":1"),
            std::string::npos)
      << Responses[0].RecordJson;
}

TEST(Server, ExecBothRunsTheInProcessDifferential) {
  Request R;
  R.Id = 7;
  R.Text = SimpleFunc;
  R.Exec = "both";
  R.ExecArgs = {9, 2};
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Opts.CollectRecords = true;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, encodeRequest(R), Responses, &S), 0);
  ASSERT_EQ(Responses.size(), 1u);
  EXPECT_TRUE(Responses[0].Ok) << Responses[0].RecordJson;
  ASSERT_EQ(S.records().size(), 1u);
  const RequestRecord &Rec = S.records()[0];
  EXPECT_TRUE(Rec.HasExec);
  EXPECT_EQ(Rec.ExecEngine, "both");
  EXPECT_EQ(Rec.ExecStatus, "ok");
  // 9 < 2 is false: ret (2 addi 2) = 4 via the else-branch.
  EXPECT_EQ(Rec.ExecRet, 4u);
}

TEST(Server, UnknownExecEngineIsPerRequestError) {
  Request Bad;
  Bad.Id = 1;
  Bad.Text = SimpleFunc;
  Bad.Exec = "jit";
  Request Good;
  Good.Id = 2;
  Good.Text = SimpleFunc;
  Good.Exec = "interp";
  Good.ExecArgs = {1, 2};
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, encodeRequest(Bad) + encodeRequest(Good),
                        Responses),
            0);
  ASSERT_EQ(Responses.size(), 2u);
  EXPECT_FALSE(Responses[0].Ok);
  EXPECT_NE(Responses[0].RecordJson.find("unknown_preset"), std::string::npos)
      << Responses[0].RecordJson;
  EXPECT_NE(Responses[0].RecordJson.find("unknown exec engine"),
            std::string::npos)
      << Responses[0].RecordJson;
  EXPECT_TRUE(Responses[1].Ok) << Responses[1].RecordJson;
  EXPECT_NE(Responses[1].RecordJson.find("\"exec_engine\":\"interp\""),
            std::string::npos)
      << Responses[1].RecordJson;
}

TEST(Server, ExecTimeoutIsAResultNotARequestError) {
  // A spin loop exhausts the fixed step budget; the request still
  // succeeds — the timeout is recorded as the execution's status.
  const char *Spin = R"(
func @spin {
entry:
  input %a
  jump loop
loop:
  jump loop
}
)";
  Request R;
  R.Id = 1;
  R.Text = Spin;
  R.Exec = "both";
  R.ExecArgs = {1};
  ServerOptions Opts;
  Opts.NumWorkers = 1;
  Opts.CollectRecords = true;
  Server S(Opts);
  std::vector<Response> Responses;
  EXPECT_EQ(serveFrames(Opts, encodeRequest(R), Responses, &S), 0);
  ASSERT_EQ(Responses.size(), 1u);
  EXPECT_TRUE(Responses[0].Ok) << Responses[0].RecordJson;
  ASSERT_EQ(S.records().size(), 1u);
  EXPECT_EQ(S.records()[0].ExecStatus, "timeout");
  EXPECT_NE(Responses[0].RecordJson.find("\"exec_status\":\"timeout\""),
            std::string::npos)
      << Responses[0].RecordJson;
}

TEST(Server, BatchItemsInheritExecOptions) {
  BatchRequest B;
  B.Id = 50;
  B.Exec = "both";
  B.ExecArgs = {5, 6};
  B.Texts = {SimpleFunc, SimpleFunc, SimpleFunc};
  ServerOptions Opts;
  Opts.NumWorkers = 2;
  Opts.CollectRecords = true;
  Server S(Opts);
  std::istringstream In(encodeBatchRequest(B));
  std::ostringstream OutBytes;
  EXPECT_EQ(S.serve(In, OutBytes), 0);
  std::istringstream Rsp(OutBytes.str());
  FrameKind Kind;
  Response Single;
  BatchResponse Back;
  std::string Error;
  ASSERT_EQ(readResponseFrame(Rsp, FrameLimits(), Kind, Single, Back, Error),
            FrameStatus::Ok);
  ASSERT_EQ(Kind, FrameKind::Batch);
  EXPECT_TRUE(Back.Ok) << Back.SummaryJson;
  ASSERT_EQ(Back.Items.size(), 3u);
  for (const Response &Item : Back.Items) {
    EXPECT_TRUE(Item.Ok) << Item.RecordJson;
    // 5 < 6: ret (5 addi 1) = 6 on every item.
    EXPECT_NE(Item.RecordJson.find("\"exec_ret\":6"), std::string::npos)
        << Item.RecordJson;
    EXPECT_NE(Item.RecordJson.find("\"exec_engine\":\"both\""),
              std::string::npos)
        << Item.RecordJson;
  }
  ASSERT_EQ(S.records().size(), 3u);
  for (const RequestRecord &Rec : S.records()) {
    EXPECT_TRUE(Rec.HasExec);
    EXPECT_EQ(Rec.ExecRet, 6u);
    // Each item keeps its own StatsScope: the VM's dyn counters in it
    // are the record's.
    EXPECT_GT(Rec.DynInstrs, 0u);
    ASSERT_TRUE(Rec.Counters.count("exec.dyn_instrs"));
    EXPECT_EQ(Rec.Counters.at("exec.dyn_instrs"), Rec.DynInstrs);
  }
}
