//===- tests/test_farm.cpp - Build farm: TCP, tenants, router, scrape -----------===//
//
// The farm layer must not weaken any guarantee the Unix-socket daemon
// gives: the TCP transport enforces the same frame caps and version
// checks before buffering a byte; tenant auth gates compiles and
// shutdown with the documented Unauthorized status; fair-share
// admission honors weights and quotas exactly; the router relays
// backend responses byte-for-byte and survives a dead shard; and the
// /metrics scrape shares the compile port without confusing either
// protocol. Fuzzed, truncated, or mis-versioned streams may do nothing
// but produce a clean error on the offending connection.
//
//===----------------------------------------------------------------------===//

#include "driver/CompileCache.h"
#include "farm/FairShare.h"
#include "farm/Http.h"
#include "farm/Net.h"
#include "farm/Router.h"
#include "farm/Tenant.h"
#include "obs/Json.h"
#include "obs/Trace.h"
#include "server/Client.h"
#include "server/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ftw.h>
#include <memory>
#include <set>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace smltc;
using namespace smltc::server;

namespace {

int rmOne(const char *Path, const struct stat *, int, struct FTW *) {
  return ::remove(Path);
}

void rmTree(const std::string &Path) {
  if (!Path.empty())
    ::nftw(Path.c_str(), rmOne, 16, FTW_DEPTH | FTW_PHYS);
}

std::string uniqueSocketPath() {
  static int Counter = 0;
  return "/tmp/smltc_farm_" + std::to_string(::getpid()) + "_" +
         std::to_string(Counter++) + ".sock";
}

std::string makeTempDir() {
  char Buf[] = "/tmp/smltc_farm_cache_XXXXXX";
  const char *D = ::mkdtemp(Buf);
  EXPECT_NE(D, nullptr);
  return D ? D : "";
}

std::string writeTempFile(const std::string &Contents) {
  char Buf[] = "/tmp/smltc_farm_tok_XXXXXX";
  int Fd = ::mkstemp(Buf);
  EXPECT_GE(Fd, 0);
  EXPECT_EQ(::write(Fd, Contents.data(), Contents.size()),
            static_cast<ssize_t>(Contents.size()));
  ::close(Fd);
  return Buf;
}

struct TestServer {
  explicit TestServer(ServerOptions SO) : Srv(std::move(SO)) {
    std::string Err;
    Ok = Srv.start(Err);
    EXPECT_TRUE(Ok) << Err;
    if (Ok)
      Th = std::thread([this] { Srv.run(); });
  }
  ~TestServer() { stop(); }
  void stop() {
    if (Th.joinable()) {
      Srv.requestStop();
      Th.join();
    }
  }
  CompileServer Srv;
  std::thread Th;
  bool Ok = false;
};

struct TestRouter {
  explicit TestRouter(farm::RouterOptions RO) : Rtr(std::move(RO)) {
    std::string Err;
    Ok = Rtr.start(Err);
    EXPECT_TRUE(Ok) << Err;
    if (Ok)
      Th = std::thread([this] {
        Rtr.run();
        Returned = true;
      });
  }
  ~TestRouter() { stop(); }
  void stop() {
    if (Th.joinable()) {
      Rtr.requestStop();
      Th.join();
    }
  }
  farm::FarmRouter Rtr;
  std::atomic<bool> Returned{false}; ///< run() has returned
  std::thread Th;
  bool Ok = false;
};

Client connectedClient(const std::string &Target) {
  Client C;
  std::string Err;
  EXPECT_TRUE(C.connect(Target, Err)) << Err << " (" << Target << ")";
  return C;
}

std::string tcpTarget(const std::string &HostPort) {
  return std::string(farm::kTcpScheme) + HostPort;
}

/// A raw TCP connection with no framing help: the tool for sending the
/// server bytes a well-behaved Client never would.
struct RawTcp {
  explicit RawTcp(const std::string &HostPort) {
    std::string Err;
    Fd = farm::connectTcp(HostPort, Err);
    EXPECT_GE(Fd, 0) << Err;
  }
  ~RawTcp() {
    if (Fd >= 0)
      ::close(Fd);
  }
  bool send(const std::string &Bytes) {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                         MSG_NOSIGNAL);
      if (N < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      Off += static_cast<size_t>(N);
    }
    return true;
  }
  /// Bounds every later read, so a peer that never answers fails the
  /// test instead of hanging it.
  void recvTimeout(int Ms) {
    timeval TV;
    TV.tv_sec = Ms / 1000;
    TV.tv_usec = (Ms % 1000) * 1000;
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));
  }
  /// Reads one frame; false when the peer closes or the read times out.
  bool recvFrame(Frame &F) {
    char Buf[4096];
    for (;;) {
      size_t Consumed = 0;
      Status St;
      std::string Msg;
      if (parseFrame(In.data(), In.size(), F, Consumed, St, Msg) ==
          ParseResult::Ok) {
        In.erase(0, Consumed);
        return true;
      }
      ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      if (N <= 0)
        return false;
      In.append(Buf, static_cast<size_t>(N));
    }
  }
  /// Reads until the peer closes (or error); returns everything seen.
  std::string drain() {
    std::string All;
    char Buf[4096];
    for (;;) {
      ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      if (N > 0) {
        All.append(Buf, static_cast<size_t>(N));
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      return All;
    }
  }
  int Fd = -1;
  std::string In; ///< bytes read past the last frame
};

/// Parses exactly one frame out of `Bytes`; fails the test otherwise.
Frame mustParseFrame(const std::string &Bytes) {
  Frame F;
  size_t Consumed = 0;
  Status St;
  std::string Msg;
  EXPECT_EQ(parseFrame(Bytes.data(), Bytes.size(), F, Consumed, St, Msg),
            ParseResult::Ok)
      << Msg;
  return F;
}

const char *kTokenFileText = "# test tenants\n"
                             "team-a token-aaaaaaaa 3 8 64\n"
                             "team-b token-bbbbbbbb 1 2 4\n";

} // namespace

//===----------------------------------------------------------------------===//
// Net: address parsing
//===----------------------------------------------------------------------===//

TEST(FarmNetTest, SplitHostPortAcceptsV4V6AndRejectsGarbage) {
  std::string H, P, Err;
  EXPECT_TRUE(farm::splitHostPort("127.0.0.1:9000", H, P, Err));
  EXPECT_EQ(H, "127.0.0.1");
  EXPECT_EQ(P, "9000");

  EXPECT_TRUE(farm::splitHostPort("[::1]:8080", H, P, Err));
  EXPECT_EQ(H, "::1");
  EXPECT_EQ(P, "8080");

  EXPECT_TRUE(farm::splitHostPort("localhost:0", H, P, Err));
  EXPECT_EQ(P, "0");

  EXPECT_FALSE(farm::splitHostPort("no-port-here", H, P, Err));
  EXPECT_FALSE(farm::splitHostPort(":9000", H, P, Err));
  EXPECT_FALSE(farm::splitHostPort("host:", H, P, Err));
  EXPECT_FALSE(farm::splitHostPort("host:notanumber", H, P, Err));
  EXPECT_FALSE(farm::splitHostPort("host:70000", H, P, Err));
  EXPECT_FALSE(farm::splitHostPort("[::1]9000", H, P, Err));
  EXPECT_FALSE(farm::splitHostPort("", H, P, Err));
}

TEST(FarmNetTest, TcpSchemeDetection) {
  EXPECT_TRUE(farm::isTcpTarget("tcp://127.0.0.1:1"));
  EXPECT_FALSE(farm::isTcpTarget("/tmp/some.sock"));
  EXPECT_EQ(farm::stripTcpScheme("tcp://h:1"), "h:1");
  EXPECT_EQ(farm::stripTcpScheme("/tmp/some.sock"), "/tmp/some.sock");
}

//===----------------------------------------------------------------------===//
// Http: sniffing, parsing, rendering
//===----------------------------------------------------------------------===//

TEST(FarmHttpTest, SniffDistinguishesMethodsFromFrames) {
  EXPECT_TRUE(farm::looksLikeHttp("GET /metrics HTTP/1.1\r\n"));
  EXPECT_TRUE(farm::looksLikeHttp("HEAD /metrics HTTP/1.1\r\n"));
  // Partial prefixes stay false until the full method is visible.
  EXPECT_FALSE(farm::looksLikeHttp("GE"));
  EXPECT_FALSE(farm::looksLikeHttp("GET"));
  EXPECT_TRUE(farm::looksLikeHttp("GET "));
  // A protocol frame never sniffs as HTTP.
  EXPECT_FALSE(farm::looksLikeHttp(encodeFrame(MsgType::Ping, "x")));
  EXPECT_FALSE(farm::looksLikeHttp(""));
}

TEST(FarmHttpTest, ParseRequestHead) {
  std::string M, P;
  EXPECT_EQ(farm::parseHttpRequest("GET /metrics HTTP/1.1\r\nHost: x\r\n",
                                   M, P),
            farm::HttpParse::NeedMore);
  EXPECT_EQ(farm::parseHttpRequest(
                "GET /metrics?x=1 HTTP/1.1\r\nHost: x\r\n\r\n", M, P),
            farm::HttpParse::Ok);
  EXPECT_EQ(M, "GET");
  EXPECT_EQ(P, "/metrics"); // query string stripped
  EXPECT_EQ(farm::parseHttpRequest("NONSENSE\r\n\r\n", M, P),
            farm::HttpParse::Bad);
  // Over the head cap without a blank line: reject, don't buffer on.
  std::string Huge = "GET /metrics HTTP/1.1\r\n";
  Huge.append(farm::kMaxHttpHeadBytes, 'h');
  EXPECT_EQ(farm::parseHttpRequest(Huge, M, P), farm::HttpParse::Bad);
}

TEST(FarmHttpTest, ResponseRendering) {
  std::string R = farm::httpResponse(200, farm::kPromContentType, "body\n");
  EXPECT_NE(R.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(R.find("Content-Length: 5"), std::string::npos);
  EXPECT_NE(R.find("Connection: close"), std::string::npos);
  EXPECT_EQ(R.substr(R.size() - 5), "body\n");

  std::string Head =
      farm::httpResponse(200, farm::kPromContentType, "body\n", true);
  EXPECT_NE(Head.find("Content-Length: 5"), std::string::npos);
  EXPECT_EQ(Head.find("body"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Tenant registry: token-file parsing
//===----------------------------------------------------------------------===//

TEST(FarmTenantTest, ParsesFileWithDefaultsAndComments) {
  farm::TenantRegistry R;
  std::string Err;
  ASSERT_TRUE(R.parse(kTokenFileText, Err)) << Err;
  ASSERT_EQ(R.tenants().size(), 2u);

  const farm::TenantConfig *A = R.byToken("token-aaaaaaaa");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->Name, "team-a");
  EXPECT_EQ(A->Weight, 3u);
  EXPECT_EQ(A->MaxInFlight, 8u);
  EXPECT_EQ(A->MaxQueued, 64u);

  // Omitted trailing fields take the struct defaults.
  farm::TenantRegistry R2;
  ASSERT_TRUE(R2.parse("solo token-ssssssss\n", Err)) << Err;
  const farm::TenantConfig *S = R2.byName("solo");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Weight, 1u);
  EXPECT_EQ(S->MaxInFlight, 8u);
  EXPECT_EQ(S->MaxQueued, 64u);

  EXPECT_EQ(R.byToken("nope"), nullptr);
  EXPECT_EQ(R.byName("nope"), nullptr);
}

TEST(FarmTenantTest, RejectsMalformedFilesWholesale) {
  farm::TenantRegistry R;
  std::string Err;
  // Token under the 8-char floor.
  EXPECT_FALSE(R.parse("t short\n", Err));
  // Zero / non-numeric weight.
  EXPECT_FALSE(R.parse("t token-tttttttt 0\n", Err));
  EXPECT_FALSE(R.parse("t token-tttttttt notanum\n", Err));
  // Label-unsafe tenant name.
  EXPECT_FALSE(R.parse("bad!name token-tttttttt\n", Err));
  // Duplicate name / duplicate token: the whole file is refused.
  EXPECT_FALSE(R.parse("t token-aaaaaaaa\nt token-bbbbbbbb\n", Err));
  EXPECT_FALSE(R.parse("t1 token-aaaaaaaa\nt2 token-aaaaaaaa\n", Err));
  // An empty tenant set is an error, not a silently open farm.
  EXPECT_FALSE(R.parse("# only comments\n\n", Err));
  EXPECT_FALSE(Err.empty());
}

//===----------------------------------------------------------------------===//
// Fair-share scheduler
//===----------------------------------------------------------------------===//

namespace {

farm::QueuedJob trivialJob(uint64_t Seq) {
  farm::QueuedJob J;
  J.ConnId = 1;
  J.Seq = Seq;
  J.Job.Source = "val it = 1";
  return J;
}

farm::TenantConfig tenantCfg(const std::string &Name, uint32_t Weight,
                             uint32_t MaxInFlight = 0,
                             uint32_t MaxQueued = 0) {
  farm::TenantConfig C;
  C.Name = Name;
  C.Token = "token-" + Name + "-xxxxxxxx";
  C.Weight = Weight;
  C.MaxInFlight = MaxInFlight;
  C.MaxQueued = MaxQueued;
  return C;
}

} // namespace

TEST(FarmFairShareTest, WeightedAdmissionRatio) {
  farm::FairShareScheduler S(0);
  farm::FairShareScheduler::Tenant &A = S.addTenant(tenantCfg("a", 3));
  farm::FairShareScheduler::Tenant &B = S.addTenant(tenantCfg("b", 1));

  for (uint64_t I = 0; I < 40; ++I) {
    ASSERT_EQ(S.enqueue(A, trivialJob(I)),
              farm::FairShareScheduler::Verdict::Queued);
    ASSERT_EQ(S.enqueue(B, trivialJob(100 + I)),
              farm::FairShareScheduler::Verdict::Queued);
  }

  // Release (and immediately complete) 40 jobs; weight 3:1 must admit
  // in a 3:1 ratio under continuous contention.
  size_t FromA = 0, FromB = 0;
  for (int I = 0; I < 40; ++I) {
    farm::QueuedJob J;
    farm::FairShareScheduler::Tenant *Owner = nullptr;
    ASSERT_TRUE(S.popNext(J, Owner));
    ASSERT_NE(Owner, nullptr);
    (Owner == &A ? FromA : FromB)++;
    S.onComplete(*Owner);
  }
  EXPECT_EQ(FromA, 30u);
  EXPECT_EQ(FromB, 10u);
}

TEST(FarmFairShareTest, TenantQuotaThenGlobalCap) {
  farm::FairShareScheduler S(5);
  farm::FairShareScheduler::Tenant &A =
      S.addTenant(tenantCfg("a", 1, 0, 2)); // MaxQueued = 2
  farm::FairShareScheduler::Tenant &B = S.addTenant(tenantCfg("b", 1));

  EXPECT_EQ(S.enqueue(A, trivialJob(1)),
            farm::FairShareScheduler::Verdict::Queued);
  EXPECT_EQ(S.enqueue(A, trivialJob(2)),
            farm::FairShareScheduler::Verdict::Queued);
  // A's own quota bites while the farm-wide queue still has room...
  EXPECT_EQ(S.enqueue(A, trivialJob(3)),
            farm::FairShareScheduler::Verdict::TenantQueueFull);
  // ...and B is unaffected by A's flood.
  EXPECT_EQ(S.enqueue(B, trivialJob(4)),
            farm::FairShareScheduler::Verdict::Queued);
  EXPECT_EQ(S.enqueue(B, trivialJob(5)),
            farm::FairShareScheduler::Verdict::Queued);
  EXPECT_EQ(S.enqueue(B, trivialJob(6)),
            farm::FairShareScheduler::Verdict::Queued);
  EXPECT_EQ(S.totalQueued(), 5u);
  // The global cap backs up the per-tenant quotas.
  EXPECT_EQ(S.enqueue(B, trivialJob(7)),
            farm::FairShareScheduler::Verdict::GlobalQueueFull);
}

TEST(FarmFairShareTest, InFlightQuotaGatesRelease) {
  farm::FairShareScheduler S(0);
  farm::FairShareScheduler::Tenant &A =
      S.addTenant(tenantCfg("a", 1, 1)); // MaxInFlight = 1

  ASSERT_EQ(S.enqueue(A, trivialJob(1)),
            farm::FairShareScheduler::Verdict::Queued);
  ASSERT_EQ(S.enqueue(A, trivialJob(2)),
            farm::FairShareScheduler::Verdict::Queued);

  farm::QueuedJob J;
  farm::FairShareScheduler::Tenant *Owner = nullptr;
  ASSERT_TRUE(S.popNext(J, Owner));
  EXPECT_EQ(J.Seq, 1u);
  // One in flight = at quota: nothing releases until completion.
  EXPECT_FALSE(S.popNext(J, Owner));
  S.onComplete(A);
  ASSERT_TRUE(S.popNext(J, Owner));
  EXPECT_EQ(J.Seq, 2u);
}

TEST(FarmFairShareTest, DrainReturnsEverythingQueued) {
  farm::FairShareScheduler S(0);
  farm::FairShareScheduler::Tenant &A = S.addTenant(tenantCfg("a", 1));
  farm::FairShareScheduler::Tenant &B = S.addTenant(tenantCfg("b", 2));
  for (uint64_t I = 0; I < 3; ++I) {
    S.enqueue(A, trivialJob(I));
    S.enqueue(B, trivialJob(10 + I));
  }
  std::vector<farm::QueuedJob> Drained = S.drainAll();
  EXPECT_EQ(Drained.size(), 6u);
  EXPECT_EQ(S.totalQueued(), 0u);
  farm::QueuedJob J;
  farm::FairShareScheduler::Tenant *Owner = nullptr;
  EXPECT_FALSE(S.popNext(J, Owner));
}

//===----------------------------------------------------------------------===//
// TCP transport: handshake, caps, teardown
//===----------------------------------------------------------------------===//

namespace {

ServerOptions tcpServerOptions() {
  ServerOptions SO;
  SO.ListenAddr = "127.0.0.1:0";
  return SO;
}

} // namespace

TEST(FarmTcpServerTest, CompileOverTcpIsByteIdenticalToLocal) {
  TestServer TS(tcpServerOptions());
  ASSERT_TRUE(TS.Ok);
  Client C = connectedClient(tcpTarget(TS.Srv.tcpAddr()));

  CompileRequest Req;
  Req.Source = "val it = 6 * 7";
  CompileResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err;
  ASSERT_EQ(Resp.St, Status::Ok);

  CompileOutput Local =
      Compiler::compile(Req.Source, Req.Opts, Req.WithPrelude);
  ASSERT_TRUE(Local.Ok);
  EXPECT_EQ(programBytes(Resp.Program), programBytes(Local.Program));

  // Second request on the same connection: memory tier now.
  ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err;
  EXPECT_EQ(Resp.Tier, WireTier::Memory);
  EXPECT_EQ(programBytes(Resp.Program), programBytes(Local.Program));
}

TEST(FarmTcpServerTest, VersionMismatchIsRejectedAtHandshake) {
  TestServer TS(tcpServerOptions());
  ASSERT_TRUE(TS.Ok);
  RawTcp Raw(TS.Srv.tcpAddr());

  HelloMsg H;
  H.ClientName = "old-client";
  std::string Wire = encodeFrame(MsgType::Hello, encodeHello(H));
  Wire[9] = 2; // stamp the previous protocol version
  ASSERT_TRUE(Raw.send(Wire));

  Frame F = mustParseFrame(Raw.drain());
  ASSERT_EQ(F.Type, MsgType::Error);
  ErrorMsg E;
  ASSERT_TRUE(decodeError(F.Payload, E));
  EXPECT_EQ(E.St, Status::BadVersion);
}

TEST(FarmTcpServerTest, OversizedFrameRejectedFromHeaderAlone) {
  TestServer TS(tcpServerOptions());
  ASSERT_TRUE(TS.Ok);
  RawTcp Raw(TS.Srv.tcpAddr());

  // A 12-byte header declaring an over-cap payload — and not one byte
  // more. The server must reject from the header, not wait for data.
  std::string Header = encodeFrame(MsgType::CompileReq, "");
  uint32_t Len = kMaxFramePayload + 1;
  for (int I = 0; I < 4; ++I)
    Header[4 + I] = static_cast<char>((Len >> (8 * I)) & 0xff);
  ASSERT_TRUE(Raw.send(Header.substr(0, kFrameHeaderBytes)));

  Frame F = mustParseFrame(Raw.drain());
  ASSERT_EQ(F.Type, MsgType::Error);
  ErrorMsg E;
  ASSERT_TRUE(decodeError(F.Payload, E));
  EXPECT_EQ(E.St, Status::FrameTooLarge);
}

TEST(FarmTcpServerTest, TruncatedFrameTeardownLeavesServerServing) {
  TestServer TS(tcpServerOptions());
  ASSERT_TRUE(TS.Ok);
  {
    // Send half a valid frame, then vanish mid-message.
    RawTcp Raw(TS.Srv.tcpAddr());
    std::string Wire =
        encodeFrame(MsgType::Hello, encodeHello(HelloMsg{}));
    ASSERT_TRUE(Raw.send(Wire.substr(0, Wire.size() / 2)));
  }
  // The abandoned connection must not have wedged the poll loop.
  Client C = connectedClient(tcpTarget(TS.Srv.tcpAddr()));
  std::string Err;
  EXPECT_TRUE(C.ping("still-alive", Err)) << Err;
}

TEST(FarmTcpServerTest, MalformedTenantAuthFuzzNeverKillsServer) {
  ServerOptions SO = tcpServerOptions();
  std::string TokFile = writeTempFile(kTokenFileText);
  SO.TokenFile = TokFile;
  TestServer TS(SO);
  ASSERT_TRUE(TS.Ok);

  // Deterministic LCG so a failure reproduces from the seed alone.
  uint64_t Rng = 0x5eedf00dcafef00dull;
  auto Next = [&Rng] {
    Rng = Rng * 6364136223846793005ull + 1442695040888963407ull;
    return Rng >> 33;
  };
  for (int Round = 0; Round < 48; ++Round) {
    RawTcp Raw(TS.Srv.tcpAddr());
    std::string Wire = encodeFrame(MsgType::Hello, encodeHello(HelloMsg{}));
    // A TenantAuth payload of random bytes, random length (including
    // empty and over the token cap).
    size_t Len = Next() % 700;
    std::string Fuzz(Len, '\0');
    for (size_t I = 0; I < Len; ++I)
      Fuzz[I] = static_cast<char>(Next() & 0xff);
    Wire += encodeFrame(MsgType::TenantAuth, Fuzz);
    ASSERT_TRUE(Raw.send(Wire));
    Raw.drain(); // server answers HelloOk then an error, then closes
  }
  // After all that abuse a clean client still authenticates and pings.
  Client C = connectedClient(tcpTarget(TS.Srv.tcpAddr()));
  AuthOkMsg Ok;
  std::string Err;
  ASSERT_TRUE(C.authenticate("token-aaaaaaaa", Ok, Err)) << Err;
  EXPECT_TRUE(C.ping("survived", Err)) << Err;
  rmTree(TokFile);
}

//===----------------------------------------------------------------------===//
// Tenant auth over the wire
//===----------------------------------------------------------------------===//

TEST(FarmAuthTest, CompileRequiresAuthWhenTokenFileIsSet) {
  ServerOptions SO = tcpServerOptions();
  std::string TokFile = writeTempFile(kTokenFileText);
  SO.TokenFile = TokFile;
  TestServer TS(SO);
  ASSERT_TRUE(TS.Ok);

  Client C = connectedClient(tcpTarget(TS.Srv.tcpAddr()));
  CompileRequest Req;
  Req.Source = "val it = 1";
  CompileResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err;
  EXPECT_EQ(Resp.St, Status::Unauthorized);

  // Authenticate; the same connection may now compile.
  AuthOkMsg Ok;
  ASSERT_TRUE(C.authenticate("token-bbbbbbbb", Ok, Err)) << Err;
  EXPECT_EQ(Ok.Tenant, "team-b");
  EXPECT_EQ(Ok.Weight, 1u);
  EXPECT_EQ(Ok.MaxInFlight, 2u);
  EXPECT_EQ(Ok.MaxQueued, 4u);
  ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err;
  EXPECT_EQ(Resp.St, Status::Ok);
  rmTree(TokFile);
}

TEST(FarmAuthTest, UnknownTokenIsRejectedAndConnectionClosed) {
  ServerOptions SO = tcpServerOptions();
  std::string TokFile = writeTempFile(kTokenFileText);
  SO.TokenFile = TokFile;
  TestServer TS(SO);
  ASSERT_TRUE(TS.Ok);

  Client C = connectedClient(tcpTarget(TS.Srv.tcpAddr()));
  AuthOkMsg Ok;
  std::string Err;
  EXPECT_FALSE(C.authenticate("token-of-nobody", Ok, Err));
  EXPECT_EQ(C.lastErrorStatus(), Status::Unauthorized);
  // The server hangs up on failed auth: the next round trip fails at
  // the transport level.
  EXPECT_FALSE(C.ping("anyone-there", Err));
  rmTree(TokFile);
}

TEST(FarmAuthTest, ShutdownRequiresAuthWhenTokenFileIsSet) {
  ServerOptions SO = tcpServerOptions();
  std::string TokFile = writeTempFile(kTokenFileText);
  SO.TokenFile = TokFile;
  TestServer TS(SO);
  ASSERT_TRUE(TS.Ok);

  {
    Client C = connectedClient(tcpTarget(TS.Srv.tcpAddr()));
    std::string Err;
    EXPECT_FALSE(C.shutdownServer(Err));
    EXPECT_EQ(C.lastErrorStatus(), Status::Unauthorized);
  }
  // Still serving — the unauthorized shutdown did nothing.
  Client C2 = connectedClient(tcpTarget(TS.Srv.tcpAddr()));
  AuthOkMsg Ok;
  std::string Err;
  ASSERT_TRUE(C2.authenticate("token-aaaaaaaa", Ok, Err)) << Err;
  EXPECT_TRUE(C2.shutdownServer(Err)) << Err;
  TS.Th.join();
  TS.Th = std::thread(); // already joined; disarm the destructor
  rmTree(TokFile);
}

TEST(FarmAuthTest, UnixSocketWithoutTokenFileStaysOpen) {
  // No token file: the implicit default tenant admits everyone — the
  // PR-3 daemon behavior is unchanged.
  ServerOptions SO;
  SO.SocketPath = uniqueSocketPath();
  TestServer TS(SO);
  ASSERT_TRUE(TS.Ok);
  Client C = connectedClient(SO.SocketPath);
  CompileRequest Req;
  Req.Source = "val it = 2";
  CompileResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err;
  EXPECT_EQ(Resp.St, Status::Ok);
  TS.stop();
  ::unlink(SO.SocketPath.c_str());
}

//===----------------------------------------------------------------------===//
// Router
//===----------------------------------------------------------------------===//

TEST(FarmRouterTest, RingLookupIsDeterministicAndDistinct) {
  farm::RouterOptions RO;
  RO.ListenAddr = "127.0.0.1:0";
  RO.Backends = {"127.0.0.1:19001", "127.0.0.1:19002", "127.0.0.1:19003"};
  farm::FarmRouter R(RO);
  std::string Err;
  ASSERT_TRUE(R.start(Err)) << Err;

  for (uint64_t Key : {0ull, 1ull, 0xdeadbeefull, ~0ull}) {
    std::vector<size_t> C1 = R.candidatesFor(Key);
    std::vector<size_t> C2 = R.candidatesFor(Key);
    EXPECT_EQ(C1, C2); // same key, same order, every time
    EXPECT_EQ(C1.size(), RO.Backends.size());
    EXPECT_EQ(std::set<size_t>(C1.begin(), C1.end()).size(), C1.size());
  }

  // Different keys spread: over many keys every backend is primary
  // somewhere.
  std::set<size_t> Primaries;
  for (uint64_t K = 0; K < 64; ++K)
    Primaries.insert(R.candidatesFor(fnv1a64(std::to_string(K)))[0]);
  EXPECT_EQ(Primaries.size(), RO.Backends.size());
  R.requestStop();
}

namespace {

struct TwoShardFarm {
  TwoShardFarm() {
    ServerOptions SO1 = tcpServerOptions(), SO2 = tcpServerOptions();
    S1 = std::make_unique<TestServer>(SO1);
    S2 = std::make_unique<TestServer>(SO2);
    farm::RouterOptions RO;
    RO.ListenAddr = "127.0.0.1:0";
    RO.Backends = {S1->Srv.tcpAddr(), S2->Srv.tcpAddr()};
    RO.RetryBaseMs = 5; // keep failover tests fast
    R = std::make_unique<TestRouter>(RO);
  }
  bool ok() const { return S1->Ok && S2->Ok && R->Ok; }
  std::unique_ptr<TestServer> S1, S2;
  std::unique_ptr<TestRouter> R;
};

} // namespace

TEST(FarmRouterTest, CompilesThroughRouterAreByteIdentical) {
  TwoShardFarm F;
  ASSERT_TRUE(F.ok());
  Client C = connectedClient(tcpTarget(F.R->Rtr.tcpAddr()));

  for (int I = 0; I < 6; ++I) {
    std::string Src = "val it = " + std::to_string(I) + " + 1";
    CompileRequest Req;
    Req.Source = Src;
    CompileResponse Resp;
    std::string Err;
    ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err;
    ASSERT_EQ(Resp.St, Status::Ok) << Resp.Errors;
    CompileOutput Local = Compiler::compile(Src, Req.Opts, Req.WithPrelude);
    ASSERT_TRUE(Local.Ok);
    EXPECT_EQ(programBytes(Resp.Program), programBytes(Local.Program));
  }

  // The same source always lands on the same shard: repeating the
  // requests must hit a warm tier, never a second cold compile.
  for (int I = 0; I < 6; ++I) {
    CompileRequest Req;
    Req.Source = "val it = " + std::to_string(I) + " + 1";
    CompileResponse Resp;
    std::string Err;
    ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err;
    EXPECT_EQ(Resp.Tier, WireTier::Memory) << "request " << I;
  }
}

TEST(FarmRouterTest, FailoverToSurvivingShard) {
  TwoShardFarm F;
  ASSERT_TRUE(F.ok());
  // Kill shard 1; every request must still succeed via shard 2.
  F.S1->stop();

  Client C = connectedClient(tcpTarget(F.R->Rtr.tcpAddr()));
  for (int I = 0; I < 4; ++I) {
    CompileRequest Req;
    Req.Source = "val it = 10 + " + std::to_string(I);
    CompileResponse Resp;
    std::string Err;
    ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err << " request " << I;
    EXPECT_EQ(Resp.St, Status::Ok);
  }

  std::string Json, Err;
  ASSERT_TRUE(C.stats(Json, Err)) << Err;
  EXPECT_NE(Json.find("\"compile_forwards\":4"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"backends\":2"), std::string::npos) << Json;
}

TEST(FarmRouterTest, AnswersPingAndStatsLocally) {
  TwoShardFarm F;
  ASSERT_TRUE(F.ok());
  Client C = connectedClient(tcpTarget(F.R->Rtr.tcpAddr()));
  std::string Err;
  EXPECT_TRUE(C.ping("router-ping", Err)) << Err;
  std::string Json;
  ASSERT_TRUE(C.stats(Json, Err)) << Err;
  EXPECT_NE(Json.find("\"unroutable\":0"), std::string::npos) << Json;
}

//===----------------------------------------------------------------------===//
// Client connect backoff
//===----------------------------------------------------------------------===//

TEST(FarmClientBackoffTest, RetriesUntilLateBindingServerAppears) {
  // Start the daemon ~120ms after the client begins connecting: the
  // first attempts see ENOENT/ECONNREFUSED and must be retried, not
  // surfaced.
  std::string Sock = uniqueSocketPath();
  std::unique_ptr<TestServer> TS;
  std::thread Starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    ServerOptions SO;
    SO.SocketPath = Sock;
    TS = std::make_unique<TestServer>(SO);
  });

  Client C;
  std::string Err;
  ConnectPolicy P;
  P.Attempts = 6;
  P.BaseDelayMs = 40;
  bool Connected = C.connect(Sock, Err, P);
  Starter.join();
  ASSERT_TRUE(Connected) << Err;
  EXPECT_TRUE(C.ping("late-bind", Err)) << Err;
  TS->stop();
  ::unlink(Sock.c_str());
}

TEST(FarmClientBackoffTest, BoundedFailureOnUnreachableTarget) {
  Client C;
  std::string Err;
  ConnectPolicy P;
  P.Attempts = 3;
  P.BaseDelayMs = 10;
  P.Jitter = false;
  auto T0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(C.connect("/tmp/smltc_farm_never_exists.sock", Err, P));
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  // Two retries at 10ms and 20ms: bounded, and provably not one-shot.
  EXPECT_GE(Ms, 30);
  EXPECT_LT(Ms, 2000);

  // Attempts=1 must fail immediately with no sleeping.
  auto T1 = std::chrono::steady_clock::now();
  P.Attempts = 1;
  EXPECT_FALSE(C.connect("/tmp/smltc_farm_never_exists.sock", Err, P));
  auto Ms1 = std::chrono::duration_cast<std::chrono::milliseconds>(
                 std::chrono::steady_clock::now() - T1)
                 .count();
  EXPECT_LT(Ms1, 50);
}

//===----------------------------------------------------------------------===//
// HTTP /metrics scrape
//===----------------------------------------------------------------------===//

TEST(FarmMetricsTest, ScrapeExposesTenantAndDiskCacheSeries) {
  ServerOptions SO = tcpServerOptions();
  std::string TokFile = writeTempFile(kTokenFileText);
  std::string CacheDir = makeTempDir();
  SO.TokenFile = TokFile;
  SO.DiskCachePath = CacheDir;
  TestServer TS(SO);
  ASSERT_TRUE(TS.Ok);

  // Generate one compile so the counters are live, not just present.
  {
    Client C = connectedClient(tcpTarget(TS.Srv.tcpAddr()));
    AuthOkMsg Ok;
    std::string Err;
    ASSERT_TRUE(C.authenticate("token-aaaaaaaa", Ok, Err)) << Err;
    CompileRequest Req;
    Req.Source = "val it = 40 + 2";
    CompileResponse Resp;
    ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err;
    ASSERT_EQ(Resp.St, Status::Ok);
  }

  RawTcp Raw(TS.Srv.tcpAddr());
  ASSERT_TRUE(
      Raw.send("GET /metrics HTTP/1.1\r\nHost: farm\r\n\r\n"));
  std::string Resp = Raw.drain();
  EXPECT_NE(Resp.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(Resp.find("text/plain; version=0.0.4"), std::string::npos);
  // Per-tenant series carry the tenant label; team-a really compiled.
  EXPECT_NE(
      Resp.find("smltcc_tenant_requests_total{tenant=\"team-a\"} 1"),
      std::string::npos)
      << Resp;
  EXPECT_NE(Resp.find("smltcc_tenant_requests_total{tenant=\"team-b\"} 0"),
            std::string::npos);
  // Satellite: disk-cache eviction/corruption counters are exported.
  EXPECT_NE(Resp.find("smltcc_disk_cache_evicted_files_total"),
            std::string::npos);
  EXPECT_NE(Resp.find("smltcc_disk_cache_corrupt_dropped_total"),
            std::string::npos);
  EXPECT_NE(Resp.find("smltcc_disk_cache_store_calls_total 1"),
            std::string::npos)
      << Resp;

  rmTree(TokFile);
  rmTree(CacheDir);
}

TEST(FarmMetricsTest, ScrapeUnknownPathIs404AndFramesStillWork) {
  TestServer TS(tcpServerOptions());
  ASSERT_TRUE(TS.Ok);
  {
    RawTcp Raw(TS.Srv.tcpAddr());
    ASSERT_TRUE(Raw.send("GET /nope HTTP/1.1\r\n\r\n"));
    std::string Resp = Raw.drain();
    EXPECT_NE(Resp.find("HTTP/1.1 404"), std::string::npos);
  }
  {
    RawTcp Raw(TS.Srv.tcpAddr());
    ASSERT_TRUE(Raw.send("HEAD /metrics HTTP/1.1\r\n\r\n"));
    std::string Resp = Raw.drain();
    EXPECT_NE(Resp.find("HTTP/1.1 200"), std::string::npos);
    EXPECT_EQ(Resp.find("smltcc_"), std::string::npos); // no body on HEAD
  }
  // The binary protocol is untouched by interleaved scrapes.
  Client C = connectedClient(tcpTarget(TS.Srv.tcpAddr()));
  std::string Err;
  EXPECT_TRUE(C.ping("frames-too", Err)) << Err;
}

TEST(FarmMetricsTest, RouterScrapeExposesBackendHealth) {
  TwoShardFarm F;
  ASSERT_TRUE(F.ok());
  RawTcp Raw(F.R->Rtr.tcpAddr());
  ASSERT_TRUE(Raw.send("GET /metrics HTTP/1.1\r\n\r\n"));
  std::string Resp = Raw.drain();
  EXPECT_NE(Resp.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(Resp.find("smltcc_router_requests_total"), std::string::npos);
  EXPECT_NE(Resp.find("smltcc_router_backend_healthy{backend="),
            std::string::npos)
      << Resp;
}

//===----------------------------------------------------------------------===//
// Distributed tracing: one trace id from client through router to shard
//===----------------------------------------------------------------------===//

namespace {

/// Every node in these in-process farms shares the one global tracer,
/// so a single snapshot sees the client, router, and shard spans of a
/// routed compile. Restores "disabled, empty" however the test exits.
struct ScopedFarmTracing {
  ScopedFarmTracing() {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
    obs::Tracer::instance().enable();
  }
  ~ScopedFarmTracing() {
    obs::Tracer::instance().disable();
    obs::Tracer::instance().clear();
  }
};

/// Finds the first completed span named `Name`, polling briefly: the
/// router's forward span closes after the response is already back at
/// the client, so a snapshot taken immediately can race it.
bool findSpan(const char *Name, obs::TraceEvent &Out) {
  for (int Try = 0; Try < 200; ++Try) {
    for (const obs::TraceEvent &E : obs::Tracer::instance().snapshot())
      if (std::string(E.Name) == Name) {
        Out = E;
        return true;
      }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// One HTTP GET against a farm node's TCP port; returns the full
/// response (head + body).
std::string httpGet(const std::string &HostPort, const std::string &Path) {
  RawTcp Raw(HostPort);
  EXPECT_TRUE(
      Raw.send("GET " + Path + " HTTP/1.1\r\nHost: farm-test\r\n\r\n"));
  return Raw.drain();
}

} // namespace

TEST(FarmTraceTest, OneTraceIdFromClientThroughRouterToShard) {
  TwoShardFarm F;
  ASSERT_TRUE(F.ok());
  ScopedFarmTracing Tr;

  {
    Client C = connectedClient(tcpTarget(F.R->Rtr.tcpAddr()));
    CompileRequest Req;
    Req.Source = "val it = 191 * 7";
    CompileResponse Resp;
    std::string Err;
    ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err;
    ASSERT_EQ(Resp.St, Status::Ok);
  }

  obs::TraceEvent Rpc, Fwd, Srv, Job;
  ASSERT_TRUE(findSpan("rpc_compile", Rpc));
  ASSERT_TRUE(findSpan("router_forward", Fwd));
  ASSERT_TRUE(findSpan("request", Srv));
  ASSERT_TRUE(findSpan("compile_job", Job));

  // One 128-bit trace id stamps every hop.
  ASSERT_TRUE((Rpc.TraceIdHi | Rpc.TraceIdLo) != 0);
  for (const obs::TraceEvent *E : {&Fwd, &Srv, &Job}) {
    EXPECT_EQ(E->TraceIdHi, Rpc.TraceIdHi);
    EXPECT_EQ(E->TraceIdLo, Rpc.TraceIdLo);
  }
  // And the parent chain reads client -> router -> shard -> worker.
  EXPECT_EQ(Rpc.ParentSpanId, 0u);
  EXPECT_EQ(Fwd.ParentSpanId, Rpc.SpanId);
  EXPECT_EQ(Srv.ParentSpanId, Fwd.SpanId);
  EXPECT_EQ(Job.ParentSpanId, Srv.SpanId);
}

TEST(FarmTraceTest, DirectCompileStillLinksClientToShard) {
  // No router in the path: the shard's request span parents straight
  // under the client's rpc span.
  TestServer TS(tcpServerOptions());
  ASSERT_TRUE(TS.Ok);
  ScopedFarmTracing Tr;

  {
    Client C = connectedClient(tcpTarget(TS.Srv.tcpAddr()));
    CompileRequest Req;
    Req.Source = "val it = 17 + 4";
    CompileResponse Resp;
    std::string Err;
    ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err;
    ASSERT_EQ(Resp.St, Status::Ok);
  }

  obs::TraceEvent Rpc, Srv;
  ASSERT_TRUE(findSpan("rpc_compile", Rpc));
  ASSERT_TRUE(findSpan("request", Srv));
  EXPECT_EQ(Srv.TraceIdHi, Rpc.TraceIdHi);
  EXPECT_EQ(Srv.TraceIdLo, Rpc.TraceIdLo);
  EXPECT_EQ(Srv.ParentSpanId, Rpc.SpanId);
}

TEST(FarmTcpServerTest, PreviousProtocolV3IsRejectedCleanly) {
  // A v3 client (no trace-context fields in CompileReq) must be turned
  // away at the handshake with BadVersion, not mis-parsed.
  TestServer TS(tcpServerOptions());
  ASSERT_TRUE(TS.Ok);
  RawTcp Raw(TS.Srv.tcpAddr());

  HelloMsg H;
  H.ClientName = "v3-client";
  std::string Wire = encodeFrame(MsgType::Hello, encodeHello(H));
  Wire[9] = 3; // the pre-tracing protocol revision
  ASSERT_TRUE(Raw.send(Wire));

  Frame F = mustParseFrame(Raw.drain());
  ASSERT_EQ(F.Type, MsgType::Error);
  ErrorMsg E;
  ASSERT_TRUE(decodeError(F.Payload, E));
  EXPECT_EQ(E.St, Status::BadVersion);
}

//===----------------------------------------------------------------------===//
// Live status surface: /healthz /statusz /tracez on shard and router
//===----------------------------------------------------------------------===//

TEST(FarmStatusTest, HealthzStatuszTracezAnswerOnShardAndRouter) {
  TwoShardFarm F;
  ASSERT_TRUE(F.ok());

  // One routed compile so /tracez has a request to show on both nodes.
  {
    Client C = connectedClient(tcpTarget(F.R->Rtr.tcpAddr()));
    CompileRequest Req;
    Req.Source = "val it = 5 * 11";
    CompileResponse Resp;
    std::string Err;
    ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err;
    ASSERT_EQ(Resp.St, Status::Ok);
  }

  const std::string Shard1 = F.S1->Srv.tcpAddr();
  const std::string Shard2 = F.S2->Srv.tcpAddr();
  const std::string Router = F.R->Rtr.tcpAddr();

  for (const std::string &Node : {Shard1, Router}) {
    std::string Health = httpGet(Node, "/healthz");
    EXPECT_NE(Health.find("HTTP/1.1 200"), std::string::npos) << Node;
    EXPECT_NE(Health.find("ok"), std::string::npos) << Node;
  }

  // /statusz: role-specific JSON with shared build identity.
  for (const std::string &Node : {Shard1, Router}) {
    std::string Resp = httpGet(Node, "/statusz");
    ASSERT_NE(Resp.find("HTTP/1.1 200"), std::string::npos) << Node;
    std::string Body = Resp.substr(Resp.find("\r\n\r\n") + 4);
    obs::JsonValue Doc;
    std::string Err;
    ASSERT_TRUE(obs::jsonParse(Body, Doc, Err)) << Err << "\n" << Body;
    const obs::JsonValue *Build = Doc.get("build");
    ASSERT_TRUE(Build && Build->isObject()) << Body;
    EXPECT_EQ(Build->getString("version"), compilerVersion());
    const obs::JsonValue *Proto = Build->get("protocol");
    ASSERT_TRUE(Proto && Proto->isNumber());
    EXPECT_EQ(Proto->Num, static_cast<double>(kProtocolVersion));
    const obs::JsonValue *Draining = Doc.get("draining");
    ASSERT_TRUE(Draining != nullptr) << Body;
    EXPECT_FALSE(Draining->B);
    if (Node == Router) {
      EXPECT_EQ(Doc.getString("role"), "router");
      const obs::JsonValue *Backends = Doc.get("backends");
      ASSERT_TRUE(Backends && Backends->isArray()) << Body;
      EXPECT_EQ(Backends->Arr.size(), 2u);
    } else {
      EXPECT_EQ(Doc.getString("role"), "shard");
      const obs::JsonValue *Tenants = Doc.get("tenants");
      ASSERT_TRUE(Tenants && Tenants->isArray()) << Body;
    }
  }

  // /tracez: the routed compile shows up — as a tiered request on
  // exactly one shard, as a forward on the router — with one shared
  // trace id (minted by the client even though tracing is off).
  std::string RouterTracez = httpGet(Router, "/tracez");
  ASSERT_NE(RouterTracez.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(RouterTracez.find("\"kind\":\"forward\""), std::string::npos)
      << RouterTracez;
  size_t IdPos = RouterTracez.find("\"trace_id\":\"");
  ASSERT_NE(IdPos, std::string::npos) << RouterTracez;
  std::string TraceId = RouterTracez.substr(IdPos + 12, 32);

  std::string T1 = httpGet(Shard1, "/tracez");
  std::string T2 = httpGet(Shard2, "/tracez");
  EXPECT_TRUE(T1.find(TraceId) != std::string::npos ||
              T2.find(TraceId) != std::string::npos)
      << "neither shard's /tracez carries the router's trace id "
      << TraceId;

}

TEST(FarmStatusTest, HealthzFlips503WhileDraining) {
  // beginDrain closes the listeners, so the draining state is only
  // observable on a connection opened before SIGTERM — exactly the
  // load-balancer health-probe conversation that matters.
  ServerOptions SO = tcpServerOptions();
  SO.NumWorkers = 1;
  SO.MaxQueue = 256;
  TestServer TS(SO);
  ASSERT_TRUE(TS.Ok);

  // The drain refuses to finish while any response byte is unflushed,
  // so a connection that never reads its responses holds the drain
  // open deterministically: big compiled programs overflow the kernel
  // socket buffers into the server's own OutBuf, and drainComplete()
  // waits for OutPos to catch up.
  RawTcp Jobs(TS.Srv.tcpAddr());
  HelloMsg H;
  H.ClientName = "pipeliner";
  std::string Wire = encodeFrame(MsgType::Hello, encodeHello(H));
  for (int I = 0; I < 6; ++I) {
    CompileRequest Req;
    Req.RequestId = static_cast<uint64_t>(I) + 1;
    // A chain of thousands of mutually-referencing recursive functions
    // survives inlining, folding, and dead-code elimination, so each
    // shipped TmProgram is a long instruction stream — too big for the
    // kernel socket buffers to absorb.
    std::string Src = "fun g0 x = if x < " + std::to_string(I + 1) +
                      " then x else g0 (x - 1)\n";
    for (int T = 1; T < 3000; ++T)
      Src += "fun g" + std::to_string(T) + " x = if x < 1 then g" +
             std::to_string(T - 1) + " x else g" + std::to_string(T) +
             " (x - 1)\n";
    Src += "val it = g2999 5\n";
    Req.Source = Src;
    Wire += encodeFrame(MsgType::CompileReq, encodeCompileRequest(Req));
  }
  ASSERT_TRUE(Jobs.send(Wire));

  // Barrier on a second connection: its tiny job sits behind the six
  // big ones in the single worker's queue, so its response proves all
  // six responses have already been written into Jobs's OutBuf.
  {
    Client C = connectedClient(tcpTarget(TS.Srv.tcpAddr()));
    CompileRequest Req;
    Req.Source = "val it = 6 * 7";
    CompileResponse Resp;
    std::string Err;
    ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err;
  }

  // The sniffer serves one request per connection and beginDrain
  // closes the listeners, so stage probes before the stop. Each parks
  // a *partial* request — the sniffer holds the connection open for
  // the rest — and /statusz's live connection count confirms the
  // server really accepted them (TCP connect alone only reaches the
  // backlog, which dies with the listener).
  std::vector<std::unique_ptr<RawTcp>> Probes;
  for (int I = 0; I < 8; ++I) {
    Probes.push_back(std::make_unique<RawTcp>(TS.Srv.tcpAddr()));
    ASSERT_TRUE(Probes.back()->send("GET /healthz HTTP/1.1\r\n"));
  }
  bool AllAccepted = false;
  for (int Try = 0; Try < 400 && !AllAccepted; ++Try) {
    std::string SZ = httpGet(TS.Srv.tcpAddr(), "/statusz");
    size_t At = SZ.find("\"connections\":");
    if (At != std::string::npos &&
        std::atoi(SZ.c_str() + At + 14) >= 9) // Jobs + 8 probes
      AllAccepted = true;
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(AllAccepted) << "server never accepted the parked probes";

  TS.Srv.requestStop();
  bool Saw503 = false;
  std::string Last;
  for (auto &P : Probes) {
    if (!P->send("\r\n"))
      break; // server exited: the drain hold failed
    Last = P->drain();
    if (Last.find("HTTP/1.1 503") != std::string::npos) {
      EXPECT_NE(Last.find("draining"), std::string::npos) << Last;
      Saw503 = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_TRUE(Saw503) << "never observed a draining 503; last response:\n"
                      << Last;

  // Release the hold: consuming Jobs's responses lets the flush finish
  // and the server complete its drain (TS teardown joins run()).
  Jobs.drain();
}

//===----------------------------------------------------------------------===//
// Router: token refusal, drain, recovery; per-node /tracez
//===----------------------------------------------------------------------===//

namespace {

/// A node's /statusz document.
obs::JsonValue statusz(const std::string &HostPort) {
  std::string Resp = httpGet(HostPort, "/statusz");
  obs::JsonValue Doc;
  std::string Err;
  size_t Body = Resp.find("\r\n\r\n");
  EXPECT_NE(Body, std::string::npos) << Resp;
  if (Body != std::string::npos) {
    EXPECT_TRUE(obs::jsonParse(Resp.substr(Body + 4), Doc, Err)) << Err;
  }
  return Doc;
}

double numberAt(const obs::JsonValue &Obj, const char *Key) {
  const obs::JsonValue *V = Obj.get(Key);
  EXPECT_TRUE(V && V->isNumber()) << Key;
  return V && V->isNumber() ? V->Num : -1;
}

/// The "kind" of every request a node's /tracez lists.
std::vector<std::string> tracezKinds(const std::string &HostPort) {
  std::string Resp = httpGet(HostPort, "/tracez");
  obs::JsonValue Doc;
  std::string Err;
  EXPECT_TRUE(obs::jsonParse(Resp.substr(Resp.find("\r\n\r\n") + 4), Doc, Err))
      << Err;
  std::vector<std::string> Kinds;
  if (const obs::JsonValue *Slow = Doc.get("slowest_requests"))
    for (const obs::JsonValue &R : Slow->Arr)
      Kinds.push_back(R.getString("kind"));
  return Kinds;
}

std::string helloFrame() {
  return encodeFrame(MsgType::Hello, encodeHello(HelloMsg{}));
}

std::string compileFrame(const std::string &Source, uint64_t RequestId) {
  CompileRequest Req;
  Req.Source = Source;
  Req.RequestId = RequestId;
  return encodeFrame(MsgType::CompileReq, encodeCompileRequest(Req));
}

} // namespace

TEST(FarmAuthTest, RouterRelaysTheBackendsRefusalOfItsToken) {
  // Both shards refuse the router's own token. That is the client's
  // answer (Unauthorized), not a transport failure: no shard may be
  // counted as failed or marked unhealthy.
  std::string TokFile = writeTempFile(kTokenFileText);
  ServerOptions SO = tcpServerOptions();
  SO.TokenFile = TokFile;
  TestServer S1(SO), S2(SO);
  ASSERT_TRUE(S1.Ok && S2.Ok);
  farm::RouterOptions RO;
  RO.ListenAddr = "127.0.0.1:0";
  RO.Backends = {S1.Srv.tcpAddr(), S2.Srv.tcpAddr()};
  RO.Token = "wrong-token";
  RO.RetryBaseMs = 5;
  TestRouter R(RO);
  ASSERT_TRUE(R.Ok);

  Client C = connectedClient(tcpTarget(R.Rtr.tcpAddr()));
  CompileRequest Req;
  Req.Source = "val it = 12 * 12";
  CompileResponse Resp;
  std::string Err;
  EXPECT_FALSE(C.compile(Req, Resp, Err));
  EXPECT_EQ(C.lastErrorStatus(), Status::Unauthorized) << Err;

  obs::JsonValue Doc = statusz(R.Rtr.tcpAddr());
  EXPECT_EQ(numberAt(Doc, "unroutable"), 0);
  EXPECT_EQ(numberAt(Doc, "retries"), 0);
  const obs::JsonValue *Backends = Doc.get("backends");
  ASSERT_TRUE(Backends && Backends->isArray());
  for (const obs::JsonValue &B : Backends->Arr) {
    const obs::JsonValue *Healthy = B.get("healthy");
    ASSERT_TRUE(Healthy != nullptr);
    EXPECT_TRUE(Healthy->B) << B.getString("addr");
    EXPECT_EQ(numberAt(B, "failures"), 0) << B.getString("addr");
  }

  // The client's own token still wins over the router's.
  AuthOkMsg Ok;
  ASSERT_TRUE(C.authenticate("token-aaaaaaaa", Ok, Err)) << Err;
  EXPECT_EQ(Ok.Tenant, "team-a");
  ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err;
  EXPECT_EQ(Resp.St, Status::Ok);
  rmTree(TokFile);
}

TEST(FarmRouterTest, DrainAnswersNewWorkAndWaitsForForwardsInFlight) {
  // The only backend completes TCP handshakes in the kernel and never
  // answers, so a forward to it stays in flight until the test closes it.
  std::string Err;
  int Silent = farm::listenTcp("127.0.0.1:0", Err);
  ASSERT_GE(Silent, 0) << Err;
  farm::RouterOptions RO;
  RO.ListenAddr = "127.0.0.1:0";
  RO.Backends = {farm::localAddr(Silent)};
  TestRouter R(RO);
  // Closed before the router goes, whichever way the test ends.
  struct CloseOnExit {
    int &Fd;
    ~CloseOnExit() {
      if (Fd >= 0)
        ::close(Fd);
    }
  } Guard{Silent};
  ASSERT_TRUE(R.Ok);
  const std::string Router = R.Rtr.tcpAddr();

  RawTcp Stuck(Router);
  Stuck.recvTimeout(5000);
  ASSERT_TRUE(Stuck.send(helloFrame() + compileFrame("val it = 1", 1)));
  Frame F;
  ASSERT_TRUE(Stuck.recvFrame(F));
  EXPECT_EQ(F.Type, MsgType::HelloOk);
  RawTcp Late(Router); // handshaken before the stop, compiles after it
  Late.recvTimeout(5000);
  ASSERT_TRUE(Late.send(helloFrame()));
  ASSERT_TRUE(Late.recvFrame(F));
  EXPECT_EQ(F.Type, MsgType::HelloOk);
  RawTcp Probe(Router); // parked mid-request
  ASSERT_TRUE(Probe.send("GET /healthz HTTP/1.1\r\n"));
  bool Ready = false;
  for (int Try = 0; Try < 400 && !Ready; ++Try) {
    obs::JsonValue Doc = statusz(Router);
    Ready = numberAt(Doc, "compile_forwards") == 1 &&
            numberAt(Doc, "live_connections") >= 4; // 3 + this probe
    if (!Ready)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(Ready) << "the router never took the three connections";
  // A partial request may idle: nothing times the probe out.
  std::this_thread::sleep_for(std::chrono::milliseconds(600));

  R.Rtr.requestStop();
  ASSERT_TRUE(Probe.send("\r\n"));
  std::string Health = Probe.drain();
  EXPECT_NE(Health.find("HTTP/1.1 503"), std::string::npos) << Health;
  EXPECT_NE(Health.find("draining"), std::string::npos) << Health;

  ASSERT_TRUE(Late.send(compileFrame("val it = 2", 2)));
  ASSERT_TRUE(Late.recvFrame(F)) << "no answer to a compile after the stop";
  ASSERT_EQ(F.Type, MsgType::CompileResp);
  CompileResponse Resp;
  ASSERT_TRUE(decodeCompileResponse(F.Payload, Resp, Err)) << Err;
  EXPECT_EQ(Resp.St, Status::Draining);
  EXPECT_EQ(Resp.RequestId, 2u);
  EXPECT_FALSE(R.Returned) << "the drain must wait for the forward";

  // Closing the backend fails the forward; with nothing left to try the
  // client gets its answer and the drain completes.
  ::close(Silent);
  Silent = -1;
  ASSERT_TRUE(Stuck.recvFrame(F)) << "the stuck forward was never answered";
  ASSERT_EQ(F.Type, MsgType::Error);
  ErrorMsg E;
  ASSERT_TRUE(decodeError(F.Payload, E));
  EXPECT_EQ(E.St, Status::Internal);
  for (int Try = 0; Try < 500 && !R.Returned; ++Try)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(R.Returned) << "run() did not return after the drain";
}

TEST(FarmRouterTest, RestartedShardIsProbedHealthyAndGetsItsKeysBack) {
  TwoShardFarm F;
  ASSERT_TRUE(F.ok());
  const std::string Shard1 = F.S1->Srv.tcpAddr();
  const std::string Router = F.R->Rtr.tcpAddr();
  // A source whose primary backend is shard 1.
  CompileRequest Req;
  for (int I = 0;; ++I) {
    Req.Source = "val it = " + std::to_string(I) + " - 1";
    uint64_t Key =
        fnv1a64(canonicalJobKey(Req.Source, Req.Opts, Req.WithPrelude));
    if (F.R->Rtr.candidatesFor(Key)[0] == 0)
      break;
  }

  F.S1->stop();
  Client C = connectedClient(tcpTarget(Router));
  CompileResponse Resp;
  std::string Err;
  ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err;
  EXPECT_EQ(Resp.St, Status::Ok); // failed over to shard 2
  obs::JsonValue Doc = statusz(Router);
  const obs::JsonValue *Healthy = Doc.get("backends")->Arr[0].get("healthy");
  ASSERT_TRUE(Healthy != nullptr);
  EXPECT_FALSE(Healthy->B);

  // A new shard on the same port: the router's probe finds it.
  F.S1.reset();
  ServerOptions SO;
  SO.ListenAddr = Shard1;
  F.S1 = std::make_unique<TestServer>(SO);
  ASSERT_TRUE(F.S1->Ok);
  bool Back = false;
  for (int Try = 0; Try < 300 && !Back; ++Try) {
    Doc = statusz(Router);
    const obs::JsonValue *H = Doc.get("backends")->Arr[0].get("healthy");
    Back = H && H->B;
    if (!Back)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(Back) << "the restarted shard was never marked healthy";

  ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err;
  EXPECT_EQ(Resp.St, Status::Ok);
  EXPECT_EQ(Resp.Tier, WireTier::Miss); // compiled by the new shard
  EXPECT_EQ(numberAt(statusz(Shard1), "compile_requests"), 1);
}

TEST(FarmStatusTest, TracezListsOnlyTheNodesOwnRequests) {
  // Three nodes in one process: each /tracez lists its own requests.
  TwoShardFarm F;
  ASSERT_TRUE(F.ok());
  {
    Client C = connectedClient(tcpTarget(F.R->Rtr.tcpAddr()));
    for (int Round = 0; Round < 2; ++Round) // misses, then memory hits
      for (int I = 0; I < 6; ++I) {
        CompileRequest Req;
        Req.Source = "val it = 3 * " + std::to_string(I);
        CompileResponse Resp;
        std::string Err;
        ASSERT_TRUE(C.compile(Req, Resp, Err)) << Err;
        ASSERT_EQ(Resp.St, Status::Ok);
      }
  }
  std::vector<std::string> RouterKinds = tracezKinds(F.R->Rtr.tcpAddr());
  EXPECT_EQ(RouterKinds.size(), 12u);
  for (const std::string &K : RouterKinds)
    EXPECT_EQ(K, "forward");
  size_t ShardSamples = 0;
  for (TestServer *S : {F.S1.get(), F.S2.get()})
    for (const std::string &K : tracezKinds(S->Srv.tcpAddr())) {
      EXPECT_TRUE(K == "memory" || K == "disk" || K == "miss") << K;
      ++ShardSamples;
    }
  EXPECT_EQ(ShardSamples, 12u);
}
