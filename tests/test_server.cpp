//===- tests/test_server.cpp - Compile server, protocol, disk cache -------------===//
//
// The compile server must be a pure transport: eight concurrent clients
// compiling the twelve-benchmark corpus have to receive byte-identical
// programs to local Compiler::compile calls; a daemon restart over the
// same disk-cache directory must serve every repeat request from the
// persistent tier; admission control and deadlines must come back as the
// documented QueueFull / DeadlineExceeded status codes; and no byte
// stream — fuzzed, truncated, oversized, or corrupted on disk — may do
// anything other than produce a clean error.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "corpus/Corpus.h"
#include "obs/Json.h"
#include "obs/Trace.h"
#include "server/Client.h"
#include "server/Server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ftw.h>
#include <netinet/in.h>
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

/// A unique short socket path (sun_path is ~108 bytes; keep clear of it).
std::string uniqueSocketPath() {
  static int Counter = 0;
  return "/tmp/smltc_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(Counter++) + ".sock";
}

std::string makeTempDir() {
  char Buf[] = "/tmp/smltc_cache_XXXXXX";
  const char *D = ::mkdtemp(Buf);
  EXPECT_NE(D, nullptr);
  return D ? D : "";
}

/// Runs a CompileServer on a background thread for the duration of a
/// test; requestStop + join on teardown if the test did not shut it
/// down through the protocol.
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

Client connectedClient(const std::string &Path) {
  Client C;
  std::string Err;
  EXPECT_TRUE(C.connect(Path, Err)) << Err;
  return C;
}

/// A compile unit whose cost scales linearly with NumFuns (about 25us
/// per function in an optimized build); used to keep a worker busy past
/// a request's deadline.
std::string heavySource(size_t NumFuns, int Seed) {
  std::string S;
  for (size_t I = 0; I < NumFuns; ++I)
    S += "fun f" + std::to_string(I) + " (x : int) = x + " +
         std::to_string(I + static_cast<size_t>(Seed)) + "\n";
  std::string Body = "0";
  for (size_t I = 0; I < NumFuns; I += 10)
    Body = "f" + std::to_string(I) + " (" + Body + ")";
  S += "fun main () = " + Body + "\n";
  return S;
}

CompileOutput sampleOutput() {
  CompileOutput Out =
      Compiler::compile("val it = 6 * 7", CompilerOptions::ffb(), true);
  EXPECT_TRUE(Out.Ok) << Out.Errors;
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Protocol framing
//===----------------------------------------------------------------------===//

TEST(ProtocolTest, FrameRoundTripAndIncrementalParse) {
  std::string Wire = encodeFrame(MsgType::Ping, "hello");
  ASSERT_EQ(Wire.size(), kFrameHeaderBytes + 5);

  // Every strict prefix must report NeedMore, never consume, never fail.
  for (size_t N = 0; N < Wire.size(); ++N) {
    Frame F;
    size_t Consumed = 1234;
    Status St;
    std::string Msg;
    EXPECT_EQ(parseFrame(Wire.data(), N, F, Consumed, St, Msg),
              ParseResult::NeedMore)
        << "prefix of " << N << " bytes";
  }

  // The full frame (plus trailing bytes of the next one) parses exactly.
  std::string Two = Wire + encodeFrame(MsgType::StatsReq, "");
  Frame F;
  size_t Consumed = 0;
  Status St;
  std::string Msg;
  ASSERT_EQ(parseFrame(Two.data(), Two.size(), F, Consumed, St, Msg),
            ParseResult::Ok);
  EXPECT_EQ(F.Type, MsgType::Ping);
  EXPECT_EQ(F.Payload, "hello");
  EXPECT_EQ(Consumed, Wire.size());
}

TEST(ProtocolTest, MalformedHeadersAreRejectedWithDocumentedCodes) {
  Frame F;
  size_t Consumed;
  Status St;
  std::string Msg;

  std::string Bad = encodeFrame(MsgType::Ping, "x");
  Bad[0] = 'Z'; // magic
  EXPECT_EQ(parseFrame(Bad.data(), Bad.size(), F, Consumed, St, Msg),
            ParseResult::Bad);
  EXPECT_EQ(St, Status::BadMagic);

  // An over-cap declared length must be rejected from the 12 header
  // bytes alone — no NeedMore, or a hostile peer could demand 4 GiB.
  std::string Huge = encodeFrame(MsgType::Ping, "");
  uint32_t Len = kMaxFramePayload + 1;
  for (int I = 0; I < 4; ++I)
    Huge[4 + I] = static_cast<char>((Len >> (8 * I)) & 0xff);
  EXPECT_EQ(parseFrame(Huge.data(), kFrameHeaderBytes, F, Consumed, St, Msg),
            ParseResult::Bad);
  EXPECT_EQ(St, Status::FrameTooLarge);

  std::string BadVer = encodeFrame(MsgType::Ping, "x");
  BadVer[9] = 99; // protocol version
  EXPECT_EQ(parseFrame(BadVer.data(), BadVer.size(), F, Consumed, St, Msg),
            ParseResult::Bad);
  EXPECT_EQ(St, Status::BadVersion);

  std::string BadReserved = encodeFrame(MsgType::Ping, "x");
  BadReserved[10] = 1;
  EXPECT_EQ(parseFrame(BadReserved.data(), BadReserved.size(), F, Consumed,
                       St, Msg),
            ParseResult::Bad);
  EXPECT_EQ(St, Status::BadFrame);
}

TEST(ProtocolTest, MessagePayloadsRoundTrip) {
  HelloMsg H;
  H.ClientName = "test-client";
  HelloMsg H2;
  ASSERT_TRUE(decodeHello(encodeHello(H), H2));
  EXPECT_EQ(H2.ClientName, "test-client");
  EXPECT_EQ(H2.MinVersion, kProtocolVersion);

  CompileRequest Req;
  Req.DeadlineMs = 777;
  Req.WithPrelude = false;
  Req.Opts = CompilerOptions::mtd();
  Req.Source = "val it = 42";
  CompileRequest Req2;
  std::string Err;
  ASSERT_TRUE(decodeCompileRequest(encodeCompileRequest(Req), Req2, Err))
      << Err;
  EXPECT_EQ(Req2.DeadlineMs, 777u);
  EXPECT_FALSE(Req2.WithPrelude);
  EXPECT_EQ(Req2.Source, "val it = 42");
  // Options round-trip canonically: same cache key on both sides.
  EXPECT_EQ(canonicalJobKey(Req.Source, Req.Opts, Req.WithPrelude),
            canonicalJobKey(Req2.Source, Req2.Opts, Req2.WithPrelude));
  // Options under another schema (8 still carried the five values no
  // compile depended on) are rejected, not misread.
  std::string Old = encodeCompileRequest(Req);
  // ids, deadline, prelude flag, the variant name, the options' length
  const size_t SchemaAt = 5 * 8 + 4 + 1 + 4 + std::strlen("sml.mtd") + 4;
  ASSERT_EQ(static_cast<uint8_t>(Old[SchemaAt]), kOptionsSchemaVersion);
  Old[SchemaAt] = 8;
  EXPECT_FALSE(decodeCompileRequest(Old, Req2, Err));
  EXPECT_NE(Err.find("options schema mismatch"), std::string::npos) << Err;

  CompileResponse Resp;
  Resp.St = Status::Ok;
  Resp.Tier = WireTier::Disk;
  Resp.CompileSec = 0.25;
  Resp.Program = sampleOutput().Program;
  CompileResponse Resp2;
  ASSERT_TRUE(
      decodeCompileResponse(encodeCompileResponse(Resp), Resp2, Err))
      << Err;
  EXPECT_EQ(Resp2.St, Status::Ok);
  EXPECT_EQ(Resp2.Tier, WireTier::Disk);
  EXPECT_EQ(programBytes(Resp2.Program), programBytes(Resp.Program));

  ErrorMsg E;
  E.St = Status::QueueFull;
  E.Message = "busy";
  ErrorMsg E2;
  ASSERT_TRUE(decodeError(encodeError(E), E2));
  EXPECT_EQ(E2.St, Status::QueueFull);
  EXPECT_EQ(E2.Message, "busy");
}

// The one options codec round-trips every variant and refuses what a
// misbehaving client could send. A negative float callee-save count threw
// out of the compile and ended the daemon.
TEST(ProtocolTest, OptionsDecoderRefusesWhatNoCompileTakes) {
  auto Encode = [](const CompilerOptions &O) {
    std::string Bytes;
    encodeOptions(Bytes, O);
    return Bytes;
  };
  auto Refusal = [](const std::string &Bytes) {
    CompilerOptions O;
    std::string Err;
    return decodeOptions(Bytes, O, Err) ? std::string("accepted") : Err;
  };
  size_t N;
  const CompilerOptions *Vs = CompilerOptions::allVariants(N);
  for (size_t I = 0; I < N; ++I) {
    CompilerOptions Back;
    std::string Err;
    ASSERT_TRUE(decodeOptions(Encode(Vs[I]), Back, Err)) << Err;
    EXPECT_EQ(Encode(Back), Encode(Vs[I])) << Vs[I].VariantName;
  }

  std::string Good = Encode(CompilerOptions::fp3());
  EXPECT_NE(Refusal(char(kOptionsSchemaVersion - 1) + Good.substr(1))
                .find("options schema mismatch"),
            std::string::npos);
  EXPECT_EQ(Refusal(""), "truncated options");
  EXPECT_EQ(Refusal(Good.substr(0, Good.size() - 1)), "truncated options");
  EXPECT_EQ(Refusal(Good + '\0'), "overlong options");
  CompilerOptions O = CompilerOptions::fp3();
  O.CpsOptDisable = 0x80;
  EXPECT_EQ(Refusal(Encode(O)), "cps-opt-disable has unknown rule bits");
  O = CompilerOptions::fp3();
  O.Prelude = static_cast<PreludeMode>(2);
  EXPECT_EQ(Refusal(Encode(O)), "prelude mode out of range");
  O = CompilerOptions::fp3();
  O.Repr = static_cast<ReprMode>(3);
  EXPECT_EQ(Refusal(Encode(O)), "representation mode out of range");
  for (int Fcs : {-1, 65, 1 << 30}) {
    O = CompilerOptions::fp3();
    O.FloatCalleeSaves = Fcs;
    EXPECT_EQ(Refusal(Encode(O)), "float callee-saves out of range") << Fcs;
  }
}

TEST(ProtocolTest, ProgramCodecIsBitExact) {
  // Every benchmark under every variant: encode, decode, byte-compare.
  size_t NumVariants;
  const CompilerOptions *Vs = CompilerOptions::allVariants(NumVariants);
  for (const BenchmarkProgram &B : benchmarkCorpus())
    for (size_t V = 0; V < NumVariants; ++V) {
      CompileOutput Out = Compiler::compile(B.Source, Vs[V], true);
      ASSERT_TRUE(Out.Ok) << B.Name << ": " << Out.Errors;
      WireWriter W;
      encodeProgram(W, Out.Program);
      WireReader R(W.bytes());
      TmProgram P;
      ASSERT_TRUE(decodeProgram(R, P)) << B.Name;
      ASSERT_TRUE(R.atEndOk());
      EXPECT_EQ(programBytes(P), programBytes(Out.Program))
          << B.Name << " under " << Vs[V].VariantName;
    }
}

TEST(ProtocolTest, FrameFuzzNeverCrashesOrOverReads) {
  // Deterministic LCG; the assertion is simply "no crash, no hang, no
  // ASan report" across parse + every payload decoder.
  uint64_t State = 0x2545f4914f6cdd1dull;
  auto Next = [&State] {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(State >> 33);
  };

  std::string Valid = encodeFrame(
      MsgType::CompileReq,
      encodeCompileRequest([] {
        CompileRequest R;
        R.Opts = CompilerOptions::ffb();
        R.Source = "val it = 1";
        return R;
      }()));

  for (int Iter = 0; Iter < 4000; ++Iter) {
    std::string Buf;
    if (Iter % 2 == 0) {
      // Pure noise.
      size_t N = Next() % 96;
      for (size_t I = 0; I < N; ++I)
        Buf.push_back(static_cast<char>(Next() & 0xff));
    } else {
      // A valid frame with a handful of byte flips and a random cut.
      Buf = Valid;
      for (int F = 0; F < 4; ++F)
        Buf[Next() % Buf.size()] =
            static_cast<char>(Next() & 0xff);
      Buf.resize(Next() % (Buf.size() + 1));
    }

    Frame F;
    size_t Consumed = 0;
    Status St;
    std::string Msg;
    ParseResult R = parseFrame(Buf.data(), Buf.size(), F, Consumed, St, Msg);
    if (R == ParseResult::Ok) {
      EXPECT_LE(Consumed, Buf.size());
      // Feed the payload to every decoder; failures are fine, crashes
      // and over-reads are not.
      std::string Err;
      HelloMsg H;
      (void)decodeHello(F.Payload, H);
      CompileRequest CR;
      (void)decodeCompileRequest(F.Payload, CR, Err);
      CompileResponse CP;
      (void)decodeCompileResponse(F.Payload, CP, Err);
      ErrorMsg E;
      (void)decodeError(F.Payload, E);
    }
  }
}

//===----------------------------------------------------------------------===//
// Disk cache
//===----------------------------------------------------------------------===//

TEST(DiskCacheTest, RoundTripsOutputsAndSurvivesReopen) {
  std::string Dir = makeTempDir();
  CompileOutput Out = sampleOutput();
  std::string Key = canonicalJobKey("val it = 6 * 7",
                                    CompilerOptions::ffb(), true);
  uint64_t H = fnv1a64(Key);

  {
    DiskCacheOptions DO;
    DO.Root = Dir;
    DiskCache DC(DO);
    std::string Err;
    ASSERT_TRUE(DC.init(Err)) << Err;
    EXPECT_EQ(DC.load(H, Key), nullptr); // cold
    DC.store(H, Key, Out);
    auto Hit = DC.load(H, Key);
    ASSERT_NE(Hit, nullptr);
    EXPECT_EQ(programBytes(Hit->Program), programBytes(Out.Program));
    EXPECT_EQ(DC.loadHits(), 1u);
  }
  {
    // A fresh instance over the same directory — the restart path.
    DiskCacheOptions DO;
    DO.Root = Dir;
    DiskCache DC(DO);
    std::string Err;
    ASSERT_TRUE(DC.init(Err)) << Err;
    EXPECT_GT(DC.currentBytes(), 0u);
    auto Hit = DC.load(H, Key);
    ASSERT_NE(Hit, nullptr);
    EXPECT_EQ(programBytes(Hit->Program), programBytes(Out.Program));
    // Same hash, different canonical key: must be a miss, not aliasing.
    EXPECT_EQ(DC.load(H, Key + "x"), nullptr);
  }
  rmTree(Dir);
}

TEST(DiskCacheTest, CorruptEntriesAreDroppedAsMisses) {
  std::string Dir = makeTempDir();
  DiskCacheOptions DO;
  DO.Root = Dir;
  DiskCache DC(DO);
  std::string Err;
  ASSERT_TRUE(DC.init(Err)) << Err;

  CompileOutput Out = sampleOutput();
  std::string Key = canonicalJobKey("val it = 6 * 7",
                                    CompilerOptions::ffb(), true);
  uint64_t H = fnv1a64(Key);
  DC.store(H, Key, Out);

  // Find the entry file and flip one byte in the middle.
  std::string Path;
  for (int Shard = 0; Shard < 256 && Path.empty(); ++Shard) {
    char Sub[8];
    std::snprintf(Sub, sizeof(Sub), "/%02x/", Shard);
    char Hex[17];
    std::snprintf(Hex, sizeof(Hex), "%016llx",
                  static_cast<unsigned long long>(H));
    std::string Cand = Dir + Sub + Hex + ".scc";
    if (::access(Cand.c_str(), F_OK) == 0)
      Path = Cand;
  }
  ASSERT_FALSE(Path.empty());
  {
    std::fstream F(Path, std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(40);
    char C = 0;
    F.read(&C, 1);
    F.seekp(40);
    C = static_cast<char>(C ^ 0x5a);
    F.write(&C, 1);
  }

  EXPECT_EQ(DC.load(H, Key), nullptr);
  EXPECT_EQ(DC.corruptDropped(), 1u);
  // The corrupt file was unlinked, so the next load is a plain miss.
  EXPECT_EQ(::access(Path.c_str(), F_OK), -1);
  EXPECT_EQ(DC.load(H, Key), nullptr);
  EXPECT_EQ(DC.corruptDropped(), 1u);
  rmTree(Dir);
}

TEST(DiskCacheTest, EvictionKeepsStoreUnderCapacity) {
  std::string Dir = makeTempDir();
  CompileOutput Out = sampleOutput();

  DiskCacheOptions DO;
  DO.Root = Dir;
  // Room for only a handful of entries (one entry is tens of KiB).
  DO.CapacityBytes = 4 * programBytes(Out.Program).size();
  DiskCache DC(DO);
  std::string Err;
  ASSERT_TRUE(DC.init(Err)) << Err;

  for (int I = 0; I < 24; ++I) {
    std::string Key = "key-" + std::to_string(I);
    DC.store(fnv1a64(Key), Key, Out);
  }
  EXPECT_GT(DC.evictedFiles(), 0u);
  EXPECT_LE(DC.currentBytes(), DO.CapacityBytes);
  rmTree(Dir);
}

//===----------------------------------------------------------------------===//
// Server end-to-end
//===----------------------------------------------------------------------===//

TEST(ServerTest, EightConcurrentClientsMatchLocalCompilesByteForByte) {
  ServerOptions SO;
  SO.SocketPath = uniqueSocketPath();
  SO.NumWorkers = 4;
  TestServer TS(SO);
  ASSERT_TRUE(TS.Ok);

  size_t NumVariants;
  const CompilerOptions *Vs = CompilerOptions::allVariants(NumVariants);
  const std::vector<BenchmarkProgram> &Corpus = benchmarkCorpus();

  std::vector<std::string> Failures(8);
  std::vector<std::thread> Clients;
  for (int C = 0; C < 8; ++C)
    Clients.emplace_back([&, C] {
      Client Cl;
      std::string Err;
      if (!Cl.connect(SO.SocketPath, Err)) {
        Failures[C] = "connect: " + Err;
        return;
      }
      const CompilerOptions &O = Vs[C % NumVariants];
      for (const BenchmarkProgram &B : Corpus) {
        CompileRequest Req;
        Req.Opts = O;
        Req.Source = B.Source;
        CompileResponse Resp;
        if (!Cl.compile(Req, Resp, Err)) {
          Failures[C] = std::string(B.Name) + ": " + Err;
          return;
        }
        if (Resp.St != Status::Ok) {
          Failures[C] = std::string(B.Name) + ": status " +
                        statusName(Resp.St) + ": " + Resp.Errors;
          return;
        }
        CompileOutput Local = Compiler::compile(B.Source, O, true);
        if (!Local.Ok ||
            programBytes(Resp.Program) != programBytes(Local.Program)) {
          Failures[C] = std::string(B.Name) + " under " + O.VariantName +
                        ": remote program differs from local compile";
          return;
        }
      }
    });
  for (std::thread &T : Clients)
    T.join();
  for (int C = 0; C < 8; ++C)
    EXPECT_TRUE(Failures[C].empty()) << "client " << C << ": "
                                     << Failures[C];

  // A warm pass over one variant is deterministic: every key is now in
  // the memory tier, whichever worker won each earlier race.
  {
    Client Cl = connectedClient(SO.SocketPath);
    for (const BenchmarkProgram &B : Corpus) {
      CompileRequest Req;
      Req.Opts = Vs[0];
      Req.Source = B.Source;
      CompileResponse Resp;
      std::string Err;
      ASSERT_TRUE(Cl.compile(Req, Resp, Err)) << B.Name << ": " << Err;
      ASSERT_EQ(Resp.St, Status::Ok);
      EXPECT_EQ(Resp.Tier, WireTier::Memory) << B.Name;
    }
  }

  TS.stop();
  const ServerMetrics &M = TS.Srv.metrics();
  EXPECT_EQ(M.CompileOk, 9u * Corpus.size());
  EXPECT_EQ(M.CompileErrors, 0u);
  EXPECT_EQ(M.ProtocolErrors, 0u);
  EXPECT_EQ(M.CacheMisses + M.MemoryHits + M.DiskHits, M.CompileOk);
  // Two workers may race-compile the same key before either inserts
  // (first insert wins), so misses can exceed the 72 unique keys — but
  // never the number of requests, and the warm pass hit every time.
  EXPECT_GE(M.CacheMisses, NumVariants * Corpus.size());
  EXPECT_LE(M.CacheMisses, 8u * Corpus.size());
  EXPECT_GE(M.MemoryHits, Corpus.size());
}

TEST(ServerTest, RestartServesEveryRepeatRequestFromDiskCache) {
  std::string CacheDir = makeTempDir();
  std::string Sock = uniqueSocketPath();
  const std::vector<BenchmarkProgram> &Corpus = benchmarkCorpus();
  CompilerOptions O = CompilerOptions::ffb();

  std::vector<std::string> FirstRun;
  {
    ServerOptions SO;
    SO.SocketPath = Sock;
    SO.NumWorkers = 2;
    SO.DiskCachePath = CacheDir;
    TestServer TS(SO);
    ASSERT_TRUE(TS.Ok);
    Client Cl = connectedClient(Sock);
    for (const BenchmarkProgram &B : Corpus) {
      CompileRequest Req;
      Req.Opts = O;
      Req.Source = B.Source;
      CompileResponse Resp;
      std::string Err;
      ASSERT_TRUE(Cl.compile(Req, Resp, Err)) << B.Name << ": " << Err;
      ASSERT_EQ(Resp.St, Status::Ok) << B.Name << ": " << Resp.Errors;
      EXPECT_EQ(Resp.Tier, WireTier::Miss) << B.Name;
      FirstRun.push_back(programBytes(Resp.Program));
    }
    TS.stop();
    EXPECT_EQ(TS.Srv.metrics().CacheMisses, Corpus.size());
  }

  // A brand-new daemon process state: empty memory cache, same disk.
  {
    ServerOptions SO;
    SO.SocketPath = Sock;
    SO.NumWorkers = 2;
    SO.DiskCachePath = CacheDir;
    TestServer TS(SO);
    ASSERT_TRUE(TS.Ok);
    Client Cl = connectedClient(Sock);
    for (size_t I = 0; I < Corpus.size(); ++I) {
      CompileRequest Req;
      Req.Opts = O;
      Req.Source = Corpus[I].Source;
      CompileResponse Resp;
      std::string Err;
      ASSERT_TRUE(Cl.compile(Req, Resp, Err)) << Corpus[I].Name << ": "
                                              << Err;
      ASSERT_EQ(Resp.St, Status::Ok);
      EXPECT_EQ(Resp.Tier, WireTier::Disk)
          << Corpus[I].Name << ": repeat request after restart must be "
          << "served from the persistent tier";
      EXPECT_EQ(programBytes(Resp.Program), FirstRun[I]) << Corpus[I].Name;
    }
    TS.stop();
    const ServerMetrics &M = TS.Srv.metrics();
    EXPECT_EQ(M.DiskHits, Corpus.size()); // 100% of repeats
    EXPECT_EQ(M.CacheMisses, 0u);
    EXPECT_EQ(M.MemoryHits, 0u);
  }
  rmTree(CacheDir);
}

TEST(ServerTest, DeadlineExceededReturnsDocumentedStatus) {
  ServerOptions SO;
  SO.SocketPath = uniqueSocketPath();
  SO.NumWorkers = 1;
  TestServer TS(SO);
  ASSERT_TRUE(TS.Ok);

  Client Cl = connectedClient(SO.SocketPath);
  CompileRequest Req;
  Req.Opts = CompilerOptions::ffb();
  // ~50ms of compile work in an optimized build: 50x the deadline.
  Req.Source = heavySource(2000, 1);
  Req.DeadlineMs = 1;
  CompileResponse Resp;
  std::string Err;
  ASSERT_TRUE(Cl.compile(Req, Resp, Err)) << Err;
  EXPECT_EQ(Resp.St, Status::DeadlineExceeded);

  TS.stop();
  EXPECT_GE(TS.Srv.metrics().DeadlineMisses, 1u);
}

// A 6 MB request of 3,000,000 nested parentheses fails as a compile error
// that names the parser's nesting limit, and the shard's one worker then
// answers the next request. Without the limit the parser ran past the
// compile stack and the daemon died with SIGSEGV.
TEST(ServerTest, TooDeepRequestFailsAndTheShardAnswersTheNext) {
  if (testutil::kThreadSanitizer)
    GTEST_SKIP() << "TSan's shadow call stack is shallower than the "
                    "parser's nesting limit";
  ServerOptions SO;
  SO.SocketPath = uniqueSocketPath();
  SO.NumWorkers = 1;
  TestServer TS(SO);
  ASSERT_TRUE(TS.Ok);

  Client Cl = connectedClient(SO.SocketPath);
  CompileRequest Req;
  Req.Opts = CompilerOptions::ffb();
  Req.Source = testutil::nestedParens(3000000);
  ASSERT_GT(Req.Source.size(), 6000000u);
  CompileResponse Resp;
  std::string Err;
  ASSERT_TRUE(Cl.compile(Req, Resp, Err)) << Err;
  EXPECT_EQ(Resp.St, Status::CompileFailed);
  EXPECT_NE(Resp.Errors.find("nests deeper than " +
                             std::to_string(kMaxNestingDepth) + " levels"),
            std::string::npos)
      << Resp.Errors.substr(0, 200);

  Req.Source = "fun main () = 41 + 1";
  ASSERT_TRUE(Cl.compile(Req, Resp, Err)) << Err;
  ASSERT_EQ(Resp.St, Status::Ok) << Resp.Errors;
  EXPECT_EQ(execute(Resp.Program, VmOptions()).Result, 42);
}

TEST(ServerTest, TracezBreaksACompileDownByLayer) {
  ServerOptions SO;
  SO.SocketPath = uniqueSocketPath();
  SO.NumWorkers = 1;
  TestServer TS(SO);
  ASSERT_TRUE(TS.Ok);

  Client Cl = connectedClient(SO.SocketPath);
  CompileRequest Req;
  Req.Opts = CompilerOptions::ffb();
  Req.Source = "fun tracez_layers x = x * " + std::to_string(::getpid()) +
               " val it = tracez_layers 3";
  Req.RequestId = 0x7ace2;
  CompileResponse Resp;
  std::string Err;
  ASSERT_TRUE(Cl.compile(Req, Resp, Err)) << Err;
  ASSERT_EQ(Resp.St, Status::Ok);
  ASSERT_EQ(Resp.Tier, WireTier::Miss);

  // The shard records the request before it replies, so the sample is
  // already there.
  std::string PhasesJson;
  for (const obs::RequestSample &S : TS.Srv.requestLog().slowest())
    if (S.RequestId == Req.RequestId && S.Kind == "miss")
      PhasesJson = S.PhasesJson;
  ASSERT_FALSE(PhasesJson.empty());

  obs::JsonValue Phases;
  ASSERT_TRUE(obs::jsonParse("{" + PhasesJson + "}", Phases, Err))
      << Err << "\n" << PhasesJson;
  for (const char *Key :
       {"front_sec", "translate_sec", "back_sec", "parse_sec", "elab_sec",
        "mtd_sec", "cps_convert_sec", "cps_opt_sec", "closure_sec",
        "codegen_sec"}) {
    const obs::JsonValue *V = Phases.get(Key);
    ASSERT_TRUE(V && V->isNumber()) << Key << " in " << PhasesJson;
  }
  EXPECT_GT(Phases.get("closure_sec")->Num, 0.0) << PhasesJson;
}

TEST(ServerTest, QueueFullReturnsDocumentedStatus) {
  ServerOptions SO;
  SO.SocketPath = uniqueSocketPath();
  SO.NumWorkers = 1;
  SO.MaxQueue = 1;
  TestServer TS(SO);
  ASSERT_TRUE(TS.Ok);

  Client Cl = connectedClient(SO.SocketPath);
  std::string Err;

  // Pipeline three requests in one write. The server handles every frame
  // of a read before its poll loop drains a completion, so however fast
  // the compiles are, the first occupies the single worker, the second
  // fills the queue and the third must bounce. Distinct sources keep
  // every request a cache miss, across repeats too.
  static int Round = 0;
  ++Round;
  std::string Frames;
  for (int I = 0; I < 3; ++I) {
    CompileRequest Req;
    Req.Opts = CompilerOptions::ffb();
    Req.Source = "val it = " + std::to_string(Round * 3 + I);
    Frames += encodeFrame(MsgType::CompileReq, encodeCompileRequest(Req));
  }
  ASSERT_TRUE(Cl.sendRaw(Frames, Err)) << Err;

  int Ok = 0, QueueFull = 0;
  for (int I = 0; I < 3; ++I) {
    Frame F;
    ASSERT_TRUE(Cl.recvFrame(F, Err)) << Err;
    ASSERT_EQ(F.Type, MsgType::CompileResp);
    CompileResponse Resp;
    ASSERT_TRUE(decodeCompileResponse(F.Payload, Resp, Err)) << Err;
    if (Resp.St == Status::Ok)
      ++Ok;
    else if (Resp.St == Status::QueueFull)
      ++QueueFull;
  }
  EXPECT_EQ(Ok, 2);
  EXPECT_EQ(QueueFull, 1);

  TS.stop();
  EXPECT_EQ(TS.Srv.metrics().QueueFullRejects, 1u);
}

TEST(ServerTest, MalformedAndOversizedFramesAreRejectedCleanly) {
  ServerOptions SO;
  SO.SocketPath = uniqueSocketPath();
  SO.NumWorkers = 1;
  TestServer TS(SO);
  ASSERT_TRUE(TS.Ok);
  std::string Err;

  { // Bad magic after a good handshake: Error frame, then hangup.
    Client Cl = connectedClient(SO.SocketPath);
    std::string Junk = "NOPE this is not a frame at all...";
    ASSERT_TRUE(Cl.sendRaw(Junk, Err)) << Err;
    Frame F;
    ASSERT_TRUE(Cl.recvFrame(F, Err)) << Err;
    ASSERT_EQ(F.Type, MsgType::Error);
    ErrorMsg E;
    ASSERT_TRUE(decodeError(F.Payload, E));
    EXPECT_EQ(E.St, Status::BadMagic);
    EXPECT_FALSE(Cl.recvFrame(F, Err)); // server closed the connection
  }

  { // Oversized declared length: rejected from the header alone.
    Client Cl = connectedClient(SO.SocketPath);
    std::string Hdr = encodeFrame(MsgType::Ping, "");
    uint32_t Len = kMaxFramePayload + 1;
    for (int I = 0; I < 4; ++I)
      Hdr[4 + I] = static_cast<char>((Len >> (8 * I)) & 0xff);
    ASSERT_TRUE(Cl.sendRaw(Hdr, Err)) << Err;
    Frame F;
    ASSERT_TRUE(Cl.recvFrame(F, Err)) << Err;
    ASSERT_EQ(F.Type, MsgType::Error);
    ErrorMsg E;
    ASSERT_TRUE(decodeError(F.Payload, E));
    EXPECT_EQ(E.St, Status::FrameTooLarge);
  }

  { // A request before the hello handshake is a protocol error.
    // Client::connect always handshakes, so drive the socket directly.
    std::string Sock = SO.SocketPath;
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(Fd, 0);
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Sock.c_str(), sizeof(Addr.sun_path) - 1);
    ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr)),
              0);
    std::string Wire = encodeFrame(MsgType::StatsReq, "");
    ASSERT_EQ(::send(Fd, Wire.data(), Wire.size(), 0),
              static_cast<ssize_t>(Wire.size()));
    std::string In;
    char Buf[4096];
    ssize_t N;
    while ((N = ::recv(Fd, Buf, sizeof(Buf), 0)) > 0)
      In.append(Buf, static_cast<size_t>(N));
    ::close(Fd);
    Frame F;
    size_t Consumed;
    Status St;
    std::string Msg;
    ASSERT_EQ(parseFrame(In.data(), In.size(), F, Consumed, St, Msg),
              ParseResult::Ok);
    ASSERT_EQ(F.Type, MsgType::Error);
    ErrorMsg E;
    ASSERT_TRUE(decodeError(F.Payload, E));
    EXPECT_EQ(E.St, Status::BadFrame);
  }

  TS.stop();
  EXPECT_GE(TS.Srv.metrics().ProtocolErrors, 3u);
}

namespace {

/// A loopback TCP listener that accepts one connection and then never
/// writes, or, with AnswerHello, answers the client's Hello and then
/// never writes again.
class SilentPeer {
public:
  explicit SilentPeer(bool AnswerHello) {
    Listen = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in A{};
    A.sin_family = AF_INET;
    A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t Len = sizeof(A);
    if (::bind(Listen, reinterpret_cast<sockaddr *>(&A), Len) != 0 ||
        ::listen(Listen, 4) != 0 ||
        ::getsockname(Listen, reinterpret_cast<sockaddr *>(&A), &Len) != 0)
      ADD_FAILURE() << "cannot listen on loopback: " << std::strerror(errno);
    Port = ntohs(A.sin_port);
    Acceptor = std::thread([this, AnswerHello] {
      Conn = ::accept(Listen, nullptr, nullptr);
      if (Conn < 0 || !AnswerHello)
        return;
      char Buf[4096];
      (void)::recv(Conn, Buf, sizeof(Buf), 0); // the Hello frame
      std::string Ok = encodeFrame(MsgType::HelloOk, encodeHelloOk({}));
      (void)::send(Conn, Ok.data(), Ok.size(), MSG_NOSIGNAL);
    });
  }
  ~SilentPeer() {
    ::shutdown(Listen, SHUT_RDWR); // wakes accept if no client came
    Acceptor.join();
    if (Conn >= 0)
      ::close(Conn);
    ::close(Listen);
  }
  std::string target() const {
    return "tcp://127.0.0.1:" + std::to_string(Port);
  }

private:
  int Listen = -1, Conn = -1;
  int Port = 0;
  std::thread Acceptor;
};

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

TEST(ClientTest, PeerThatNeverAnswersTimesOut) {
  // One peer never answers the Hello; the other answers it and then
  // never answers a compile. connect() gives up after kReplyTimeoutMs,
  // and a compile with a deadline after its DeadlineMs plus
  // kReplyTimeoutMs, each with a transport error naming the timeout.
  // The two wait in parallel.
  SilentPeer Mute(false), AfterHello(true);
  const double Bound = kReplyTimeoutMs / 1000.0;
  std::string ConnErr, CompErr;
  bool Connected = true, HelloOk = false, Compiled = true;
  double ConnSec = 0, CompSec = 0;
  std::thread A([&] {
    Client C;
    auto T0 = std::chrono::steady_clock::now();
    Connected = C.connect(Mute.target(), ConnErr);
    ConnSec = secondsSince(T0);
  });
  std::thread B([&] {
    Client C;
    HelloOk = C.connect(AfterHello.target(), CompErr);
    if (!HelloOk)
      return;
    CompileRequest Req;
    Req.Source = "fun main () = 1";
    Req.DeadlineMs = 200;
    CompileResponse Resp;
    auto T0 = std::chrono::steady_clock::now();
    Compiled = C.compile(Req, Resp, CompErr);
    CompSec = secondsSince(T0);
    EXPECT_FALSE(C.connected()) << "a timed-out stream is out of step";
  });
  A.join();
  B.join();
  EXPECT_FALSE(Connected);
  EXPECT_NE(ConnErr.find("timed out"), std::string::npos) << ConnErr;
  EXPECT_GT(ConnSec, Bound - 0.05);
  EXPECT_LT(ConnSec, Bound + 2);
  ASSERT_TRUE(HelloOk) << CompErr;
  EXPECT_FALSE(Compiled);
  EXPECT_NE(CompErr.find("timed out"), std::string::npos) << CompErr;
  EXPECT_GT(CompSec, Bound + 0.2 - 0.05);
  EXPECT_LT(CompSec, Bound + 0.2 + 2);
}

TEST(ServerTest, ShutdownRequestDrainsAndStopsTheServer) {
  ServerOptions SO;
  SO.SocketPath = uniqueSocketPath();
  SO.NumWorkers = 2;
  TestServer TS(SO);
  ASSERT_TRUE(TS.Ok);

  Client Cl = connectedClient(SO.SocketPath);
  std::string Err;
  ASSERT_TRUE(Cl.ping("ok?", Err)) << Err;
  std::string Json;
  ASSERT_TRUE(Cl.stats(Json, Err)) << Err;
  EXPECT_EQ(Json.front(), '{');
  EXPECT_NE(Json.find("\"compile_requests\":"), std::string::npos);
  EXPECT_NE(Json.find("\"cache_disk_hits\":"), std::string::npos);
  ASSERT_TRUE(Cl.shutdownServer(Err)) << Err;

  TS.Th.join(); // run() must return on its own after the drain
  // The socket is gone: new connections must fail.
  Client Late;
  EXPECT_FALSE(Late.connect(SO.SocketPath, Err));
}
