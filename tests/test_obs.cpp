//===- tests/test_obs.cpp - Tracing, metrics registry, JSON helpers -------------===//
//
// The observability layer's contracts: jsonEscape must make any string
// safe inside JSON quotes; spans must nest correctly on one thread and
// keep distinct track ids across threads; the exported trace must be
// structurally valid Chrome trace-event JSON; histogram bucket and
// percentile math must be exact on known inputs; the registry must
// survive concurrent updates, registration, and rendering (the TSan job
// runs this suite); and a compile server must echo the client's request
// id both in the response and in the recorded request span.
//
//===----------------------------------------------------------------------===//

#include "driver/CompileCache.h"
#include "driver/Compiler.h"
#include "obs/Json.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "server/Client.h"
#include "server/Server.h"
#include "vm/Heap.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace smltc;
using namespace smltc::obs;

namespace {

/// Restores the global tracer to "disabled, empty" however a test exits.
struct ScopedTracing {
  ScopedTracing() {
    Tracer::instance().disable();
    Tracer::instance().clear();
    Tracer::instance().enable();
  }
  ~ScopedTracing() {
    Tracer::instance().disable();
    Tracer::instance().clear();
  }
};

/// Minimal structural validator for a JSON document: quotes/escapes are
/// honoured while checking that braces and brackets balance. Not a full
/// parser — just enough to catch unescaped quotes and truncation, which
/// are exactly the bugs hand-rolled emitters had.
bool jsonBalanced(const std::string &S) {
  int Depth = 0;
  bool InStr = false;
  for (size_t I = 0; I < S.size(); ++I) {
    char C = S[I];
    if (InStr) {
      if (C == '\\')
        ++I; // skip the escaped character
      else if (C == '"')
        InStr = false;
      continue;
    }
    if (C == '"')
      InStr = true;
    else if (C == '{' || C == '[')
      ++Depth;
    else if (C == '}' || C == ']') {
      if (--Depth < 0)
        return false;
    }
  }
  return Depth == 0 && !InStr;
}

size_t countOccurrences(const std::string &S, const std::string &Needle) {
  size_t N = 0;
  for (size_t P = S.find(Needle); P != std::string::npos;
       P = S.find(Needle, P + Needle.size()))
    ++N;
  return N;
}

std::string uniqueSocketPath() {
  static int Counter = 0;
  return "/tmp/smltc_obs_" + std::to_string(::getpid()) + "_" +
         std::to_string(Counter++) + ".sock";
}

struct TestServer {
  explicit TestServer(server::ServerOptions SO) : Srv(std::move(SO)) {
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
  server::CompileServer Srv;
  std::thread Th;
  bool Ok = false;
};

} // namespace

//===----------------------------------------------------------------------===//
// jsonEscape / JsonWriter
//===----------------------------------------------------------------------===//

TEST(ObsJsonTest, EscapeCoversQuotesBackslashesControlsAndUtf8) {
  EXPECT_EQ(jsonEscape("plain"), "plain");
  EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(jsonEscape("\b\f"), "\\b\\f");
  EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
  EXPECT_EQ(jsonEscape(std::string(1, '\x1f')), "\\u001f");
  // UTF-8 passes through byte-for-byte.
  EXPECT_EQ(jsonEscape("\xce\xbb"), "\xce\xbb");
  // Embedded NUL is a control character, not a terminator.
  EXPECT_EQ(jsonEscape(std::string("a\0b", 3)), "a\\u0000b");
}

TEST(ObsJsonTest, WriterBuildsNestedObjectsWithHistoricalNumberFormats) {
  JsonWriter W;
  W.beginObject();
  W.field("n", static_cast<uint64_t>(42));
  W.field("neg", static_cast<int64_t>(-7));
  W.field("rate", 2.5, 2);
  W.field("flag", true);
  W.field("msg", "say \"hi\"");
  W.key("nested").beginObject().field("k", static_cast<uint64_t>(1)).endObject();
  W.key("xs").beginArray().value(static_cast<uint64_t>(1)).value(2.0, 0).endArray();
  W.fieldRaw("raw", "{\"pre\":1}");
  W.endObject();
  EXPECT_EQ(W.str(),
            "{\"n\":42,\"neg\":-7,\"rate\":2.50,\"flag\":true,"
            "\"msg\":\"say \\\"hi\\\"\",\"nested\":{\"k\":1},"
            "\"xs\":[1,2],\"raw\":{\"pre\":1}}");
  EXPECT_TRUE(jsonBalanced(W.str()));
}

//===----------------------------------------------------------------------===//
// Span tracing
//===----------------------------------------------------------------------===//

TEST(ObsTraceTest, DisabledTracerRecordsNothing) {
  Tracer::instance().disable();
  Tracer::instance().clear();
  {
    obs::Span S("ignored", "test");
    S.arg("k", std::string("v"));
  }
  EXPECT_EQ(Tracer::instance().eventCount(), 0u);
  // A span alive across enable() stays inert: it never read the clock.
  {
    obs::Span S("half_measured", "test");
    Tracer::instance().enable();
  }
  Tracer::instance().disable();
  EXPECT_EQ(Tracer::instance().eventCount(), 0u);
  Tracer::instance().clear();
}

TEST(ObsTraceTest, SpansNestAndCloseInOrderOnOneThread) {
  ScopedTracing Tr;
  {
    obs::Span Outer("outer", "test");
    {
      obs::Span Inner("inner", "test");
    }
  }
  std::vector<TraceEvent> Evs = Tracer::instance().snapshot();
  ASSERT_EQ(Evs.size(), 2u);
  // Spans record at destruction: inner closes (and lands) first.
  EXPECT_STREQ(Evs[0].Name, "inner");
  EXPECT_STREQ(Evs[1].Name, "outer");
  EXPECT_EQ(Evs[0].Tid, Evs[1].Tid);
  // Interval containment: outer starts no later and ends no earlier.
  EXPECT_LE(Evs[1].TsUs, Evs[0].TsUs);
  EXPECT_GE(Evs[1].TsUs + Evs[1].DurUs, Evs[0].TsUs + Evs[0].DurUs);
}

TEST(ObsTraceTest, ThreadsGetDistinctTidsAndNamedTracks) {
  ScopedTracing Tr;
  const size_t NumThreads = 4, SpansEach = 100;
  std::vector<std::thread> Ths;
  for (size_t T = 0; T < NumThreads; ++T)
    Ths.emplace_back([T] {
      Tracer::setThreadName("obs-test-" + std::to_string(T));
      for (size_t I = 0; I < SpansEach; ++I) {
        obs::Span S("worker_span", "test");
        S.arg("i", static_cast<uint64_t>(I));
      }
    });
  // Concurrent snapshots must be safe while spans are still landing
  // (this is what the TSan job exercises).
  for (int I = 0; I < 5; ++I)
    (void)Tracer::instance().snapshot();
  for (std::thread &Th : Ths)
    Th.join();

  std::vector<TraceEvent> Evs = Tracer::instance().snapshot();
  ASSERT_EQ(Evs.size(), NumThreads * SpansEach);
  std::vector<uint32_t> Tids;
  for (const TraceEvent &E : Evs)
    if (std::find(Tids.begin(), Tids.end(), E.Tid) == Tids.end())
      Tids.push_back(E.Tid);
  EXPECT_EQ(Tids.size(), NumThreads);

  std::string Json = Tracer::instance().renderJson();
  for (size_t T = 0; T < NumThreads; ++T)
    EXPECT_NE(Json.find("obs-test-" + std::to_string(T)), std::string::npos);
  // Thread buffers (and their names) persist for the process lifetime —
  // earlier tests' worker threads legitimately add metadata rows too.
  EXPECT_GE(countOccurrences(Json, "\"thread_name\""), NumThreads);
}

TEST(ObsTraceTest, RenderedTraceIsStructurallyValidChromeJson) {
  ScopedTracing Tr;
  Tracer::setThreadName("schema-test");
  {
    obs::Span S("phase_a", "test");
    S.arg("path", std::string("dir/\"quoted\"\\name"));
    S.arg("count", static_cast<uint64_t>(3));
  }
  {
    obs::Span S("phase_b", "test");
  }
  std::string Json = Tracer::instance().renderJson();

  EXPECT_EQ(Json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(Json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_TRUE(jsonBalanced(Json)) << Json;
  // Two complete events, each carrying the full Chrome schema.
  EXPECT_EQ(countOccurrences(Json, "\"ph\":\"X\""), 2u);
  EXPECT_EQ(countOccurrences(Json, "\"dur\":"), 2u);
  EXPECT_GE(countOccurrences(Json, "\"ts\":"), 2u);
  EXPECT_GE(countOccurrences(Json, "\"pid\":1"), 2u);
  EXPECT_GE(countOccurrences(Json, "\"tid\":"), 2u);
  // The quoted arg survived escaping.
  EXPECT_NE(Json.find("dir/\\\"quoted\\\"\\\\name"), std::string::npos);
  EXPECT_NE(Json.find("\"count\":3"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Histogram / registry math
//===----------------------------------------------------------------------===//

TEST(ObsMetricsTest, HistogramBucketsFollowPrometheusLeSemantics) {
  Histogram H({1.0, 2.0, 4.0});
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.percentile(0.5), 0.0); // empty histogram

  H.observe(0.5);
  H.observe(1.0); // on the bound: le is inclusive
  H.observe(1.5);
  H.observe(3.0);
  H.observe(8.0); // beyond the last bound: +Inf bucket
  std::vector<uint64_t> Cs = H.bucketCounts();
  ASSERT_EQ(Cs.size(), 4u);
  EXPECT_EQ(Cs[0], 2u);
  EXPECT_EQ(Cs[1], 1u);
  EXPECT_EQ(Cs[2], 1u);
  EXPECT_EQ(Cs[3], 1u);
  EXPECT_EQ(H.cumulative(0), 2u);
  EXPECT_EQ(H.cumulative(2), 4u);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_DOUBLE_EQ(H.sum(), 14.0);
}

TEST(ObsMetricsTest, PercentilesInterpolateWithinTheWinningBucket) {
  Histogram H({1.0, 2.0, 4.0});
  H.observe(0.5);
  H.observe(1.5);
  H.observe(3.0);
  H.observe(8.0);
  // rank 1 of 4 lands exactly on bucket [0,1]'s single observation.
  EXPECT_DOUBLE_EQ(H.percentile(0.25), 1.0);
  // rank 2 fills bucket (1,2] completely -> its upper bound.
  EXPECT_DOUBLE_EQ(H.percentile(0.50), 2.0);
  // rank 3.96 lands in +Inf, which clamps to the last finite bound.
  EXPECT_DOUBLE_EQ(H.percentile(0.99), 4.0);
  // Out-of-range quantiles clamp instead of misbehaving.
  EXPECT_DOUBLE_EQ(H.percentile(-1.0), H.percentile(0.0));
  EXPECT_DOUBLE_EQ(H.percentile(2.0), H.percentile(1.0));
}

TEST(ObsMetricsTest, PrometheusRenderingEmitsOneHeaderPerFamily) {
  Registry R;
  Counter &C = R.counter("test_ops_total", "Operations");
  C.inc(3);
  R.gauge("test_depth", "Depth").set(2.5);
  Histogram &H1 = R.histogram("test_latency_seconds", {0.1, 1.0},
                              "Latency", "tier", "memory");
  Histogram &H2 = R.histogram("test_latency_seconds", {0.1, 1.0},
                              "Latency", "tier", "miss");
  H1.observe(0.05);
  H2.observe(0.5);
  H2.observe(5.0);
  R.counterFn("test_cb_total", [] { return uint64_t(9); }, "Callback");

  std::string P = R.renderPrometheus();
  EXPECT_NE(P.find("# HELP test_ops_total Operations\n"), std::string::npos);
  EXPECT_NE(P.find("# TYPE test_ops_total counter\n"), std::string::npos);
  EXPECT_NE(P.find("test_ops_total 3\n"), std::string::npos);
  EXPECT_NE(P.find("# TYPE test_depth gauge\n"), std::string::npos);
  EXPECT_NE(P.find("test_depth 2.5\n"), std::string::npos);
  EXPECT_NE(P.find("test_cb_total 9\n"), std::string::npos);
  // The two labelled histograms share one family header...
  EXPECT_EQ(countOccurrences(P, "# TYPE test_latency_seconds histogram"), 1u);
  // ...and each renders cumulative buckets with +Inf last, then sum/count.
  EXPECT_NE(P.find("test_latency_seconds_bucket{tier=\"memory\",le=\"0.1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(P.find("test_latency_seconds_bucket{tier=\"memory\",le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(P.find("test_latency_seconds_bucket{tier=\"miss\",le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(P.find("test_latency_seconds_bucket{tier=\"miss\",le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(P.find("test_latency_seconds_count{tier=\"miss\"} 2\n"),
            std::string::npos);

  std::string J = R.renderJson();
  EXPECT_TRUE(jsonBalanced(J)) << J;
  EXPECT_NE(J.find("\"test_ops_total\":3"), std::string::npos);
  EXPECT_NE(J.find("\"test_latency_seconds.miss\":{\"count\":2"),
            std::string::npos);

  EXPECT_EQ(R.findHistogram("test_latency_seconds", "memory"), &H1);
  EXPECT_EQ(R.findHistogram("test_latency_seconds", "miss"), &H2);
  EXPECT_EQ(R.findHistogram("absent"), nullptr);
}

TEST(ObsMetricsTest, RegistrySurvivesConcurrentUpdatesAndRendering) {
  Registry R;
  Counter &C = R.counter("cc_total");
  Histogram &H = R.histogram("cc_seconds", Histogram::latencyBuckets());
  const size_t NumThreads = 8, OpsEach = 5000;
  std::vector<std::thread> Ths;
  for (size_t T = 0; T < NumThreads; ++T)
    Ths.emplace_back([&, T] {
      for (size_t I = 0; I < OpsEach; ++I) {
        C.inc();
        H.observe(0.001 * static_cast<double>(I % 100));
        if (I % 1000 == 0) {
          // Registration and rendering race against the updates.
          R.counter("cc_extra_" + std::to_string(T)).inc();
          (void)R.renderPrometheus();
          (void)R.renderJson();
        }
      }
    });
  for (std::thread &Th : Ths)
    Th.join();
  EXPECT_EQ(C.value(), NumThreads * OpsEach);
  EXPECT_EQ(H.count(), NumThreads * OpsEach);
  EXPECT_TRUE(jsonBalanced(R.renderJson()));
}

//===----------------------------------------------------------------------===//
// Server request ids: echoed in the reply and stamped on the trace
//===----------------------------------------------------------------------===//

TEST(ObsServerTest, RequestIdsReachTheReplyAndTheRequestSpan) {
  ScopedTracing Tr;
  server::ServerOptions SO;
  SO.SocketPath = uniqueSocketPath();
  SO.NumWorkers = 1;
  TestServer TS(SO);
  ASSERT_TRUE(TS.Ok);

  server::Client Cl;
  std::string Err;
  ASSERT_TRUE(Cl.connect(SO.SocketPath, Err)) << Err;

  server::CompileRequest Req;
  Req.Opts = CompilerOptions::ffb();
  Req.Source = "fun main () = 6 * 7";
  Req.RequestId = 777;
  server::CompileResponse Resp;
  ASSERT_TRUE(Cl.compile(Req, Resp, Err)) << Err;
  ASSERT_EQ(Resp.St, server::Status::Ok);
  EXPECT_EQ(Resp.RequestId, 777u);

  // With RequestId left at 0 the client assigns a nonzero one.
  Req.RequestId = 0;
  Req.Source = "fun main () = 6 * 7 + 0";
  ASSERT_TRUE(Cl.compile(Req, Resp, Err)) << Err;
  ASSERT_EQ(Resp.St, server::Status::Ok);
  EXPECT_NE(Resp.RequestId, 0u);

  // The Prometheus and human stats pages render from the live registry.
  std::string Prom;
  ASSERT_TRUE(Cl.statsText(server::StatsFormat::Prometheus, Prom, Err))
      << Err;
  EXPECT_NE(Prom.find("# TYPE smltcc_server_compile_requests_total counter"),
            std::string::npos);
  EXPECT_NE(Prom.find("smltcc_server_compile_requests_total 2"),
            std::string::npos);
  EXPECT_NE(
      Prom.find("# TYPE smltcc_server_request_seconds histogram"),
      std::string::npos);
  EXPECT_NE(Prom.find("smltcc_server_request_seconds_bucket{tier=\"miss\""),
            std::string::npos);
  std::string Human;
  ASSERT_TRUE(Cl.statsText(server::StatsFormat::Human, Human, Err)) << Err;
  EXPECT_NE(Human.find("smltcc compile server"), std::string::npos);
  EXPECT_NE(Human.find("compile_requests:  2"), std::string::npos);

  TS.stop();

  // Both request spans landed in the trace with their ids.
  std::vector<TraceEvent> Evs = Tracer::instance().snapshot();
  size_t RequestSpans = 0;
  bool Saw777 = false;
  for (const TraceEvent &E : Evs) {
    if (std::string(E.Name) != "request")
      continue;
    ++RequestSpans;
    if (E.Args.find("\"request_id\":777") != std::string::npos)
      Saw777 = true;
  }
  EXPECT_EQ(RequestSpans, 2u);
  EXPECT_TRUE(Saw777);
  std::string Json = Tracer::instance().renderJson();
  EXPECT_TRUE(jsonBalanced(Json));
  EXPECT_NE(Json.find("\"request_id\":777"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Distributed trace context: minting, inheritance, adoption, flush
//===----------------------------------------------------------------------===//

TEST(ObsTraceContextTest, MintedContextsAreValidAndUnique) {
  std::set<std::string> TraceIds;
  std::set<uint64_t> SpanIds;
  for (int I = 0; I < 64; ++I) {
    TraceContext C = mintTraceContext();
    EXPECT_TRUE(C.valid());
    // The trace mint leaves SpanId 0: the caller's root span owns it.
    EXPECT_EQ(C.SpanId, 0u);
    TraceIds.insert(traceIdHex(C.TraceIdHi, C.TraceIdLo));
    SpanIds.insert(mintSpanId());
  }
  EXPECT_EQ(TraceIds.size(), 64u);
  EXPECT_EQ(SpanIds.size(), 64u);
  EXPECT_FALSE(SpanIds.count(0));
  // Hex forms are fixed-width: 32 and 16 digits.
  TraceContext C = mintTraceContext();
  EXPECT_EQ(traceIdHex(C.TraceIdHi, C.TraceIdLo).size(), 32u);
  EXPECT_EQ(spanIdHex(mintSpanId()).size(), 16u);
}

TEST(ObsTraceContextTest, SpansInheritInstalledContextAndLinkParents) {
  ScopedTracing Tr;
  TraceContext Wire{0x1111, 0x2222, 0x3333};
  uint64_t OuterId = 0, InnerId = 0;
  {
    ScopedTraceContext Install(Wire);
    obs::Span Outer("ctx_outer", "test");
    OuterId = Outer.spanId();
    {
      obs::Span Inner("ctx_inner", "test");
      InnerId = Inner.spanId();
    }
  }
  // The scope is gone: the thread context is restored to none.
  EXPECT_FALSE(Tracer::currentContext().valid());

  const TraceEvent *Outer = nullptr, *Inner = nullptr;
  std::vector<TraceEvent> Evs = Tracer::instance().snapshot();
  for (const TraceEvent &E : Evs) {
    if (std::string(E.Name) == "ctx_outer")
      Outer = &E;
    if (std::string(E.Name) == "ctx_inner")
      Inner = &E;
  }
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(Inner, nullptr);
  // Both spans carry the wire trace id; the outer parents under the
  // wire span, the inner under the outer.
  EXPECT_EQ(Outer->TraceIdHi, 0x1111u);
  EXPECT_EQ(Outer->TraceIdLo, 0x2222u);
  EXPECT_EQ(Outer->ParentSpanId, 0x3333u);
  EXPECT_EQ(Outer->SpanId, OuterId);
  EXPECT_EQ(Inner->TraceIdHi, 0x1111u);
  EXPECT_EQ(Inner->ParentSpanId, OuterId);
  EXPECT_EQ(Inner->SpanId, InnerId);
  EXPECT_NE(InnerId, OuterId);
}

TEST(ObsTraceContextTest, AdoptReparentsASpanUnderTheWireContext) {
  ScopedTracing Tr;
  TraceContext Wire{0xabc, 0xdef, 0x123};
  {
    obs::Span S("ctx_adopted", "test");
    S.adopt(Wire);
    // Children started inside the scope now inherit the adopted trace.
    obs::Span Child("ctx_adopted_child", "test");
    EXPECT_EQ(Tracer::currentContext().TraceIdHi, 0xabcu);
  }
  bool SawAdopted = false, SawChild = false;
  for (const TraceEvent &E : Tracer::instance().snapshot()) {
    if (std::string(E.Name) == "ctx_adopted") {
      SawAdopted = true;
      EXPECT_EQ(E.TraceIdHi, 0xabcu);
      EXPECT_EQ(E.TraceIdLo, 0xdefu);
      EXPECT_EQ(E.ParentSpanId, 0x123u);
    }
    if (std::string(E.Name) == "ctx_adopted_child") {
      SawChild = true;
      EXPECT_EQ(E.TraceIdHi, 0xabcu);
    }
  }
  EXPECT_TRUE(SawAdopted);
  EXPECT_TRUE(SawChild);
  // Adopting an invalid context is a no-op, not a reset.
  {
    obs::Span S("ctx_no_adopt", "test");
    uint64_t Id = S.spanId();
    S.adopt(TraceContext());
    EXPECT_EQ(S.spanId(), Id);
  }
}

TEST(ObsTraceFlushTest, FlushActiveRecordsOpenSpansExactlyOnce) {
  ScopedTracing Tr;
  std::atomic<int> Stage{0};
  std::thread Th([&] {
    obs::Span Held("drain_held", "test");
    Stage.store(1);
    while (Stage.load() != 2)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // Held ends here — after the flush already recorded it.
  });
  while (Stage.load() != 1)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // The span is visible as active before the flush.
  bool SawActive = false;
  for (const ActiveSpan &A : Tracer::instance().activeSpans())
    if (std::string(A.Name) == "drain_held")
      SawActive = true;
  EXPECT_TRUE(SawActive);

  size_t Flushed = Tracer::instance().flushActive();
  EXPECT_GE(Flushed, 1u);
  size_t Count = 0;
  for (const TraceEvent &E : Tracer::instance().snapshot())
    if (std::string(E.Name) == "drain_held") {
      ++Count;
      EXPECT_NE(E.Args.find("\"flushed\":true"), std::string::npos);
    }
  EXPECT_EQ(Count, 1u);

  Stage.store(2);
  Th.join();
  // The span's normal end() after the flush must not double-record.
  Count = 0;
  for (const TraceEvent &E : Tracer::instance().snapshot())
    if (std::string(E.Name) == "drain_held")
      ++Count;
  EXPECT_EQ(Count, 1u);
}

TEST(ObsServerTest, DrainFlushesOpenSpansIntoTheTrace) {
  // Regression: a drained daemon's --trace-json used to silently drop
  // every span still open at SIGTERM. run() now flushes all threads'
  // active spans before returning.
  ScopedTracing Tr;
  server::ServerOptions SO;
  SO.SocketPath = uniqueSocketPath();
  SO.NumWorkers = 1;
  TestServer TS(SO);
  ASSERT_TRUE(TS.Ok);

  auto Held = std::make_unique<obs::Span>("inflight_at_sigterm", "test");
  TS.stop(); // run() returns only after Tracer::flushActive()

  size_t Count = 0;
  for (const TraceEvent &E : Tracer::instance().snapshot())
    if (std::string(E.Name) == "inflight_at_sigterm") {
      ++Count;
      EXPECT_NE(E.Args.find("\"flushed\":true"), std::string::npos);
    }
  EXPECT_EQ(Count, 1u);

  Held.reset(); // no-op end; still exactly one record
  Count = 0;
  for (const TraceEvent &E : Tracer::instance().snapshot())
    if (std::string(E.Name) == "inflight_at_sigterm")
      ++Count;
  EXPECT_EQ(Count, 1u);
}

//===----------------------------------------------------------------------===//
// /tracez JSON
//===----------------------------------------------------------------------===//

TEST(ObsTracezTest, RendersActiveSpansAndSlowestRequests) {
  ScopedTracing Tr;
  RequestSample S;
  S.RequestId = 987654321;
  S.TraceIdHi = 0x1234;
  S.TraceIdLo = 0x5678;
  S.TsUs = 42;
  S.Sec = 123.5;
  S.Kind = "miss";
  S.Tenant = "team-z";
  S.PhasesJson = "\"front_sec\":0.001000,\"back_sec\":0.002000";
  RequestLog Log;
  Log.record(S);

  obs::Span Open("tracez_open", "test");
  std::string Json = renderTracezJson(Log);
  EXPECT_TRUE(jsonBalanced(Json)) << Json;

  JsonValue Doc;
  std::string Err;
  ASSERT_TRUE(jsonParse(Json, Doc, Err)) << Err << "\n" << Json;
  const JsonValue *Enabled = Doc.get("tracing_enabled");
  ASSERT_NE(Enabled, nullptr);
  EXPECT_EQ(Enabled->K, JsonValue::Kind::Bool);
  EXPECT_TRUE(Enabled->B);

  const JsonValue *Active = Doc.get("active_spans");
  ASSERT_TRUE(Active && Active->isArray());
  bool SawOpen = false;
  for (const JsonValue &A : Active->Arr)
    if (A.getString("name") == "tracez_open")
      SawOpen = true;
  EXPECT_TRUE(SawOpen) << Json;

  const JsonValue *Slow = Doc.get("slowest_requests");
  ASSERT_TRUE(Slow && Slow->isArray());
  const JsonValue *Mine = nullptr;
  for (const JsonValue &R : Slow->Arr) {
    const JsonValue *Id = R.get("request_id");
    if (Id && Id->isNumber() && Id->Num == 987654321.0)
      Mine = &R;
  }
  ASSERT_NE(Mine, nullptr) << Json;
  EXPECT_EQ(Mine->getString("kind"), "miss");
  EXPECT_EQ(Mine->getString("tenant"), "team-z");
  EXPECT_EQ(Mine->getString("trace_id"), traceIdHex(0x1234, 0x5678));
  const JsonValue *Phases = Mine->get("phases");
  ASSERT_TRUE(Phases && Phases->isObject()) << Json;
  const JsonValue *Front = Phases->get("front_sec");
  ASSERT_TRUE(Front && Front->isNumber());
  EXPECT_NEAR(Front->Num, 0.001, 1e-9);
}

//===----------------------------------------------------------------------===//
// Structured logging
//===----------------------------------------------------------------------===//

namespace {

/// Redirects the global logger to a temp file and restores stderr +
/// the default level however the test exits.
struct ScopedLogCapture {
  ScopedLogCapture() {
    Path = "/tmp/smltc_obs_log_" + std::to_string(::getpid()) + "_" +
           std::to_string(Seq++) + ".jsonl";
    std::string Err;
    EXPECT_TRUE(Logger::instance().openFile(Path, Err)) << Err;
  }
  ~ScopedLogCapture() {
    Logger::instance().closeFile();
    Logger::setLevel(LogLevel::Warn);
    ::unlink(Path.c_str());
  }
  std::vector<std::string> lines() const {
    Logger::instance(); // flushed on every write; just read the file
    std::ifstream F(Path);
    std::vector<std::string> Ls;
    std::string L;
    while (std::getline(F, L))
      if (!L.empty())
        Ls.push_back(L);
    return Ls;
  }
  std::string Path;
  static int Seq;
};

int ScopedLogCapture::Seq = 0;

} // namespace

TEST(ObsLogTest, EmitsJsonLinesGatedByLevel) {
  ScopedLogCapture Cap;
  Logger::setLevel(LogLevel::Info);
  SMLTC_LOG(LogLevel::Info, "test", "visible",
            LogFields().add("answer", uint64_t(42)).add("who", "a\"b").take());
  SMLTC_LOG(LogLevel::Debug, "test", "gated", std::string());

  std::vector<std::string> Ls = Cap.lines();
  ASSERT_EQ(Ls.size(), 1u);
  JsonValue Doc;
  std::string Err;
  ASSERT_TRUE(jsonParse(Ls[0], Doc, Err)) << Err << "\n" << Ls[0];
  EXPECT_EQ(Doc.getString("level"), "info");
  EXPECT_EQ(Doc.getString("comp"), "test");
  EXPECT_EQ(Doc.getString("event"), "visible");
  EXPECT_EQ(Doc.getString("who"), "a\"b");
  const JsonValue *Ts = Doc.get("ts");
  ASSERT_TRUE(Ts && Ts->isNumber());
  EXPECT_GT(Ts->Num, 1.0e9); // a real wall clock, not zero
  const JsonValue *Answer = Doc.get("answer");
  ASSERT_TRUE(Answer && Answer->isNumber());
  EXPECT_EQ(Answer->Num, 42.0);

  // Off silences even Error.
  Logger::setLevel(LogLevel::Off);
  SMLTC_LOG(LogLevel::Error, "test", "silenced", std::string());
  EXPECT_EQ(Cap.lines().size(), 1u);
}

TEST(ObsLogTest, LinesCarryTheInstalledTraceContext) {
  ScopedLogCapture Cap;
  Logger::setLevel(LogLevel::Info);
  {
    ScopedTraceContext Install(TraceContext{0xfeed, 0xbeef, 0x77});
    SMLTC_LOG(LogLevel::Info, "test", "traced", std::string());
  }
  SMLTC_LOG(LogLevel::Info, "test", "untraced", std::string());

  std::vector<std::string> Ls = Cap.lines();
  ASSERT_EQ(Ls.size(), 2u);
  JsonValue Traced, Untraced;
  std::string Err;
  ASSERT_TRUE(jsonParse(Ls[0], Traced, Err)) << Err;
  ASSERT_TRUE(jsonParse(Ls[1], Untraced, Err)) << Err;
  EXPECT_EQ(Traced.getString("trace_id"), traceIdHex(0xfeed, 0xbeef));
  EXPECT_EQ(Traced.getString("span_id"), spanIdHex(0x77));
  EXPECT_EQ(Untraced.get("trace_id"), nullptr);
}

TEST(ObsLogTest, RateLimitBoundsPerKeyEmissionAndSummarises) {
  ScopedLogCapture Cap;
  Logger::setLevel(LogLevel::Info);
  // 4x the cap, as fast as possible. Even if the burst straddles a
  // second boundary it can emit at most two windows' worth.
  const uint64_t Burst = Logger::kMaxPerKeyPerSec * 4;
  for (uint64_t I = 0; I < Burst; ++I)
    SMLTC_LOG(LogLevel::Info, "test", "flood",
              LogFields().add("i", I).take());
  // A different key is not throttled by the flood.
  SMLTC_LOG(LogLevel::Info, "test", "calm", std::string());

  size_t FloodLines = 0, CalmLines = 0;
  for (const std::string &L : Cap.lines()) {
    if (L.find("\"event\":\"flood\"") != std::string::npos)
      ++FloodLines;
    if (L.find("\"event\":\"calm\"") != std::string::npos)
      ++CalmLines;
  }
  EXPECT_LE(FloodLines, 2 * Logger::kMaxPerKeyPerSec);
  EXPECT_GE(FloodLines, 1u);
  EXPECT_EQ(CalmLines, 1u);
  EXPECT_GE(Logger::instance().suppressedCount(),
            Burst - 2 * Logger::kMaxPerKeyPerSec);
}

TEST(ObsLogTest, ParsesEveryDocumentedLevelAndRejectsOthers) {
  LogLevel L;
  EXPECT_TRUE(parseLogLevel("debug", L));
  EXPECT_EQ(L, LogLevel::Debug);
  EXPECT_TRUE(parseLogLevel("off", L));
  EXPECT_EQ(L, LogLevel::Off);
  EXPECT_FALSE(parseLogLevel("verbose", L));
  EXPECT_FALSE(parseLogLevel("", L));
  EXPECT_STREQ(logLevelName(LogLevel::Warn), "warn");
}

//===----------------------------------------------------------------------===//
// JSON parser (merge_traces' reader)
//===----------------------------------------------------------------------===//

TEST(ObsJsonTest, ParserRoundTripsWriterOutputAndRejectsGarbage) {
  JsonWriter W;
  W.beginObject()
      .field("n", uint64_t(7))
      .field("d", 2.5, 3)
      .field("s", "a\"b\\c\n")
      .field("t", true)
      .key("arr")
      .beginArray()
      .value(uint64_t(1))
      .value("two")
      .endArray()
      .key("obj")
      .beginObject()
      .field("inner", int64_t(-3))
      .endObject()
      .endObject();

  JsonValue Doc;
  std::string Err;
  ASSERT_TRUE(jsonParse(W.str(), Doc, Err)) << Err;
  EXPECT_EQ(Doc.get("n")->Num, 7.0);
  EXPECT_EQ(Doc.get("d")->Num, 2.5);
  EXPECT_EQ(Doc.getString("s"), "a\"b\\c\n");
  EXPECT_TRUE(Doc.get("t")->B);
  ASSERT_TRUE(Doc.get("arr")->isArray());
  EXPECT_EQ(Doc.get("arr")->Arr.size(), 2u);
  EXPECT_EQ(Doc.get("arr")->Arr[1].Str, "two");
  EXPECT_EQ(Doc.get("obj")->get("inner")->Num, -3.0);

  for (const char *Bad :
       {"", "{", "{\"a\":}", "[1,]", "{\"a\":1} trailing", "nul",
        "{\"a\" 1}", "\"unterminated"})
    EXPECT_FALSE(jsonParse(Bad, Doc, Err)) << Bad;
}

//===----------------------------------------------------------------------===//
// Prometheus exposition lint over a full node registry
//===----------------------------------------------------------------------===//

namespace {

bool validMetricName(const std::string &N) {
  if (N.empty())
    return false;
  for (size_t I = 0; I < N.size(); ++I) {
    char C = N[I];
    bool Ok = std::isalpha(static_cast<unsigned char>(C)) || C == '_' ||
              C == ':' || (I > 0 && std::isdigit(static_cast<unsigned char>(C)));
    if (!Ok)
      return false;
  }
  return true;
}

bool validLabelName(const std::string &N) {
  if (N.empty())
    return false;
  for (size_t I = 0; I < N.size(); ++I) {
    char C = N[I];
    bool Ok = std::isalpha(static_cast<unsigned char>(C)) || C == '_' ||
              (I > 0 && std::isdigit(static_cast<unsigned char>(C)));
    if (!Ok)
      return false;
  }
  return true;
}

/// The family a sample belongs to: its name minus a histogram suffix.
std::string familyOf(const std::string &Name) {
  for (const char *Suffix : {"_bucket", "_sum", "_count"}) {
    size_t L = std::strlen(Suffix);
    if (Name.size() > L && Name.compare(Name.size() - L, L, Suffix) == 0)
      return Name.substr(0, Name.size() - L);
  }
  return Name;
}

} // namespace

TEST(ObsMetricsTest, FullExpositionPassesPrometheusLint) {
  Registry R;
  // Everything a farm node's registry carries: build identity and
  // process start time, the process-global GC histograms under both
  // labels, labelled tier histograms, plain counters and callbacks.
  registerProcessInfo(R, compilerVersion(),
                      std::to_string(optionsSchemaVersion()), 4);
  R.registerHistogram("smltcc_vm_gc_pause_seconds", gcPauseHistogram(false),
                      "GC pause", "gc", "minor");
  R.registerHistogram("smltcc_vm_gc_pause_seconds", gcPauseHistogram(true),
                      "GC pause", "gc", "major");
  R.registerHistogram("smltcc_vm_gc_copied_words",
                      gcCopiedWordsHistogram(false), "Words copied", "gc",
                      "minor");
  R.registerHistogram("smltcc_vm_gc_copied_words",
                      gcCopiedWordsHistogram(true), "Words copied", "gc",
                      "major");
  R.histogram("lint_seconds", {0.1, 1.0}, "Latency", "tier", "memory")
      .observe(0.05);
  R.histogram("lint_seconds", {0.1, 1.0}, "Latency", "tier", "miss")
      .observe(0.5);
  R.counter("lint_ops_total", "Ops").inc(3);
  R.gaugeFn("lint_depth", [] { return 1.5; }, "Depth");

  std::string P = R.renderPrometheus();
  std::istringstream In(P);
  std::string Line;
  std::set<std::string> HelpSeen, TypeSeen, Series;
  size_t Samples = 0;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    if (Line.rfind("# HELP ", 0) == 0 || Line.rfind("# TYPE ", 0) == 0) {
      std::istringstream Hdr(Line);
      std::string Hash, Kw, Fam, Rest;
      Hdr >> Hash >> Kw >> Fam;
      ASSERT_TRUE(validMetricName(Fam)) << Line;
      std::set<std::string> &Seen = Kw == "HELP" ? HelpSeen : TypeSeen;
      // One header per family, and HELP always precedes TYPE's samples.
      EXPECT_TRUE(Seen.insert(Fam).second)
          << "duplicate # " << Kw << " for " << Fam;
      if (Kw == "TYPE") {
        Hdr >> Rest;
        EXPECT_TRUE(Rest == "counter" || Rest == "gauge" ||
                    Rest == "histogram")
            << Line;
      }
      continue;
    }
    ASSERT_FALSE(Line[0] == '#') << "unknown comment form: " << Line;
    // Sample line: name[{labels}] value
    size_t Brace = Line.find('{');
    size_t Space = Line.find(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    std::string Name =
        Line.substr(0, Brace == std::string::npos ? Space : Brace);
    ASSERT_TRUE(validMetricName(Name)) << Line;
    std::string Labels;
    if (Brace != std::string::npos && Brace < Space) {
      size_t Close = Line.find('}', Brace);
      ASSERT_NE(Close, std::string::npos) << Line;
      Labels = Line.substr(Brace + 1, Close - Brace - 1);
      // Each label is key="value".
      size_t Pos = 0;
      while (Pos < Labels.size()) {
        size_t Eq = Labels.find('=', Pos);
        ASSERT_NE(Eq, std::string::npos) << Line;
        ASSERT_TRUE(validLabelName(Labels.substr(Pos, Eq - Pos))) << Line;
        ASSERT_EQ(Labels[Eq + 1], '"') << Line;
        size_t EndQ = Labels.find('"', Eq + 2);
        ASSERT_NE(EndQ, std::string::npos) << Line;
        Pos = EndQ + 1;
        if (Pos < Labels.size()) {
          ASSERT_EQ(Labels[Pos], ',') << Line;
          ++Pos;
        }
      }
    }
    // The family headers must have preceded the first sample.
    std::string Fam = familyOf(Name);
    EXPECT_TRUE(HelpSeen.count(Fam)) << "sample before # HELP: " << Line;
    EXPECT_TRUE(TypeSeen.count(Fam)) << "sample before # TYPE: " << Line;
    // No duplicate (name, labels) series.
    EXPECT_TRUE(Series.insert(Name + "{" + Labels + "}").second)
        << "duplicate series: " << Line;
    // The value parses as a number (+Inf only appears inside le="").
    std::string Val = Line.substr(Space + 1);
    ASSERT_FALSE(Val.empty()) << Line;
    char *End = nullptr;
    std::strtod(Val.c_str(), &End);
    EXPECT_EQ(*End, '\0') << "bad sample value: " << Line;
    ++Samples;
  }
  EXPECT_GT(Samples, 40u); // 4 histograms' buckets alone clear this
  // The info-gauge carries all three build labels with value 1.
  EXPECT_NE(P.find("smltcc_build_info{version=\""), std::string::npos) << P;
  EXPECT_NE(P.find("cache_schema=\""), std::string::npos);
  EXPECT_NE(P.find("protocol=\"4\"} 1"), std::string::npos);
  EXPECT_NE(P.find("smltcc_process_start_time_seconds"), std::string::npos);
}
