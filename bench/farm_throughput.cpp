//===- bench/farm_throughput.cpp - Build-farm saturation and scaling ------------===//
//
// Exercises the farm stack end to end — TCP transport, tenant auth,
// fair-share admission, and the consistent-hash router — on the full
// Figure 7/8 workload (12 benchmarks x 6 variants = 72 unique compile
// requests) and reports requests/sec plus p50/p99 client-observed
// latency per phase:
//
//   1. identity     every job through a 2-shard router farm must come
//                   back byte-identical to a local Compiler::compile
//   2. warm-1shard  one daemon whose memory cache (60 entries) is
//                   smaller than the working set: repeat traffic
//                   thrashes the FIFO tier and recompiles
//   3. warm-2shard  the same cache cap per shard, but the router's
//                   ring splits the key space so each shard's share
//                   fits: repeat traffic is served from memory. The
//                   scaling gate is warm-2shard >= 1.5x warm-1shard —
//                   on a single-core container the speedup comes from
//                   cache capacity, not parallel compute, which is
//                   exactly the router's job (shard affinity).
//   4. overload     more clients than the farm admits (1 worker, tiny
//                   global queue, tighter per-tenant quotas): every
//                   request must end in Ok or a clean QueueFull —
//                   zero protocol/transport errors, p99 reported
//   5. scrape       GET /metrics from shard and router must return
//                   Prometheus text with live per-tenant series
//
// Usage: farm_throughput [--smoke] [--iters=N] [--out=PATH]
//   --smoke   one warm iteration, small overload burst (CI run);
//             all gates stay on
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "farm/Net.h"
#include "farm/Router.h"
#include "server/Client.h"
#include "server/Server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace smltc;
using namespace smltc::bench;
using namespace smltc::server;

namespace {

constexpr const char *kTokenA = "bench-token-aaaa";
constexpr const char *kTokenB = "bench-token-bbbb";

/// The memory-cache cap per daemon: deliberately below the 72-job
/// working set so a single shard thrashes (FIFO + cyclic repeats = all
/// misses) while either half of a 2-shard split fits. The headroom over
/// 72/2 absorbs ring imbalance — the split depends on the shards'
/// ephemeral ports, so it is never exactly 36/36.
constexpr size_t kShardCacheEntries = 60;

std::string writeTokenFile(bool TightQuotas) {
  char Buf[] = "/tmp/smltc_farm_bench_tok_XXXXXX";
  int Fd = ::mkstemp(Buf);
  if (Fd < 0)
    return "";
  // Overload runs with per-tenant queue quotas small enough to trip
  // before the global cap; the throughput phases leave them roomy.
  std::string Text =
      TightQuotas ? "bench-a bench-token-aaaa 3 4 2\n"
                    "bench-b bench-token-bbbb 1 4 2\n"
                  : "bench-a bench-token-aaaa 3 0 0\n"
                    "bench-b bench-token-bbbb 1 0 0\n";
  (void)!::write(Fd, Text.data(), Text.size());
  ::close(Fd);
  return Buf;
}

struct PhaseStats {
  double WallSec = 0;
  std::vector<double> LatMs;
  size_t Ok = 0, QueueFull = 0, OtherReject = 0;
  size_t Mismatches = 0, TransportErrors = 0;

  double rps() const {
    return WallSec > 0 ? static_cast<double>(LatMs.size()) / WallSec : 0;
  }
  double pct(double P) const {
    if (LatMs.empty())
      return 0;
    std::vector<double> S = LatMs;
    std::sort(S.begin(), S.end());
    size_t I = static_cast<size_t>(P * (S.size() - 1));
    return S[I];
  }
};

/// Runs `Jobs` through `Target` with `Clients` connections, striped so
/// every job is sent exactly once. Odd clients authenticate as bench-b,
/// even as bench-a (weight 3:1). `Expected` enables byte-identity
/// checking when non-null.
PhaseStats runPhase(const std::string &Target,
                    const std::vector<CompileJob> &Jobs,
                    const std::vector<std::string> *Expected,
                    size_t Clients) {
  std::vector<PhaseStats> Per(Clients);
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Ts;
  for (size_t CI = 0; CI < Clients; ++CI)
    Ts.emplace_back([&, CI] {
      PhaseStats &P = Per[CI];
      Client C;
      std::string Err;
      if (!C.connect(Target, Err)) {
        ++P.TransportErrors;
        return;
      }
      AuthOkMsg Ok;
      if (!C.authenticate(CI % 2 ? kTokenB : kTokenA, Ok, Err)) {
        ++P.TransportErrors;
        return;
      }
      for (size_t I = CI; I < Jobs.size(); I += Clients) {
        CompileRequest Req;
        Req.Source = Jobs[I].Source;
        Req.Opts = Jobs[I].Opts;
        Req.WithPrelude = Jobs[I].WithPrelude;
        CompileResponse Resp;
        auto S = std::chrono::steady_clock::now();
        if (!C.compile(Req, Resp, Err)) {
          ++P.TransportErrors;
          // One transport failure poisons the connection; reconnect so
          // one hiccup does not cascade into a phase-wide failure.
          if (!C.connect(Target, Err) ||
              !C.authenticate(CI % 2 ? kTokenB : kTokenA, Ok, Err))
            return;
          continue;
        }
        P.LatMs.push_back(
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - S)
                .count());
        switch (Resp.St) {
        case Status::Ok:
          ++P.Ok;
          if (Expected && programBytes(Resp.Program) != (*Expected)[I])
            ++P.Mismatches;
          break;
        case Status::QueueFull:
          ++P.QueueFull;
          break;
        default:
          ++P.OtherReject;
          break;
        }
      }
    });
  for (std::thread &T : Ts)
    T.join();
  PhaseStats S;
  S.WallSec = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  for (const PhaseStats &P : Per) {
    S.LatMs.insert(S.LatMs.end(), P.LatMs.begin(), P.LatMs.end());
    S.Ok += P.Ok;
    S.QueueFull += P.QueueFull;
    S.OtherReject += P.OtherReject;
    S.Mismatches += P.Mismatches;
    S.TransportErrors += P.TransportErrors;
  }
  return S;
}

/// A compile unit whose front-end cost scales with NumFuns; the
/// overload phase needs requests slow enough to pile up a queue.
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

std::unique_ptr<CompileServer> startShard(const std::string &TokenFile,
                                          size_t MaxQueue,
                                          std::thread &Th) {
  ServerOptions SO;
  SO.ListenAddr = "127.0.0.1:0";
  SO.TokenFile = TokenFile;
  SO.MaxQueue = MaxQueue;
  SO.MaxMemCacheEntries = kShardCacheEntries;
  auto S = std::make_unique<CompileServer>(SO);
  std::string Err;
  if (!S->start(Err)) {
    std::fprintf(stderr, "shard start failed: %s\n", Err.c_str());
    return nullptr;
  }
  CompileServer *Raw = S.get();
  Th = std::thread([Raw] { Raw->run(); });
  return S;
}

std::unique_ptr<farm::FarmRouter>
startRouter(const std::vector<std::string> &Backends, std::thread &Th) {
  farm::RouterOptions RO;
  RO.ListenAddr = "127.0.0.1:0";
  RO.Backends = Backends;
  RO.RetryBaseMs = 5;
  RO.VirtualNodes = 128; // smoother 2-way key split for the cache gate
  auto R = std::make_unique<farm::FarmRouter>(RO);
  std::string Err;
  if (!R->start(Err)) {
    std::fprintf(stderr, "router start failed: %s\n", Err.c_str());
    return nullptr;
  }
  farm::FarmRouter *Raw = R.get();
  Th = std::thread([Raw] { Raw->run(); });
  return R;
}

/// One raw HTTP scrape; returns the full response (or "" on failure).
std::string scrape(const std::string &HostPort) {
  std::string Err;
  int Fd = farm::connectTcp(HostPort, Err);
  if (Fd < 0)
    return "";
  std::string Req = "GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n";
  if (::send(Fd, Req.data(), Req.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(Req.size())) {
    ::close(Fd);
    return "";
  }
  std::string All;
  char Buf[8192];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      break;
    All.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);
  return All;
}

std::string phaseJson(const char *Name, const PhaseStats &S) {
  char Buf[512];
  std::snprintf(
      Buf, sizeof(Buf),
      "\"%s\":{\"requests\":%zu,\"ok\":%zu,\"queue_full\":%zu,"
      "\"other_rejects\":%zu,\"transport_errors\":%zu,"
      "\"mismatches\":%zu,\"wall_sec\":%.4f,\"rps\":%.1f,"
      "\"p50_ms\":%.3f,\"p99_ms\":%.3f}",
      Name, S.LatMs.size(), S.Ok, S.QueueFull, S.OtherReject,
      S.TransportErrors, S.Mismatches, S.WallSec, S.rps(), S.pct(0.50),
      S.pct(0.99));
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  int WarmIters = 3;
  std::string OutPath = "BENCH_farm.json";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(Argv[I], "--iters=", 8) == 0)
      WarmIters = std::atoi(Argv[I] + 8);
    else if (std::strncmp(Argv[I], "--out=", 6) == 0)
      OutPath = Argv[I] + 6;
  }
  if (Smoke)
    WarmIters = 1;
  if (WarmIters < 1)
    WarmIters = 1;

  std::vector<CompileJob> Jobs = corpusMatrixJobs();
  std::printf("farm_throughput: %zu jobs%s\n\n", Jobs.size(),
              Smoke ? " (smoke)" : "");

  // Local baseline: the byte-identity reference.
  std::vector<std::string> Expected(Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    CompileOutput C =
        Compiler::compile(Jobs[I].Source, Jobs[I].Opts, Jobs[I].WithPrelude);
    if (!C.Ok) {
      std::fprintf(stderr, "baseline compile %zu failed: %s\n", I,
                   C.Errors.c_str());
      return 1;
    }
    Expected[I] = programBytes(C.Program);
  }

  std::string TokensRoomy = writeTokenFile(false);
  std::string TokensTight = writeTokenFile(true);
  if (TokensRoomy.empty() || TokensTight.empty()) {
    std::fprintf(stderr, "token file setup failed\n");
    return 1;
  }
  size_t RoomyQueue = Jobs.size() + 8; // admission never the bottleneck

  // --- Phases 1 + 3: 2-shard router farm — identity, then warm rps ---
  PhaseStats Identity, Warm2;
  std::string RouterScrape, ShardScrape;
  {
    std::thread T1, T2, TR;
    auto S1 = startShard(TokensRoomy, RoomyQueue, T1);
    auto S2 = startShard(TokensRoomy, RoomyQueue, T2);
    if (!S1 || !S2)
      return 1;
    auto R = startRouter({S1->tcpAddr(), S2->tcpAddr()}, TR);
    if (!R)
      return 1;
    std::string Via = std::string(farm::kTcpScheme) + R->tcpAddr();

    Identity = runPhase(Via, Jobs, &Expected, 2);
    std::printf("identity     %6.1f req/s  p50 %7.3fms  p99 %7.3fms  "
                "(ok %zu, mismatches %zu)\n",
                Identity.rps(), Identity.pct(0.5), Identity.pct(0.99),
                Identity.Ok, Identity.Mismatches);

    for (int It = 0; It < WarmIters; ++It) {
      PhaseStats W = runPhase(Via, Jobs, &Expected, 2);
      if (It == 0 || W.rps() > Warm2.rps())
        Warm2 = std::move(W);
    }
    std::printf("warm-2shard  %6.1f req/s  p50 %7.3fms  p99 %7.3fms  "
                "(ok %zu, mismatches %zu)\n",
                Warm2.rps(), Warm2.pct(0.5), Warm2.pct(0.99), Warm2.Ok,
                Warm2.Mismatches);

    ShardScrape = scrape(S1->tcpAddr());
    RouterScrape = scrape(R->tcpAddr());

    R->requestStop();
    TR.join();
    S1->requestStop();
    S2->requestStop();
    T1.join();
    T2.join();
  }

  // --- Phase 2: one shard, same cache cap — the working set thrashes ---
  PhaseStats Warm1;
  {
    std::thread T1;
    auto S1 = startShard(TokensRoomy, RoomyQueue, T1);
    if (!S1)
      return 1;
    std::string Via = std::string(farm::kTcpScheme) + S1->tcpAddr();
    runPhase(Via, Jobs, nullptr, 2); // cold fill
    for (int It = 0; It < WarmIters; ++It) {
      PhaseStats W = runPhase(Via, Jobs, &Expected, 2);
      if (It == 0 || W.rps() > Warm1.rps())
        Warm1 = std::move(W);
    }
    std::printf("warm-1shard  %6.1f req/s  p50 %7.3fms  p99 %7.3fms  "
                "(ok %zu, mismatches %zu)\n",
                Warm1.rps(), Warm1.pct(0.5), Warm1.pct(0.99), Warm1.Ok,
                Warm1.Mismatches);
    S1->requestStop();
    T1.join();
  }

  // --- Phase 4: overload through the router ---
  // One worker, a 4-deep global queue, and 2-deep tenant queues; 8
  // clients racing unique sources guarantee sustained saturation.
  PhaseStats Over;
  {
    std::thread T1, TR;
    ServerOptions SO;
    SO.ListenAddr = "127.0.0.1:0";
    SO.TokenFile = TokensTight;
    SO.NumWorkers = 1;
    SO.MaxQueue = 4;
    auto S1 = std::make_unique<CompileServer>(SO);
    std::string Err;
    if (!S1->start(Err)) {
      std::fprintf(stderr, "overload shard start failed: %s\n",
                   Err.c_str());
      return 1;
    }
    CompileServer *RawS = S1.get();
    T1 = std::thread([RawS] { RawS->run(); });
    auto R = startRouter({S1->tcpAddr()}, TR);
    if (!R)
      return 1;
    std::string Via = std::string(farm::kTcpScheme) + R->tcpAddr();

    size_t PerClient = Smoke ? 4 : 12;
    std::vector<CompileJob> Burst;
    for (size_t CI = 0; CI < 8; ++CI)
      for (size_t I = 0; I < PerClient; ++I) {
        CompileJob J;
        J.Source = heavySource(
            120, static_cast<int>(CI * PerClient + I + 1) * 7);
        Burst.push_back(std::move(J));
      }
    Over = runPhase(Via, Burst, nullptr, 8);
    std::printf("overload     %6.1f req/s  p50 %7.3fms  p99 %7.3fms  "
                "(ok %zu, queue-full %zu, other %zu, transport %zu)\n\n",
                Over.rps(), Over.pct(0.5), Over.pct(0.99), Over.Ok,
                Over.QueueFull, Over.OtherReject, Over.TransportErrors);
    R->requestStop();
    TR.join();
    S1->requestStop();
    T1.join();
  }
  ::unlink(TokensRoomy.c_str());
  ::unlink(TokensTight.c_str());

  // --- Gates ---
  size_t N = Jobs.size();
  bool IdentityOk = Identity.Ok == N && Identity.Mismatches == 0 &&
                    Warm2.Mismatches == 0 && Warm1.Mismatches == 0 &&
                    Identity.TransportErrors == 0;
  double Ratio = Warm1.rps() > 0 ? Warm2.rps() / Warm1.rps() : 0;
  bool ScalingOk = Ratio >= 1.5;
  bool OverloadOk = Over.OtherReject == 0 && Over.TransportErrors == 0 &&
                    Over.QueueFull > 0 &&
                    Over.Ok + Over.QueueFull == Over.LatMs.size();
  bool ScrapeOk =
      ShardScrape.find("HTTP/1.1 200") != std::string::npos &&
      ShardScrape.find("# TYPE smltcc_tenant_requests_total counter") !=
          std::string::npos &&
      ShardScrape.find("smltcc_tenant_requests_total{tenant=\"bench-a\"}") !=
          std::string::npos &&
      ShardScrape.find("smltcc_tenant_requests_total{tenant=\"bench-b\"}") !=
          std::string::npos &&
      RouterScrape.find("smltcc_router_backend_healthy{backend=") !=
          std::string::npos;

  bool Pass = IdentityOk && ScalingOk && OverloadOk && ScrapeOk;

  FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(Out, "{\n  \"bench\": \"farm_throughput\",\n");
  std::fprintf(Out, "  \"smoke\": %s,\n  \"jobs\": %zu,\n",
               Smoke ? "true" : "false", N);
  std::fprintf(Out, "  \"shard_cache_entries\": %zu,\n",
               kShardCacheEntries);
  std::fprintf(Out, "  %s,\n", phaseJson("identity", Identity).c_str());
  std::fprintf(Out, "  %s,\n", phaseJson("warm_1shard", Warm1).c_str());
  std::fprintf(Out, "  %s,\n", phaseJson("warm_2shard", Warm2).c_str());
  std::fprintf(Out, "  %s,\n", phaseJson("overload", Over).c_str());
  std::fprintf(Out,
               "  \"gates\": {\"byte_identical\": %s, "
               "\"shard_scaling_ratio\": %.2f, "
               "\"shard_scaling_min\": 1.5, \"shard_scaling_ok\": %s, "
               "\"overload_clean\": %s, \"scrape_ok\": %s},\n",
               IdentityOk ? "true" : "false", Ratio,
               ScalingOk ? "true" : "false", OverloadOk ? "true" : "false",
               ScrapeOk ? "true" : "false");
  std::fprintf(Out, "  \"pass\": %s\n}\n", Pass ? "true" : "false");
  std::fclose(Out);

  std::printf("2-shard/1-shard warm rps ratio: %.2fx (gate >= 1.5x)\n",
              Ratio);
  std::printf("gates: identity=%d scaling=%d overload=%d scrape=%d\n",
              IdentityOk, ScalingOk, OverloadOk, ScrapeOk);
  std::printf("%s -> %s\n", Pass ? "PASS" : "FAIL", OutPath.c_str());
  return Pass ? 0 : 1;
}
