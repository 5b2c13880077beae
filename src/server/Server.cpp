//===- server/Server.cpp - The smltcc compile daemon -------------------------===//

#include "server/Server.h"

#include "cps/CpsOpt.h"
#include "driver/PreludeSnapshot.h"
#include "farm/Http.h"
#include "farm/Net.h"
#include "native/NativeBackend.h"
#include "driver/CompileCache.h"
#include "obs/Json.h"
#include "obs/Log.h"
#include "obs/Trace.h"
#include "vm/Heap.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace smltc;
using namespace smltc::server;

namespace {

bool setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

/// Signal-handler target (process-global; installSignalHandlers).
CompileServer *volatile GSignalServer = nullptr;

void onStopSignal(int) {
  if (CompileServer *S = GSignalServer)
    S->requestStop();
}

} // namespace

std::string ServerMetrics::toJson(size_t QueueDepthNow,
                                  const DiskCache *Disk) const {
  // Field names, order, and numeric formats are frozen: existing
  // `--remote-stats` consumers parse this shape byte for byte.
  obs::JsonWriter W;
  W.beginObject()
      .field("connections", Connections)
      .field("connections_rejected", ConnectionsRejected)
      .field("requests", Requests)
      .field("ping_requests", PingRequests)
      .field("compile_requests", CompileRequests)
      .field("stats_requests", StatsRequests)
      .field("shutdown_requests", ShutdownRequests)
      .field("compile_ok", CompileOk)
      .field("compile_errors", CompileErrors)
      .field("queue_full_rejects", QueueFullRejects)
      .field("deadline_misses", DeadlineMisses)
      .field("draining_rejects", DrainingRejects)
      .field("protocol_errors", ProtocolErrors)
      .field("cache_memory_hits", MemoryHits)
      .field("cache_disk_hits", DiskHits)
      .field("cache_misses", CacheMisses)
      .field("bytes_in", BytesIn)
      .field("bytes_out", BytesOut)
      .field("queue_depth", QueueDepthNow)
      .field("queue_depth_peak", QueueDepthPeak)
      .field("auth_requests", AuthRequests)
      .field("auth_rejects", AuthRejects)
      .field("tenant_quota_rejects", TenantQuotaRejects)
      .field("scrape_requests", ScrapeRequests);
  if (Disk)
    W.fieldRaw("disk_cache", Disk->statsJson());
  W.endObject();
  return W.take();
}

CompileServer::CompileServer(ServerOptions Options)
    : Opts(std::move(Options)) {}

CompileServer::~CompileServer() {
  for (auto &KV : Conns)
    if (KV.second.Fd >= 0)
      ::close(KV.second.Fd);
  Conns.clear();
  // The pool must die before the completion queue: its destructor joins
  // the workers, after which no Done callback can touch `Completions`.
  Pool.reset();
  if (ListenFd >= 0)
    ::close(ListenFd);
  if (TcpListenFd >= 0)
    ::close(TcpListenFd);
  if (WakePipe[0] >= 0)
    ::close(WakePipe[0]);
  if (WakePipe[1] >= 0)
    ::close(WakePipe[1]);
  if (Started && !Opts.SocketPath.empty())
    ::unlink(Opts.SocketPath.c_str());
}

bool CompileServer::start(std::string &Err) {
  if (Opts.SocketPath.empty() && Opts.ListenAddr.empty()) {
    Err = "server needs a Unix socket path or a TCP listen address";
    return false;
  }
  sockaddr_un Addr;
  if (!Opts.SocketPath.empty() &&
      Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path too long (max " +
          std::to_string(sizeof(Addr.sun_path) - 1) + " bytes)";
    return false;
  }

  // Tenancy: token file -> registry -> one fair-share queue per tenant.
  // Without a token file the farm degenerates to a single implicit
  // tenant with no per-tenant quotas, which reproduces the old
  // single-bounded-queue admission behavior exactly.
  if (!Opts.TokenFile.empty()) {
    if (!Tenants.loadFile(Opts.TokenFile, Err))
      return false;
    AuthRequired = true;
  }
  Sched = std::make_unique<farm::FairShareScheduler>(Opts.MaxQueue);
  if (AuthRequired) {
    for (const farm::TenantConfig &T : Tenants.tenants())
      Sched->addTenant(T);
  } else {
    farm::TenantConfig Def;
    Def.Name = "default";
    Def.MaxInFlight = 0;
    Def.MaxQueued = 0;
    Sched->addTenant(Def);
  }

  Cache = std::make_unique<CompileCache>();
  Cache->setMaxEntries(Opts.MaxMemCacheEntries);
  if (!Opts.DiskCachePath.empty()) {
    DiskCacheOptions DO;
    DO.Root = Opts.DiskCachePath;
    DO.CapacityBytes = Opts.DiskCacheCapBytes;
    Disk = std::make_unique<DiskCache>(DO);
    if (!Disk->init(Err))
      return false;
    Cache->setBackingStore(Disk.get());
  }
  BatchOptions BO;
  BO.NumThreads = Opts.NumWorkers;
  BO.Cache = Cache.get();
  // Admission control moved up a layer: the fair-share scheduler bounds
  // what gets in (Opts.MaxQueue globally, MaxQueued per tenant) and
  // releases jobs only as workers free up, so the pool queue itself
  // stays near-empty and unbounded is safe.
  BO.MaxQueue = 0;
  Pool = std::make_unique<BatchCompiler>(BO);
  PoolTargetInFlight = std::max<size_t>(1, Pool->numThreads());

  if (::pipe(WakePipe) != 0) {
    Err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  setNonBlocking(WakePipe[0]);
  setNonBlocking(WakePipe[1]);

  if (!Opts.SocketPath.empty()) {
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0) {
      Err = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    // A previous daemon that crashed leaves a stale socket file behind;
    // binding over it needs the unlink. A *live* daemon on the same
    // path is the operator's error — first bind wins after the unlink.
    ::unlink(Opts.SocketPath.c_str());
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) != 0) {
      Err = "bind '" + Opts.SocketPath + "': " + std::strerror(errno);
      return false;
    }
    if (::listen(ListenFd, 64) != 0) {
      Err = std::string("listen: ") + std::strerror(errno);
      return false;
    }
    setNonBlocking(ListenFd);
  }
  if (!Opts.ListenAddr.empty()) {
    TcpListenFd = farm::listenTcp(Opts.ListenAddr, Err);
    if (TcpListenFd < 0)
      return false;
    setNonBlocking(TcpListenFd);
    BoundTcpAddr = farm::localAddr(TcpListenFd);
  }
  StartTime = std::chrono::steady_clock::now();
  registerMetrics();
  Started = true;
  return true;
}

void CompileServer::registerMetrics() {
  obs::registerProcessInfo(Reg, compilerVersion(),
                           std::to_string(optionsSchemaVersion()),
                           kProtocolVersion);
  registerCpsOptMetrics(Reg);
  native::registerNativeMetrics(Reg);
  // The VM's process-global GC histograms; label pairs registered
  // back-to-back so each family renders one HELP/TYPE header.
  Reg.registerHistogram("smltcc_vm_gc_pause_seconds", gcPauseHistogram(false),
                        "Stop-the-world GC pause duration", "gc", "minor");
  Reg.registerHistogram("smltcc_vm_gc_pause_seconds", gcPauseHistogram(true),
                        "Stop-the-world GC pause duration", "gc", "major");
  Reg.registerHistogram("smltcc_vm_gc_copied_words",
                        gcCopiedWordsHistogram(false),
                        "Words promoted (minor) or copied (major) per "
                        "collection",
                        "gc", "minor");
  Reg.registerHistogram("smltcc_vm_gc_copied_words",
                        gcCopiedWordsHistogram(true),
                        "Words promoted (minor) or copied (major) per "
                        "collection",
                        "gc", "major");
  auto C = [this](const char *Name, const uint64_t &Field,
                  const char *Help) {
    Reg.counterFn(Name, [&Field] { return Field; }, Help);
  };
  C("smltcc_server_connections_total", Metrics.Connections,
    "Client connections accepted");
  C("smltcc_server_connections_rejected_total", Metrics.ConnectionsRejected,
    "Connections refused at the MaxConnections cap");
  C("smltcc_server_requests_total", Metrics.Requests,
    "Frames handled, all message types");
  C("smltcc_server_compile_requests_total", Metrics.CompileRequests,
    "Compile requests received");
  C("smltcc_server_compile_ok_total", Metrics.CompileOk,
    "Compile requests answered with a program");
  C("smltcc_server_compile_errors_total", Metrics.CompileErrors,
    "Compile requests whose program failed to compile");
  C("smltcc_server_queue_full_rejects_total", Metrics.QueueFullRejects,
    "Compile requests rejected by admission control");
  C("smltcc_server_deadline_misses_total", Metrics.DeadlineMisses,
    "Compile requests answered past their deadline");
  C("smltcc_server_draining_rejects_total", Metrics.DrainingRejects,
    "Compile requests rejected during shutdown drain");
  C("smltcc_server_protocol_errors_total", Metrics.ProtocolErrors,
    "Malformed or out-of-order frames");
  C("smltcc_server_cache_memory_hits_total", Metrics.MemoryHits,
    "Compile responses served from the in-memory cache");
  C("smltcc_server_cache_disk_hits_total", Metrics.DiskHits,
    "Compile responses served from the persistent disk cache");
  C("smltcc_server_cache_misses_total", Metrics.CacheMisses,
    "Compile responses that required a real compile");
  C("smltcc_server_bytes_in_total", Metrics.BytesIn,
    "Bytes received from clients");
  C("smltcc_server_bytes_out_total", Metrics.BytesOut,
    "Bytes sent to clients");
  C("smltcc_server_auth_requests_total", Metrics.AuthRequests,
    "TenantAuth handshake frames handled");
  C("smltcc_server_auth_rejects_total", Metrics.AuthRejects,
    "Requests refused for a bad token or missing authentication");
  C("smltcc_server_tenant_quota_rejects_total", Metrics.TenantQuotaRejects,
    "Compile requests bounced on a per-tenant MaxQueued quota");
  C("smltcc_server_scrape_requests_total", Metrics.ScrapeRequests,
    "HTTP GET/HEAD /metrics scrapes served");

  // Persistent-cache accounting straight from the DiskCache atomics
  // (safe to read from any thread).
  if (Disk) {
    DiskCache *D = Disk.get();
    Reg.counterFn(
        "smltcc_disk_cache_load_calls_total", [D] { return D->loadCalls(); },
        "Disk-cache lookup attempts");
    Reg.counterFn(
        "smltcc_disk_cache_load_hits_total", [D] { return D->loadHits(); },
        "Disk-cache lookups that returned a stored entry");
    Reg.counterFn(
        "smltcc_disk_cache_store_calls_total", [D] { return D->storeCalls(); },
        "Disk-cache store attempts");
    Reg.counterFn(
        "smltcc_disk_cache_evicted_files_total",
        [D] { return D->evictedFiles(); },
        "Disk-cache entries evicted to stay under the byte capacity");
    Reg.counterFn(
        "smltcc_disk_cache_corrupt_dropped_total",
        [D] { return D->corruptDropped(); },
        "Disk-cache entries unlinked because their payload failed "
        "verification");
    Reg.gaugeFn(
        "smltcc_disk_cache_bytes",
        [D] { return static_cast<double>(D->currentBytes()); },
        "Bytes currently resident in the disk cache");
  }
  Reg.counterFn(
      "smltcc_compile_cache_evictions_total",
      [this] { return Cache ? Cache->evictedCount() : 0; },
      "In-memory compile cache entries dropped at the entry cap");

  // Prelude-snapshot accounting: process-wide (the snapshot is shared by
  // every worker), read straight from the atomic counters.
  Reg.counterFn(
      "smltcc_prelude_snapshot_hits_total",
      [] { return preludeStats().SnapshotHits.load(std::memory_order_relaxed); },
      "Compiles served by the pre-elaborated prelude snapshot");
  Reg.counterFn(
      "smltcc_prelude_snapshot_builds_total",
      [] {
        return preludeStats().SnapshotBuilds.load(std::memory_order_relaxed);
      },
      "Prelude snapshot constructions (0 or 1 per process)");
  Reg.counterFn(
      "smltcc_prelude_inline_fallbacks_total",
      [] {
        return preludeStats().InlineFallbacks.load(std::memory_order_relaxed);
      },
      "Compiles that fell back to inline prelude concatenation");
  Reg.gaugeFn(
      "smltcc_prelude_snapshot_build_seconds",
      [] {
        const PreludeSnapshot *S = PreludeSnapshot::get();
        return S ? S->buildSeconds() : 0.0;
      },
      "One-time prelude snapshot construction seconds");

  Reg.gaugeFn(
      "smltcc_server_uptime_seconds",
      [this] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - StartTime)
            .count();
      },
      "Seconds since the server started");
  Reg.gaugeFn(
      "smltcc_server_queue_depth",
      [this] {
        size_t D = Sched ? Sched->totalQueued() : 0;
        if (Pool)
          D += Pool->pendingJobs();
        return static_cast<double>(D);
      },
      "Compile jobs queued (fair-share + pool), not yet on a worker");
  Reg.gaugeFn(
      "smltcc_server_queue_depth_peak",
      [this] { return static_cast<double>(Metrics.QueueDepthPeak); },
      "High-water mark of the compile queue");

  // The three tier series share one family name, so they must be
  // registered back to back (renderPrometheus emits one header per
  // consecutive family run).
  static const char *const Tiers[3] = {"memory", "disk", "miss"};
  for (int I = 0; I < 3; ++I)
    TierHist[I] = &Reg.histogram(
        "smltcc_server_request_seconds", obs::Histogram::latencyBuckets(),
        "Compile request latency from frame decode to response, by cache "
        "tier",
        "tier", Tiers[I]);

  // Per-tenant series. Each family loops over every tenant so the
  // same-name entries stay consecutive (one HELP/TYPE header per run);
  // the instrument pointers go into the scheduler's Tenant records so
  // the hot path increments without a registry lookup.
  if (Sched) {
    for (auto &T : Sched->tenants())
      T->ReqCounter =
          &Reg.counter("smltcc_tenant_requests_total",
                       "Compile requests per tenant (cache hits included)",
                       "tenant", T->Cfg.Name);
    for (auto &T : Sched->tenants())
      T->RejCounter = &Reg.counter(
          "smltcc_tenant_rejects_total",
          "Per-tenant admission rejections (quota or global queue cap)",
          "tenant", T->Cfg.Name);
    for (auto &T : Sched->tenants())
      Reg.gaugeFn(
          "smltcc_tenant_inflight",
          [TP = T.get()] { return static_cast<double>(TP->InFlight); },
          "Jobs released to the worker pool per tenant", "tenant",
          T->Cfg.Name);
    for (auto &T : Sched->tenants())
      T->LatencyHist = &Reg.histogram(
          "smltcc_tenant_request_seconds", obs::Histogram::latencyBuckets(),
          "Compile request latency by tenant", "tenant", T->Cfg.Name);
  }
}

void CompileServer::recordRequestDone(
    std::chrono::steady_clock::time_point Arrival, uint64_t RequestId,
    const char *Tier, obs::Histogram *TenantHist,
    const obs::TraceContext &Ctx, uint64_t ServerSpanId,
    const std::string &Tenant, std::string PhasesJson) {
  auto Now = std::chrono::steady_clock::now();
  double Sec = std::chrono::duration<double>(Now - Arrival).count();
  int TierIdx = std::strcmp(Tier, "memory") == 0 ? 0
                : std::strcmp(Tier, "disk") == 0 ? 1
                                                 : 2;
  if (TierHist[TierIdx])
    TierHist[TierIdx]->observe(Sec);
  if (TenantHist)
    TenantHist->observe(Sec);
  obs::Tracer &T = obs::Tracer::instance();
  if (obs::Tracer::enabled()) {
    std::string Args = "\"request_id\":" + std::to_string(RequestId) +
                       ",\"tier\":\"" + Tier + "\"";
    // Ctx.SpanId is the remote sender's span (the wire ParentSpanId);
    // the request span we emit here carries its own minted id so
    // job-side spans can parent under it.
    T.emitComplete("request", "server", T.toUs(Arrival),
                   static_cast<uint64_t>(Sec * 1e6), std::move(Args), Ctx,
                   ServerSpanId, Ctx.SpanId);
  }
  obs::RequestSample S;
  S.RequestId = RequestId;
  S.TraceIdHi = Ctx.TraceIdHi;
  S.TraceIdLo = Ctx.TraceIdLo;
  S.TsUs = T.toUs(Arrival);
  S.Sec = Sec;
  S.Kind = Tier;
  S.Tenant = Tenant;
  S.PhasesJson = std::move(PhasesJson);
  obs::RequestLog::instance().record(std::move(S));
  // Stamp the log line with the request's trace id, not whatever
  // context the poll thread happens to carry.
  obs::ScopedTraceContext LogCtx(Ctx);
  SMLTC_LOG(obs::LogLevel::Info, "server", "request_done",
            obs::LogFields()
                .add("request_id", RequestId)
                .add("tier", Tier)
                .add("sec", Sec)
                .add("tenant", Tenant)
                .take());
}

std::string CompileServer::renderStatusz() const {
  double Uptime = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - StartTime)
                      .count();
  obs::JsonWriter W;
  W.beginObject();
  W.field("role", "shard");
  W.key("build")
      .beginObject()
      .field("version", compilerVersion())
      .field("cache_schema", optionsSchemaVersion())
      .field("protocol", static_cast<int>(kProtocolVersion))
      .endObject();
  W.field("uptime_sec", Uptime, 1);
  W.field("draining", Draining);
  W.field("connections", static_cast<uint64_t>(Conns.size()));
  W.field("in_flight", static_cast<uint64_t>(InFlightTotal));
  W.field("queue_depth",
          static_cast<uint64_t>((Sched ? Sched->totalQueued() : 0) +
                                (Pool ? Pool->pendingJobs() : 0)));
  W.field("compile_requests", Metrics.CompileRequests);
  W.field("auth_required", AuthRequired);
  W.key("tenants").beginArray();
  if (Sched) {
    for (const auto &T : Sched->tenants()) {
      W.beginObject()
          .field("name", T->Cfg.Name)
          .field("weight", static_cast<uint64_t>(T->Cfg.Weight))
          .field("queued", static_cast<uint64_t>(T->Q.size()))
          .field("max_queued", static_cast<uint64_t>(T->Cfg.MaxQueued))
          .field("in_flight", static_cast<uint64_t>(T->InFlight))
          .field("max_in_flight",
                 static_cast<uint64_t>(T->Cfg.MaxInFlight))
          .field("requests", T->Requests)
          .field("quota_rejects", T->QuotaRejects)
          .endObject();
    }
  }
  W.endArray();
  W.endObject();
  return W.take();
}

std::string CompileServer::renderHumanStats() const {
  const ServerMetrics &M = Metrics;
  double Uptime = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - StartTime)
                      .count();
  size_t Depth =
      (Sched ? Sched->totalQueued() : 0) + (Pool ? Pool->pendingJobs() : 0);
  char Buf[512];
  std::string S = "smltcc compile server\n";
  std::snprintf(Buf, sizeof(Buf), "  uptime_sec:        %.1f\n", Uptime);
  S += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  queue_depth:       %zu (peak %zu)\n", Depth,
                M.QueueDepthPeak);
  S += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  connections:       %llu (%llu rejected)\n",
                static_cast<unsigned long long>(M.Connections),
                static_cast<unsigned long long>(M.ConnectionsRejected));
  S += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  compile_requests:  %llu (ok %llu, errors %llu)\n",
                static_cast<unsigned long long>(M.CompileRequests),
                static_cast<unsigned long long>(M.CompileOk),
                static_cast<unsigned long long>(M.CompileErrors));
  S += Buf;
  std::snprintf(
      Buf, sizeof(Buf),
      "  rejects:           queue_full %llu, deadline %llu, draining "
      "%llu\n",
      static_cast<unsigned long long>(M.QueueFullRejects),
      static_cast<unsigned long long>(M.DeadlineMisses),
      static_cast<unsigned long long>(M.DrainingRejects));
  S += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  cache:             memory %llu, disk %llu, miss %llu\n",
                static_cast<unsigned long long>(M.MemoryHits),
                static_cast<unsigned long long>(M.DiskHits),
                static_cast<unsigned long long>(M.CacheMisses));
  S += Buf;
  S += "  request latency (sec, by cache tier):\n";
  static const char *const Tiers[3] = {"memory", "disk", "miss"};
  for (int I = 0; I < 3; ++I) {
    const obs::Histogram *H = TierHist[I];
    if (!H)
      continue;
    std::snprintf(Buf, sizeof(Buf),
                  "    %-7s count=%llu p50=%.6f p99=%.6f\n", Tiers[I],
                  static_cast<unsigned long long>(H->count()),
                  H->percentile(0.50), H->percentile(0.99));
    S += Buf;
  }
  if (AuthRequired && Sched) {
    S += "  tenants (weight | requests admitted rejects inflight):\n";
    for (const auto &T : Sched->tenants()) {
      std::snprintf(Buf, sizeof(Buf),
                    "    %-16s w=%u | %llu %llu %llu %u\n",
                    T->Cfg.Name.c_str(), T->Cfg.Weight,
                    static_cast<unsigned long long>(T->Requests),
                    static_cast<unsigned long long>(T->Admitted),
                    static_cast<unsigned long long>(T->QuotaRejects),
                    T->InFlight);
      S += Buf;
    }
  }
  return S;
}

void CompileServer::requestStop() {
  StopRequested.store(true, std::memory_order_release);
  if (WakePipe[1] >= 0) {
    char B = 's';
    // Best effort: if the pipe is full the loop is waking up anyway.
    (void)!::write(WakePipe[1], &B, 1);
  }
}

void CompileServer::installSignalHandlers(CompileServer *S) {
  GSignalServer = S;
  struct sigaction Sa;
  std::memset(&Sa, 0, sizeof(Sa));
  Sa.sa_handler = onStopSignal;
  ::sigaction(SIGTERM, &Sa, nullptr);
  ::sigaction(SIGINT, &Sa, nullptr);
}

std::string CompileServer::metricsJson() const {
  size_t Depth =
      (Sched ? Sched->totalQueued() : 0) + (Pool ? Pool->pendingJobs() : 0);
  return Metrics.toJson(Depth, Disk.get());
}

void CompileServer::send(Conn &C, MsgType Type, const std::string &Payload) {
  std::string F = encodeFrame(Type, Payload);
  Metrics.BytesOut += F.size();
  C.OutBuf.append(F);
  flushClient(C);
}

void CompileServer::sendError(Conn &C, Status St, const std::string &Msg) {
  ErrorMsg E;
  E.St = St;
  E.Message = Msg;
  send(C, MsgType::Error, encodeError(E));
}

void CompileServer::sendCompileStatus(Conn &C, Status St,
                                      const std::string &Msg,
                                      uint64_t RequestId) {
  CompileResponse Resp;
  Resp.St = St;
  Resp.RequestId = RequestId;
  Resp.Errors = Msg;
  send(C, MsgType::CompileResp, encodeCompileResponse(Resp));
}

void CompileServer::beginDrain() {
  if (Draining)
    return;
  Draining = true;
  SMLTC_LOG(obs::LogLevel::Info, "server", "drain_begin",
            obs::LogFields()
                .add("pending", static_cast<uint64_t>(Pending.size()))
                .add("in_flight", static_cast<uint64_t>(InFlightTotal))
                .take());
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  if (TcpListenFd >= 0) {
    ::close(TcpListenFd);
    TcpListenFd = -1;
  }
  // Jobs still waiting in tenant queues were never released to a
  // worker, so no completion will arrive for them: answer each with
  // Draining right now. (In-flight jobs keep running and drain through
  // the normal completion path.)
  if (Sched) {
    for (farm::QueuedJob &J : Sched->drainAll()) {
      auto PIt = Pending.find(std::make_pair(J.ConnId, J.Seq));
      uint64_t RequestId = 0;
      bool Responded = false;
      if (PIt != Pending.end()) {
        RequestId = PIt->second.RequestId;
        Responded = PIt->second.Responded;
        Pending.erase(PIt);
      }
      auto CIt = Conns.find(J.ConnId);
      if (CIt == Conns.end())
        continue;
      if (CIt->second.InFlight > 0)
        --CIt->second.InFlight;
      if (!Responded) {
        ++Metrics.DrainingRejects;
        sendCompileStatus(CIt->second, Status::Draining,
                          "server is draining", RequestId);
      }
    }
  }
}

bool CompileServer::drainComplete() const {
  if (InFlightTotal > 0)
    return false;
  if (Sched && Sched->totalQueued() > 0)
    return false;
  for (const auto &KV : Conns)
    if (KV.second.OutPos < KV.second.OutBuf.size())
      return false;
  return true;
}

void CompileServer::acceptClients(int ListenerFd) {
  for (;;) {
    int Fd = ::accept(ListenerFd, nullptr, nullptr);
    if (Fd < 0)
      return; // EAGAIN or transient error: poll again
    if (Conns.size() >= Opts.MaxConnections) {
      ++Metrics.ConnectionsRejected;
      ::close(Fd);
      continue;
    }
    setNonBlocking(Fd);
    if (ListenerFd == TcpListenFd) {
      // Responses are one write each; don't let Nagle sit on them.
      int One = 1;
      (void)::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    }
    Conn C;
    C.Fd = Fd;
    C.Id = NextConnId++;
    ++Metrics.Connections;
    Conns.emplace(C.Id, std::move(C));
  }
}

void CompileServer::closeConn(uint64_t Id) {
  auto It = Conns.find(Id);
  if (It == Conns.end())
    return;
  if (It->second.Fd >= 0)
    ::close(It->second.Fd);
  // Pending compile entries for this connection stay in `Pending`; the
  // completion path drops their results on the floor when it finds the
  // connection gone.
  Conns.erase(It);
}

void CompileServer::handleCompile(Conn &C, const Frame &F) {
  ++Metrics.CompileRequests;
  auto Arrival = std::chrono::steady_clock::now();
  CompileRequest Req;
  std::string DecodeErr;
  if (!decodeCompileRequest(F.Payload, Req, DecodeErr)) {
    ++Metrics.ProtocolErrors;
    sendError(C, Status::BadFrame, DecodeErr);
    C.Closing = true;
    return;
  }
  if (!C.Tenant) {
    ++Metrics.AuthRejects;
    sendCompileStatus(C, Status::Unauthorized,
                      "tenant authentication required before compiling",
                      Req.RequestId);
    return;
  }
  ++C.Tenant->Requests;
  if (C.Tenant->ReqCounter)
    C.Tenant->ReqCounter->inc();
  if (Draining) {
    ++Metrics.DrainingRejects;
    sendCompileStatus(C, Status::Draining, "server is draining",
                      Req.RequestId);
    return;
  }

  // Distributed trace context off the wire (v4), plus the span id this
  // server's "request" span will carry — the parent for everything the
  // job does here.
  obs::TraceContext WireCtx{Req.TraceIdHi, Req.TraceIdLo,
                            Req.ParentSpanId};
  uint64_t ServerSpanId = WireCtx.valid() ? obs::mintSpanId() : 0;
  const std::string &TenantName = C.Tenant->Cfg.Name;

  // Fast path: cache hits (memory or disk tier) are answered straight
  // from the poll loop — no worker handoff, no admission charge. A disk
  // probe is one bounded small-file read, cheap enough to keep inline;
  // only true compiles go to the pool.
  {
    CacheTier Tier = CacheTier::Miss;
    std::shared_ptr<const CompileOutput> Hit =
        Cache->lookup(Req.Source, Req.Opts, Req.WithPrelude, Tier);
    if (Hit) {
      const char *TierName = Tier == CacheTier::Disk ? "disk" : "memory";
      if (!Hit->Ok) {
        ++Metrics.CompileErrors;
        recordRequestDone(Arrival, Req.RequestId, TierName,
                          C.Tenant->LatencyHist, WireCtx, ServerSpanId,
                          TenantName);
        sendCompileStatus(C, Status::CompileFailed, Hit->Errors,
                          Req.RequestId);
        return;
      }
      ++Metrics.CompileOk;
      if (Tier == CacheTier::Disk)
        ++Metrics.DiskHits;
      else
        ++Metrics.MemoryHits;
      CompileResponse Resp;
      Resp.St = Status::Ok;
      Resp.Tier =
          Tier == CacheTier::Disk ? WireTier::Disk : WireTier::Memory;
      Resp.RequestId = Req.RequestId;
      // Bookkeeping first: a client that reads its reply must find the
      // request in /tracez and the latency histograms.
      recordRequestDone(Arrival, Req.RequestId, TierName,
                        C.Tenant->LatencyHist, WireCtx, ServerSpanId,
                        TenantName);
      send(C, MsgType::CompileResp,
           encodeCompileResponse(Resp, Hit->Program));
      return;
    }
  }

  uint64_t ConnId = C.Id;
  uint64_t Seq = C.NextSeq++;
  farm::QueuedJob QJ;
  QJ.ConnId = ConnId;
  QJ.Seq = Seq;
  QJ.Job.Source = std::move(Req.Source);
  QJ.Job.Opts = Req.Opts;
  QJ.Job.WithPrelude = Req.WithPrelude;
  QJ.Job.TraceRequestId = Req.RequestId;
  // The worker installs this context for the job's scope: compile_job
  // and the phase spans under it parent into the server's request span.
  QJ.Job.TraceIdHi = Req.TraceIdHi;
  QJ.Job.TraceIdLo = Req.TraceIdLo;
  QJ.Job.ParentSpanId = ServerSpanId;
  QJ.DeadlineMs = Req.DeadlineMs;

  farm::FairShareScheduler::Verdict V =
      Sched->enqueue(*C.Tenant, std::move(QJ));
  if (V != farm::FairShareScheduler::Verdict::Queued) {
    ++Metrics.QueueFullRejects;
    if (V == farm::FairShareScheduler::Verdict::TenantQueueFull)
      ++Metrics.TenantQuotaRejects;
    if (C.Tenant->RejCounter)
      C.Tenant->RejCounter->inc();
    sendCompileStatus(
        C, Status::QueueFull,
        V == farm::FairShareScheduler::Verdict::TenantQueueFull
            ? "tenant queue quota at capacity; retry later"
            : "compile queue at capacity; retry later",
        Req.RequestId);
    return;
  }

  PendingReq P;
  P.Arrival = Arrival;
  P.RequestId = Req.RequestId;
  P.TraceIdHi = Req.TraceIdHi;
  P.TraceIdLo = Req.TraceIdLo;
  P.WireParentSpanId = Req.ParentSpanId;
  P.ServerSpanId = ServerSpanId;
  P.Tenant = C.Tenant;
  if (Req.DeadlineMs) {
    P.HasDeadline = true;
    P.Deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(Req.DeadlineMs);
  }
  Pending.emplace(std::make_pair(ConnId, Seq), P);
  ++C.InFlight;
  size_t Depth = Sched->totalQueued();
  if (Depth > Metrics.QueueDepthPeak)
    Metrics.QueueDepthPeak = Depth;
  pumpScheduler();
}

void CompileServer::pumpScheduler() {
  if (!Sched || !Pool)
    return;
  while (InFlightTotal < PoolTargetInFlight) {
    farm::QueuedJob J;
    farm::FairShareScheduler::Tenant *Owner = nullptr;
    if (!Sched->popNext(J, Owner))
      return;
    auto PIt = Pending.find(std::make_pair(J.ConnId, J.Seq));
    auto CIt = Conns.find(J.ConnId);
    if (PIt == Pending.end() || PIt->second.Responded ||
        CIt == Conns.end()) {
      // The deadline sweep already answered it, or the client left:
      // the job never runs, so settle the tenant's in-flight charge
      // here instead of in the completion path.
      Sched->onComplete(*Owner);
      if (PIt != Pending.end())
        Pending.erase(PIt);
      if (CIt != Conns.end() && CIt->second.InFlight > 0)
        --CIt->second.InFlight;
      continue;
    }
    uint64_t RequestId = PIt->second.RequestId;
    PIt->second.Submitted = true;
    if (!submitToPool(std::move(J))) {
      // Pool is shutting down; nothing further will be accepted.
      Sched->onComplete(*Owner);
      Pending.erase(PIt);
      if (CIt->second.InFlight > 0)
        --CIt->second.InFlight;
      ++Metrics.DrainingRejects;
      sendCompileStatus(CIt->second, Status::Draining,
                        "server is shutting down", RequestId);
      continue;
    }
    ++InFlightTotal;
  }
}

bool CompileServer::submitToPool(farm::QueuedJob J) {
  uint64_t ConnId = J.ConnId;
  uint64_t Seq = J.Seq;
  uint32_t DeadlineMs = J.DeadlineMs;
  SubmitStatus St = Pool->submitJob(
      std::move(J.Job),
      [this, ConnId, Seq](AsyncCompileResult R) {
        {
          std::lock_guard<std::mutex> Lock(CompMutex);
          Completions.push_back(Completion{ConnId, Seq, std::move(R)});
        }
        char B = 'c';
        (void)!::write(WakePipe[1], &B, 1);
      },
      DeadlineMs);
  return St == SubmitStatus::Accepted;
}

void CompileServer::handleTenantAuth(Conn &C, const Frame &F) {
  ++Metrics.AuthRequests;
  TenantAuthMsg M;
  if (!decodeTenantAuth(F.Payload, M)) {
    ++Metrics.ProtocolErrors;
    sendError(C, Status::BadFrame, "malformed tenant auth");
    C.Closing = true;
    return;
  }
  if (AuthRequired) {
    const farm::TenantConfig *T = Tenants.byToken(M.Token);
    if (!T) {
      ++Metrics.AuthRejects;
      SMLTC_LOG(obs::LogLevel::Warn, "server", "auth_reject",
                obs::LogFields().add("conn_id", C.Id).take());
      sendError(C, Status::Unauthorized, "unknown tenant token");
      C.Closing = true;
      return;
    }
    C.Tenant = Sched->byName(T->Name);
  }
  // Without a token file C.Tenant is already the implicit default
  // (assigned at Hello); answer AuthOk anyway so clients can send a
  // token unconditionally.
  AuthOkMsg Ok;
  Ok.Tenant = C.Tenant->Cfg.Name;
  Ok.Weight = C.Tenant->Cfg.Weight;
  Ok.MaxInFlight = C.Tenant->Cfg.MaxInFlight;
  Ok.MaxQueued = C.Tenant->Cfg.MaxQueued;
  send(C, MsgType::AuthOk, encodeAuthOk(Ok));
}

void CompileServer::handleHttp(Conn &C) {
  std::string Method, Path;
  farm::HttpParse R = farm::parseHttpRequest(C.In, Method, Path);
  if (R == farm::HttpParse::NeedMore)
    return;
  ++Metrics.Requests;
  std::string Resp;
  if (R == farm::HttpParse::Bad) {
    ++Metrics.ProtocolErrors;
    Resp = farm::httpResponse(400, "text/plain; charset=utf-8",
                              "bad request\n");
  } else if (Method != "GET" && Method != "HEAD") {
    Resp = farm::httpResponse(405, "text/plain; charset=utf-8",
                              "method not allowed\n");
  } else if (Path == "/metrics") {
    ++Metrics.ScrapeRequests;
    Resp = farm::httpResponse(200, farm::kPromContentType,
                              Reg.renderPrometheus(), Method == "HEAD");
  } else if (Path == "/healthz") {
    // Readiness: a draining server answers 503 so a farm front door
    // stops routing to it before the socket actually closes.
    Resp = Draining
               ? farm::httpResponse(503, "text/plain; charset=utf-8",
                                    "draining\n", Method == "HEAD")
               : farm::httpResponse(200, "text/plain; charset=utf-8",
                                    "ok\n", Method == "HEAD");
  } else if (Path == "/statusz") {
    Resp = farm::httpResponse(200, "application/json; charset=utf-8",
                              renderStatusz(), Method == "HEAD");
  } else if (Path == "/tracez") {
    Resp = farm::httpResponse(200, "application/json; charset=utf-8",
                              obs::renderTracezJson(), Method == "HEAD");
  } else {
    Resp = farm::httpResponse(
        404, "text/plain; charset=utf-8",
        "not found; try /metrics, /healthz, /statusz, /tracez\n");
  }
  Metrics.BytesOut += Resp.size();
  C.OutBuf.append(Resp);
  C.In.clear();
  C.Closing = true; // one request per connection
  flushClient(C);
}

void CompileServer::handleFrame(Conn &C, const Frame &F) {
  ++Metrics.Requests;
  if (!C.GotHello && F.Type != MsgType::Hello) {
    ++Metrics.ProtocolErrors;
    sendError(C, Status::BadFrame, "expected hello handshake first");
    C.Closing = true;
    return;
  }
  switch (F.Type) {
  case MsgType::Hello: {
    HelloMsg H;
    if (!decodeHello(F.Payload, H)) {
      ++Metrics.ProtocolErrors;
      sendError(C, Status::BadFrame, "malformed hello");
      C.Closing = true;
      return;
    }
    if (kProtocolVersion < H.MinVersion || kProtocolVersion > H.MaxVersion) {
      ++Metrics.ProtocolErrors;
      sendError(C, Status::BadVersion,
                "server speaks protocol version " +
                    std::to_string(kProtocolVersion));
      C.Closing = true;
      return;
    }
    C.GotHello = true;
    if (!AuthRequired)
      C.Tenant = Sched->byName("default");
    HelloOkMsg Ok;
    Ok.ServerName = "smltccd";
    send(C, MsgType::HelloOk, encodeHelloOk(Ok));
    return;
  }
  case MsgType::TenantAuth:
    handleTenantAuth(C, F);
    return;
  case MsgType::Ping: {
    ++Metrics.PingRequests;
    if (F.Payload.size() > kMaxPingPayload) {
      ++Metrics.ProtocolErrors;
      sendError(C, Status::BadFrame, "ping payload too large");
      C.Closing = true;
      return;
    }
    send(C, MsgType::Pong, F.Payload);
    return;
  }
  case MsgType::CompileReq:
    handleCompile(C, F);
    return;
  case MsgType::StatsReq: {
    ++Metrics.StatsRequests;
    WireWriter W;
    W.str(metricsJson());
    send(C, MsgType::StatsResp, W.take());
    return;
  }
  case MsgType::StatsTextReq: {
    ++Metrics.StatsRequests;
    StatsTextRequest Req;
    if (!decodeStatsTextRequest(F.Payload, Req)) {
      ++Metrics.ProtocolErrors;
      sendError(C, Status::BadFrame, "malformed stats-text request");
      C.Closing = true;
      return;
    }
    StatsTextResponse Resp;
    Resp.Format = Req.Format;
    Resp.Text = Req.Format == StatsFormat::Prometheus
                    ? Reg.renderPrometheus()
                    : renderHumanStats();
    send(C, MsgType::StatsTextResp, encodeStatsTextResponse(Resp));
    return;
  }
  case MsgType::ShutdownReq: {
    if (AuthRequired && !C.Tenant) {
      ++Metrics.AuthRejects;
      sendError(C, Status::Unauthorized,
                "tenant authentication required to shut the server down");
      C.Closing = true;
      return;
    }
    ++Metrics.ShutdownRequests;
    send(C, MsgType::ShutdownOk, std::string());
    C.Closing = true;
    beginDrain();
    return;
  }
  default:
    ++Metrics.ProtocolErrors;
    sendError(C, Status::UnknownType,
              "unknown message type " +
                  std::to_string(static_cast<unsigned>(F.Type)));
    C.Closing = true;
    return;
  }
}

void CompileServer::readClient(Conn &C) {
  char Buf[65536];
  for (;;) {
    ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      Metrics.BytesIn += static_cast<uint64_t>(N);
      C.In.append(Buf, static_cast<size_t>(N));
      if (N < static_cast<ssize_t>(sizeof(Buf)))
        break;
      continue;
    }
    if (N == 0) {
      // Peer closed: nothing more can be answered on this connection.
      C.Closing = true;
      C.OutBuf.clear();
      C.OutPos = 0;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)
      break;
    C.Closing = true; // hard error
    C.OutBuf.clear();
    C.OutPos = 0;
    break;
  }

  // The TCP listener doubles as a Prometheus scrape target: bytes that
  // start like an HTTP request line are routed to the tiny HTTP
  // handler instead of the frame parser (the frame magic can never
  // collide with a method name).
  if (!C.Http && !C.GotHello && farm::looksLikeHttp(C.In))
    C.Http = true;
  if (C.Http) {
    if (!C.Closing)
      handleHttp(C);
    return;
  }

  while (!C.Closing && !C.In.empty()) {
    Frame F;
    size_t Consumed = 0;
    Status Err;
    std::string ErrMsg;
    ParseResult R = parseFrame(C.In.data(), C.In.size(), F, Consumed, Err,
                               ErrMsg);
    if (R == ParseResult::NeedMore)
      break;
    if (R == ParseResult::Bad) {
      ++Metrics.ProtocolErrors;
      sendError(C, Err, ErrMsg);
      C.Closing = true;
      break;
    }
    C.In.erase(0, Consumed);
    handleFrame(C, F);
  }
}

void CompileServer::flushClient(Conn &C) {
  while (C.OutPos < C.OutBuf.size()) {
    ssize_t N = ::send(C.Fd, C.OutBuf.data() + C.OutPos,
                       C.OutBuf.size() - C.OutPos, MSG_NOSIGNAL);
    if (N > 0) {
      C.OutPos += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
      return; // poll for POLLOUT
    // Hard write error: the peer is gone.
    C.Closing = true;
    C.OutBuf.clear();
    C.OutPos = 0;
    return;
  }
  C.OutBuf.clear();
  C.OutPos = 0;
}

void CompileServer::drainCompletions() {
  std::vector<Completion> Done;
  {
    std::lock_guard<std::mutex> Lock(CompMutex);
    Done.swap(Completions);
  }
  for (Completion &Cm : Done) {
    if (InFlightTotal > 0)
      --InFlightTotal;
    auto PIt = Pending.find(std::make_pair(Cm.ConnId, Cm.Seq));
    bool AlreadyResponded = PIt != Pending.end() && PIt->second.Responded;
    bool PastDeadline =
        PIt != Pending.end() && PIt->second.HasDeadline &&
        std::chrono::steady_clock::now() >= PIt->second.Deadline;
    uint64_t RequestId = PIt != Pending.end() ? PIt->second.RequestId : 0;
    auto Arrival = PIt != Pending.end()
                       ? PIt->second.Arrival
                       : std::chrono::steady_clock::now();
    obs::TraceContext ReqCtx;
    uint64_t ServerSpanId = 0;
    std::string TenantName;
    obs::Histogram *TenantHist = nullptr;
    if (PIt != Pending.end()) {
      ReqCtx = obs::TraceContext{PIt->second.TraceIdHi,
                                 PIt->second.TraceIdLo,
                                 PIt->second.WireParentSpanId};
      ServerSpanId = PIt->second.ServerSpanId;
    }
    if (PIt != Pending.end() && PIt->second.Tenant) {
      // Return the fair-share in-flight slot; the tenant record
      // outlives every connection, so this is safe even when the
      // client is gone.
      Sched->onComplete(*PIt->second.Tenant);
      TenantHist = PIt->second.Tenant->LatencyHist;
      TenantName = PIt->second.Tenant->Cfg.Name;
    }
    if (PIt != Pending.end())
      Pending.erase(PIt);

    auto CIt = Conns.find(Cm.ConnId);
    if (CIt == Conns.end())
      continue; // client went away; drop the result
    Conn &C = CIt->second;
    if (C.InFlight > 0)
      --C.InFlight;
    if (AlreadyResponded)
      continue; // the deadline sweep answered this one

    const CompileOutput &Out = Cm.R.Out;
    if (Cm.R.DeadlineExpired || PastDeadline) {
      ++Metrics.DeadlineMisses;
      sendCompileStatus(C, Status::DeadlineExceeded,
                        Cm.R.DeadlineExpired
                            ? "deadline exceeded while queued"
                            : "deadline exceeded during compilation",
                        RequestId);
      continue;
    }
    const char *TierName = Out.Metrics.CacheDiskHit ? "disk"
                           : Out.Metrics.CacheHit   ? "memory"
                                                    : "miss";
    // Per-phase breakdown for /tracez (a true compile has real phase
    // timings; cache hits report zeros and get no breakdown). The layer
    // names are the ones compileMetricsJson uses.
    std::string Phases;
    if (!Out.Metrics.CacheHit && Out.Metrics.TotalSec > 0) {
      const CompileMetrics &M = Out.Metrics;
      const std::pair<const char *, double> Layers[] = {
          {"queue_wait_sec", M.QueueWaitSec},
          {"front_sec", M.FrontSec},
          {"parse_sec", M.ParseSec},
          {"elab_sec", M.ElabSec},
          {"mtd_sec", M.MtdSec},
          {"translate_sec", M.TranslateSec},
          {"back_sec", M.BackSec},
          {"cps_convert_sec", M.CpsConvertSec},
          {"cps_opt_sec", M.CpsOptSec},
          {"closure_sec", M.ClosureSec},
          {"codegen_sec", M.CodegenSec},
          {"total_sec", M.TotalSec}};
      for (const auto &[Name, Sec] : Layers)
        Phases += std::string(Phases.empty() ? "\"" : ",\"") + Name +
                  "\":" + obs::jsonDouble(Sec, 6);
    }
    if (!Out.Ok) {
      ++Metrics.CompileErrors;
      recordRequestDone(Arrival, RequestId, TierName, TenantHist, ReqCtx,
                        ServerSpanId, TenantName, std::move(Phases));
      sendCompileStatus(C, Status::CompileFailed, Out.Errors, RequestId);
      continue;
    }
    ++Metrics.CompileOk;
    if (Out.Metrics.CacheDiskHit)
      ++Metrics.DiskHits;
    else if (Out.Metrics.CacheHit)
      ++Metrics.MemoryHits;
    else
      ++Metrics.CacheMisses;

    CompileResponse Resp;
    Resp.St = Status::Ok;
    Resp.Tier = Out.Metrics.CacheDiskHit
                    ? WireTier::Disk
                    : (Out.Metrics.CacheHit ? WireTier::Memory
                                            : WireTier::Miss);
    Resp.RequestId = RequestId;
    Resp.CompileSec = Out.Metrics.CacheHit ? 0.0 : Out.Metrics.TotalSec;
    Resp.Program = Out.Program;
    recordRequestDone(Arrival, RequestId, TierName, TenantHist, ReqCtx,
                      ServerSpanId, TenantName, std::move(Phases));
    send(C, MsgType::CompileResp, encodeCompileResponse(Resp));
  }
  // Workers freed up: release the next fair-share picks.
  pumpScheduler();
}

void CompileServer::sweepDeadlines() {
  auto Now = std::chrono::steady_clock::now();
  for (auto &KV : Pending) {
    PendingReq &P = KV.second;
    if (P.Responded || !P.HasDeadline || Now < P.Deadline)
      continue;
    P.Responded = true;
    ++Metrics.DeadlineMisses;
    auto CIt = Conns.find(KV.first.first);
    if (CIt == Conns.end())
      continue;
    // The job may still be queued or even mid-compile; the client gets
    // its answer now and the eventual result is dropped.
    sendCompileStatus(CIt->second, Status::DeadlineExceeded,
                      "deadline exceeded", P.RequestId);
  }
}

uint64_t CompileServer::run() {
  obs::Tracer::setThreadName("server-poll");
  std::vector<pollfd> Fds;
  std::vector<uint64_t> ConnIds;
  while (true) {
    if (StopRequested.load(std::memory_order_acquire))
      beginDrain();
    if (Draining && drainComplete())
      break;

    Fds.clear();
    ConnIds.clear();
    Fds.push_back(pollfd{WakePipe[0], POLLIN, 0});
    size_t UnixIdx = SIZE_MAX, TcpIdx = SIZE_MAX;
    if (ListenFd >= 0) {
      UnixIdx = Fds.size();
      Fds.push_back(pollfd{ListenFd, POLLIN, 0});
    }
    if (TcpListenFd >= 0) {
      TcpIdx = Fds.size();
      Fds.push_back(pollfd{TcpListenFd, POLLIN, 0});
    }
    size_t ConnBase = Fds.size();
    for (auto &KV : Conns) {
      short Ev = POLLIN;
      if (KV.second.OutPos < KV.second.OutBuf.size())
        Ev |= POLLOUT;
      Fds.push_back(pollfd{KV.second.Fd, Ev, 0});
      ConnIds.push_back(KV.first);
    }

    int PR = ::poll(Fds.data(), Fds.size(), Opts.PollIntervalMs);
    if (PR < 0 && errno != EINTR)
      break; // fatal

    // Drain the wake pipe (completions and/or stop requests).
    if (Fds[0].revents & POLLIN) {
      char Sink[256];
      while (::read(WakePipe[0], Sink, sizeof(Sink)) > 0) {
      }
    }
    drainCompletions();
    sweepDeadlines();

    if (UnixIdx != SIZE_MAX && ListenFd >= 0 &&
        (Fds[UnixIdx].revents & POLLIN))
      acceptClients(ListenFd);
    if (TcpIdx != SIZE_MAX && TcpListenFd >= 0 &&
        (Fds[TcpIdx].revents & POLLIN))
      acceptClients(TcpListenFd);

    for (size_t I = 0; I < ConnIds.size(); ++I) {
      auto It = Conns.find(ConnIds[I]);
      if (It == Conns.end())
        continue;
      Conn &C = It->second;
      short Rev = Fds[ConnBase + I].revents;
      if (Rev & (POLLIN | POLLHUP | POLLERR))
        readClient(C);
      if (!C.Closing && (Rev & POLLOUT))
        flushClient(C);
    }

    // Close connections that asked to close and have flushed (or died).
    std::vector<uint64_t> ToClose;
    for (auto &KV : Conns)
      if (KV.second.Closing && KV.second.OutPos >= KV.second.OutBuf.size())
        ToClose.push_back(KV.first);
    for (uint64_t Id : ToClose)
      closeConn(Id);
  }

  // Drained: everything answered and flushed; drop remaining links.
  std::vector<uint64_t> All;
  for (auto &KV : Conns)
    All.push_back(KV.first);
  for (uint64_t Id : All)
    closeConn(Id);
  // Force-record any span still open on any thread (workers parked
  // mid-span, a job the drain abandoned): the --trace-json file written
  // after run() returns must never be missing in-flight work.
  obs::Tracer::instance().flushActive();
  SMLTC_LOG(obs::LogLevel::Info, "server", "drain_complete",
            obs::LogFields()
                .add("compile_requests", Metrics.CompileRequests)
                .take());
  return Metrics.CompileRequests;
}
