//===- server/Server.cpp - The smltcc compile daemon -------------------------===//

#include "server/Server.h"

#include "cps/CpsOpt.h"
#include "driver/CompileCache.h"
#include "driver/PreludeSnapshot.h"
#include "native/NativeBackend.h"
#include "obs/Json.h"
#include "obs/Log.h"
#include "vm/Heap.h"

#include <cstdio>
#include <cstring>

using namespace smltc;
using namespace smltc::server;

namespace {

const farm::NodeRole kShardRole = {"shard", "server", "smltccd",
                                   "compile_requests"};

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
    : Node(kShardRole, Options.SocketPath, Options.ListenAddr),
      Opts(std::move(Options)) {}

CompileServer::~CompileServer() {
  // The pool must die before the completion queue: its destructor joins
  // the workers, after which no Done callback can touch `Completions`.
  Pool.reset();
}

bool CompileServer::prepare(std::string &Err) {
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
  // The fair-share scheduler bounds what gets in (Opts.MaxQueue globally,
  // MaxQueued per tenant) and releases jobs only as workers free up, so
  // the pool's own queue stays near-empty.
  Pool = std::make_unique<BatchCompiler>(BO);
  PoolTargetInFlight = std::max<size_t>(1, Pool->numThreads());
  registerMetrics();
  return true;
}

void CompileServer::registerMetrics() {
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
      "smltcc_server_uptime_seconds", [this] { return uptimeSec(); },
      "Seconds since the server started");
  Reg.gaugeFn(
      "smltcc_server_queue_depth",
      [this] { return static_cast<double>(queueDepth()); },
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

void CompileServer::answer(Conn &C, const PendingReq &P, const char *Tier,
                           const std::string &Payload,
                           std::string PhasesJson) {
  double Sec = std::chrono::duration<double>(Clock::now() - P.Arrival).count();
  int TierIdx = std::strcmp(Tier, "memory") == 0 ? 0
                : std::strcmp(Tier, "disk") == 0 ? 1
                                                 : 2;
  TierHist[TierIdx]->observe(Sec);
  if (P.Owner->LatencyHist)
    P.Owner->LatencyHist->observe(Sec);
  obs::Tracer &T = obs::Tracer::instance();
  if (obs::Tracer::enabled()) {
    std::string Args = "\"request_id\":" + std::to_string(P.RequestId) +
                       ",\"tier\":\"" + Tier + "\"";
    // P.Ctx.SpanId is the remote sender's span (the wire ParentSpanId);
    // the request span we emit here carries its own minted id so
    // job-side spans can parent under it.
    T.emitComplete("request", "server", T.toUs(P.Arrival),
                   static_cast<uint64_t>(Sec * 1e6), std::move(Args), P.Ctx,
                   P.ServerSpanId, P.Ctx.SpanId);
  }
  {
    // Stamp the log line with the request's trace id, not whatever
    // context the poll thread happens to carry.
    obs::ScopedTraceContext LogCtx(P.Ctx);
    SMLTC_LOG(obs::LogLevel::Info, "server", "request_done",
              obs::LogFields()
                  .add("request_id", P.RequestId)
                  .add("tier", Tier)
                  .add("sec", Sec)
                  .add("tenant", P.Owner->Cfg.Name)
                  .take());
  }
  obs::RequestSample S;
  S.RequestId = P.RequestId;
  S.TraceIdHi = P.Ctx.TraceIdHi;
  S.TraceIdLo = P.Ctx.TraceIdLo;
  S.TsUs = T.toUs(P.Arrival);
  S.Sec = Sec;
  S.Kind = Tier;
  S.Tenant = P.Owner->Cfg.Name;
  S.PhasesJson = std::move(PhasesJson);
  respond(C, std::move(S), MsgType::CompileResp, Payload);
}

size_t CompileServer::queueDepth() const {
  return (Sched ? Sched->totalQueued() : 0) + (Pool ? Pool->pendingJobs() : 0);
}

void CompileServer::statusFields(obs::JsonWriter &W) const {
  W.field("connections", static_cast<uint64_t>(clientCount()));
  W.field("in_flight", static_cast<uint64_t>(InFlightTotal));
  W.field("queue_depth", static_cast<uint64_t>(queueDepth()));
  W.field("compile_requests", Metrics.CompileRequests);
  W.field("auth_required", AuthRequired);
  W.key("tenants").beginArray();
  for (const auto &T : Sched->tenants()) {
    W.beginObject()
        .field("name", T->Cfg.Name)
        .field("weight", static_cast<uint64_t>(T->Cfg.Weight))
        .field("queued", static_cast<uint64_t>(T->Q.size()))
        .field("max_queued", static_cast<uint64_t>(T->Cfg.MaxQueued))
        .field("in_flight", static_cast<uint64_t>(T->InFlight))
        .field("max_in_flight", static_cast<uint64_t>(T->Cfg.MaxInFlight))
        .field("requests", T->Requests)
        .field("quota_rejects", T->QuotaRejects)
        .endObject();
  }
  W.endArray();
}

std::string CompileServer::humanStats() const {
  const ServerMetrics &M = Metrics;
  char Buf[512];
  std::string S = "smltcc compile server\n";
  std::snprintf(Buf, sizeof(Buf), "  uptime_sec:        %.1f\n", uptimeSec());
  S += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "  queue_depth:       %zu (peak %zu)\n", queueDepth(),
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
    std::snprintf(Buf, sizeof(Buf),
                  "    %-7s count=%llu p50=%.6f p99=%.6f\n", Tiers[I],
                  static_cast<unsigned long long>(H->count()),
                  H->percentile(0.50), H->percentile(0.99));
    S += Buf;
  }
  if (AuthRequired) {
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

std::string CompileServer::metricsJson() const {
  return Metrics.toJson(queueDepth(), Disk.get());
}

std::unique_ptr<farm::Node::Conn> CompileServer::newConn() {
  auto C = std::make_unique<ShardConn>();
  // Without a token file every connection is the implicit default
  // tenant; TenantAuth still answers AuthOk for it.
  if (!AuthRequired)
    C->T = Sched->byName("default");
  return C;
}

void CompileServer::onFrame(Conn &C, Frame &F) {
  ShardConn &SC = static_cast<ShardConn &>(C);
  if (F.Type == MsgType::TenantAuth)
    handleTenantAuth(SC, F);
  else
    handleCompile(SC, F);
}

bool CompileServer::mayShutdown(Conn &C) {
  if (!AuthRequired || static_cast<ShardConn &>(C).T)
    return true;
  ++Metrics.AuthRejects;
  sendError(C, Status::Unauthorized,
            "tenant authentication required to shut the server down");
  C.Closing = true;
  return false;
}

void CompileServer::onDrain() {
  SMLTC_LOG(obs::LogLevel::Info, "server", "drain_begin",
            obs::LogFields()
                .add("pending", static_cast<uint64_t>(Pending.size()))
                .add("in_flight", static_cast<uint64_t>(InFlightTotal))
                .take());
  // Jobs still waiting in tenant queues were never released to a
  // worker, so no completion will arrive for them: answer each with
  // Draining right now. (In-flight jobs keep running and drain through
  // the normal completion path.)
  for (farm::QueuedJob &J : Sched->drainAll()) {
    auto PIt = Pending.find(std::make_pair(J.ConnId, J.Seq));
    if (PIt == Pending.end())
      continue;
    PendingReq P = PIt->second;
    Pending.erase(PIt);
    Conn *C = find(J.ConnId);
    if (C && !P.Responded) {
      ++Metrics.DrainingRejects;
      sendCompileStatus(*C, Status::Draining, "server is draining",
                        P.RequestId);
    }
  }
}

bool CompileServer::busy() const {
  return InFlightTotal > 0 || Sched->totalQueued() > 0;
}

farm::Node::Clock::time_point CompileServer::nextTimer() const {
  Clock::time_point Due = Clock::time_point::max();
  for (const auto &KV : Pending)
    if (KV.second.HasDeadline && !KV.second.Responded)
      Due = std::min(Due, KV.second.Deadline);
  return Due;
}

void CompileServer::onTick() {
  drainCompletions();
  sweepDeadlines();
}

void CompileServer::handleCompile(ShardConn &C, const Frame &F) {
  ++Metrics.CompileRequests;
  PendingReq P;
  P.Arrival = Clock::now();
  CompileRequest Req;
  std::string DecodeErr;
  if (!decodeCompileRequest(F.Payload, Req, DecodeErr)) {
    ++Metrics.ProtocolErrors;
    sendError(C, Status::BadFrame, DecodeErr);
    C.Closing = true;
    return;
  }
  if (!C.T) {
    ++Metrics.AuthRejects;
    sendCompileStatus(C, Status::Unauthorized,
                      "tenant authentication required before compiling",
                      Req.RequestId);
    return;
  }
  ++C.T->Requests;
  if (C.T->ReqCounter)
    C.T->ReqCounter->inc();
  if (draining()) {
    ++Metrics.DrainingRejects;
    sendCompileStatus(C, Status::Draining, "server is draining",
                      Req.RequestId);
    return;
  }
  P.RequestId = Req.RequestId;
  P.Owner = C.T;
  // Distributed trace context off the wire (v4), plus the span id this
  // server's "request" span will carry — the parent for everything the
  // job does here.
  P.Ctx = obs::TraceContext{Req.TraceIdHi, Req.TraceIdLo, Req.ParentSpanId};
  P.ServerSpanId = P.Ctx.valid() ? obs::mintSpanId() : 0;

  // Fast path: cache hits (memory or disk tier) are answered straight
  // from the poll loop — no worker handoff, no admission charge. A disk
  // probe is one bounded small-file read, cheap enough to keep inline;
  // only true compiles go to the pool.
  CacheTier Tier = CacheTier::Miss;
  std::shared_ptr<const CompileOutput> Hit =
      Cache->lookup(Req.Source, Req.Opts, Req.WithPrelude, Tier);
  if (Hit) {
    const char *TierName = Tier == CacheTier::Disk ? "disk" : "memory";
    CompileResponse Resp;
    Resp.RequestId = Req.RequestId;
    if (!Hit->Ok) {
      ++Metrics.CompileErrors;
      Resp.St = Status::CompileFailed;
      Resp.Errors = Hit->Errors;
      answer(C, P, TierName, encodeCompileResponse(Resp));
      return;
    }
    ++Metrics.CompileOk;
    ++(Tier == CacheTier::Disk ? Metrics.DiskHits : Metrics.MemoryHits);
    Resp.Tier = Tier == CacheTier::Disk ? WireTier::Disk : WireTier::Memory;
    answer(C, P, TierName, encodeCompileResponse(Resp, Hit->Program));
    return;
  }

  uint64_t Seq = NextSeq++;
  farm::QueuedJob QJ;
  QJ.ConnId = C.Id;
  QJ.Seq = Seq;
  QJ.Job.Source = std::move(Req.Source);
  QJ.Job.Opts = Req.Opts;
  QJ.Job.WithPrelude = Req.WithPrelude;
  QJ.Job.TraceRequestId = Req.RequestId;
  // The worker installs this context for the job's scope: compile_job
  // and the phase spans under it parent into the server's request span.
  QJ.Job.TraceIdHi = Req.TraceIdHi;
  QJ.Job.TraceIdLo = Req.TraceIdLo;
  QJ.Job.ParentSpanId = P.ServerSpanId;
  QJ.DeadlineMs = Req.DeadlineMs;

  farm::FairShareScheduler::Verdict V = Sched->enqueue(*C.T, std::move(QJ));
  if (V != farm::FairShareScheduler::Verdict::Queued) {
    bool TenantFull = V == farm::FairShareScheduler::Verdict::TenantQueueFull;
    ++Metrics.QueueFullRejects;
    if (TenantFull)
      ++Metrics.TenantQuotaRejects;
    if (C.T->RejCounter)
      C.T->RejCounter->inc();
    sendCompileStatus(C, Status::QueueFull,
                      TenantFull ? "tenant queue quota at capacity; retry later"
                                 : "compile queue at capacity; retry later",
                      Req.RequestId);
    return;
  }

  if (Req.DeadlineMs) {
    P.HasDeadline = true;
    P.Deadline = Clock::now() + std::chrono::milliseconds(Req.DeadlineMs);
  }
  Pending.emplace(std::make_pair(C.Id, Seq), P);
  Metrics.QueueDepthPeak =
      std::max(Metrics.QueueDepthPeak, Sched->totalQueued());
  pumpScheduler();
}

void CompileServer::pumpScheduler() {
  while (InFlightTotal < PoolTargetInFlight) {
    farm::QueuedJob J;
    Tenant *Owner = nullptr;
    if (!Sched->popNext(J, Owner))
      return;
    auto PIt = Pending.find(std::make_pair(J.ConnId, J.Seq));
    Conn *C = find(J.ConnId);
    if (PIt == Pending.end() || PIt->second.Responded || !C) {
      // The deadline sweep already answered it, or the client left:
      // the job never runs, so settle the tenant's in-flight charge
      // here instead of in the completion path.
      Sched->onComplete(*Owner);
      if (PIt != Pending.end())
        Pending.erase(PIt);
      continue;
    }
    uint64_t RequestId = PIt->second.RequestId;
    if (!submitToPool(std::move(J))) {
      // Pool is shutting down; nothing further will be accepted.
      Sched->onComplete(*Owner);
      Pending.erase(PIt);
      ++Metrics.DrainingRejects;
      sendCompileStatus(*C, Status::Draining, "server is shutting down",
                        RequestId);
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
        wake();
      },
      DeadlineMs);
  return St == SubmitStatus::Accepted;
}

void CompileServer::handleTenantAuth(ShardConn &C, const Frame &F) {
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
    C.T = Sched->byName(T->Name);
  }
  AuthOkMsg Ok;
  Ok.Tenant = C.T->Cfg.Name;
  Ok.Weight = C.T->Cfg.Weight;
  Ok.MaxInFlight = C.T->Cfg.MaxInFlight;
  Ok.MaxQueued = C.T->Cfg.MaxQueued;
  send(C, MsgType::AuthOk, encodeAuthOk(Ok));
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
    if (PIt == Pending.end())
      continue;
    PendingReq P = PIt->second;
    Pending.erase(PIt);
    // Return the fair-share in-flight slot; the tenant record outlives
    // every connection, so this is safe even when the client is gone.
    Sched->onComplete(*P.Owner);
    Conn *C = find(Cm.ConnId);
    if (!C || P.Responded)
      continue; // client went away, or the deadline sweep answered it

    const CompileOutput &Out = Cm.R.Out;
    if (Cm.R.DeadlineExpired ||
        (P.HasDeadline && Clock::now() >= P.Deadline)) {
      ++Metrics.DeadlineMisses;
      sendCompileStatus(*C, Status::DeadlineExceeded,
                        Cm.R.DeadlineExpired
                            ? "deadline exceeded while queued"
                            : "deadline exceeded during compilation",
                        P.RequestId);
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
    CompileResponse Resp;
    Resp.RequestId = P.RequestId;
    if (!Out.Ok) {
      ++Metrics.CompileErrors;
      Resp.St = Status::CompileFailed;
      Resp.Errors = Out.Errors;
      answer(*C, P, TierName, encodeCompileResponse(Resp), std::move(Phases));
      continue;
    }
    ++Metrics.CompileOk;
    ++(Out.Metrics.CacheDiskHit ? Metrics.DiskHits
       : Out.Metrics.CacheHit   ? Metrics.MemoryHits
                                : Metrics.CacheMisses);
    Resp.Tier = Out.Metrics.CacheDiskHit ? WireTier::Disk
                : Out.Metrics.CacheHit   ? WireTier::Memory
                                         : WireTier::Miss;
    Resp.CompileSec = Out.Metrics.CacheHit ? 0.0 : Out.Metrics.TotalSec;
    answer(*C, P, TierName, encodeCompileResponse(Resp, Out.Program),
           std::move(Phases));
  }
  // Workers freed up: release the next fair-share picks.
  pumpScheduler();
}

void CompileServer::sweepDeadlines() {
  auto Now = Clock::now();
  for (auto &KV : Pending) {
    PendingReq &P = KV.second;
    if (P.Responded || !P.HasDeadline || Now < P.Deadline)
      continue;
    P.Responded = true;
    ++Metrics.DeadlineMisses;
    // The job may still be queued or even mid-compile; the client gets
    // its answer now and the eventual result is dropped.
    if (Conn *C = find(KV.first.first))
      sendCompileStatus(*C, Status::DeadlineExceeded, "deadline exceeded",
                        P.RequestId);
  }
}
