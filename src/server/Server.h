//===- server/Server.h - The smltcc compile daemon ---------------------------===//
///
/// \file
/// A long-lived compile server: accepts concurrent clients on a
/// Unix-domain socket, speaks the server/Protocol frame format, and
/// dispatches compile requests onto the existing `BatchCompiler`
/// persistent worker pool. The shard alone reads and writes its cache:
/// the poll loop builds a request's canonical key once and probes the
/// in-memory `CompileCache`, layered over an optional persistent
/// `DiskCache` (so a daemon restart keeps a warm cache). A hit is
/// answered on the loop by splicing the stored reply body behind the
/// reply header. A miss goes to the pool, which only compiles; the
/// worker encodes the reply body once, stores it in both tiers under
/// the request's key, and hands the same bytes back to the loop.
/// Memory/disk/miss tiers are reported per response and in the stats
/// JSON.
///
/// The shard is a role on the farm node core (farm/Node.h), which owns
/// the sockets, the poll loop, the status surface and the drain; the
/// shard answers CompileReq and TenantAuth. Compile workers never touch
/// a socket: a finished job is handed back to the loop through a locked
/// completion queue and a wake of the loop. Admission control is the
/// fair-share scheduler (farm/FairShare.h) over a bounded queue: when it
/// is full, the request is answered with `Status::QueueFull` instead of
/// being buffered. Each request may carry a deadline; requests that
/// exceed it (while queued or while compiling) are answered with
/// `Status::DeadlineExceeded` as the deadline passes, since the loop
/// sleeps only until the earliest one, so a deadline response is never
/// blocked behind the compile that is starving it.
///
/// Shutdown (SIGTERM/SIGINT via `installSignalHandlers`, or a client
/// ShutdownReq) is drain-then-exit: stop accepting, reject new compiles
/// with `Status::Draining`, let in-flight jobs finish, flush every
/// response, then return from run().
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_SERVER_SERVER_H
#define SMLTC_SERVER_SERVER_H

#include "driver/Batch.h"
#include "farm/FairShare.h"
#include "farm/Node.h"
#include "farm/Tenant.h"
#include "server/DiskCache.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace smltc {
namespace server {

struct ServerOptions {
  /// Unix-domain socket path; may be empty when ListenAddr is set.
  std::string SocketPath;
  /// TCP listen address "HOST:PORT" ("[::1]:PORT" for IPv6 literals;
  /// port 0 = kernel-assigned, see tcpAddr()). Empty = no TCP listener.
  /// The same frame protocol and caps apply on both transports, and the
  /// TCP listener additionally serves the HTTP status surface.
  std::string ListenAddr;
  /// Tenant token file (farm/Tenant.h format). When set, every compile
  /// must be preceded by a TenantAuth frame or it is answered with
  /// Status::Unauthorized. Empty = single implicit "default" tenant, no
  /// auth required.
  std::string TokenFile;
  /// Compile workers (BatchCompiler pool); 0 = hardware concurrency.
  size_t NumWorkers = 0;
  /// Admission cap: compile jobs queued (not yet running) before new
  /// requests are rejected with Status::QueueFull. This is the
  /// farm-wide bound; per-tenant MaxQueued quotas apply underneath it.
  size_t MaxQueue = 64;
  /// Persistent cache directory; empty = in-memory cache only.
  std::string DiskCachePath;
  uint64_t DiskCacheCapBytes = 256ull << 20;
  /// In-memory compile cache entry cap (0 = unbounded). Farm shards set
  /// this so a daemon's resident set tracks its consistent-hash slice.
  size_t MaxMemCacheEntries = 0;
};

/// Counters the daemon reports via StatsReq / `metricsJson()`: the node
/// core's plus the shard's own. Owned by the poll thread; read
/// externally only after run() returns.
struct ServerMetrics : farm::NodeCounters {
  uint64_t CompileRequests = 0;
  uint64_t CompileOk = 0;
  uint64_t CompileErrors = 0;
  uint64_t QueueFullRejects = 0;
  uint64_t DeadlineMisses = 0;
  uint64_t DrainingRejects = 0;
  uint64_t MemoryHits = 0; ///< compile responses served from memory tier
  uint64_t DiskHits = 0;   ///< ... from the persistent disk tier
  uint64_t CacheMisses = 0; ///< ... compiled for real
  size_t QueueDepthPeak = 0;
  uint64_t AuthRequests = 0;       ///< TenantAuth frames handled
  uint64_t AuthRejects = 0;        ///< bad token / missing auth
  uint64_t TenantQuotaRejects = 0; ///< per-tenant MaxQueued bounces

  /// Renders the counters (plus live queue depth and disk-cache stats
  /// when attached) as one JSON object.
  std::string toJson(size_t QueueDepthNow,
                     const DiskCache *Disk = nullptr) const;
};

class CompileServer : public farm::Node {
public:
  explicit CompileServer(ServerOptions Options);
  ~CompileServer() override;

  /// Metrics snapshot; meaningful once run() has returned (the poll
  /// thread owns the counters while running — use a StatsReq for live
  /// numbers).
  const ServerMetrics &metrics() const { return Metrics; }
  std::string metricsJson() const;

private:
  using Tenant = farm::FairShareScheduler::Tenant;

  struct ShardConn : Conn {
    /// Resolved tenant (after TenantAuth; the implicit default tenant
    /// when no token file is loaded). Null = not yet authenticated.
    Tenant *T = nullptr;
  };

  /// One compile request awaiting completion; keyed by (ConnId, Seq).
  struct PendingReq {
    Clock::time_point Arrival{};
    Clock::time_point Deadline{};
    uint64_t RequestId = 0; ///< client-assigned; echoed in the response
    /// Trace context carried by the request frame (v4; zeros = none)
    /// and the span id minted for this server's "request" span — the
    /// parent every job-side span links under.
    obs::TraceContext Ctx;
    uint64_t ServerSpanId = 0;
    bool HasDeadline = false;
    bool Responded = false; ///< deadline sweep already answered it
    /// Owning tenant; scheduler tenants are heap-allocated and live for
    /// the server's lifetime, so the pointer stays valid.
    Tenant *Owner = nullptr;
  };

  /// A finished job travelling from a worker to the poll loop: the
  /// entry the worker stored, and the compile's timings.
  struct Completion {
    uint64_t ConnId = 0;
    uint64_t Seq = 0;
    std::shared_ptr<const CacheEntry> Entry;
    CompileMetrics Metrics;
  };

  // farm::Node
  bool prepare(std::string &Err) override;
  std::unique_ptr<Conn> newConn() override;
  void onFrame(Conn &C, Frame &F) override;
  bool mayShutdown(Conn &C) override;
  void onDrain() override;
  bool busy() const override;
  Clock::time_point nextTimer() const override;
  void onTick() override;
  std::string statsJson() const override { return metricsJson(); }
  std::string humanStats() const override;
  void statusFields(obs::JsonWriter &W) const override;
  uint64_t served() const override { return Metrics.CompileRequests; }
  farm::NodeCounters &counters() override { return Metrics; }

  void handleCompile(ShardConn &C, const Frame &F);
  void handleTenantAuth(ShardConn &C, const Frame &F);
  /// Releases fair-share-queued jobs to the pool while workers have
  /// headroom; called after enqueue and after every completion drain.
  void pumpScheduler();
  /// Submits one released job to the pool; false only when the pool is
  /// shutting down.
  bool submitToPool(farm::QueuedJob J);
  void drainCompletions();
  void sweepDeadlines();
  size_t queueDepth() const;

  /// Publishes the counters, uptime/queue gauges, and per-tier latency
  /// histograms into `Reg` (prepare() calls this once).
  void registerMetrics();
  /// Answers one compile request: latency histograms for its cache tier
  /// and tenant, a "request" trace span linked into the request's
  /// distributed trace (`P.Ctx` = wire context with the remote parent
  /// span id, `P.ServerSpanId` = this request's own span), a /tracez
  /// sample (always, even with tracing off), then the reply.
  void answer(Conn &C, const PendingReq &P, const char *Tier,
              const std::string &Payload, std::string PhasesJson = {});

  ServerOptions Opts;
  ServerMetrics Metrics;
  std::unique_ptr<CompileCache> Cache;
  std::unique_ptr<DiskCache> Disk;
  std::unique_ptr<BatchCompiler> Pool;

  /// Tenancy: token registry (immutable after start) and the fair-share
  /// scheduler (poll-thread-owned, like every Conn).
  farm::TenantRegistry Tenants;
  std::unique_ptr<farm::FairShareScheduler> Sched;
  bool AuthRequired = false;
  /// Jobs released to the pool concurrently; matches the worker count
  /// so fair-share decisions are made as late as possible while workers
  /// never starve.
  size_t PoolTargetInFlight = 1;

  /// Request-latency histograms split by cache tier; indexed memory=0,
  /// disk=1, miss=2. Owned by `Reg`, whose callback instruments read the
  /// ServerMetrics counters on the poll thread that writes them.
  obs::Histogram *TierHist[3] = {nullptr, nullptr, nullptr};

  uint64_t NextSeq = 0;
  std::map<std::pair<uint64_t, uint64_t>, PendingReq> Pending;
  size_t InFlightTotal = 0; ///< accepted compiles not yet completed

  std::mutex CompMutex;
  std::vector<Completion> Completions;
};

} // namespace server
} // namespace smltc

#endif // SMLTC_SERVER_SERVER_H
