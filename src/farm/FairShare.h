//===- farm/FairShare.h - Weighted fair-share compile admission --------------===//
///
/// \file
/// Replaces the compile server's single global bounded queue with
/// weighted fair-share admission across tenants. Each tenant owns a
/// FIFO of queued compile jobs plus two quotas (max queued, max in
/// flight); the scheduler releases jobs to the worker pool by picking,
/// among tenants that have work and in-flight headroom, the one with
/// the least *virtual service* — admissions counted at 1/weight each,
/// the classic stride-scheduling currency. A weight-3 tenant therefore
/// gets 3x the admissions of a weight-1 tenant under contention, an
/// idle tenant's credit is clamped when it returns (no banked bursts),
/// and a tenant that floods its own queue hits its `MaxQueued` quota
/// with `QueueFull` while everyone else is untouched.
///
/// Single-threaded by design: the compile server's poll loop owns the
/// scheduler the same way it owns every connection, so there is no lock
/// and no memory-ordering question — completions arrive on the poll
/// thread via the existing completion queue.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_FARM_FAIRSHARE_H
#define SMLTC_FARM_FAIRSHARE_H

#include "driver/Batch.h"
#include "farm/Tenant.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

namespace smltc {
namespace obs {
class Counter;
class Histogram;
} // namespace obs

namespace farm {

/// A compile request accepted into a tenant queue, waiting for the
/// scheduler to release it to the worker pool. Identified by the same
/// (connection id, sequence) key as the server's pending-request map.
struct QueuedJob {
  uint64_t ConnId = 0;
  uint64_t Seq = 0;
  CompileJob Job;
  /// The job's canonical cache key and its fnv1a64, built once when the
  /// request arrived; the worker stores the finished entry under them.
  std::string Key;
  uint64_t KeyHash = 0;
};

class FairShareScheduler {
public:
  struct Tenant {
    TenantConfig Cfg;
    std::deque<QueuedJob> Q;
    uint32_t InFlight = 0;      ///< released to the pool, not completed
    double VirtualService = 0;  ///< admissions weighted by 1/Cfg.Weight
    // Poll-thread-owned tallies, published via the obs registry.
    uint64_t Requests = 0;      ///< compile requests seen (incl. hits)
    uint64_t Admitted = 0;      ///< released to the pool
    uint64_t QuotaRejects = 0;  ///< bounced on MaxQueued / global cap
    // Registered per-tenant instruments (owned by the registry).
    obs::Counter *ReqCounter = nullptr;
    obs::Counter *RejCounter = nullptr;
    obs::Histogram *LatencyHist = nullptr;
  };

  /// `GlobalMaxQueued` bounds the sum of all tenant queues (0 =
  /// unbounded) — the farm-wide memory guard on top of the per-tenant
  /// quotas.
  explicit FairShareScheduler(size_t GlobalMaxQueued)
      : GlobalMaxQueued(GlobalMaxQueued) {}

  Tenant &addTenant(const TenantConfig &Cfg);
  Tenant *byName(const std::string &Name);

  enum class Verdict : uint8_t {
    Queued,          ///< accepted into the tenant queue
    TenantQueueFull, ///< tenant's MaxQueued quota hit
    GlobalQueueFull, ///< farm-wide queue cap hit
  };
  Verdict enqueue(Tenant &T, QueuedJob Item);

  /// Releases the next job under fair share: among tenants with queued
  /// work and in-flight headroom, the least virtual service wins.
  /// Charges the tenant's in-flight slot and service; the caller pairs
  /// every successful pop with exactly one later `onComplete` (also for
  /// jobs it then discards as stale).
  bool popNext(QueuedJob &Out, Tenant *&Owner);

  /// A released job finished (or was discarded before submission).
  void onComplete(Tenant &T) {
    if (T.InFlight > 0)
      --T.InFlight;
  }

  /// Empties every tenant queue (drain path); returns the jobs so the
  /// server can answer each with Status::Draining. In-flight charges
  /// are untouched — those jobs are really running.
  std::vector<QueuedJob> drainAll();

  size_t totalQueued() const { return TotalQueued; }
  const std::vector<std::unique_ptr<Tenant>> &tenants() const {
    return Tenants;
  }
  std::vector<std::unique_ptr<Tenant>> &tenants() { return Tenants; }

private:
  /// Least virtual service among tenants that currently matter (queued
  /// work or in-flight jobs); the clamp floor for returning idlers.
  double minActiveService() const;

  size_t GlobalMaxQueued;
  size_t TotalQueued = 0;
  std::vector<std::unique_ptr<Tenant>> Tenants;
};

} // namespace farm
} // namespace smltc

#endif // SMLTC_FARM_FAIRSHARE_H
