//===- driver/CompileCache.h - Content-addressed compile cache ---------------===//
///
/// \file
/// A thread-safe, content-addressed cache of compilation results. The key
/// is a 64-bit FNV-1a hash of the full source text plus the job's options
/// (canonicalized into a byte string, which is also stored and compared
/// on lookup so hash collisions cannot alias two different jobs). The value is the complete `CompileOutput`, including
/// the generated `TmProgram`. Re-compiles of an identical (source, variant)
/// pair — which the ablation benches and the test suite perform constantly —
/// become a hash lookup instead of a full pipeline run.
///
/// Internally the map is sharded 16 ways by key hash so concurrent batch
/// workers rarely contend on the same mutex. Hit/miss counters are atomics
/// and may be read while compiles are in flight.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_DRIVER_COMPILECACHE_H
#define SMLTC_DRIVER_COMPILECACHE_H

#include "driver/Compiler.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace smltc {

/// The version + options-schema salt mixed into every canonical job key.
/// Cached outputs are only valid for the exact compiler build and
/// options layout that produced them: bump `kOptionsSchemaVersion`
/// (driver/Options.h) whenever encodeOptions gains, loses or reorders a
/// field, and the release version whenever codegen changes. A persistent store (server/DiskCache) keyed
/// by the salted hash can therefore never serve an entry written by an
/// older build — the key simply never matches.
const char *compileCacheSalt();

/// The two salt components individually — what `smltcc_build_info`
/// reports on every node's /metrics, so a fleet scrape can spot a shard
/// running a stale build or schema before it poisons a shared cache.
const char *compilerVersion();
int optionsSchemaVersion();

/// Serializes a compile job into a deterministic byte string: the salt,
/// `WithPrelude`, the fnv1a64 of the prelude text when it is layered on
/// (`PreludeSnapshot::cacheFingerprint`), `encodeOptions(Opts)`, and the
/// source. Two jobs with equal canonical keys are guaranteed to produce
/// identical `CompileOutput`s under this compiler build.
std::string canonicalJobKey(const std::string &Source,
                            const CompilerOptions &Opts, bool WithPrelude);

/// 64-bit FNV-1a over an arbitrary byte string.
uint64_t fnv1a64(std::string_view Bytes);

/// Which layer of the cache hierarchy served a lookup.
enum class CacheTier : uint8_t { Miss = 0, Memory = 1, Disk = 2 };

/// A second-level store consulted on in-memory misses and written
/// through on inserts (the compile server plugs `server::DiskCache` in
/// here). Implementations must be safe to call from concurrent batch
/// workers. `KeyHash` is fnv1a64 of the canonical key; `Key` is the full
/// canonical key and must be stored and re-compared so a hash collision
/// degrades to a miss, never to a wrong program.
class CacheBackingStore {
public:
  virtual ~CacheBackingStore() = default;
  virtual std::shared_ptr<const CompileOutput>
  load(uint64_t KeyHash, const std::string &Key) = 0;
  virtual void store(uint64_t KeyHash, const std::string &Key,
                     const CompileOutput &Out) = 0;
};

/// Serializes a generated TM program (code bytes and string pool) into a
/// deterministic byte string — used by tests and benches to assert that
/// two compiles produced bit-identical code.
std::string programBytes(const TmProgram &Program);

class CompileCache {
public:
  CompileCache() = default;
  CompileCache(const CompileCache &) = delete;
  CompileCache &operator=(const CompileCache &) = delete;

  /// Returns the cached output for the job, or nullptr on miss.
  /// Counts one hit or one miss.
  std::shared_ptr<const CompileOutput>
  lookup(const std::string &Source, const CompilerOptions &Opts,
         bool WithPrelude);

  /// As above, but also reports which tier served the lookup: Memory,
  /// Disk (backing store; the entry is promoted into memory), or Miss.
  std::shared_ptr<const CompileOutput>
  lookup(const std::string &Source, const CompilerOptions &Opts,
         bool WithPrelude, CacheTier &Tier);

  /// Inserts a compile result. First insertion wins; a concurrent
  /// duplicate insert of the same key is dropped (both are identical by
  /// construction of the canonical key). Written through to the backing
  /// store when one is attached.
  void insert(const std::string &Source, const CompilerOptions &Opts,
              bool WithPrelude, std::shared_ptr<const CompileOutput> Out);

  /// Attaches / detaches the second-level store. Attach before handing
  /// the cache to concurrent consumers; the store must outlive the cache
  /// (or be detached first).
  void setBackingStore(CacheBackingStore *Store) {
    Backing.store(Store, std::memory_order_release);
  }

  /// Bounds the in-memory map to roughly `Max` entries (0 = unbounded,
  /// the default). When over the cap, the oldest-inserted entries in
  /// the shard being written are dropped (FIFO). This is what makes a
  /// farm shard daemon's memory footprint proportional to the slice of
  /// the key space the router sends it: with consistent-hash routing
  /// each shard's working set fits its cap and stays resident, while a
  /// single daemon serving the whole key space churns.
  void setMaxEntries(size_t Max) {
    MaxEntries.store(Max, std::memory_order_relaxed);
  }
  size_t maxEntries() const {
    return MaxEntries.load(std::memory_order_relaxed);
  }
  /// Entries dropped by the cap since construction / last clear().
  uint64_t evictedCount() const {
    return Evictions.load(std::memory_order_relaxed);
  }

  /// Drops every in-memory entry and resets the hit/miss counters. The
  /// backing store is not touched.
  void clear();

  uint64_t hitCount() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t missCount() const {
    return Misses.load(std::memory_order_relaxed);
  }
  /// Lookups served by the backing store (a subset of hitCount).
  uint64_t diskHitCount() const {
    return DiskHits.load(std::memory_order_relaxed);
  }
  size_t size() const;

private:
  static constexpr size_t NumShards = 16;

  struct Shard {
    mutable std::mutex M;
    /// key-hash -> (canonical key, cached output). The canonical key is
    /// re-compared on lookup so a 64-bit hash collision degrades to a
    /// miss, never to a wrong program.
    std::unordered_map<uint64_t,
                       std::pair<std::string,
                                 std::shared_ptr<const CompileOutput>>>
        Map;
    /// Insertion order of live keys, for FIFO eviction under a cap.
    std::deque<uint64_t> Order;
  };

  /// Inserts into the in-memory map only (promotion from the backing
  /// store must not write the entry straight back out).
  void insertMemory(uint64_t H, std::string Key,
                    std::shared_ptr<const CompileOutput> Out);

  Shard Shards[NumShards];
  std::atomic<CacheBackingStore *> Backing{nullptr};
  std::atomic<size_t> MaxEntries{0};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Evictions{0};
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> DiskHits{0};
};

} // namespace smltc

#endif // SMLTC_DRIVER_COMPILECACHE_H
