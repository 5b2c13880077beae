//===- server/DiskCache.h - Persistent content-addressed compile cache -------===//
///
/// \file
/// An on-disk, content-addressed store of compile cache entries, layered
/// under the in-memory `CompileCache` via the `CacheBackingStore`
/// interface — a daemon restart keeps a warm cache.
///
/// Layout: `<root>/<hh>/<16-hex-key-hash>.scc`, sharded by the low byte
/// of the salted canonical-key hash. Each file is:
///
///     u32 magic "SCC1"    u32 format version (kFileVersion, 2)
///     u64 checksum of everything after this field
///     str canonical-key ; u8 Ok ; the entry's Body, to the end
///
/// The body is the stored reply bytes (driver/CompileCache's
/// `CacheEntry`), so a hit reads, checks and hands the bytes on; it
/// decodes nothing. The checksum is FNV-1a over 8-byte words, rotated
/// each step, with the tail bytewise; every client still decodes the
/// program with its structural checks, and the VM loader validates
/// what it runs.
///
/// Guarantees:
///  - Writes are atomic: temp file in the same directory + rename(2),
///    so readers (including concurrent daemons sharing the directory)
///    never observe a half-written entry.
///  - Reads are checksum-validated and the stored canonical key is
///    re-compared; a wrong magic or version (version-1 entries held a
///    decoded `CompileOutput`), a bad checksum or a short file counts as
///    corruption — the entry is unlinked and the lookup is a miss.
///  - The canonical key is salted with the compiler version and options
///    schema (driver/CompileCache), so entries written by older builds
///    can never be served: their hash never matches a new key.
///  - The store is size-capped: after a write pushes the running total
///    over `CapacityBytes`, the oldest entries by mtime are evicted
///    (directory scan, LRU approximation; hits refresh mtime) down to
///    90% of the cap.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_SERVER_DISKCACHE_H
#define SMLTC_SERVER_DISKCACHE_H

#include "driver/CompileCache.h"

#include <atomic>
#include <mutex>
#include <string>

namespace smltc {
namespace server {

struct DiskCacheOptions {
  std::string Root;
  /// Total bytes of cache files kept on disk; eviction trims to 90%.
  uint64_t CapacityBytes = 256ull << 20;
};

class DiskCache : public CacheBackingStore {
public:
  explicit DiskCache(DiskCacheOptions Options);

  /// Creates the root directory and scans existing entries into the
  /// size accounting. Returns false (with a reason) when the root
  /// cannot be created or opened.
  bool init(std::string &Err);

  std::shared_ptr<const CacheEntry> load(uint64_t KeyHash,
                                         const std::string &Key) override;
  void store(uint64_t KeyHash, const std::string &Key,
             const CacheEntry &Entry) override;

  uint64_t loadCalls() const { return Loads.load(std::memory_order_relaxed); }
  uint64_t loadHits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t corruptDropped() const {
    return Corrupt.load(std::memory_order_relaxed);
  }
  uint64_t storeCalls() const { return Stores.load(std::memory_order_relaxed); }
  uint64_t evictedFiles() const {
    return Evicted.load(std::memory_order_relaxed);
  }
  uint64_t currentBytes() const {
    return Bytes.load(std::memory_order_relaxed);
  }

  /// Counters as a JSON object (for ServerMetrics embedding).
  std::string statsJson() const;

private:
  std::string entryPath(uint64_t KeyHash) const;
  void evictIfOver();

  DiskCacheOptions Opts;
  std::mutex EvictMutex; ///< one eviction scan at a time
  std::atomic<uint64_t> Loads{0};
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Corrupt{0};
  std::atomic<uint64_t> Stores{0};
  std::atomic<uint64_t> Evicted{0};
  std::atomic<uint64_t> Bytes{0};
  std::atomic<uint64_t> TmpSeq{0};
};

} // namespace server
} // namespace smltc

#endif // SMLTC_SERVER_DISKCACHE_H
