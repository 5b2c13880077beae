//===- driver/CompileCache.h - Content-addressed compile cache ---------------===//
///
/// \file
/// The compile server's content-addressed cache of compile replies. The
/// key is the canonical job key (the salt, the options and the full
/// source, as one byte string, stored and compared on lookup so hash
/// collisions cannot alias two different jobs), addressed by its 64-bit
/// FNV-1a hash. The value is a `CacheEntry`: the bytes a compile reply
/// carries after its per-request header, the same bytes in memory and
/// in the backing disk store. The shard's poll thread builds a request's
/// key once and looks it up; the worker that compiles a miss inserts
/// under that key.
///
/// One mutex guards one map and one insertion-order queue, so the
/// entry cap is exact.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_DRIVER_COMPILECACHE_H
#define SMLTC_DRIVER_COMPILECACHE_H

#include "driver/Compiler.h"

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
/// field, and the release version whenever codegen changes. A persistent
/// store (server/DiskCache) keyed by the salted hash can therefore never
/// serve an entry written by an older build — the key simply never
/// matches.
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

/// One compiled job in the form a compile reply carries it: what the
/// reply holds after its per-request header (server/Protocol's
/// `compileEntry` builds it). `Body` is the error text, then, when the
/// compile succeeded, the program's encoding; the error text is empty
/// then. The compile server stores these bytes and a hit splices them
/// behind the header, so a hit encodes and decodes nothing.
struct CacheEntry {
  bool Ok = false;
  std::string Body;
};

/// A second-level store consulted on in-memory misses and written
/// through on inserts (the compile server plugs `server::DiskCache` in
/// here). Implementations must be safe to call from the thread that
/// looks up and the workers that insert at once. `KeyHash` is fnv1a64
/// of the canonical key; `Key` is the full canonical key and must be
/// stored and re-compared so a hash collision degrades to a miss, never
/// to a wrong program.
class CacheBackingStore {
public:
  virtual ~CacheBackingStore() = default;
  virtual std::shared_ptr<const CacheEntry> load(uint64_t KeyHash,
                                                 const std::string &Key) = 0;
  virtual void store(uint64_t KeyHash, const std::string &Key,
                     const CacheEntry &Entry) = 0;
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

  /// Returns the entry stored under the canonical key `Key` (whose
  /// fnv1a64 is `KeyHash`), or nullptr on a miss, and reports which
  /// tier served it: Memory, Disk (the backing store; the entry is
  /// promoted into memory) or Miss. Counts one hit or one miss.
  std::shared_ptr<const CacheEntry> lookup(uint64_t KeyHash,
                                           const std::string &Key,
                                           CacheTier &Tier);
  std::shared_ptr<const CacheEntry> lookup(uint64_t KeyHash,
                                           const std::string &Key) {
    CacheTier Tier = CacheTier::Miss;
    return lookup(KeyHash, Key, Tier);
  }

  /// Stores an entry in memory, then in the backing store when one is
  /// attached. The first insert of a key wins; a later one of the same
  /// key is dropped (both are identical by construction of the key).
  void insert(uint64_t KeyHash, const std::string &Key,
              std::shared_ptr<const CacheEntry> Entry);

  /// Attaches the second-level store. Attach before the cache is used;
  /// the store must outlive the cache.
  void setBackingStore(CacheBackingStore *Store) { Backing = Store; }

  /// Bounds the in-memory map to `Max` entries (0 = unbounded, the
  /// default): an insert past the cap drops the oldest-inserted entries.
  /// This is what makes a farm shard daemon's memory footprint
  /// proportional to the slice of the key space the router sends it:
  /// with consistent-hash routing each shard's working set fits its cap
  /// and stays resident, while a single daemon serving the whole key
  /// space churns.
  void setMaxEntries(size_t Max);
  /// Entries dropped by the cap since construction / last clear().
  uint64_t evictedCount() const;

  /// Drops every in-memory entry and resets the counters. The backing
  /// store is not touched.
  void clear();

  uint64_t hitCount() const;
  uint64_t missCount() const;
  size_t size() const;

private:
  /// Stores an entry in memory only; false if the key was there. M must
  /// be held.
  bool insertLocked(uint64_t KeyHash, const std::string &Key,
                    std::shared_ptr<const CacheEntry> Entry);

  mutable std::mutex M;
  /// key-hash -> (canonical key, entry). The canonical key is
  /// re-compared on lookup so a 64-bit hash collision degrades to a
  /// miss, never to a wrong program.
  std::unordered_map<uint64_t,
                     std::pair<std::string, std::shared_ptr<const CacheEntry>>>
      Map;
  /// The live keys in insertion order, for eviction under the cap.
  std::deque<uint64_t> Order;
  CacheBackingStore *Backing = nullptr;
  size_t MaxEntries = 0;
  uint64_t Evictions = 0;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

} // namespace smltc

#endif // SMLTC_DRIVER_COMPILECACHE_H
