//===- driver/CompileCache.cpp - Content-addressed compile cache -------------===//

#include "driver/CompileCache.h"

#include "driver/PreludeSnapshot.h"

#include <type_traits>

using namespace smltc;

uint64_t smltc::fnv1a64(std::string_view Bytes) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

namespace {

void appendRaw(std::string &Key, const void *P, size_t N) {
  Key.append(static_cast<const char *>(P), N);
}

template <typename T> void appendPod(std::string &Key, T V) {
  static_assert(std::is_trivially_copyable<T>::value, "POD only");
  appendRaw(Key, &V, sizeof(V));
}

/// Bump on releases that change generated code for identical inputs, or
/// the layout of the persisted CompileOutput blob (CompileMetrics is
/// stored as a sized memcpy, so growing it invalidates old entries).
/// 0.9.0: the shrink engine moves once-called bodies and cascades dead
/// bindings, so optimized programs differ from every 0.8.x build.
/// 0.10.0: the optimizer removes every function unreachable from the
/// entry, so programs lose the dead prelude that 0.9.x kept.
constexpr const char *kCompilerVersion = "smltc-0.10.0";

} // namespace

const char *smltc::compilerVersion() { return kCompilerVersion; }

int smltc::optionsSchemaVersion() { return kOptionsSchemaVersion; }

const char *smltc::compileCacheSalt() {
  static const std::string Salt = std::string(kCompilerVersion) +
                                  ";optschema=" +
                                  std::to_string(kOptionsSchemaVersion) + ";";
  return Salt.c_str();
}

std::string smltc::canonicalJobKey(const std::string &Source,
                                   const CompilerOptions &Opts,
                                   bool WithPrelude) {
  std::string Key;
  Key.reserve(Source.size() + 96);
  // Version + schema salt first: entries persisted by an older build (or
  // an older key layout) can never be served by this one.
  Key += compileCacheSalt();
  Key += '\0';
  Key += static_cast<char>(WithPrelude);
  // The prelude by its text: any edit to it, a function body included,
  // changes every WithPrelude key.
  if (WithPrelude) {
    uint64_t H = PreludeSnapshot::cacheFingerprint();
    for (int Shift = 0; Shift < 64; Shift += 8)
      Key += static_cast<char>((H >> Shift) & 0xff);
  }
  encodeOptions(Key, Opts);
  Key += '\0';
  Key += Source;
  return Key;
}

std::string smltc::programBytes(const TmProgram &Program) {
  std::string Bytes;
  appendPod(Bytes, static_cast<uint64_t>(Program.Funs.size()));
  for (const TmFunction &F : Program.Funs) {
    appendPod(Bytes, static_cast<int32_t>(F.NumWordParams));
    appendPod(Bytes, static_cast<int32_t>(F.NumFloatParams));
    appendPod(Bytes, static_cast<uint64_t>(F.Code.size()));
    for (const Insn &I : F.Code) {
      appendPod(Bytes, static_cast<uint8_t>(I.Op));
      appendPod(Bytes, I.Rd);
      appendPod(Bytes, I.Rs1);
      appendPod(Bytes, I.Rs2);
      appendPod(Bytes, I.Imm);
      appendPod(Bytes, I.IVal);
      appendPod(Bytes, I.FVal);
      appendPod(Bytes, static_cast<uint8_t>(I.Cond));
      appendPod(Bytes, static_cast<uint8_t>(I.Rt));
      appendPod(Bytes, static_cast<uint8_t>(I.RK));
    }
  }
  appendPod(Bytes, static_cast<uint64_t>(Program.StringPool.size()));
  for (const std::string &S : Program.StringPool) {
    appendPod(Bytes, static_cast<uint64_t>(S.size()));
    Bytes += S;
  }
  return Bytes;
}

std::shared_ptr<const CompileOutput>
CompileCache::lookup(const std::string &Source, const CompilerOptions &Opts,
                     bool WithPrelude) {
  CacheTier Tier;
  return lookup(Source, Opts, WithPrelude, Tier);
}

std::shared_ptr<const CompileOutput>
CompileCache::lookup(const std::string &Source, const CompilerOptions &Opts,
                     bool WithPrelude, CacheTier &Tier) {
  std::string Key = canonicalJobKey(Source, Opts, WithPrelude);
  uint64_t H = fnv1a64(Key);
  Shard &S = Shards[H % NumShards];
  {
    std::lock_guard<std::mutex> Lock(S.M);
    auto It = S.Map.find(H);
    if (It != S.Map.end() && It->second.first == Key) {
      Hits.fetch_add(1, std::memory_order_relaxed);
      Tier = CacheTier::Memory;
      return It->second.second;
    }
  }
  if (CacheBackingStore *Store = Backing.load(std::memory_order_acquire)) {
    if (std::shared_ptr<const CompileOutput> FromDisk = Store->load(H, Key)) {
      insertMemory(H, std::move(Key), FromDisk);
      Hits.fetch_add(1, std::memory_order_relaxed);
      DiskHits.fetch_add(1, std::memory_order_relaxed);
      Tier = CacheTier::Disk;
      return FromDisk;
    }
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  Tier = CacheTier::Miss;
  return nullptr;
}

void CompileCache::insertMemory(uint64_t H, std::string Key,
                                std::shared_ptr<const CompileOutput> Out) {
  Shard &S = Shards[H % NumShards];
  size_t Max = MaxEntries.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> Lock(S.M);
  auto Ins =
      S.Map.emplace(H, std::make_pair(std::move(Key), std::move(Out)));
  if (!Ins.second)
    return; // duplicate insert: first one wins, nothing new to track
  S.Order.push_back(H);
  uint64_t Total = Count.fetch_add(1, std::memory_order_relaxed) + 1;
  // FIFO-evict from this shard while the whole map is over the cap.
  // Only this shard's lock is held; inserts land across shards, so the
  // total stays within a shard's worth of the cap in the steady state.
  while (Max != 0 && Total > Max && S.Order.size() > 1) {
    uint64_t Old = S.Order.front();
    S.Order.pop_front();
    if (Old == H) { // never evict the entry just inserted
      S.Order.push_back(Old);
      continue;
    }
    if (S.Map.erase(Old)) {
      Total = Count.fetch_sub(1, std::memory_order_relaxed) - 1;
      Evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void CompileCache::insert(const std::string &Source,
                          const CompilerOptions &Opts, bool WithPrelude,
                          std::shared_ptr<const CompileOutput> Out) {
  std::string Key = canonicalJobKey(Source, Opts, WithPrelude);
  uint64_t H = fnv1a64(Key);
  if (CacheBackingStore *Store = Backing.load(std::memory_order_acquire))
    Store->store(H, Key, *Out);
  insertMemory(H, std::move(Key), std::move(Out));
}

void CompileCache::clear() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    S.Map.clear();
    S.Order.clear();
  }
  Count.store(0, std::memory_order_relaxed);
  Evictions.store(0, std::memory_order_relaxed);
  Hits.store(0, std::memory_order_relaxed);
  Misses.store(0, std::memory_order_relaxed);
  DiskHits.store(0, std::memory_order_relaxed);
}

size_t CompileCache::size() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.M);
    N += S.Map.size();
  }
  return N;
}
