//===- driver/CompileCache.cpp - Content-addressed compile cache -------------===//

#include "driver/CompileCache.h"

#include "driver/PreludeSnapshot.h"

#include <type_traits>

using namespace smltc;

uint64_t smltc::fnv1a64(std::string_view Bytes, uint64_t Seed) {
  uint64_t H = Seed;
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

/// Bump on releases that change generated code for identical inputs.
/// (The disk cache's entry layout has its own version, server/DiskCache.)
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

std::shared_ptr<const CacheEntry>
CompileCache::lookup(uint64_t KeyHash, const std::string &Key,
                     CacheTier &Tier) {
  {
    std::lock_guard<std::mutex> Lock(M);
    auto It = Map.find(KeyHash);
    if (It != Map.end() && It->second.first == Key) {
      ++Hits;
      Tier = CacheTier::Memory;
      return It->second.second;
    }
  }
  // The disk read runs unlocked: workers insert meanwhile.
  std::shared_ptr<const CacheEntry> FromDisk =
      Backing ? Backing->load(KeyHash, Key) : nullptr;
  std::lock_guard<std::mutex> Lock(M);
  if (!FromDisk) {
    ++Misses;
    Tier = CacheTier::Miss;
    return nullptr;
  }
  insertLocked(KeyHash, Key, FromDisk);
  ++Hits;
  Tier = CacheTier::Disk;
  return FromDisk;
}

bool CompileCache::insertLocked(uint64_t KeyHash, const std::string &Key,
                                std::shared_ptr<const CacheEntry> Entry) {
  if (!Map.try_emplace(KeyHash, Key, std::move(Entry)).second)
    return false; // the first insert of a key wins
  Order.push_back(KeyHash);
  // Order holds exactly the live keys, the newest last, so this never
  // drops the entry just inserted.
  while (MaxEntries != 0 && Map.size() > MaxEntries) {
    Map.erase(Order.front());
    Order.pop_front();
    ++Evictions;
  }
  return true;
}

void CompileCache::insert(uint64_t KeyHash, const std::string &Key,
                          std::shared_ptr<const CacheEntry> Entry) {
  {
    std::lock_guard<std::mutex> Lock(M);
    if (!insertLocked(KeyHash, Key, Entry))
      return;
  }
  if (Backing)
    Backing->store(KeyHash, Key, *Entry);
}

void CompileCache::setMaxEntries(size_t Max) {
  std::lock_guard<std::mutex> Lock(M);
  MaxEntries = Max;
}

uint64_t CompileCache::evictedCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Evictions;
}

void CompileCache::clear() {
  std::lock_guard<std::mutex> Lock(M);
  Map.clear();
  Order.clear();
  Evictions = Hits = Misses = 0;
}

uint64_t CompileCache::hitCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Hits;
}

uint64_t CompileCache::missCount() const {
  std::lock_guard<std::mutex> Lock(M);
  return Misses;
}

size_t CompileCache::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Map.size();
}
