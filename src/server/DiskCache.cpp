//===- server/DiskCache.cpp - Persistent content-addressed compile cache -----===//

#include "server/DiskCache.h"

#include "obs/Json.h"
#include "server/Protocol.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <fstream>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#include <vector>

using namespace smltc;
using namespace smltc::server;

namespace {

constexpr uint32_t kFileMagic = 0x31434353u; // "SCC1" little-endian
/// 2: the entry is the stored reply body; 1 held a decoded CompileOutput.
constexpr uint32_t kFileVersion = 2;
/// magic + version + checksum
constexpr size_t kFileHeaderBytes = 16;

/// FNV-1a over 8-byte words (host order: a cache directory belongs to one
/// machine), then the tail bytewise; an eighth of the bytewise hash's
/// multiplies. A multiply carries a difference only toward the high
/// bits, so each step also rotates: without it, flipping the top bit of
/// any two words would leave the sum unchanged.
uint64_t checksum(std::string_view Bytes) {
  uint64_t H = 14695981039346656037ull;
  size_t I = 0;
  for (; I + 8 <= Bytes.size(); I += 8) {
    uint64_t W = 0;
    std::memcpy(&W, Bytes.data() + I, 8);
    H ^= W;
    H = ((H << 31) | (H >> 33)) * 1099511628211ull;
  }
  for (; I < Bytes.size(); ++I)
    H = (H ^ static_cast<unsigned char>(Bytes[I])) * 1099511628211ull;
  return H;
}

std::string hex16(uint64_t H) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

bool readWholeFile(const std::string &Path, std::string &Bytes) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return false;
  struct stat St;
  bool Ok = ::fstat(Fd, &St) == 0;
  if (Ok)
    Bytes.resize(static_cast<size_t>(St.st_size));
  for (size_t Got = 0; Ok && Got < Bytes.size();) {
    ssize_t N = ::read(Fd, &Bytes[Got], Bytes.size() - Got);
    Ok = N > 0;
    Got += Ok ? static_cast<size_t>(N) : 0;
  }
  ::close(Fd);
  return Ok;
}

bool ensureDir(const std::string &Path) {
  if (::mkdir(Path.c_str(), 0755) == 0 || errno == EEXIST)
    return true;
  return false;
}

struct ScanEntry {
  std::string Path;
  uint64_t Size = 0;
  time_t Mtime = 0;
};

/// Walks root/<hh>/*.scc, calling Fn for every entry.
template <typename FnT> void scanEntries(const std::string &Root, FnT Fn) {
  DIR *Top = ::opendir(Root.c_str());
  if (!Top)
    return;
  while (dirent *Shard = ::readdir(Top)) {
    if (Shard->d_name[0] == '.')
      continue;
    std::string ShardPath = Root + "/" + Shard->d_name;
    DIR *D = ::opendir(ShardPath.c_str());
    if (!D)
      continue;
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name.size() < 4 || Name.substr(Name.size() - 4) != ".scc")
        continue;
      std::string Path = ShardPath + "/" + Name;
      struct stat St;
      if (::stat(Path.c_str(), &St) != 0 || !S_ISREG(St.st_mode))
        continue;
      Fn(ScanEntry{Path, static_cast<uint64_t>(St.st_size), St.st_mtime});
    }
    ::closedir(D);
  }
  ::closedir(Top);
}

} // namespace

DiskCache::DiskCache(DiskCacheOptions Options) : Opts(std::move(Options)) {}

bool DiskCache::init(std::string &Err) {
  if (Opts.Root.empty()) {
    Err = "disk cache root path is empty";
    return false;
  }
  if (!ensureDir(Opts.Root)) {
    Err = "cannot create disk cache root '" + Opts.Root +
          "': " + std::strerror(errno);
    return false;
  }
  uint64_t Total = 0;
  scanEntries(Opts.Root, [&](const ScanEntry &E) { Total += E.Size; });
  Bytes.store(Total, std::memory_order_relaxed);
  return true;
}

std::string DiskCache::entryPath(uint64_t KeyHash) const {
  char Shard[3];
  std::snprintf(Shard, sizeof(Shard), "%02x",
                static_cast<unsigned>(KeyHash & 0xff));
  return Opts.Root + "/" + Shard + "/" + hex16(KeyHash) + ".scc";
}

std::shared_ptr<const CacheEntry> DiskCache::load(uint64_t KeyHash,
                                                  const std::string &Key) {
  Loads.fetch_add(1, std::memory_order_relaxed);
  std::string Path = entryPath(KeyHash);
  std::string Raw;
  if (!readWholeFile(Path, Raw))
    return nullptr; // plain miss: no entry on disk

  // Validate header + checksum; treat every failure mode as corruption:
  // drop the file so it is rebuilt, and report a miss.
  bool Valid = false;
  std::string StoredKey;
  uint8_t Ok = 0;
  size_t BodyAt = 0;
  if (Raw.size() >= kFileHeaderBytes) {
    WireReader Hdr(Raw.data(), kFileHeaderBytes);
    uint32_t Magic = Hdr.u32();
    uint32_t Version = Hdr.u32();
    uint64_t Checksum = Hdr.u64();
    if (Magic == kFileMagic && Version == kFileVersion &&
        Checksum == checksum(std::string_view(Raw).substr(kFileHeaderBytes))) {
      WireReader Body(Raw.data() + kFileHeaderBytes,
                      Raw.size() - kFileHeaderBytes);
      StoredKey = Body.str();
      Ok = Body.u8();
      BodyAt = Raw.size() - Body.remaining();
      Valid = !Body.failed() && Ok <= 1;
    }
  }
  if (!Valid) {
    Corrupt.fetch_add(1, std::memory_order_relaxed);
    if (::unlink(Path.c_str()) == 0 &&
        Bytes.load(std::memory_order_relaxed) >= Raw.size())
      Bytes.fetch_sub(Raw.size(), std::memory_order_relaxed);
    return nullptr;
  }
  // A 64-bit hash collision must degrade to a miss, never a wrong
  // program: the full canonical key is stored and re-compared.
  if (StoredKey != Key)
    return nullptr;

  // Refresh mtime so the LRU directory scan sees this entry as young.
  struct timespec Ts[2];
  Ts[0].tv_sec = 0;
  Ts[0].tv_nsec = UTIME_NOW;
  Ts[1].tv_sec = 0;
  Ts[1].tv_nsec = UTIME_NOW;
  ::utimensat(AT_FDCWD, Path.c_str(), Ts, 0);
  Hits.fetch_add(1, std::memory_order_relaxed);
  Raw.erase(0, BodyAt);
  return std::make_shared<const CacheEntry>(CacheEntry{Ok != 0, std::move(Raw)});
}

void DiskCache::store(uint64_t KeyHash, const std::string &Key,
                      const CacheEntry &Entry) {
  Stores.fetch_add(1, std::memory_order_relaxed);
  std::string Path = entryPath(KeyHash);
  std::string Dir = Path.substr(0, Path.rfind('/'));
  if (!ensureDir(Dir))
    return; // cache is best-effort: a failed store is just a future miss

  WireWriter Body;
  Body.str(Key);
  Body.u8(Entry.Ok);
  Body.raw(Entry.Body.data(), Entry.Body.size());

  WireWriter File;
  File.u32(kFileMagic);
  File.u32(kFileVersion);
  File.u64(checksum(Body.bytes()));
  File.raw(Body.bytes().data(), Body.bytes().size());
  const std::string &Blob = File.bytes();

  // Atomic publish: write a unique temp file in the same directory,
  // then rename over the final path. Readers see old, new, or nothing.
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(TmpSeq.fetch_add(1));
  {
    std::ofstream OutF(Tmp, std::ios::binary | std::ios::trunc);
    if (!OutF || !OutF.write(Blob.data(),
                             static_cast<std::streamsize>(Blob.size()))) {
      ::unlink(Tmp.c_str());
      return;
    }
  }
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return;
  }
  Bytes.fetch_add(Blob.size(), std::memory_order_relaxed);
  if (Bytes.load(std::memory_order_relaxed) > Opts.CapacityBytes)
    evictIfOver();
}

void DiskCache::evictIfOver() {
  // One scan at a time; concurrent writers that also trip the cap just
  // skip — the next store re-checks.
  std::unique_lock<std::mutex> Lock(EvictMutex, std::try_to_lock);
  if (!Lock.owns_lock())
    return;

  std::vector<ScanEntry> Entries;
  uint64_t Total = 0;
  scanEntries(Opts.Root, [&](const ScanEntry &E) {
    Total += E.Size;
    Entries.push_back(E);
  });
  Bytes.store(Total, std::memory_order_relaxed); // resync accounting
  if (Total <= Opts.CapacityBytes)
    return;

  std::sort(Entries.begin(), Entries.end(),
            [](const ScanEntry &A, const ScanEntry &B) {
              return A.Mtime < B.Mtime;
            });
  uint64_t Target = Opts.CapacityBytes - Opts.CapacityBytes / 10;
  for (const ScanEntry &E : Entries) {
    if (Total <= Target)
      break;
    if (::unlink(E.Path.c_str()) == 0) {
      Total -= E.Size;
      Evicted.fetch_add(1, std::memory_order_relaxed);
    }
  }
  Bytes.store(Total, std::memory_order_relaxed);
}

std::string DiskCache::statsJson() const {
  obs::JsonWriter W;
  W.beginObject()
      .field("loads", loadCalls())
      .field("hits", loadHits())
      .field("corrupt_dropped", corruptDropped())
      .field("stores", storeCalls())
      .field("evicted_files", evictedFiles())
      .field("current_bytes", currentBytes())
      .endObject();
  return W.take();
}
