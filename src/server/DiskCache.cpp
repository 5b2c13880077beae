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
constexpr uint32_t kFileVersion = 1;
/// magic + version + checksum
constexpr size_t kFileHeaderBytes = 16;

std::string hex16(uint64_t H) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

bool readWholeFile(const std::string &Path, std::string &Bytes) {
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  if (!In)
    return false;
  std::streamoff Size = In.tellg();
  if (Size < 0)
    return false;
  std::string S(static_cast<size_t>(Size), '\0');
  In.seekg(0);
  if (Size > 0 && !In.read(&S[0], Size))
    return false;
  Bytes = std::move(S);
  return true;
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

std::shared_ptr<const CompileOutput>
DiskCache::load(uint64_t KeyHash, const std::string &Key) {
  Loads.fetch_add(1, std::memory_order_relaxed);
  std::string Path = entryPath(KeyHash);
  std::string Raw;
  if (!readWholeFile(Path, Raw))
    return nullptr; // plain miss: no entry on disk

  // Validate header + checksum; treat every failure mode as corruption:
  // drop the file so it is rebuilt, and report a miss.
  bool Valid = false;
  auto Out = std::make_shared<CompileOutput>();
  std::string StoredKey;
  if (Raw.size() >= kFileHeaderBytes) {
    WireReader Hdr(Raw.data(), kFileHeaderBytes);
    uint32_t Magic = Hdr.u32();
    uint32_t Version = Hdr.u32();
    uint64_t Checksum = Hdr.u64();
    if (Magic == kFileMagic && Version == kFileVersion &&
        Checksum == fnv1a64(std::string_view(Raw).substr(kFileHeaderBytes))) {
      WireReader Body(Raw.data() + kFileHeaderBytes,
                      Raw.size() - kFileHeaderBytes);
      StoredKey = Body.str();
      if (!Body.failed() && decodeCompileOutput(Body, *Out) &&
          Body.atEndOk())
        Valid = true;
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
  return Out;
}

void DiskCache::store(uint64_t KeyHash, const std::string &Key,
                      const CompileOutput &Out) {
  Stores.fetch_add(1, std::memory_order_relaxed);
  std::string Path = entryPath(KeyHash);
  std::string Dir = Path.substr(0, Path.rfind('/'));
  if (!ensureDir(Dir))
    return; // cache is best-effort: a failed store is just a future miss

  WireWriter Body;
  Body.str(Key);
  encodeCompileOutput(Body, Out);

  WireWriter File;
  File.u32(kFileMagic);
  File.u32(kFileVersion);
  File.u64(fnv1a64(Body.bytes()));
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
