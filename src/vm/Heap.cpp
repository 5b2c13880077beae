//===- vm/Heap.cpp - Tagged heap: nursery + Cheney two-space major space -----------===//

#include "vm/Heap.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <sys/mman.h>

#include <cassert>
#include <chrono>
#include <cstdint>
#include <new>

using namespace smltc;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       T0)
      .count();
}

// GC pauses are microseconds-to-tens-of-milliseconds; the ladder spans
// 1us..100ms in ~2.5x steps.
std::vector<double> gcPauseBuckets() {
  return {1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4,
          5e-4, 1e-3,   2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1};
}

// Copy volume per collection, in heap words (1Ki..16Mi, 4x steps).
std::vector<double> gcCopyBuckets() {
  return {1024.0,   4096.0,    16384.0,   65536.0,
          262144.0, 1048576.0, 4194304.0, 16777216.0};
}

} // namespace

std::shared_ptr<obs::Histogram> smltc::gcPauseHistogram(bool Major) {
  static std::shared_ptr<obs::Histogram> Minor =
      std::make_shared<obs::Histogram>(gcPauseBuckets());
  static std::shared_ptr<obs::Histogram> Maj =
      std::make_shared<obs::Histogram>(gcPauseBuckets());
  return Major ? Maj : Minor;
}

std::shared_ptr<obs::Histogram> smltc::gcCopiedWordsHistogram(bool Major) {
  static std::shared_ptr<obs::Histogram> Minor =
      std::make_shared<obs::Histogram>(gcCopyBuckets());
  static std::shared_ptr<obs::Histogram> Maj =
      std::make_shared<obs::Histogram>(gcCopyBuckets());
  return Major ? Maj : Minor;
}

HeapSpace::HeapSpace(size_t Words) : Words(Words) {
  if (Words > SIZE_MAX / sizeof(Word))
    throw std::bad_alloc();
  // No MAP_NORESERVE: a size the kernel will not back fails here.
  void *P = ::mmap(nullptr, Words * sizeof(Word), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  Data = static_cast<Word *>(P);
}

HeapSpace::~HeapSpace() {
  if (Data)
    ::munmap(Data, Words * sizeof(Word));
}

Heap::Heap(size_t SemiWords, size_t NurseryWords)
    : Mem(SemiWords), SemiWords(SemiWords), NurseryWords(NurseryWords) {
  // The major space must always hold NurseryWords of promotion headroom
  // (see allocMajor); cap the nursery so a tiny test heap keeps room to
  // make progress.
  if (this->NurseryWords > SemiWords / 4)
    this->NurseryWords = SemiWords / 4;
  Nursery.resize(this->NurseryWords, 0);
}

size_t Heap::objectWords(Word Desc) {
  size_t N;
  switch (descKind(Desc)) {
  case ObjKind::Record:
    N = 1 + descLen1(Desc) + descLen2(Desc);
    break;
  case ObjKind::Bytes:
    N = 1 + (descLen1(Desc) + 7) / 8;
    break;
  case ObjKind::Cell:
    N = 2;
    break;
  case ObjKind::Array:
    N = 1 + descLen2(Desc);
    break;
  case ObjKind::Forward:
    return 1;
  default:
    N = 1;
    break;
  }
  // Forwarding needs two words in place (marker + new address).
  return N < 2 ? 2 : N;
}

size_t Heap::allocRaw(size_t PayloadWords) {
  // Match objectWords: every object occupies at least 2 words so the
  // collector's forwarding pair fits without clobbering a neighbor.
  if (PayloadWords == 0)
    PayloadWords = 1;
  size_t Need = 1 + PayloadWords;
  // Small objects go to the nursery; anything over a quarter of it goes
  // straight to the major space (it would evict everything else anyway).
  if (NurseryWords != 0 && Need * 4 <= NurseryWords) {
    if (NurseryHP + Need > NurseryWords) {
      minorCollect();
      // Promotion may have eaten the major headroom; restore the
      // invariant now, while the nursery is guaranteed empty.
      if (HP + NurseryWords > SemiWords)
        majorCollectAndGrow(0);
    }
    size_t At = NurseryBase + NurseryHP;
    NurseryHP += Need;
    ++AllocatedObjects;
    ++Stats.NurseryAllocObjects;
    return At;
  }
  return allocMajor(Need);
}

size_t Heap::allocMajor(size_t Need) {
  // Reserve NurseryWords of headroom so a minor scavenge always has room
  // to promote every nursery survivor.
  if (HP + Need + NurseryWords > SemiWords) {
    minorCollect();
    majorCollectAndGrow(Need);
  }
  size_t At = HP;
  HP += Need;
  ++AllocatedObjects;
  return At;
}

void Heap::majorCollectAndGrow(size_t Need) {
  collect();
  while (HP + Need + NurseryWords > SemiWords) {
    // Grow both semispaces and re-collect into the bigger space.
    SemiWords *= 2;
    FromSpace = HeapSpace(SemiWords);
    collect();
  }
}

//===----------------------------------------------------------------------===//
// Minor collection: scavenge the nursery into the major space.
//===----------------------------------------------------------------------===//

Word Heap::forwardMinor(Word P) {
  if (!isPointer(P))
    return P;
  size_t Idx = pointerIndex(P);
  if (Idx < NurseryBase)
    return P; // already old
  size_t NIdx = Idx - NurseryBase;
  Word Desc = Nursery[NIdx];
  if (descKind(Desc) == ObjKind::Forward)
    return Nursery[NIdx + 1];
  size_t N = objectWords(Desc);
  size_t NewIdx = HP;
  assert(NewIdx + N <= SemiWords && "promotion headroom violated");
  for (size_t I = 0; I < N; ++I)
    Mem[NewIdx + I] = Nursery[NIdx + I];
  HP += N;
  CopiedWords += N;
  Word NewPtr = makePointer(NewIdx);
  Nursery[NIdx] = makeDesc(ObjKind::Forward, 0, 0);
  Nursery[NIdx + 1] = NewPtr;
  return NewPtr;
}

void Heap::scanPromoted(size_t Scan) {
  while (Scan < HP) {
    Word Desc = Mem[Scan];
    size_t N = objectWords(Desc);
    switch (descKind(Desc)) {
    case ObjKind::Record: {
      size_t Floats = descLen1(Desc);
      size_t Words = descLen2(Desc);
      for (size_t I = 0; I < Words; ++I) {
        size_t Slot = Scan + 1 + Floats + I;
        Mem[Slot] = forwardMinor(Mem[Slot]);
      }
      break;
    }
    case ObjKind::Cell:
    case ObjKind::Array: {
      size_t Words = descKind(Desc) == ObjKind::Cell ? 1 : descLen2(Desc);
      for (size_t I = 0; I < Words; ++I) {
        size_t Slot = Scan + 1 + I;
        Mem[Slot] = forwardMinor(Mem[Slot]);
      }
      break;
    }
    case ObjKind::Bytes:
    case ObjKind::Forward:
      break;
    }
    Scan += N;
  }
}

void Heap::minorCollect() {
  if (NurseryHP == 0) {
    StoreList.clear();
    return;
  }
  auto T0 = std::chrono::steady_clock::now();
  obs::Span GcSpan("minor_gc", "gc");
  ++Stats.MinorCollections;
  size_t PromoteStart = HP;
  for (RootRange &R : RootRanges)
    for (size_t I = 0, E = R.count(); I < E; ++I)
      R.Begin[I] = forwardMinor(R.Begin[I]);
  // Native frames published through the shadow-stack protocol.
  for (uint64_t FI = 0; FI < ShadowDepth; ++FI) {
    ShadowFrame &SF = ShadowStack[FI];
    for (uint64_t I = 0; I < SF.Count; ++I)
      SF.Base[I] = forwardMinor(SF.Base[I]);
  }
  // Old-to-young pointers recorded by the write barrier.
  for (size_t Slot : StoreList)
    Mem[Slot] = forwardMinor(Mem[Slot]);
  // Transitively promote everything the survivors reach.
  scanPromoted(PromoteStart);
  uint64_t Promoted = HP - PromoteStart;
  Stats.PromotedWords += Promoted;
  if (Promoted > Stats.MaxMinorPauseWords)
    Stats.MaxMinorPauseWords = Promoted;
  NurseryHP = 0;
  StoreList.clear();
  GcSpan.arg("promoted_words", Promoted);
  double Sec = secondsSince(T0);
  Stats.GcSec += Sec;
  gcPauseHistogram(false)->observe(Sec);
  gcCopiedWordsHistogram(false)->observe(static_cast<double>(Promoted));
}

//===----------------------------------------------------------------------===//
// Major collection: classic two-space Cheney copy.
//===----------------------------------------------------------------------===//

Word Heap::forward(Word P) {
  if (!isPointer(P))
    return P;
  size_t Idx = pointerIndex(P);
  assert(Idx < NurseryBase && "nursery pointer reached the major GC");
  Word Desc = FromSpace[Idx];
  if (descKind(Desc) == ObjKind::Forward)
    return FromSpace[Idx + 1];
  size_t N = objectWords(Desc);
  size_t NewIdx = HP;
  for (size_t I = 0; I < N; ++I)
    Mem[NewIdx + I] = FromSpace[Idx + I];
  HP += N;
  CopiedWords += N;
  Word NewPtr = makePointer(NewIdx);
  FromSpace[Idx] = makeDesc(ObjKind::Forward, 0, 0);
  FromSpace[Idx + 1] = NewPtr;
  return NewPtr;
}

void Heap::collect() {
  assert(NurseryHP == 0 && StoreList.empty() &&
         "major collection requires an empty nursery (minorCollect first)");
  auto T0 = std::chrono::steady_clock::now();
  obs::Span GcSpan("major_gc", "gc");
  ++Stats.MajorCollections;
  uint64_t CopiedBefore = CopiedWords;
  std::swap(Mem, FromSpace);
  // First collection (no from-space yet) or just grown: map a fresh one.
  if (Mem.size() != SemiWords)
    Mem = HeapSpace(SemiWords);
  HP = 1;
  size_t Scan = 1;
  for (RootRange &R : RootRanges)
    for (size_t I = 0, E = R.count(); I < E; ++I)
      R.Begin[I] = forward(R.Begin[I]);
  // Native frames published through the shadow-stack protocol.
  for (uint64_t FI = 0; FI < ShadowDepth; ++FI) {
    ShadowFrame &SF = ShadowStack[FI];
    for (uint64_t I = 0; I < SF.Count; ++I)
      SF.Base[I] = forward(SF.Base[I]);
  }
  // Cheney scan.
  while (Scan < HP) {
    Word Desc = Mem[Scan];
    size_t N = objectWords(Desc);
    switch (descKind(Desc)) {
    case ObjKind::Record: {
      size_t Floats = descLen1(Desc);
      size_t Words = descLen2(Desc);
      for (size_t I = 0; I < Words; ++I) {
        size_t Slot = Scan + 1 + Floats + I;
        Mem[Slot] = forward(Mem[Slot]);
      }
      break;
    }
    case ObjKind::Cell:
    case ObjKind::Array: {
      size_t Words = descKind(Desc) == ObjKind::Cell ? 1 : descLen2(Desc);
      for (size_t I = 0; I < Words; ++I) {
        size_t Slot = Scan + 1 + I;
        Mem[Slot] = forward(Mem[Slot]);
      }
      break;
    }
    case ObjKind::Bytes:
    case ObjKind::Forward:
      break;
    }
    Scan += N;
  }
  uint64_t Pause = CopiedWords - CopiedBefore;
  Stats.MajorCopiedWords += Pause;
  if (Pause > Stats.MaxMajorPauseWords)
    Stats.MaxMajorPauseWords = Pause;
  GcSpan.arg("copied_words", Pause);
  double Sec = secondsSince(T0);
  Stats.GcSec += Sec;
  gcPauseHistogram(true)->observe(Sec);
  gcCopiedWordsHistogram(true)->observe(static_cast<double>(Pause));
}
