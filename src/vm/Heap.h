//===- vm/Heap.h - Tagged heap: nursery + Cheney two-space major space -------------===//
///
/// \file
/// The runtime heap. Values are 64-bit words: tagged integers are odd
/// ((n << 1) | 1); heap pointers are even (word index << 3). Floats live
/// untagged in float registers and occupy one 64-bit heap word (counted as
/// two 32-bit words in the allocation statistics, matching the paper's
/// 32-bit target).
///
/// Every object carries one descriptor word (kind, len1, len2):
///   Record (len1 = raw floats stored first, len2 = words after) — the
///     paper's Figure 1c "two short integers" descriptor;
///   Bytes  (len1 = byte count) — strings;
///   Cell   (1 mutable word) — refs and exception tags;
///   Array  (len2 = mutable words).
///
/// Generational layout: small objects are bump-allocated in a nursery
/// (word indices offset by NurseryBase so a pointer's generation is one
/// compare). When the nursery fills, a minor Cheney scavenge promotes the
/// survivors into the major space; old-to-young pointers created by
/// Cell/Array mutation are tracked in a store list by `storeField` (the
/// write barrier). The major space is the original two-space copying
/// collector and always reserves NurseryWords of headroom so promotion
/// can never fail mid-scavenge. A nursery of 0 words restores the plain
/// two-space behavior bit for bit.
///
/// Both semispaces are private anonymous mappings (HeapSpace): the
/// kernel hands out zero pages and commits each one on first touch, so a
/// run pays for the pages it writes, not for the configured size. The
/// from-space is mapped at the first major collection; a run that never
/// major-collects never maps it. The nursery stays a value-filled vector:
/// most runs fill it, and reused malloc memory measured faster there
/// than fresh pages.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_VM_HEAP_H
#define SMLTC_VM_HEAP_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace smltc {

namespace obs {
class Histogram;
}

using Word = uint64_t;

inline Word tagInt(int64_t N) {
  return (static_cast<uint64_t>(N) << 1) | 1;
}
inline int64_t untagInt(Word W) { return static_cast<int64_t>(W) >> 1; }
inline bool isTaggedInt(Word W) { return (W & 1) != 0; }
inline bool isPointer(Word W) { return W != 0 && (W & 1) == 0; }
inline Word makePointer(size_t WordIndex) {
  return static_cast<Word>(WordIndex) << 3;
}
inline size_t pointerIndex(Word W) { return static_cast<size_t>(W >> 3); }

enum class ObjKind : uint8_t {
  Record = 1,
  Bytes = 2,
  Cell = 3,
  Array = 4,
  Forward = 7, ///< GC forwarding marker
};

/// Largest value a 28-bit descriptor length field holds: the longest
/// array (in words) or string (in bytes) the runtime can build. Longer
/// requests raise Size (the Basis maxLen rule).
constexpr uint32_t MaxDescLen = 0xFFFFFFF;

inline Word makeDesc(ObjKind K, uint32_t Len1, uint32_t Len2) {
  return (static_cast<Word>(K) << 56) |
         (static_cast<Word>(Len1 & MaxDescLen) << 28) |
         static_cast<Word>(Len2 & MaxDescLen);
}
inline ObjKind descKind(Word D) {
  return static_cast<ObjKind>(D >> 56);
}
inline uint32_t descLen1(Word D) {
  return static_cast<uint32_t>((D >> 28) & MaxDescLen);
}
inline uint32_t descLen2(Word D) {
  return static_cast<uint32_t>(D & MaxDescLen);
}

/// Per-heap GC statistics, split by generation. "Pause" is measured in
/// copied words — the deterministic proxy for stop-the-world time under
/// the cost model (3 cycles per copied word) — alongside wall seconds.
struct HeapStats {
  uint64_t MinorCollections = 0;
  uint64_t MajorCollections = 0;
  uint64_t PromotedWords = 0;   ///< nursery words that survived a minor GC
  uint64_t MajorCopiedWords = 0;
  uint64_t MaxMinorPauseWords = 0; ///< largest single minor scavenge
  uint64_t MaxMajorPauseWords = 0; ///< largest single major collection
  uint64_t NurseryAllocObjects = 0;
  uint64_t BarrierStores = 0; ///< old-to-young stores recorded
  double GcSec = 0;           ///< wall time inside collections
};

/// One native-frame root map: a frame's word registers live in memory the
/// generated code owns (a local array), and the frame publishes their
/// location here so the collector can scan and update them like any other
/// root range. See pushFrame/popFrame below.
struct ShadowFrame {
  Word *Base;
  uint64_t Count;
};

/// Process-global GC histograms, shared by every Heap in the process
/// and observed on every collection. A node's metrics registry adopts
/// them (Registry::registerHistogram) to expose
/// `smltcc_vm_gc_pause_seconds{gc="minor"|"major"}` and
/// `smltcc_vm_gc_copied_words{gc=...}` (minor = words promoted out of
/// the nursery, major = words copied between semispaces) on /metrics —
/// the heap itself never learns about registries.
std::shared_ptr<obs::Histogram> gcPauseHistogram(bool Major);
std::shared_ptr<obs::Histogram> gcCopiedWordsHistogram(bool Major);

/// A zero-filled word array backed by a private anonymous mapping; the
/// destructor unmaps it. Move-only. Construction throws std::bad_alloc
/// when the kernel refuses the size, as std::vector would.
class HeapSpace {
public:
  HeapSpace() = default;
  explicit HeapSpace(size_t Words);
  HeapSpace(HeapSpace &&O) noexcept : Data(O.Data), Words(O.Words) {
    O.Data = nullptr;
    O.Words = 0;
  }
  HeapSpace &operator=(HeapSpace &&O) noexcept {
    std::swap(Data, O.Data);
    std::swap(Words, O.Words);
    return *this;
  }
  HeapSpace(const HeapSpace &) = delete;
  HeapSpace &operator=(const HeapSpace &) = delete;
  ~HeapSpace();

  Word *data() { return Data; }
  size_t size() const { return Words; }
  Word &operator[](size_t I) { return Data[I]; }

private:
  Word *Data = nullptr;
  size_t Words = 0;
};

/// A generational heap: bump-allocated nursery in front of a two-space
/// Cheney-collected major space. Allocation never fails: minor-collects,
/// major-collects, then grows, as needed. Root ranges must be registered
/// beforehand.
class Heap {
public:
  /// Nursery word indices live at NurseryBase + [0, NurseryWords) so that
  /// `Idx >= NurseryBase` is the generation test. Major indices stay
  /// small (semispaces grow by doubling from ~1M words), so the ranges
  /// cannot collide.
  static constexpr size_t NurseryBase = size_t(1) << 32;

  explicit Heap(size_t SemiWords = 1 << 20, size_t NurseryWords = 0);

  /// Allocates an object of 1 + Payload words; returns its word index.
  /// Objects are always at least 2 words so a (Forward, new-address)
  /// pair fits in place during collection.
  size_t allocRaw(size_t PayloadWords);

  Word &at(size_t Index) {
    if (Index >= NurseryBase) {
      assert(Index - NurseryBase < Nursery.size() &&
             "nursery access out of bounds");
      return Nursery[Index - NurseryBase];
    }
    assert(Index < Mem.size() && "heap access out of bounds");
    return Mem[Index];
  }
  Word at(size_t Index) const {
    return const_cast<Heap *>(this)->at(Index);
  }

  bool inNursery(size_t Index) const { return Index >= NurseryBase; }

  /// Mutating store with the generational write barrier: records the
  /// slot when an old-space slot is set to point at a nursery object.
  /// Initializing stores into fresh objects do not need it; Cell/Array
  /// mutation (Store/StoreIdx) must go through it.
  void storeField(size_t Slot, Word V) {
    at(Slot) = V;
    if (Slot < NurseryBase && isPointer(V) &&
        pointerIndex(V) >= NurseryBase) {
      // Cheap dedup for tight update loops hammering one slot.
      if (StoreList.empty() || StoreList.back() != Slot)
        StoreList.push_back(Slot);
      ++Stats.BarrierStores;
    }
  }

  /// Registers a root range (scanned and updated by GC).
  void addRootRange(Word *Begin, size_t Count) {
    RootRanges.push_back({Begin, Count, nullptr});
  }
  /// Root range whose live length is read through *Count at each
  /// collection — used for the register file, where only the prefix up
  /// to the current function's watermark holds live values (the rest
  /// would scan as tagged zeros anyway).
  void addRootRange(Word *Begin, const size_t *Count) {
    RootRanges.push_back({Begin, 0, Count});
  }
  void clearRootRanges() { RootRanges.clear(); }

  //===--------------------------------------------------------------------===//
  // Shadow-stack root protocol (native frames)
  //
  // Compiled code keeps a function's word registers in a frame-local
  // array and pushes a (base, count) map around every region that can
  // allocate; both collectors scan the live frames exactly like root
  // ranges. The interpreter never pushes frames, so the depth stays 0 and
  // it pays nothing. The stack is a fixed array so generated code can
  // push/pop through raw pointers (shadowFrames/shadowDepth) without a
  // callback per function entry; CPS code runs at depth 1 (every call is
  // a tail transfer through the trampoline), so the capacity is about
  // nesting of host-side re-entry, not program recursion.
  //===--------------------------------------------------------------------===//

  static constexpr size_t MaxShadowFrames = 64;

  void pushFrame(Word *Base, size_t Count) {
    assert(ShadowDepth < MaxShadowFrames && "shadow stack overflow");
    ShadowStack[ShadowDepth].Base = Base;
    ShadowStack[ShadowDepth].Count = Count;
    ++ShadowDepth;
  }
  void popFrame() {
    assert(ShadowDepth > 0 && "shadow stack underflow");
    --ShadowDepth;
  }
  /// Raw access for the native backend: generated code maintains the
  /// frame entries and depth directly through these pointers.
  ShadowFrame *shadowFrames() { return ShadowStack; }
  uint64_t *shadowDepth() { return &ShadowDepth; }
  uint64_t shadowDepthNow() const { return ShadowDepth; }

  /// Raw semispace / nursery storage for the native backend's inlined
  /// heap accesses. Both pointers are invalidated by any allocation
  /// (GC swap or growth): the native host refreshes its context copies
  /// after every call that can allocate.
  Word *majorData() { return Mem.data(); }
  Word *nurseryData() { return Nursery.data(); }

  /// The nursery bump cursor, for the native backend's inline
  /// allocation: generated code bumps a copy with allocRaw's own test,
  /// and the host writes it back (and counts the objects it placed)
  /// before anything else can allocate or collect.
  size_t nurseryCursor() const { return NurseryHP; }
  void setNurseryCursor(size_t Words) {
    assert(Words <= NurseryWords && "nursery cursor past the nursery");
    NurseryHP = Words;
  }
  void countNurseryAllocs(uint64_t Objects) {
    AllocatedObjects += Objects;
    Stats.NurseryAllocObjects += Objects;
  }

  /// Words copied by all collections so far (GC cost metric): minor
  /// promotions plus major-space copies.
  uint64_t copiedWords() const { return CopiedWords; }
  /// Total collections, both generations (back-compat aggregate).
  uint64_t collections() const {
    return Stats.MinorCollections + Stats.MajorCollections;
  }
  uint64_t allocatedObjects() const { return AllocatedObjects; }
  const HeapStats &stats() const { return Stats; }
  size_t nurseryWords() const { return NurseryWords; }
  size_t semiWords() const { return SemiWords; }

  /// Total payload size (in 64-bit words, incl. descriptor) of an object.
  /// Never less than 2 for allocatable kinds: the collector overwrites
  /// the first two words with a forwarding pair, so a descriptor-only
  /// object (empty string, empty record) must still occupy two words —
  /// the seed's 1-word empty objects let forwarding corrupt the next
  /// object's descriptor.
  static size_t objectWords(Word Desc);

private:
  size_t allocMajor(size_t Need);
  void minorCollect();
  void majorCollectAndGrow(size_t Need);
  void collect();
  Word forward(Word P);
  Word forwardMinor(Word P);
  void scanPromoted(size_t Scan);

  struct RootRange {
    Word *Begin;
    size_t Count;
    const size_t *DynCount; ///< overrides Count when non-null
    size_t count() const { return DynCount ? *DynCount : Count; }
  };

  HeapSpace FromSpace;       ///< unmapped until the first major GC
  HeapSpace Mem;             ///< active major semispace
  std::vector<Word> Nursery; ///< bump-allocated young generation
  size_t HP = 1;             ///< major alloc cursor; word 0 reserved (null)
  size_t NurseryHP = 0;      ///< nursery alloc cursor
  size_t SemiWords;
  size_t NurseryWords; ///< 0 disables the nursery
  std::vector<RootRange> RootRanges;
  ShadowFrame ShadowStack[MaxShadowFrames];
  uint64_t ShadowDepth = 0;
  std::vector<size_t> StoreList; ///< major slots holding nursery pointers
  uint64_t CopiedWords = 0;
  uint64_t AllocatedObjects = 0;
  HeapStats Stats;
};

} // namespace smltc

#endif // SMLTC_VM_HEAP_H
