//===- native/NativeAbi.h - C ABI between host and AOT-compiled modules ------------===//
///
/// \file
/// The contract between the smltc host and a `dlopen`ed native module.
/// The module exports one symbol,
///
///   const NtModule *smltc_native_entry_v1(void);
///
/// whose Funs table holds one C function per TM function. Execution is a
/// trampoline: each function returns the index of the next function to
/// run (CPS calls are tail transfers), or -1 when the program is done.
///
/// The generated C re-declares these structs textually (it cannot
/// include C++ headers), so the layout here is pinned: plain C types,
/// fixed field order, and offset static_asserts in NativeBackend.cpp.
/// Bump NT_ABI_VERSION whenever anything in this file changes — the
/// loader rejects modules with a different version, and the version is
/// part of the emitted C that keys the artifact cache, so stale cached
/// objects are never reused.
///
/// Register protocol: word registers live in a per-frame local array the
/// generated code publishes to the heap's shadow stack (vm/Heap.h), so
/// the GC can scan and update them; float registers live in the shared
/// F file (floats are unboxed and invisible to the GC, and the
/// interpreter never clears F between calls, so sharing one file keeps
/// stale-read behavior identical). W0 is the only word register that
/// survives transfers; it is mirrored through the context.
///
/// Allocation protocol (ABI 4): the context carries the nursery's bump
/// cursor and size, and generated code allocates a record or ref cell
/// by bumping NurseryHP itself when Heap::allocRaw would (nursery on,
/// the object at most a quarter of it, room left), writing the
/// descriptor and adding the object and its 32-bit words to
/// PendObjects/PendWords32. Only when that test fails does it spill and
/// call Alloc, which runs the collector at exactly the allocation where
/// the interpreter's would. The host folds the cursor and the pending
/// counts into the Heap before every callback that can allocate (Alloc,
/// Rt, Raise) and when the run ends, and reloads the cursor and the
/// storage bases after each.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_NATIVE_NATIVEABI_H
#define SMLTC_NATIVE_NATIVEABI_H

#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

#define NT_ABI_VERSION 4

/// Must match smltc::ShadowFrame (vm/Heap.h) bit for bit: the generated
/// code pushes frames straight onto the heap's shadow stack.
typedef struct NtFrame {
  uint64_t *Base;
  uint64_t Count;
} NtFrame;

typedef struct NtCtx NtCtx;

/// Host services callable from generated code. All of them may observe
/// and mutate the machine state; Alloc, Rt and Raise may run the garbage
/// collector, so generated code spills its registers to the published
/// frame before the call and reloads after.
struct NtCtx {
  /* Shared machine state (host-owned storage). */
  uint64_t *ArgW;       /* staged word arguments (GC roots)            */
  double *ArgF;         /* staged float arguments                      */
  double *F;            /* the float register file (shared, 256)       */
  uint64_t *Handler;    /* exception handler register (GC root)        */
  uint64_t *StrPtrs;    /* interned string pool pointers (GC roots)    */
  NtFrame *Frames;      /* heap shadow stack base                      */
  uint64_t *FrameDepth; /* live frame count                            */
  uint64_t *MajorMem;   /* major semispace base; refreshed after GC    */
  uint64_t *NurseryMem; /* nursery base; refreshed after GC            */
  uint64_t *Instructions; /* executed-instruction counter              */
  uint64_t *Cycles;       /* cycle counter (cost model)                */
  uint64_t MaxCycles;     /* budget: trap when Cycles exceeds it       */
  /* Transfer state. */
  uint64_t W0;    /* word register 0, persists across transfers        */
  int32_t CallNW; /* staged word-arg count for the next entry          */
  int32_t CallNF; /* staged float-arg count for the next entry         */
  int32_t MaxW;   /* highest SetArg slot seen since the last call      */
  int32_t MaxF;   /* highest SetArgF slot seen since the last call     */
  int64_t NextFn; /* set by host transfers (raise); -1 = done          */
  /* Open-allocation cursor (AllocStart .. AllocEnd). */
  uint64_t *AllocPtr; /* next field slot of the pending object         */
  uint64_t AllocRef;  /* tagged pointer to the pending object          */
  /* Inline nursery allocation (host folds these into the Heap). */
  uint64_t NurseryHP;    /* bump cursor, in words from NurseryMem       */
  uint64_t NurseryWords; /* nursery size; 0 = disabled                 */
  uint64_t PendObjects;  /* objects bumped since the last fold         */
  uint64_t PendWords32;  /* their 32-bit words (the paper's metric)    */
  /* Host callbacks. */
  void *Host;
  void (*Alloc)(NtCtx *, uint32_t NWords, uint32_t NFloats, int32_t IsRef);
  void (*StoreBarrier)(NtCtx *, uint64_t Slot, uint64_t V);
  int32_t (*Rt)(NtCtx *, int32_t Service, int32_t Rd); /* 1 = exit frame */
  void (*Raise)(NtCtx *, int32_t Tag);
  void (*Trap)(NtCtx *, const char *Msg);
  void (*Halt)(NtCtx *, int64_t Result);
  void (*HaltExn)(NtCtx *);
};

typedef int64_t (*NtFun)(NtCtx *);

typedef struct NtModule {
  int32_t Abi; /* NT_ABI_VERSION of the emitting compiler */
  int32_t NumFuns;
  const NtFun *Funs; /* NumFuns functions */
} NtModule;

#ifdef __cplusplus
} // extern "C"
#endif

#endif // SMLTC_NATIVE_NATIVEABI_H
