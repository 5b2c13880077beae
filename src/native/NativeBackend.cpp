//===- native/NativeBackend.cpp - AOT compile, cache, load, and run ----------------===//
//
// Pipeline: content hash -> in-process module cache -> emitNativeC ->
// disk cache (<hash>.so under $SMLTCC_NATIVE_CACHE or
// /tmp/smltcc-native-<uid>) -> system C compiler -> dlopen. A warm run
// is a hash and a map lookup; every in-process miss, disk hits included,
// emits C first. A cold build writes its C source and compiler log under
// names of its own, removes both once cc returns, and renames the
// finished object into place, so concurrent builds of one program never
// share a file. Modules are never dlclosed: function pointers from them
// may outlive any single run, and a process compiles a bounded set of
// programs.
//
// The content hash covers the deterministic TM serialization
// (programBytes), the ABI version, the emitter's cost-relevant options
// (UnalignedFloats) and the compiler command, so a cached .so can never
// be reused across an ABI or codegen change.
//
//===----------------------------------------------------------------------===//

#include "native/NativeBackend.h"

#include "driver/CompileCache.h"
#include "native/NativeAbi.h"
#include "native/NativeEmit.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "vm/Decode.h"
#include "vm/Runtime.h"

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>

using namespace smltc;
using namespace smltc::native;
using namespace smltc::vmdetail;

//===----------------------------------------------------------------------===//
// ABI layout pins
//
// The generated C re-declares NtCtx textually, so the layout must be
// frozen: these asserts pin every field to its LP64 offset. If one
// fires, the struct changed — bump NT_ABI_VERSION and update the text
// in NativeEmit.cpp to match.
//===----------------------------------------------------------------------===//

static_assert(sizeof(NtFrame) == 16 && sizeof(ShadowFrame) == 16 &&
                  offsetof(NtFrame, Count) == offsetof(ShadowFrame, Count),
              "NtFrame must mirror ShadowFrame");
static_assert(offsetof(NtCtx, ArgW) == 0, "ABI drift");
static_assert(offsetof(NtCtx, F) == 16, "ABI drift");
static_assert(offsetof(NtCtx, Handler) == 24, "ABI drift");
static_assert(offsetof(NtCtx, StrPtrs) == 32, "ABI drift");
static_assert(offsetof(NtCtx, Frames) == 40, "ABI drift");
static_assert(offsetof(NtCtx, FrameDepth) == 48, "ABI drift");
static_assert(offsetof(NtCtx, MajorMem) == 56, "ABI drift");
static_assert(offsetof(NtCtx, NurseryMem) == 64, "ABI drift");
static_assert(offsetof(NtCtx, Instructions) == 72, "ABI drift");
static_assert(offsetof(NtCtx, Cycles) == 80, "ABI drift");
static_assert(offsetof(NtCtx, MaxCycles) == 88, "ABI drift");
static_assert(offsetof(NtCtx, W0) == 96, "ABI drift");
static_assert(offsetof(NtCtx, CallNW) == 104, "ABI drift");
static_assert(offsetof(NtCtx, CallNF) == 108, "ABI drift");
static_assert(offsetof(NtCtx, MaxW) == 112, "ABI drift");
static_assert(offsetof(NtCtx, MaxF) == 116, "ABI drift");
static_assert(offsetof(NtCtx, NextFn) == 120, "ABI drift");
static_assert(offsetof(NtCtx, AllocPtr) == 128, "ABI drift");
static_assert(offsetof(NtCtx, AllocRef) == 136, "ABI drift");
static_assert(offsetof(NtCtx, Host) == 144, "ABI drift");
static_assert(offsetof(NtCtx, Alloc) == 152, "ABI drift");
static_assert(offsetof(NtCtx, HaltExn) == 200, "ABI drift");
static_assert(sizeof(NtCtx) == 208, "ABI drift");

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

NativeTotals &smltc::native::nativeTotals() {
  static NativeTotals T;
  return T;
}

void smltc::native::registerNativeMetrics(obs::Registry &R) {
  NativeTotals &T = nativeTotals();
  auto C = [&R](const char *Name, const std::atomic<uint64_t> &A,
                const char *Help) {
    R.counterFn(Name, [&A] { return A.load(std::memory_order_relaxed); },
                Help);
  };
  C("smltcc_native_compiles_total", T.Compiles,
    "native modules built cold (emit + cc + dlopen)");
  C("smltcc_native_cache_hits_total", T.MemHits,
    "native module reuses from the in-process cache");
  C("smltcc_native_disk_hits_total", T.DiskHits,
    "native modules loaded from the on-disk artifact cache");
  C("smltcc_native_refusals_total", T.Refusals,
    "programs the native emitter refused (trap-path constructs)");
  C("smltcc_native_cc_failures_total", T.CcFailures,
    "C compiler or loader failures");
  C("smltcc_native_runs_total", T.Runs, "native executions");
}

//===----------------------------------------------------------------------===//
// Toolchain probing and artifact cache
//===----------------------------------------------------------------------===//

namespace {

std::string ccCommand() {
  const char *Env = std::getenv("SMLTCC_CC");
  return Env && *Env ? Env : "cc";
}

std::string cacheDir() {
  if (const char *Env = std::getenv("SMLTCC_NATIVE_CACHE"))
    if (*Env)
      return Env;
  return "/tmp/smltcc-native-" + std::to_string(static_cast<long>(getuid()));
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

bool writeFile(const std::string &Path, const std::string &Data) {
  std::ofstream Os(Path, std::ios::binary | std::ios::trunc);
  Os.write(Data.data(), static_cast<std::streamsize>(Data.size()));
  return static_cast<bool>(Os);
}

std::string readFileTail(const std::string &Path, size_t MaxBytes) {
  std::ifstream Is(Path, std::ios::binary);
  std::string S((std::istreambuf_iterator<char>(Is)),
                std::istreambuf_iterator<char>());
  if (S.size() > MaxBytes)
    S = "..." + S.substr(S.size() - MaxBytes);
  return S;
}

struct LoadedModule {
  const NtModule *Mod = nullptr;
};

/// In-process module cache; modules stay mapped for the process
/// lifetime. Guarded because the compile server runs jobs concurrently.
std::mutex ModulesMu;
std::map<uint64_t, LoadedModule> Modules;

bool loadModule(const std::string &SoPath, const NtModule *&Mod,
                std::string &Err) {
  void *Dl = ::dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Dl) {
    Err = std::string("native: dlopen failed: ") + ::dlerror();
    return false;
  }
  using EntryFn = const NtModule *(*)(void);
  EntryFn Entry =
      reinterpret_cast<EntryFn>(::dlsym(Dl, "smltc_native_entry_v1"));
  if (!Entry) {
    Err = "native: module lacks smltc_native_entry_v1";
    return false;
  }
  Mod = Entry();
  if (!Mod || Mod->Abi != NT_ABI_VERSION) {
    Err = "native: module ABI version mismatch";
    return false;
  }
  return true;
}

/// Looks up, or emits, compiles (or reuses from disk) and loads the
/// module. Returns null with Err set on any failure; bumps the
/// corresponding counter.
const NtModule *compileNative(const TmProgram &P, const VmOptions &Opts,
                              std::string &Err) {
  NativeTotals &T = nativeTotals();
  obs::Span CompileSpan("native_compile", "native");

  const std::string Cc = ccCommand();
  std::string KeyBytes = programBytes(P);
  KeyBytes += "|ntabi=" + std::to_string(NT_ABI_VERSION);
  KeyBytes += "|uf=" + std::to_string(Opts.UnalignedFloats ? 1 : 0);
  KeyBytes += "|cc=" + Cc;
  const uint64_t Key = fnv1a64(KeyBytes);
  CompileSpan.arg("key", static_cast<uint64_t>(Key));

  // Only modules the emitter accepted are ever inserted, so a hit needs
  // no emission and a refused program misses and is refused again below.
  {
    std::lock_guard<std::mutex> Lock(ModulesMu);
    auto It = Modules.find(Key);
    if (It != Modules.end()) {
      T.MemHits.fetch_add(1, std::memory_order_relaxed);
      return It->second.Mod;
    }
  }

  std::string CSrc, EmitErr;
  if (!emitNativeC(P, Opts.UnalignedFloats, CSrc, EmitErr)) {
    T.Refusals.fetch_add(1, std::memory_order_relaxed);
    Err = EmitErr;
    return nullptr;
  }

  char Hex[32];
  std::snprintf(Hex, sizeof(Hex), "%016llx", (unsigned long long)Key);
  const std::string Dir = cacheDir();
  ::mkdir(Dir.c_str(), 0700);
  const std::string SoPath = Dir + "/" + Hex + ".so";

  bool FromDisk = fileExists(SoPath);
  if (!FromDisk) {
    // This build's own source, log and object: another thread or process
    // building the same key never touches them.
    static std::atomic<uint64_t> BuildSeq{0};
    const std::string Stem =
        Dir + "/" + Hex + "." + std::to_string(::getpid()) + "." +
        std::to_string(BuildSeq.fetch_add(1, std::memory_order_relaxed));
    const std::string CPath = Stem + ".c", ErrPath = Stem + ".err",
                      Tmp = Stem + ".so.tmp";
    if (!writeFile(CPath, CSrc)) {
      T.CcFailures.fetch_add(1, std::memory_order_relaxed);
      Err = "native: cannot write " + CPath;
      std::remove(CPath.c_str());
      return nullptr;
    }
    // -w: generated code trips pedantic warnings (unused labels) by
    // design. No -ffast-math ever: float results must stay bit-exact
    // against the interpreter.
    const std::string Cmd = Cc + " -O2 -fPIC -shared -w -o '" + Tmp + "' '" +
                            CPath + "' -lm 2> '" + ErrPath + "'";
    const bool CcOk = std::system(Cmd.c_str()) == 0;
    if (!CcOk)
      Err = "native: C compiler failed: " + readFileTail(ErrPath, 512);
    std::remove(CPath.c_str());
    std::remove(ErrPath.c_str());
    if (!CcOk) {
      T.CcFailures.fetch_add(1, std::memory_order_relaxed);
      std::remove(Tmp.c_str());
      return nullptr;
    }
    if (std::rename(Tmp.c_str(), SoPath.c_str()) != 0) {
      T.CcFailures.fetch_add(1, std::memory_order_relaxed);
      Err = "native: cannot move artifact into cache";
      std::remove(Tmp.c_str());
      return nullptr;
    }
  }

  const NtModule *Mod = nullptr;
  if (!loadModule(SoPath, Mod, Err)) {
    T.CcFailures.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  if (Mod->NumFuns != static_cast<int32_t>(P.Funs.size())) {
    T.CcFailures.fetch_add(1, std::memory_order_relaxed);
    Err = "native: cached module function count mismatch";
    return nullptr;
  }
  if (FromDisk)
    T.DiskHits.fetch_add(1, std::memory_order_relaxed);
  else
    T.Compiles.fetch_add(1, std::memory_order_relaxed);

  std::lock_guard<std::mutex> Lock(ModulesMu);
  Modules.emplace(Key, LoadedModule{Mod});
  return Mod;
}

//===----------------------------------------------------------------------===//
// NativeHost: VmRuntime driving a loaded module
//===----------------------------------------------------------------------===//

class NativeHost final : public VmRuntime {
public:
  NativeHost(const TmProgram &P, const VmOptions &Opts) : VmRuntime(P, Opts) {
    std::memset(F, 0, sizeof(F));
    // No register-file root range: native frames publish their word
    // registers through the heap shadow stack instead.
    initRuntime(nullptr, nullptr);
  }

  /// Runs the program from Funs[0] into Out.
  void run(const NtModule *M, ExecResult &Out);

protected:
  /// A runtime-service result lands in the calling frame's register
  /// slot; during a service the caller's frame is the top of the shadow
  /// stack.
  Word &regOut(Reg Rd) override {
    return Hp.shadowFrames()[Hp.shadowDepthNow() - 1].Base[Rd];
  }

  /// Transfers from host services (raise into a handler): record the
  /// target for the trampoline. Invalid labels trap exactly like
  /// jumpIntoDecoded.
  void enterFunction(int Label, int NW, int NF) override {
    if (Label < 0 || Label >= Mod->NumFuns) {
      trap("jump to invalid label");
      return;
    }
    Ctx.NextFn = Label;
    Ctx.CallNW = NW;
    Ctx.CallNF = NF;
    Transferred = true;
  }

private:
  double F[NumFloatRegs];
  NtCtx Ctx{};
  const NtModule *Mod = nullptr;
  bool Transferred = false;

  /// Heap storage moves on GC or growth; re-publish the raw bases after
  /// every callback that can allocate.
  void refreshHeapPtrs() {
    Ctx.MajorMem = Hp.majorData();
    Ctx.NurseryMem = Hp.nurseryData();
  }

  void setupCtx() {
    Ctx.ArgW = ArgW;
    Ctx.ArgF = ArgF;
    Ctx.F = F;
    Ctx.Handler = &Handler;
    Ctx.StrPtrs = StrPtrs.data();
    Ctx.Frames = reinterpret_cast<NtFrame *>(Hp.shadowFrames());
    Ctx.FrameDepth = Hp.shadowDepth();
    Ctx.Instructions = &R.Instructions;
    Ctx.Cycles = &R.Cycles;
    Ctx.MaxCycles = Opts.MaxCycles;
    Ctx.W0 = 0; // the interpreter never stages W[0]; it starts raw zero
    Ctx.CallNW = 0;
    Ctx.CallNF = 0;
    Ctx.MaxW = -1;
    Ctx.MaxF = -1;
    Ctx.NextFn = -1;
    Ctx.Host = this;
    Ctx.Alloc = &ntAlloc;
    Ctx.StoreBarrier = &ntStoreBarrier;
    Ctx.Rt = &ntRt;
    Ctx.Raise = &ntRaise;
    Ctx.Trap = &ntTrap;
    Ctx.Halt = &ntHalt;
    Ctx.HaltExn = &ntHaltExn;
    refreshHeapPtrs();
  }

  static void ntAlloc(NtCtx *C, uint32_t NWords, uint32_t NFloats,
                      int32_t IsRef) {
    NativeHost &H = *static_cast<NativeHost *>(C->Host);
    size_t Payload = static_cast<size_t>(NWords) + NFloats;
    size_t At = H.allocObject(ObjKind::Record, NFloats, NWords, Payload);
    if (IsRef)
      H.Hp.at(At) = makeDesc(ObjKind::Cell, 0, 1);
    H.AllocWords32 += 1 + NWords + 2 * static_cast<uint64_t>(NFloats);
    C->AllocPtr = &H.Hp.at(At + 1);
    C->AllocRef = makePointer(At);
    H.refreshHeapPtrs();
  }

  static void ntStoreBarrier(NtCtx *C, uint64_t Slot, uint64_t V) {
    // Idempotent re-store: generated code already wrote the slot;
    // storeField records it on the barrier list and counts the store.
    NativeHost &H = *static_cast<NativeHost *>(C->Host);
    H.Hp.storeField(static_cast<size_t>(Slot), V);
  }

  static int32_t ntRt(NtCtx *C, int32_t Service, int32_t Rd) {
    NativeHost &H = *static_cast<NativeHost *>(C->Host);
    H.Transferred = false;
    C->NextFn = -1;
    H.runtimeCall(static_cast<CpsOp>(Service), static_cast<Reg>(Rd));
    H.refreshHeapPtrs();
    return (H.Transferred || H.Done) ? 1 : 0;
  }

  static void ntRaise(NtCtx *C, int32_t Tag) {
    NativeHost &H = *static_cast<NativeHost *>(C->Host);
    H.Transferred = false;
    C->NextFn = -1;
    H.raiseBuiltin(Tag); // allocates the exception record: may GC
    H.refreshHeapPtrs();
  }

  static void ntTrap(NtCtx *C, const char *Msg) {
    NativeHost &H = *static_cast<NativeHost *>(C->Host);
    C->NextFn = -1;
    H.trap(Msg);
  }

  static void ntHalt(NtCtx *C, int64_t Result) {
    NativeHost &H = *static_cast<NativeHost *>(C->Host);
    C->NextFn = -1;
    H.R.Result = Result;
    H.Done = true;
  }

  static void ntHaltExn(NtCtx *C) {
    NativeHost &H = *static_cast<NativeHost *>(C->Host);
    C->NextFn = -1;
    H.R.UncaughtException = true;
    H.R.Result = -1;
    H.Done = true;
  }
};

void NativeHost::run(const NtModule *M, ExecResult &Out) {
  using Clock = std::chrono::steady_clock;
  Mod = M;

  obs::Span RunSpan("native_run", "native");
  R.Metrics.Dispatch = "native";

  if (const char *VErr = validateRegisters(P)) {
    trap(VErr);
  } else if (P.Funs.empty()) {
    trap("jump to invalid label"); // what jumpIntoDecoded(0,..) reports
  } else {
    setupCtx();
    auto T0 = Clock::now();
    const NtFun *Funs = Mod->Funs;
    for (int64_t FnI = 0; FnI >= 0 && !Done;)
      FnI = Funs[FnI](&Ctx);
    R.Metrics.ExecSec =
        std::chrono::duration<double>(Clock::now() - T0).count();
  }

  // Result epilogue, mirroring Machine::run.
  R.Ok = !R.Trapped;
  R.AllocWords32 = AllocWords32;
  R.AllocObjects = Hp.allocatedObjects();
  R.GcCopiedWords = Hp.copiedWords();
  R.Collections = Hp.collections();

  const HeapStats &HS = Hp.stats();
  VmMetrics &VM = R.Metrics;
  VM.NurseryKb = Hp.nurseryWords() * sizeof(Word) / 1024;
  VM.GcSec = HS.GcSec;
  VM.Instructions = R.Instructions;
  VM.Cycles = R.Cycles;
  VM.AllocObjects = Hp.allocatedObjects();
  VM.NurseryAllocObjects = HS.NurseryAllocObjects;
  VM.AllocWords32 = AllocWords32;
  VM.MinorCollections = HS.MinorCollections;
  VM.MajorCollections = HS.MajorCollections;
  VM.CopiedWords = Hp.copiedWords();
  VM.PromotedWords = HS.PromotedWords;
  VM.MajorCopiedWords = HS.MajorCopiedWords;
  VM.MaxMinorPauseWords = HS.MaxMinorPauseWords;
  VM.MaxMajorPauseWords = HS.MaxMajorPauseWords;
  VM.BarrierStores = HS.BarrierStores;
  RunSpan.arg("dispatch", std::string("native"));
  RunSpan.arg("instructions", VM.Instructions);
  Out = std::move(R);
}

} // namespace

//===----------------------------------------------------------------------===//
// Public entry points
//===----------------------------------------------------------------------===//

bool smltc::native::nativeAvailable() {
  // Initialised once; C++ makes concurrent first calls wait for it.
  static const bool Available =
      std::system((ccCommand() + " --version > /dev/null 2>&1").c_str()) == 0;
  return Available;
}

bool smltc::native::executeNative(const TmProgram &Program,
                                  const VmOptions &Opts, ExecResult &Out,
                                  std::string &Err) {
  if (!nativeAvailable()) {
    Err = "native: no C compiler available (set SMLTCC_CC)";
    return false;
  }
  const NtModule *Mod = compileNative(Program, Opts, Err);
  if (!Mod)
    return false;
  nativeTotals().Runs.fetch_add(1, std::memory_order_relaxed);
  NativeHost Host(Program, Opts);
  Host.run(Mod, Out);
  return true;
}
