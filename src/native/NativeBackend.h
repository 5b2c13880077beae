//===- native/NativeBackend.h - AOT compile, cache, load, and run ------------------===//
///
/// \file
/// The host side of the native backend: emits C for a TM program
/// (NativeEmit), compiles it with the system C compiler into a shared
/// object, caches the artifact on disk (keyed by its C text and the
/// compiler command) and per process in memory (keyed by the program),
/// `dlopen`s it, and drives it over the shared VmRuntime (heap, runtime
/// services, exceptions) through the trampoline protocol in
/// NativeAbi.h, one module per program. Observable results are
/// bit-identical to the interpreter for every program the emitter
/// accepts; the differential tests assert this across the whole corpus.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_NATIVE_NATIVEBACKEND_H
#define SMLTC_NATIVE_NATIVEBACKEND_H

#include "vm/Vm.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace smltc {

namespace obs {
class Registry;
}

namespace native {

/// True when a working C compiler is reachable (probed once per process;
/// override the compiler with SMLTCC_CC, default `cc`).
bool nativeAvailable();

/// Process-lifetime counters for the native backend, exported through
/// the metrics registry (registerNativeMetrics).
struct NativeTotals {
  std::atomic<uint64_t> Compiles{0};   ///< emit+cc+dlopen cold builds
  std::atomic<uint64_t> MemHits{0};    ///< in-process module cache hits
  std::atomic<uint64_t> DiskHits{0};   ///< cached .so reused from disk
  std::atomic<uint64_t> Refusals{0};   ///< programs the emitter refused
  std::atomic<uint64_t> CcFailures{0}; ///< C compiler / loader failures
  std::atomic<uint64_t> Runs{0};       ///< native executions
};
NativeTotals &nativeTotals();
void registerNativeMetrics(obs::Registry &R);

/// Compiles (or reuses a cached build of) Program and runs it natively.
/// Returns false with a diagnostic in Err when the backend cannot take
/// the program (emitter refusal, no C compiler, cc failure): no silent
/// interpreter fallback — callers decide. On success Out carries the
/// same ExecResult an interpreter engine would produce, with
/// Metrics.Dispatch == "native".
bool executeNative(const TmProgram &Program, const VmOptions &Opts,
                   ExecResult &Out, std::string &Err);

/// The artifact cache's file name for a module built from CSource (as
/// emitNativeC wrote it) with the current compiler command: the fnv1a64
/// of both, in hex, plus ".so". The name changes with anything that
/// changes the emitted code, so an edited emitter never reuses a module
/// an older one built.
std::string artifactName(const std::string &CSource);

} // namespace native
} // namespace smltc

#endif // SMLTC_NATIVE_NATIVEBACKEND_H
