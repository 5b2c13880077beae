//===- bench/native_throughput.cpp - Native backend execution gate --------------===//
//
// Gates the native backend's claim: AOT-compiling the pre-decoded TM
// stream to C and running it over the same Heap runtime beats the best
// interpreter (threaded dispatch) by a wide margin while remaining
// observably identical.
//
// Over the 12-benchmark corpus under the exec-focused sml.ffb variant:
//
//   1. correctness: every native run must match the threaded run on
//      result, output, retired instructions, cycles, and allocation
//      counters, and match the paper's expected checksum. The backend is
//      a faster route through the same semantics, not a different one.
//   2. throughput: per benchmark, best-of-N instructions-per-second in
//      the execution loop under each backend; the gate is
//      geomean(native ips / threaded ips) >= 3.0x.
//
// The one-time cold build (emit + cc + dlopen) happens in a warmup run
// per benchmark and is reported separately as context; it is not part of
// the timed executions. The bench builds into a fresh temporary artifact
// cache, removed at exit, so every warmup is a cold build: the run fails
// unless each benchmark took exactly one cc compile.
//
// Results land in BENCH_native.json.
//
// Usage: native_throughput [--smoke] [--iters=N] [--out=PATH]
//   --smoke   2 timing iterations instead of 5 (CI); every gate still applies
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "native/NativeBackend.h"
#include "obs/Json.h"

#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <filesystem>

using namespace smltc;
using namespace smltc::bench;

namespace {

struct NativeRun {
  bool Ok = false;
  double BestExecSec = 0;
  double WarmupSec = 0; ///< first call: cold build (emit + cc + dlopen)
  ExecResult R;         ///< last run's full observable state
};

NativeRun runNative(const TmProgram &P, const VmOptions &V, int Iters,
                    const char *Name) {
  NativeRun N;
  auto T0 = std::chrono::steady_clock::now();
  std::string Err;
  if (!native::executeNative(P, V, N.R, Err)) {
    std::fprintf(stderr, "native backend failed (%s): %s\n", Name,
                 Err.c_str());
    return N;
  }
  N.WarmupSec = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
  for (int I = 0; I < Iters; ++I) {
    if (!native::executeNative(P, V, N.R, Err) || !N.R.Ok) {
      std::fprintf(stderr, "native run failed (%s): %s\n", Name,
                   N.R.TrapMessage.c_str());
      return N;
    }
    double S = N.R.Metrics.ExecSec;
    if (N.BestExecSec == 0 || S < N.BestExecSec)
      N.BestExecSec = S;
  }
  N.Ok = true;
  return N;
}

struct VmRun {
  bool Ok = false;
  double BestExecSec = 0;
  ExecResult R;
};

VmRun runThreaded(const TmProgram &P, const VmOptions &V, int Iters,
                  const char *Name) {
  VmRun T;
  for (int I = 0; I < Iters; ++I) {
    T.R = execute(P, V);
    if (!T.R.Ok) {
      std::fprintf(stderr, "threaded run failed (%s): %s\n", Name,
                   T.R.TrapMessage.c_str());
      return T;
    }
    double S = T.R.Metrics.ExecSec;
    if (T.BestExecSec == 0 || S < T.BestExecSec)
      T.BestExecSec = S;
  }
  T.Ok = true;
  return T;
}

bool identicalObservables(const ExecResult &A, const ExecResult &B) {
  return A.Ok == B.Ok && A.Result == B.Result && A.Output == B.Output &&
         A.UncaughtException == B.UncaughtException &&
         A.Instructions == B.Instructions && A.Cycles == B.Cycles &&
         A.AllocWords32 == B.AllocWords32 &&
         A.AllocObjects == B.AllocObjects &&
         A.GcCopiedWords == B.GcCopiedWords &&
         A.Collections == B.Collections;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  int Iters = 5;
  std::string OutPath = "BENCH_native.json";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(Argv[I], "--iters=", 8) == 0)
      Iters = std::atoi(Argv[I] + 8);
    else if (std::strncmp(Argv[I], "--out=", 6) == 0)
      OutPath = Argv[I] + 6;
  }
  if (Smoke)
    Iters = 2;
  if (Iters < 1)
    Iters = 1;

  if (!native::nativeAvailable()) {
    std::fprintf(stderr,
                 "FAIL: no C compiler reachable (set SMLTCC_CC); the native "
                 "gate cannot run\n");
    return 1;
  }

  // A fresh artifact cache, so every warmup is a cold build.
  std::string CacheDir =
      (std::filesystem::temp_directory_path() / "smltcc-native-bench-XXXXXX")
          .string();
  if (!::mkdtemp(CacheDir.data())) {
    std::fprintf(stderr, "FAIL: cannot create a temporary artifact cache\n");
    return 1;
  }
  ::setenv("SMLTCC_NATIVE_CACHE", CacheDir.c_str(), 1);
  struct RemoveCache {
    std::string Dir;
    ~RemoveCache() {
      std::error_code Ec;
      std::filesystem::remove_all(Dir, Ec);
    }
  } Cleanup{CacheDir};

  CompilerOptions Opts = CompilerOptions::ffb();
  std::printf("native_throughput: %zu benchmarks (%s), best of %d run%s per "
              "backend%s\n\n",
              benchmarkCorpus().size(), Opts.VariantName, Iters,
              Iters == 1 ? "" : "s", Smoke ? " [smoke]" : "");
  std::printf("%-10s %14s %14s %8s %10s  %s\n", "bench", "vm(Mips)",
              "native(Mips)", "ratio", "warmup(ms)", "identical");

  bool AllIdentical = true;
  bool AllOk = true;
  std::vector<double> Ratios;
  double VmTotal = 0, NativeTotal = 0, WarmupTotal = 0;
  uint64_t TotalInsns = 0;

  obs::JsonWriter W;
  W.beginObject();
  W.field("bench", "native_throughput");
  W.field("variant", Opts.VariantName);
  W.field("iterations", Iters);
  W.field("smoke", Smoke);
  W.key("rows").beginArray();

  for (const BenchmarkProgram &P : benchmarkCorpus()) {
    CompileOutput C = Compiler::compile(P.Source, Opts);
    if (!C.Ok) {
      std::fprintf(stderr, "compile failed (%s): %s\n", P.Name,
                   C.Errors.c_str());
      AllOk = false;
      continue;
    }
    VmOptions V;
    VmRun T = runThreaded(C.Program, V, Iters, P.Name);
    NativeRun N = runNative(C.Program, V, Iters, P.Name);
    if (!T.Ok || !N.Ok) {
      AllOk = false;
      continue;
    }
    bool Identical = identicalObservables(T.R, N.R) &&
                     N.R.Result == P.ExpectedResult;
    AllIdentical = AllIdentical && Identical;

    double VmIps = T.BestExecSec > 0
                       ? static_cast<double>(T.R.Instructions) / T.BestExecSec
                       : 0;
    double NatIps = N.BestExecSec > 0
                        ? static_cast<double>(N.R.Instructions) / N.BestExecSec
                        : 0;
    double Ratio = VmIps > 0 ? NatIps / VmIps : 0;
    Ratios.push_back(Ratio);
    VmTotal += T.BestExecSec;
    NativeTotal += N.BestExecSec;
    WarmupTotal += N.WarmupSec;
    TotalInsns += T.R.Instructions;

    std::printf("%-10s %14.1f %14.1f %7.2fx %10.1f  %s\n", P.Name,
                VmIps / 1e6, NatIps / 1e6, Ratio, N.WarmupSec * 1e3,
                Identical ? "yes" : "NO");
    W.beginObject();
    W.field("bench", P.Name);
    W.field("instructions", T.R.Instructions);
    W.field("vm_exec_sec", T.BestExecSec, 6);
    W.field("native_exec_sec", N.BestExecSec, 6);
    W.field("vm_ips", VmIps, 0);
    W.field("native_ips", NatIps, 0);
    W.field("ratio", Ratio, 3);
    W.field("native_warmup_sec", N.WarmupSec, 6);
    W.field("identical", Identical);
    W.endObject();
  }
  W.endArray();

  double Geomean = geomean(Ratios);
  native::NativeTotals &NT = native::nativeTotals();
  std::printf("\nexec totals:    vm %.2f ms, native %.2f ms "
              "(%" PRIu64 "M instructions)\n",
              VmTotal * 1e3, NativeTotal * 1e3, TotalInsns / 1000000);
  std::printf("native warmup:  %.2f ms total (compiles=%" PRIu64
              " cache_hits=%" PRIu64 " disk_hits=%" PRIu64 ")\n",
              WarmupTotal * 1e3, NT.Compiles.load(), NT.MemHits.load(),
              NT.DiskHits.load());
  std::printf("geomean speedup: %.2fx (gate: >= 3.0x)\n", Geomean);
  std::printf("vm identity:     %s\n\n", AllIdentical ? "ok" : "FAILED");

  W.field("vm_total_exec_sec", VmTotal, 6);
  W.field("native_total_exec_sec", NativeTotal, 6);
  W.field("native_warmup_total_sec", WarmupTotal, 6);
  W.field("native_cc_compiles", NT.Compiles.load());
  W.field("native_cache_hits", NT.MemHits.load());
  W.field("native_disk_hits", NT.DiskHits.load());
  W.field("geomean_speedup", Geomean, 3);
  W.field("gate_speedup", 3.0, 1);
  W.field("all_identical", AllIdentical);
  W.endObject();

  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  bool Wrote = false;
  if (Out) {
    std::fprintf(Out, "%s\n", W.str().c_str());
    std::fclose(Out);
    Wrote = true;
    std::printf("wrote %s\n", OutPath.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
  }

  bool Ok = Wrote && AllOk && !Ratios.empty();
  const uint64_t WantCompiles = benchmarkCorpus().size();
  if (NT.Compiles.load() != WantCompiles) {
    std::fprintf(stderr,
                 "FAIL: %" PRIu64 " cold cc compiles, want %" PRIu64
                 " (one per benchmark)\n",
                 NT.Compiles.load(), WantCompiles);
    Ok = false;
  }
  if (!AllIdentical) {
    std::fprintf(stderr, "FAIL: native and threaded runs disagree\n");
    Ok = false;
  }
  if (Geomean < 3.0) {
    std::fprintf(stderr, "FAIL: geomean native speedup %.2fx < 3.0x\n",
                 Geomean);
    Ok = false;
  }
  return Ok ? 0 : 1;
}
