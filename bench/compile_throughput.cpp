//===- bench/compile_throughput.cpp - Batch-compilation scaling -----------------===//
//
// Measures the batch engine on the full Figure 7/8 workload: the twelve
// corpus benchmarks compiled under all six variants (72 jobs).
//
//   1. front-end gate        per-job parse+elab seconds, `--prelude=inline`
//      vs the default prelude snapshot -> geomean speedup must be >= 1.4x
//      (full runs; smoke runs report but do not gate), with every program
//      verified bit-identical between the two prelude modes; each row
//      carries the program's fnv1a64 digest (`program_fnv`) so two builds
//      can be diffed job by job
//   2. sequential baseline   (--jobs 1, cache off)
//   3. parallel              (--jobs N, cache off)  -> wall-clock speedup,
//      with every generated program verified bit-identical to pass 2
//   4. cold + warm cache     (--jobs N, shared CompileCache) -> hit rate
//
// Usage: compile_throughput [N] [--smoke] [--iters=K] [--out=PATH]
//   N         worker threads (default: hardware concurrency, min 4)
//   --smoke   1 front-end timing iteration instead of 3, and the 1.4x
//             front-end gate is reported but not enforced (CI smoke)
//   --out     JSON report path (default: BENCH_compile.json)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "driver/CompileCache.h"
#include "driver/PreludeSnapshot.h"
#include "obs/Json.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

using namespace smltc;
using namespace smltc::bench;

namespace {

constexpr double kFrontEndGate = 1.4;

struct FrontRun {
  bool Ok = false;
  double FrontSec = 0; ///< best-of-iters parse + elab (+ snapshot acquire)
  std::string Bytes;   ///< programBytes of the last compile
};

FrontRun timeFrontEnd(const CompileJob &J, PreludeMode Mode, int Iters) {
  FrontRun R;
  CompilerOptions Opts = J.Opts;
  Opts.Prelude = Mode;
  R.FrontSec = 1e18;
  for (int I = 0; I < Iters; ++I) {
    CompileOutput C = Compiler::compile(J.Source, Opts, J.WithPrelude);
    if (!C.Ok) {
      std::fprintf(stderr, "compile failed (%s, %s prelude): %s\n",
                   Opts.VariantName,
                   Mode == PreludeMode::Snapshot ? "snapshot" : "inline",
                   C.Errors.c_str());
      return R;
    }
    // The snapshot side is charged its acquisition cost, including the
    // one-time construction on the very first compile of the process.
    double Front =
        C.Metrics.ParseSec + C.Metrics.ElabSec + C.Metrics.PreludeElabSec;
    if (Front < R.FrontSec)
      R.FrontSec = Front;
    if (I + 1 == Iters) {
      R.Bytes = programBytes(C.Program);
      R.Ok = true;
    }
  }
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  size_t NumJobs = 0;
  bool Smoke = false;
  int Iters = 3;
  std::string OutPath = "BENCH_compile.json";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(Argv[I], "--iters=", 8) == 0)
      Iters = std::atoi(Argv[I] + 8);
    else if (std::strncmp(Argv[I], "--out=", 6) == 0)
      OutPath = Argv[I] + 6;
    else
      NumJobs = static_cast<size_t>(std::atoi(Argv[I]));
  }
  if (Smoke)
    Iters = 1;
  if (Iters < 1)
    Iters = 1;
  if (NumJobs == 0) {
    NumJobs = std::thread::hardware_concurrency();
    if (NumJobs < 4)
      NumJobs = 4;
  }

  std::vector<CompileJob> Jobs = corpusMatrixJobs();
  std::printf("compile_throughput: %zu jobs "
              "(12 benchmarks x 6 variants)%s\n\n",
              Jobs.size(), Smoke ? " [smoke]" : "");

  obs::JsonWriter W;
  W.beginObject();
  W.field("bench", "compile_throughput");
  W.field("smoke", Smoke);
  W.field("iterations", Iters);
  W.field("jobs", static_cast<uint64_t>(Jobs.size()));

  // --- Pass 1: front-end seconds, inline prelude vs snapshot ---
  std::printf("front end (best of %d): inline prelude vs snapshot\n", Iters);
  bool FrontOk = true, FrontIdentical = true;
  std::vector<double> FrontRatios;
  double InlineFrontTotal = 0, SnapFrontTotal = 0;
  W.key("front_end_rows").beginArray();
  const std::vector<BenchmarkProgram> &Corpus = benchmarkCorpus();
  size_t JobsPerProgram = Jobs.size() / Corpus.size();
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const CompileJob &J = Jobs[I];
    FrontRun Inl = timeFrontEnd(J, PreludeMode::Inline, Iters);
    FrontRun Snap = timeFrontEnd(J, PreludeMode::Snapshot, Iters);
    if (!Inl.Ok || !Snap.Ok) {
      FrontOk = false;
      continue;
    }
    bool Identical = Inl.Bytes == Snap.Bytes;
    FrontIdentical = FrontIdentical && Identical;
    double Ratio = Snap.FrontSec > 0 ? Inl.FrontSec / Snap.FrontSec : 1.0;
    FrontRatios.push_back(Ratio);
    InlineFrontTotal += Inl.FrontSec;
    SnapFrontTotal += Snap.FrontSec;
    // A digest of the generated program, so two builds' outputs can be
    // compared job by job without keeping the bytes.
    char Fnv[17];
    std::snprintf(Fnv, sizeof(Fnv), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(Snap.Bytes)));
    W.beginObject();
    W.field("program", Corpus[I / JobsPerProgram].Name);
    W.field("variant", J.Opts.VariantName);
    W.field("inline_front_us", Inl.FrontSec * 1e6, 2);
    W.field("snapshot_front_us", Snap.FrontSec * 1e6, 2);
    W.field("ratio", Ratio, 3);
    W.field("identical", Identical);
    W.field("program_fnv", Fnv);
    W.endObject();
  }
  W.endArray();
  double FrontGeomean = geomean(FrontRatios);
  const PreludeSnapshot *Snap = PreludeSnapshot::get();
  double BuildSec = Snap ? Snap->buildSeconds() : 0;
  std::printf("  inline total  %8.2f ms, snapshot total %8.2f ms "
              "(one-time build %.2f ms)\n",
              InlineFrontTotal * 1e3, SnapFrontTotal * 1e3, BuildSec * 1e3);
  std::printf("  geomean front-end speedup: %.2fx (gate: >= %.1fx%s)\n",
              FrontGeomean, kFrontEndGate,
              Smoke ? ", not enforced in smoke" : "");
  std::printf("  prelude-mode code bytes:   %s\n\n",
              FrontIdentical ? "IDENTICAL" : "DIFFER");
  W.field("front_end_inline_total_sec", InlineFrontTotal, 6);
  W.field("front_end_snapshot_total_sec", SnapFrontTotal, 6);
  W.field("prelude_snapshot_build_sec", BuildSec, 6);
  W.field("front_end_geomean_speedup", FrontGeomean, 3);
  W.field("front_end_gate", kFrontEndGate, 1);
  W.field("front_end_identical", FrontIdentical);

  // --- Pass 2: sequential baseline, no cache ---
  BatchOptions Seq;
  Seq.NumThreads = 1;
  BatchCompiler SeqBatch(Seq);
  std::vector<CompileOutput> SeqOut = SeqBatch.compileAll(Jobs);
  BatchMetrics SeqM = SeqBatch.lastBatch();
  std::printf("sequential (1 thread):   %6.2fs wall, %5.1f programs/sec\n",
              SeqM.WallSec, SeqM.programsPerSec());

  // --- Pass 3: parallel, no cache ---
  BatchOptions Par;
  Par.NumThreads = NumJobs;
  BatchCompiler ParBatch(Par);
  std::vector<CompileOutput> ParOut = ParBatch.compileAll(Jobs);
  BatchMetrics ParM = ParBatch.lastBatch();
  std::printf("parallel   (%zu threads): %6.2fs wall, %5.1f programs/sec\n",
              ParBatch.numThreads(), ParM.WallSec, ParM.programsPerSec());

  size_t Mismatches = 0, Failures = 0;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    if (!SeqOut[I].Ok || !ParOut[I].Ok) {
      ++Failures;
      continue;
    }
    if (programBytes(SeqOut[I].Program) != programBytes(ParOut[I].Program))
      ++Mismatches;
  }
  double Speedup = ParM.WallSec > 0 ? SeqM.WallSec / ParM.WallSec : 0;
  std::printf("speedup:                 %6.2fx wall-clock, "
              "code bytes %s (%zu mismatches, %zu failures)\n\n",
              Speedup, Mismatches == 0 && Failures == 0 ? "IDENTICAL" : "DIFFER",
              Mismatches, Failures);

  // --- Pass 4: content-addressed cache, cold then warm ---
  CompileCache Cache;
  BatchOptions Cached;
  Cached.NumThreads = NumJobs;
  Cached.Cache = &Cache;
  BatchCompiler CachedBatch(Cached);
  CachedBatch.compileAll(Jobs);
  BatchMetrics Cold = CachedBatch.lastBatch();
  std::vector<CompileOutput> WarmOut = CachedBatch.compileAll(Jobs);
  BatchMetrics Warm = CachedBatch.lastBatch();
  double HitRate =
      Warm.Jobs > 0 ? 100.0 * static_cast<double>(Warm.CacheHits) /
                          static_cast<double>(Warm.Jobs)
                    : 0;
  std::printf("cache cold:              %6.2fs wall, %zu hits / %zu jobs\n",
              Cold.WallSec, Cold.CacheHits, Cold.Jobs);
  std::printf("cache warm:              %6.2fs wall, %zu hits / %zu jobs "
              "(hit rate %.0f%%)\n",
              Warm.WallSec, Warm.CacheHits, Warm.Jobs, HitRate);

  size_t WarmMismatches = 0;
  for (size_t I = 0; I < Jobs.size(); ++I)
    if (SeqOut[I].Ok && WarmOut[I].Ok &&
        programBytes(SeqOut[I].Program) != programBytes(WarmOut[I].Program))
      ++WarmMismatches;
  std::printf("warm outputs vs baseline: %s\n\n",
              WarmMismatches == 0 ? "IDENTICAL" : "DIFFER");

  std::printf("sequential %s\n", SeqM.toJson().c_str());
  std::printf("parallel   %s\n", ParM.toJson().c_str());
  std::printf("warm-cache %s\n", Warm.toJson().c_str());

  W.field("sequential_wall_sec", SeqM.WallSec, 6);
  W.field("parallel_wall_sec", ParM.WallSec, 6);
  W.field("parallel_threads", static_cast<uint64_t>(ParBatch.numThreads()));
  W.field("parallel_speedup", Speedup, 3);
  W.field("warm_cache_hits", static_cast<uint64_t>(Warm.CacheHits));
  W.field("warm_cache_wall_sec", Warm.WallSec, 6);
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

  bool Ok = Wrote && FrontOk && FrontIdentical && Mismatches == 0 &&
            Failures == 0 && WarmMismatches == 0 && Warm.CacheHits > 0;
  if (!Smoke && FrontGeomean < kFrontEndGate) {
    std::fprintf(stderr,
                 "FAIL: front-end geomean %.2fx below the %.1fx gate\n",
                 FrontGeomean, kFrontEndGate);
    Ok = false;
  }
  return Ok ? 0 : 1;
}
