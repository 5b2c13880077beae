//===- bench/exec_throughput.cpp - VM execution-engine scaling -------------------===//
//
// Measures raw interpreter throughput (instructions/second) on the full
// Figure 7 workload: the twelve corpus benchmarks under all six compiler
// variants, each executed by the computed-goto dispatch loop over
// pre-decoded dense code with the nursery GC. Every row must produce its
// expected checksum. On top of correctness the full run gates,
// under a constrained heap (where both collectors actually run), that
// the nursery's pause-causing (major-collection) copied words stay
// within 1.10x of the two-space collector's, and that the largest single
// pause shrinks. Total copied words are reported too: generational GC
// deliberately trades more total copying (frequent cheap minor
// scavenges) for small pauses and less major-collection work.
//
// Results land in BENCH_exec.json.
//
// Usage: exec_throughput [--smoke] [--iters=N] [--out=PATH]
//   --smoke   one iteration, correctness gates only (CI smoke run)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstring>
#include <thread>

using namespace smltc;
using namespace smltc::bench;

namespace {

struct Row {
  const char *Bench;
  const char *Variant;
  uint64_t Instructions = 0;
  double ThreadedIps = 0;
};

/// Best-of-N instructions/sec.
Measurement bestOf(const CompileOutput &C, const CompilerOptions &O,
                   const char *Name, const VmOptions &V, int Iters,
                   double &BestIps) {
  Measurement Best;
  BestIps = 0;
  for (int I = 0; I < Iters; ++I) {
    Measurement M = runCompiled(C, O, Name, V);
    if (!M.Ok)
      return M;
    double Ips = M.ExecSec > 0
                     ? static_cast<double>(M.Instructions) / M.ExecSec
                     : 0;
    if (Ips > BestIps) {
      BestIps = Ips;
      Best = M;
    }
  }
  return Best;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  int Iters = 3;
  std::string OutPath = "BENCH_exec.json";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(Argv[I], "--iters=", 8) == 0)
      Iters = std::atoi(Argv[I] + 8);
    else if (std::strncmp(Argv[I], "--out=", 6) == 0)
      OutPath = Argv[I] + 6;
  }
  if (Smoke)
    Iters = 1;
  if (Iters < 1)
    Iters = 1;

  size_t NumVariants;
  const CompilerOptions *Variants = CompilerOptions::allVariants(NumVariants);

  std::printf("exec_throughput: 12 benchmarks x %zu variants, %d iteration%s"
              " per row%s\n\n",
              NumVariants, Iters, Iters == 1 ? "" : "s",
              Smoke ? " [smoke]" : "");

  // Compile the full matrix up front on the batch engine.
  std::vector<CompileJob> Jobs = corpusMatrixJobs();
  BatchOptions BO;
  BO.NumThreads = std::thread::hardware_concurrency();
  if (BO.NumThreads < 2)
    BO.NumThreads = 2;
  BatchCompiler Batch(BO);
  std::vector<CompileOutput> Outs = Batch.compileAll(Jobs);

  std::vector<Row> Rows;
  uint64_t NurseryCopied = 0, NurseryMajorCopied = 0, TwoSpaceCopied = 0;
  uint64_t NurseryMaxPause = 0, TwoSpaceMaxPause = 0;
  size_t Failures = 0;

  std::printf("%-10s %-8s %14s %12s\n", "benchmark", "variant",
              "instructions", "threaded");
  for (size_t B = 0; B < benchmarkCorpus().size(); ++B) {
    const BenchmarkProgram &P = benchmarkCorpus()[B];
    for (size_t V = 0; V < NumVariants; ++V) {
      const CompileOutput &C = Outs[B * NumVariants + V];
      const CompilerOptions &O = Variants[V];
      Row R;
      R.Bench = P.Name;
      R.Variant = O.VariantName;

      Measurement MT = bestOf(C, O, P.Name, VmOptions(), Iters,
                              R.ThreadedIps);
      if (!MT.Ok) {
        ++Failures;
        continue;
      }
      if (MT.Result != P.ExpectedResult) {
        std::fprintf(stderr, "MISMATCH %s %s: result %lld, expected %lld\n",
                     P.Name, O.VariantName, (long long)MT.Result,
                     (long long)P.ExpectedResult);
        ++Failures;
        continue;
      }
      R.Instructions = MT.Instructions;
      std::printf("%-10s %-8s %14llu %12.0f\n", P.Name, O.VariantName + 4,
                  (unsigned long long)R.Instructions, R.ThreadedIps);
      Rows.push_back(R);
    }
  }

  // GC-pressure phase: the default heap is large enough that the
  // two-space collector barely runs, so copied-words comparisons are
  // only meaningful under a small heap that forces both collectors to
  // work. Only the nursery differs between the two sides.
  VmOptions TightGen;
  TightGen.HeapSemiWords = 1 << 14;
  TightGen.NurseryKb = 16;
  VmOptions TightTwo = TightGen;
  TightTwo.NurseryKb = 0;
  for (size_t B = 0; B < benchmarkCorpus().size(); ++B) {
    const BenchmarkProgram &P = benchmarkCorpus()[B];
    // ffb column: the paper's most complete variant.
    size_t V = 0;
    for (size_t J = 0; J < NumVariants; ++J)
      if (std::strcmp(Variants[J].VariantName, "sml.ffb") == 0)
        V = J;
    const CompileOutput &C = Outs[B * NumVariants + V];
    Measurement MG = runCompiled(C, Variants[V], P.Name, TightGen);
    Measurement M2 = runCompiled(C, Variants[V], P.Name, TightTwo);
    if (!MG.Ok || !M2.Ok || MG.Result != M2.Result ||
        MG.Instructions != M2.Instructions) {
      std::fprintf(stderr, "GC-pressure MISMATCH on %s\n", P.Name);
      ++Failures;
      continue;
    }
    NurseryCopied += MG.CopiedWords;
    NurseryMajorCopied += MG.MajorCopiedWords;
    TwoSpaceCopied += M2.CopiedWords;
    if (MG.MaxPauseWords > NurseryMaxPause)
      NurseryMaxPause = MG.MaxPauseWords;
    if (M2.MaxPauseWords > TwoSpaceMaxPause)
      TwoSpaceMaxPause = M2.MaxPauseWords;
  }
  double MajorRatio = TwoSpaceCopied > 0
                          ? static_cast<double>(NurseryMajorCopied) /
                                static_cast<double>(TwoSpaceCopied)
                          : 1.0;
  double TotalRatio = TwoSpaceCopied > 0
                          ? static_cast<double>(NurseryCopied) /
                                static_cast<double>(TwoSpaceCopied)
                          : 1.0;
  std::printf("\nGC under a %u-word heap: major-copied %llu vs two-space "
              "%llu (ratio %.3f); total copied %llu (%.2fx, minors are "
              "the trade); max pause %llu vs %llu words\n",
              1u << 14, (unsigned long long)NurseryMajorCopied,
              (unsigned long long)TwoSpaceCopied, MajorRatio,
              (unsigned long long)NurseryCopied, TotalRatio,
              (unsigned long long)NurseryMaxPause,
              (unsigned long long)TwoSpaceMaxPause);

  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (Out) {
    std::fprintf(Out,
                 "{\"bench\":\"exec_throughput\",\"iterations\":%d,"
                 "\"smoke\":%s,"
                 "\"gc_major_copied_ratio\":%.4f,"
                 "\"gc_total_copied_ratio\":%.4f,"
                 "\"gc_max_pause_words\":%llu,"
                 "\"gc_two_space_max_pause_words\":%llu,"
                 "\"failures\":%zu,\"rows\":[",
                 Iters, Smoke ? "true" : "false", MajorRatio,
                 TotalRatio, (unsigned long long)NurseryMaxPause,
                 (unsigned long long)TwoSpaceMaxPause, Failures);
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Row &R = Rows[I];
      std::fprintf(Out,
                   "%s{\"benchmark\":\"%s\",\"variant\":\"%s\","
                   "\"instructions\":%llu,\"threaded_ips\":%.0f}",
                   I ? "," : "", R.Bench, R.Variant,
                   (unsigned long long)R.Instructions, R.ThreadedIps);
    }
    std::fprintf(Out, "]}\n");
    std::fclose(Out);
    std::printf("wrote %s (%zu rows)\n", OutPath.c_str(), Rows.size());
  } else {
    std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
    ++Failures;
  }

  bool Ok = Failures == 0;
  if (!Smoke) {
    // Performance gates only make sense on a quiet machine with real
    // iteration counts; the smoke run checks correctness alone.
    if (MajorRatio > 1.10) {
      std::fprintf(stderr, "FAIL: major-copied ratio %.3f > 1.10\n",
                   MajorRatio);
      Ok = false;
    }
    if (NurseryMaxPause >= TwoSpaceMaxPause && TwoSpaceMaxPause > 0) {
      std::fprintf(stderr, "FAIL: max pause did not shrink (%llu >= %llu)\n",
                   (unsigned long long)NurseryMaxPause,
                   (unsigned long long)TwoSpaceMaxPause);
      Ok = false;
    }
  }
  return Ok ? 0 : 1;
}
