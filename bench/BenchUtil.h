//===- bench/BenchUtil.h - Shared benchmark harness helpers ---------------------===//

#ifndef SMLTC_BENCH_BENCHUTIL_H
#define SMLTC_BENCH_BENCHUTIL_H

#include "corpus/Corpus.h"
#include "driver/Batch.h"
#include "driver/Compiler.h"

#include <cstdio>
#include <cmath>
#include <string>
#include <vector>

namespace smltc {
namespace bench {

struct Measurement {
  bool Ok = false;
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t AllocWords = 0;
  uint64_t CopiedWords = 0;      ///< total GC-copied words (minor + major)
  uint64_t MajorCopiedWords = 0; ///< words copied by major collections only
  uint64_t MaxPauseWords = 0;    ///< largest single collection, in words
  size_t CodeSize = 0;
  double CompileSec = 0;
  double ExecSec = 0; ///< wall time inside the dispatch loop
  int64_t Result = 0;
  // Semantic-identity observables (the opt_throughput oracle): two
  // compiles of the same source are equivalent iff result, printed
  // output, trap state, and store-barrier count all agree.
  uint64_t BarrierStores = 0;
  std::string Output;
  bool Trapped = false;
};

inline Measurement measure(const std::string &Source,
                           const CompilerOptions &Opts,
                           const VmOptions &VmBase = VmOptions()) {
  Measurement M;
  CompileOutput C = Compiler::compile(Source, Opts);
  if (!C.Ok) {
    std::fprintf(stderr, "compile failed (%s): %s\n", Opts.VariantName,
                 C.Errors.c_str());
    return M;
  }
  M.CompileSec = C.Metrics.TotalSec;
  M.CodeSize = C.Metrics.CodeSize;
  ExecResult R = execute(C.Program, VmBase);
  if (!R.Ok || R.UncaughtException) {
    std::fprintf(stderr, "run failed (%s): %s\n", Opts.VariantName,
                 R.TrapMessage.c_str());
    return M;
  }
  M.Ok = true;
  M.Cycles = R.Cycles;
  M.Instructions = R.Instructions;
  M.AllocWords = R.AllocWords32;
  M.CopiedWords = R.GcCopiedWords;
  M.MajorCopiedWords = R.Metrics.MajorCopiedWords;
  M.MaxPauseWords = R.Metrics.MaxMinorPauseWords > R.Metrics.MaxMajorPauseWords
                        ? R.Metrics.MaxMinorPauseWords
                        : R.Metrics.MaxMajorPauseWords;
  M.ExecSec = R.Metrics.ExecSec;
  M.Result = R.Result;
  M.BarrierStores = R.Metrics.BarrierStores;
  M.Output = R.Output;
  M.Trapped = R.Trapped;
  return M;
}

/// Executes an already-compiled program, filling in the run metrics.
inline Measurement runCompiled(const CompileOutput &C,
                               const CompilerOptions &Opts,
                               const char *BenchName = "",
                               const VmOptions &VmBase = VmOptions()) {
  Measurement M;
  if (!C.Ok) {
    std::fprintf(stderr, "compile failed (%s %s): %s\n", BenchName,
                 Opts.VariantName, C.Errors.c_str());
    return M;
  }
  M.CompileSec = C.Metrics.TotalSec;
  M.CodeSize = C.Metrics.CodeSize;
  ExecResult R = execute(C.Program, VmBase);
  if (!R.Ok || R.UncaughtException) {
    std::fprintf(stderr, "run failed (%s %s): %s\n", BenchName,
                 Opts.VariantName, R.TrapMessage.c_str());
    return M;
  }
  M.Ok = true;
  M.Cycles = R.Cycles;
  M.Instructions = R.Instructions;
  M.AllocWords = R.AllocWords32;
  M.CopiedWords = R.GcCopiedWords;
  M.MajorCopiedWords = R.Metrics.MajorCopiedWords;
  M.MaxPauseWords = R.Metrics.MaxMinorPauseWords > R.Metrics.MaxMajorPauseWords
                        ? R.Metrics.MaxMinorPauseWords
                        : R.Metrics.MaxMajorPauseWords;
  M.ExecSec = R.Metrics.ExecSec;
  M.Result = R.Result;
  M.BarrierStores = R.Metrics.BarrierStores;
  M.Output = R.Output;
  M.Trapped = R.Trapped;
  return M;
}

/// The full Figure 7/8 compile matrix: every corpus benchmark under every
/// variant, benchmark-major (job index = bench * NumVariants + variant).
inline std::vector<CompileJob> corpusMatrixJobs() {
  size_t NumVariants;
  const CompilerOptions *Variants = CompilerOptions::allVariants(NumVariants);
  std::vector<CompileJob> Jobs;
  Jobs.reserve(benchmarkCorpus().size() * NumVariants);
  for (const BenchmarkProgram &B : benchmarkCorpus())
    for (size_t V = 0; V < NumVariants; ++V) {
      CompileJob J;
      J.Source = B.Source;
      J.Opts = Variants[V];
      Jobs.push_back(std::move(J));
    }
  return Jobs;
}

inline double geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return 0;
  double S = 0;
  for (double X : Xs)
    S += std::log(X);
  return std::exp(S / static_cast<double>(Xs.size()));
}

} // namespace bench
} // namespace smltc

#endif // SMLTC_BENCH_BENCHUTIL_H
