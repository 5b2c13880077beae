//===- tests/test_batch.cpp - Batch engine & compile cache ----------------------===//
//
// The batch engine must be a pure performance feature: an 8-thread batch
// compile of the full corpus x all six variants has to produce bit-
// identical code to a 1-thread run (and to the paper's expected execution
// checksums), the content-addressed cache must hit on repeated jobs
// without changing outputs, and the per-job metrics the batch aggregates
// are built from must be populated even on failing compiles.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "driver/Batch.h"

#include <gtest/gtest.h>

using namespace smltc;

namespace {

std::vector<CompileJob> fullMatrix() {
  size_t NumVariants;
  const CompilerOptions *Variants = CompilerOptions::allVariants(NumVariants);
  std::vector<CompileJob> Jobs;
  for (const BenchmarkProgram &B : benchmarkCorpus())
    for (size_t V = 0; V < NumVariants; ++V) {
      CompileJob J;
      J.Source = B.Source;
      J.Opts = Variants[V];
      Jobs.push_back(std::move(J));
    }
  return Jobs;
}

} // namespace

TEST(BatchCompilerTest, EightThreadsMatchOneThreadBitForBit) {
  std::vector<CompileJob> Jobs = fullMatrix();

  BatchOptions Par;
  Par.NumThreads = 8;
  BatchCompiler ParBatch(Par);
  std::vector<CompileOutput> ParOut = ParBatch.compileAll(Jobs);

  BatchOptions Seq;
  Seq.NumThreads = 1;
  BatchCompiler SeqBatch(Seq);
  std::vector<CompileOutput> SeqOut = SeqBatch.compileAll(Jobs);

  ASSERT_EQ(ParOut.size(), Jobs.size());
  ASSERT_EQ(SeqOut.size(), Jobs.size());

  size_t NumVariants;
  CompilerOptions::allVariants(NumVariants);
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const BenchmarkProgram &B = benchmarkCorpus()[I / NumVariants];
    const char *Variant = Jobs[I].Opts.VariantName;
    ASSERT_TRUE(ParOut[I].Ok) << B.Name << " under " << Variant << ": "
                              << ParOut[I].Errors;
    ASSERT_TRUE(SeqOut[I].Ok) << B.Name << " under " << Variant << ": "
                              << SeqOut[I].Errors;
    EXPECT_EQ(programBytes(ParOut[I].Program),
              programBytes(SeqOut[I].Program))
        << B.Name << " under " << Variant
        << ": parallel compile changed the generated code";

    // Worker bookkeeping must be filled in.
    EXPECT_GE(ParOut[I].Metrics.WorkerId, 0);
    EXPECT_LT(ParOut[I].Metrics.WorkerId, 8);
    EXPECT_FALSE(ParOut[I].Metrics.CacheHit);
    EXPECT_GT(ParOut[I].Metrics.TotalSec, 0.0);
  }

  // Byte-identical code must execute to the paper's expected checksums.
  // (Identical bytes make re-running the sequential set redundant.)
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const BenchmarkProgram &B = benchmarkCorpus()[I / NumVariants];
    ExecResult R = execute(ParOut[I].Program, VmOptions());
    ASSERT_TRUE(R.Ok) << B.Name << " under " << Jobs[I].Opts.VariantName
                      << ": " << R.TrapMessage;
    ASSERT_FALSE(R.UncaughtException) << B.Name;
    EXPECT_EQ(R.Result, B.ExpectedResult)
        << B.Name << " under " << Jobs[I].Opts.VariantName;
  }

  const BatchMetrics &M = ParBatch.lastBatch();
  EXPECT_EQ(M.Jobs, Jobs.size());
  EXPECT_EQ(M.Succeeded, Jobs.size());
  EXPECT_EQ(M.Failed, 0u);
  EXPECT_EQ(M.Threads, 8u);
  EXPECT_GT(M.WallSec, 0.0);
  EXPECT_GT(M.TotalCompileSec, 0.0);
  EXPECT_GT(M.programsPerSec(), 0.0);
}

TEST(BatchCompilerTest, ResultsAreInInputOrder) {
  // Jobs with observably different outputs: the same program under
  // variants with different code sizes, plus a different program.
  std::vector<CompileJob> Jobs;
  CompileJob A;
  A.Source = "val it = 1 + 2";
  A.Opts = CompilerOptions::nrp();
  CompileJob B = A;
  B.Opts = CompilerOptions::fp3();
  CompileJob C;
  C.Source = "fun f x = x * 3 val it = f 14";
  C.Opts = CompilerOptions::ffb();
  Jobs.push_back(A);
  Jobs.push_back(B);
  Jobs.push_back(C);

  BatchOptions BO;
  BO.NumThreads = 4;
  BatchCompiler Batch(BO);
  std::vector<CompileOutput> Out = Batch.compileAll(Jobs);
  ASSERT_EQ(Out.size(), 3u);
  for (const CompileOutput &O : Out)
    ASSERT_TRUE(O.Ok) << O.Errors;

  // Each slot must match a direct compile of the same job.
  for (size_t I = 0; I < Jobs.size(); ++I) {
    CompileOutput Direct =
        Compiler::compile(Jobs[I].Source, Jobs[I].Opts, Jobs[I].WithPrelude);
    ASSERT_TRUE(Direct.Ok);
    EXPECT_EQ(programBytes(Out[I].Program), programBytes(Direct.Program))
        << "job " << I << " landed in the wrong result slot";
  }
}

TEST(CompileCacheTest, RepeatedJobsHitWithIdenticalOutput) {
  std::vector<CompileJob> Jobs;
  size_t NumVariants;
  const CompilerOptions *Variants = CompilerOptions::allVariants(NumVariants);
  for (size_t V = 0; V < NumVariants; ++V) {
    CompileJob J;
    J.Source = "fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2) "
               "val it = fib 10";
    J.Opts = Variants[V];
    Jobs.push_back(std::move(J));
  }

  CompileCache Cache;
  BatchOptions BO;
  BO.NumThreads = 4;
  BO.Cache = &Cache;
  BatchCompiler Batch(BO);

  std::vector<CompileOutput> Cold = Batch.compileAll(Jobs);
  EXPECT_EQ(Batch.lastBatch().CacheHits, 0u);
  EXPECT_EQ(Batch.lastBatch().CacheMisses, Jobs.size());
  EXPECT_EQ(Cache.size(), Jobs.size());

  std::vector<CompileOutput> Warm = Batch.compileAll(Jobs);
  EXPECT_EQ(Batch.lastBatch().CacheHits, Jobs.size());
  EXPECT_EQ(Batch.lastBatch().CacheMisses, 0u);
  EXPECT_GT(Cache.hitCount(), 0u);

  for (size_t I = 0; I < Jobs.size(); ++I) {
    ASSERT_TRUE(Cold[I].Ok && Warm[I].Ok);
    EXPECT_TRUE(Warm[I].Metrics.CacheHit);
    EXPECT_FALSE(Cold[I].Metrics.CacheHit);
    EXPECT_EQ(programBytes(Cold[I].Program), programBytes(Warm[I].Program));
  }

  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.hitCount(), 0u);
}

TEST(CompileCacheTest, HitsZeroPhaseTimingsAndSetCacheHit) {
  // A cache hit does no front/middle/back-end work, so the phase timings
  // surfaced for that job must be zero rather than stale copies of the
  // miss that populated the entry; otherwise batch aggregates double-
  // count compile time on warm runs.
  CompileJob J;
  J.Source = "fun f x = x + x val it = f 21";
  J.Opts = CompilerOptions::ffb();
  std::vector<CompileJob> Jobs{J};

  CompileCache Cache;
  BatchOptions BO;
  BO.NumThreads = 1;
  BO.Cache = &Cache;
  BatchCompiler Batch(BO);

  std::vector<CompileOutput> Cold = Batch.compileAll(Jobs);
  ASSERT_TRUE(Cold[0].Ok) << Cold[0].Errors;
  EXPECT_FALSE(Cold[0].Metrics.CacheHit);
  EXPECT_GT(Cold[0].Metrics.TotalSec, 0.0);
  EXPECT_GT(Cold[0].Metrics.FrontSec, 0.0);
  EXPECT_GT(Cold[0].Metrics.MtdSec, 0.0);
  EXPECT_GT(Cold[0].Metrics.PreludeElabSec, 0.0);

  std::vector<CompileOutput> Warm = Batch.compileAll(Jobs);
  ASSERT_TRUE(Warm[0].Ok);
  EXPECT_TRUE(Warm[0].Metrics.CacheHit);
  EXPECT_EQ(Warm[0].Metrics.TotalSec, 0.0);
  EXPECT_EQ(Warm[0].Metrics.FrontSec, 0.0);
  EXPECT_EQ(Warm[0].Metrics.TranslateSec, 0.0);
  EXPECT_EQ(Warm[0].Metrics.BackSec, 0.0);
  EXPECT_EQ(Warm[0].Metrics.ParseSec, 0.0);
  EXPECT_EQ(Warm[0].Metrics.ElabSec, 0.0);
  // ffb runs MTD, and the cold compile acquired the prelude snapshot.
  EXPECT_EQ(Warm[0].Metrics.MtdSec, 0.0);
  EXPECT_EQ(Warm[0].Metrics.PreludeElabSec, 0.0);
  EXPECT_EQ(Warm[0].Metrics.CpsConvertSec, 0.0);
  EXPECT_EQ(Warm[0].Metrics.CpsOptSec, 0.0);
  EXPECT_EQ(Warm[0].Metrics.ClosureSec, 0.0);
  EXPECT_EQ(Warm[0].Metrics.CodegenSec, 0.0);
  // The generated program itself is still the cached one, bit for bit.
  EXPECT_EQ(programBytes(Warm[0].Program), programBytes(Cold[0].Program));
}

TEST(CompileCacheTest, KeyDistinguishesOptionsSourceAndPrelude) {
  const std::string Src = "val it = 1";
  CompilerOptions Ffb = CompilerOptions::ffb();
  std::string Base = canonicalJobKey(Src, Ffb, true);
  EXPECT_EQ(Base, canonicalJobKey(Src, Ffb, true));
  EXPECT_NE(Base, canonicalJobKey(Src, Ffb, false));
  EXPECT_NE(Base, canonicalJobKey("val it = 2", Ffb, true));
  EXPECT_NE(Base, canonicalJobKey(Src, CompilerOptions::nrp(), true));
  CompilerOptions Dumps = Ffb;
  Dumps.KeepDumps = true;
  EXPECT_NE(Base, canonicalJobKey(Src, Dumps, true));
  CompilerOptions NoMemo = Ffb;
  NoMemo.MemoCoercions = false;
  EXPECT_NE(Base, canonicalJobKey(Src, NoMemo, true));
}

TEST(CompileCacheTest, KeysAreSaltedWithCompilerVersionAndSchema) {
  // Every canonical key must begin with the build salt, so a persistent
  // store written by an older compiler (different version or options
  // schema) can never satisfy a lookup from this one.
  std::string Salt = compileCacheSalt();
  ASSERT_FALSE(Salt.empty());
  EXPECT_NE(Salt.find("smltc-"), std::string::npos)
      << "salt must carry the compiler version";
  EXPECT_NE(Salt.find("optschema="), std::string::npos)
      << "salt must carry the options-schema version";
  std::string Key =
      canonicalJobKey("val it = 1", CompilerOptions::ffb(), true);
  EXPECT_EQ(Key.rfind(Salt, 0), 0u) << "canonical keys must be salted";
  // A different salt means a different key, which means a different
  // fnv1a64 address in any content-addressed store.
  EXPECT_NE(fnv1a64(Key),
            fnv1a64("smltc-0.0.0;optschema=0;" + Key.substr(Salt.size())));
}

TEST(CompileCacheTest, LookupCountsMissesThenHits) {
  CompileCache Cache;
  CompilerOptions O = CompilerOptions::ffb();
  EXPECT_EQ(Cache.lookup("val it = 1", O, true), nullptr);
  EXPECT_EQ(Cache.missCount(), 1u);
  auto Out = std::make_shared<CompileOutput>(
      Compiler::compile("val it = 1", O, true));
  ASSERT_TRUE(Out->Ok);
  Cache.insert("val it = 1", O, true, Out);
  auto Hit = Cache.lookup("val it = 1", O, true);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Cache.hitCount(), 1u);
  EXPECT_EQ(programBytes(Hit->Program), programBytes(Out->Program));
}

TEST(CompileMetricsTest, ErrorPathsStillPopulateTimings) {
  // Elaboration (type) error: front-end and total seconds must be set so
  // batch aggregates never fold in zeros from failed jobs.
  CompileOutput Bad =
      Compiler::compile("val it = 1 + true", CompilerOptions::ffb());
  ASSERT_FALSE(Bad.Ok);
  EXPECT_FALSE(Bad.Errors.empty());
  EXPECT_GT(Bad.Metrics.TotalSec, 0.0);
  EXPECT_GT(Bad.Metrics.FrontSec, 0.0);

  // Failed jobs flow through the batch engine as Failed with timings.
  std::vector<CompileJob> Jobs(2);
  Jobs[0].Source = "val it = 1 + true";
  Jobs[0].Opts = CompilerOptions::ffb();
  Jobs[1].Source = "val it = 41 + 1";
  Jobs[1].Opts = CompilerOptions::ffb();
  BatchOptions BO;
  BO.NumThreads = 2;
  BatchCompiler Batch(BO);
  std::vector<CompileOutput> Out = Batch.compileAll(Jobs);
  EXPECT_FALSE(Out[0].Ok);
  EXPECT_GT(Out[0].Metrics.TotalSec, 0.0);
  EXPECT_TRUE(Out[1].Ok);
  EXPECT_EQ(Batch.lastBatch().Failed, 1u);
  EXPECT_EQ(Batch.lastBatch().Succeeded, 1u);
}

TEST(BatchMetricsTest, JsonEmittersProduceWellFormedObjects) {
  BatchMetrics M;
  M.Jobs = 72;
  M.Succeeded = 72;
  M.Threads = 8;
  M.WallSec = 1.5;
  M.TotalCompileSec = 9.0;
  std::string J = M.toJson();
  EXPECT_EQ(J.front(), '{');
  EXPECT_EQ(J.back(), '}');
  EXPECT_NE(J.find("\"jobs\":72"), std::string::npos);
  EXPECT_NE(J.find("\"threads\":8"), std::string::npos);
  EXPECT_NE(J.find("\"speedup_vs_serial\":6.00"), std::string::npos);

  CompileOutput C = Compiler::compile("val it = 7", CompilerOptions::ffb());
  ASSERT_TRUE(C.Ok);
  std::string CJ = compileMetricsJson(C.Metrics);
  EXPECT_EQ(CJ.front(), '{');
  EXPECT_EQ(CJ.back(), '}');
  EXPECT_NE(CJ.find("\"worker_id\":-1"), std::string::npos);
  EXPECT_NE(CJ.find("\"cache_hit\":false"), std::string::npos);
}
