//===- tests/test_corpus.cpp - Benchmark corpus validation ----------------------===//
//
// Every corpus program must compile and run under all six compiler
// variants, and all variants must agree on the result — the paper's
// benchmarks are only meaningful if the optimizations are semantics-
// preserving. CorpusCounts pins every row's exact counts to
// tests/corpus_counts.tsv, so any change to the paper's numbers shows up
// as a diff of that file, and checks that every function a row's program
// holds is reachable from its entry.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "corpus/Corpus.h"
#include "driver/CompileCache.h"
#include "driver/Compiler.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace smltc;

namespace {

class CorpusTest : public ::testing::TestWithParam<size_t> {};

} // namespace

TEST_P(CorpusTest, AllVariantsAgree) {
  const BenchmarkProgram &B = benchmarkCorpus()[GetParam()];
  size_t N;
  const CompilerOptions *Vs = CompilerOptions::allVariants(N);
  int64_t First = 0;
  uint64_t FirstCycles = 0;
  for (size_t I = 0; I < N; ++I) {
    ExecResult R = Compiler::compileAndRun(B.Source, Vs[I]);
    ASSERT_TRUE(R.Ok) << B.Name << " under " << Vs[I].VariantName << ": "
                      << R.TrapMessage;
    ASSERT_FALSE(R.UncaughtException)
        << B.Name << " under " << Vs[I].VariantName;
    if (I == 0) {
      First = R.Result;
      FirstCycles = R.Cycles;
      // A benchmark must do *some* work.
      EXPECT_GT(R.Cycles, 10000u) << B.Name;
      EXPECT_EQ(R.Result, B.ExpectedResult)
          << B.Name << ": checksum drifted from the recorded expectation";
    } else {
      EXPECT_EQ(R.Result, First)
          << B.Name << ": " << Vs[I].VariantName << " disagrees";
    }
  }
  (void)FirstCycles;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorpusTest, ::testing::Range<size_t>(0, 12),
    [](const ::testing::TestParamInfo<size_t> &Info) {
      std::string Name = benchmarkCorpus()[Info.param].Name;
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

TEST(CorpusStress, SurvivesTinyHeapWithManyCollections) {
  // GC soak: the whole corpus under a tiny semispace must produce the
  // same answers as with a roomy heap, exercising the collector on real
  // object graphs (closures, spill records, strings, float records).
  for (const BenchmarkProgram &B : benchmarkCorpus()) {
    CompileOutput C = Compiler::compile(B.Source, CompilerOptions::ffb());
    ASSERT_TRUE(C.Ok) << B.Name;
    VmOptions Roomy;
    ExecResult R1 = execute(C.Program, Roomy);
    VmOptions Tiny;
    Tiny.HeapSemiWords = 1 << 12;
    ExecResult R2 = execute(C.Program, Tiny);
    ASSERT_TRUE(R1.Ok && R2.Ok) << B.Name << ": " << R2.TrapMessage;
    EXPECT_EQ(R1.Result, R2.Result) << B.Name << " changes under GC";
    EXPECT_EQ(R1.UncaughtException, R2.UncaughtException) << B.Name;
  }
}

namespace {

/// One line of tests/corpus_counts.tsv, recomputed from the current code.
std::string corpusCountsRow(const BenchmarkProgram &B,
                            const CompilerOptions &O) {
  CompileOutput C = Compiler::compile(B.Source, O);
  if (!C.Ok)
    return std::string(B.Name) + "\t" + O.VariantName + "\tcompile error\n";
  ExecResult R = execute(C.Program, VmOptions());
  std::ostringstream S;
  S << B.Name << '\t' << O.VariantName << '\t'
    << (R.Ok && !R.UncaughtException && !R.Trapped
            ? std::to_string(R.Result)
            : std::string("failed"))
    << '\t' << std::hex << fnv1a64(R.Output) << std::dec << '\t'
    << R.Instructions << '\t' << R.Cycles << '\t' << R.AllocWords32 << '\t'
    << C.Program.codeSize() << '\n';
  return S.str();
}

} // namespace

// Every (program, variant) row's result, output digest, instructions,
// cycles, 32-bit heap words and code words, compared exactly with the
// committed file. These counts are deterministic, so a change that moves
// one regenerates the file (the failure message prints all of it) and
// explains each moved row in EXPERIMENTS.md.
TEST(CorpusCounts, MatchPinnedFile) {
  std::string Actual =
      "# program\tvariant\tresult\toutput_fnv1a64\tinstructions\tcycles"
      "\theap_words32\tcode_words\n";
  size_t N;
  const CompilerOptions *Vs = CompilerOptions::allVariants(N);
  for (const BenchmarkProgram &B : benchmarkCorpus())
    for (size_t I = 0; I < N; ++I)
      Actual += corpusCountsRow(B, Vs[I]);
  std::ifstream In(SMLTC_TESTS_DIR "/corpus_counts.tsv");
  ASSERT_TRUE(In) << "missing tests/corpus_counts.tsv; its contents are:\n"
                  << Actual;
  std::stringstream Pinned;
  Pinned << In.rdbuf();
  EXPECT_EQ(Pinned.str(), Actual)
      << "tests/corpus_counts.tsv is stale; the recomputed file is:\n"
      << Actual;
}

// The optimizer removes every function the program cannot reach, so no
// row's code size counts dead prelude or dead recursion: every TM
// function is reachable from Funs[0] through a CallL target or a
// LoadLabel immediate.
TEST(CorpusCounts, EveryFunctionIsReachableFromTheEntry) {
  size_t N;
  const CompilerOptions *Vs = CompilerOptions::allVariants(N);
  size_t Funs = 0, Unreachable = 0;
  for (const BenchmarkProgram &B : benchmarkCorpus())
    for (size_t I = 0; I < N; ++I) {
      CompileOutput C = Compiler::compile(B.Source, Vs[I]);
      ASSERT_TRUE(C.Ok) << B.Name << " " << Vs[I].VariantName;
      size_t U = testutil::unreachableFunctions(C.Program);
      EXPECT_EQ(U, 0u) << B.Name << " " << Vs[I].VariantName << ": " << U
                       << " of " << C.Program.Funs.size();
      Funs += C.Program.Funs.size();
      Unreachable += U;
    }
  EXPECT_EQ(Unreachable, 0u) << "of " << Funs << " functions in all rows";
}
