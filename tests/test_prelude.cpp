//===- tests/test_prelude.cpp - Prelude snapshot differential tests -----------===//
//
// The prelude snapshot (driver/PreludeSnapshot.h) must be a pure
// performance transform: `--prelude=snapshot` (the default) and
// `--prelude=inline` (the legacy concatenation oracle) must produce
// bit-identical TM programs and identical observable executions across
// the whole benchmark corpus and every compiler variant. These tests are
// also the TSan target for lock-free snapshot sharing (tools/check.sh
// runs `PreludeDifferential.*` under ThreadSanitizer).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "corpus/Corpus.h"
#include "driver/Batch.h"
#include "driver/CompileCache.h"
#include "driver/Compiler.h"
#include "driver/PreludeSnapshot.h"
#include "server/Client.h"
#include "server/Server.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

using namespace smltc;

namespace {

CompilerOptions withMode(CompilerOptions O, PreludeMode M) {
  O.Prelude = M;
  return O;
}

/// A unique short socket path (sun_path is ~108 bytes; keep clear of it).
std::string uniqueSocketPath() {
  static int Counter = 0;
  return "/tmp/smltc_prelude_" + std::to_string(::getpid()) + "_" +
         std::to_string(Counter++) + ".sock";
}

} // namespace

// The tentpole guarantee: for every corpus program under every variant,
// the snapshot path and the inline oracle emit byte-identical programs.
TEST(PreludeDifferential, BitIdenticalAcrossCorpusAndVariants) {
  size_t N;
  const CompilerOptions *Vs = CompilerOptions::allVariants(N);
  for (const BenchmarkProgram &B : benchmarkCorpus()) {
    for (size_t I = 0; I < N; ++I) {
      CompileOutput Snap = Compiler::compile(
          B.Source, withMode(Vs[I], PreludeMode::Snapshot));
      CompileOutput Inl = Compiler::compile(
          B.Source, withMode(Vs[I], PreludeMode::Inline));
      ASSERT_TRUE(Snap.Ok) << B.Name << "/" << Vs[I].VariantName << ": "
                           << Snap.Errors;
      ASSERT_TRUE(Inl.Ok) << B.Name << "/" << Vs[I].VariantName << ": "
                          << Inl.Errors;
      EXPECT_TRUE(Snap.Metrics.PreludeSnapshotHit)
          << B.Name << "/" << Vs[I].VariantName;
      EXPECT_FALSE(Inl.Metrics.PreludeSnapshotHit)
          << B.Name << "/" << Vs[I].VariantName;
      EXPECT_EQ(Snap.Metrics.CodeSize, Inl.Metrics.CodeSize)
          << B.Name << "/" << Vs[I].VariantName;
      // MTD statistics must distribute exactly over the prelude/user
      // split (prelude stats stored at snapshot build + user stats).
      EXPECT_EQ(Snap.Metrics.Mtd.VarsGrounded, Inl.Metrics.Mtd.VarsGrounded)
          << B.Name << "/" << Vs[I].VariantName;
      EXPECT_EQ(Snap.Metrics.Mtd.BindingsNarrowed,
                Inl.Metrics.Mtd.BindingsNarrowed)
          << B.Name << "/" << Vs[I].VariantName;
      EXPECT_EQ(programBytes(Snap.Program), programBytes(Inl.Program))
          << B.Name << "/" << Vs[I].VariantName
          << ": snapshot and inline prelude diverged";
    }
  }
}

// Observable-execution parity: result, printed output, instruction and
// cycle counts, and allocation counters all match between the modes.
TEST(PreludeDifferential, ExecutionObservablesMatchAcrossCorpus) {
  CompilerOptions Base = CompilerOptions::ffb();
  for (const BenchmarkProgram &B : benchmarkCorpus()) {
    CompileOutput Snap =
        Compiler::compile(B.Source, withMode(Base, PreludeMode::Snapshot));
    CompileOutput Inl =
        Compiler::compile(B.Source, withMode(Base, PreludeMode::Inline));
    ASSERT_TRUE(Snap.Ok && Inl.Ok) << B.Name;
    VmOptions VO;
    ExecResult RS = execute(Snap.Program, VO);
    ExecResult RI = execute(Inl.Program, VO);
    ASSERT_TRUE(RS.Ok) << B.Name << ": " << RS.TrapMessage;
    ASSERT_TRUE(RI.Ok) << B.Name << ": " << RI.TrapMessage;
    EXPECT_EQ(RS.Result, RI.Result) << B.Name;
    EXPECT_EQ(RS.Result, B.ExpectedResult) << B.Name;
    EXPECT_EQ(RS.Output, RI.Output) << B.Name;
    EXPECT_EQ(RS.UncaughtException, RI.UncaughtException) << B.Name;
    EXPECT_EQ(RS.Instructions, RI.Instructions) << B.Name;
    EXPECT_EQ(RS.Cycles, RI.Cycles) << B.Name;
    EXPECT_EQ(RS.AllocWords32, RI.AllocWords32) << B.Name;
    EXPECT_EQ(RS.AllocObjects, RI.AllocObjects) << B.Name;
  }
}

// Compile errors in user code must carry user-relative line numbers under
// the snapshot (the user source is parsed alone), while the inline oracle
// keeps its historical prelude-offset rendering.
TEST(PreludeDifferential, DiagnosticsAreUserRelativeUnderSnapshot) {
  // Line 2 of the user program misuses a list.
  std::string Bad = "val a = 1\nval b = a :: a\n";
  CompileOutput Snap = Compiler::compile(
      Bad, withMode(CompilerOptions::ffb(), PreludeMode::Snapshot));
  CompileOutput Inl = Compiler::compile(
      Bad, withMode(CompilerOptions::ffb(), PreludeMode::Inline));
  ASSERT_FALSE(Snap.Ok);
  ASSERT_FALSE(Inl.Ok);
  // Snapshot mode: the error is at line 2 of what was parsed.
  EXPECT_NE(Snap.Errors.find("2:"), std::string::npos) << Snap.Errors;
  // Inline mode still reports prelude-shifted lines (the prelude spans
  // >20 lines, so the user's line 2 lands far past it).
  EXPECT_EQ(Inl.Errors.find("2:"), std::string::npos) << Inl.Errors;
}

// --no-prelude must be wholly unaffected by the prelude mode.
TEST(PreludeDifferential, NoPreludeIgnoresMode) {
  std::string Src = "fun main () = 40 + 2";
  CompileOutput Snap = Compiler::compile(
      Src, withMode(CompilerOptions::ffb(), PreludeMode::Snapshot), false);
  CompileOutput Inl = Compiler::compile(
      Src, withMode(CompilerOptions::ffb(), PreludeMode::Inline), false);
  ASSERT_TRUE(Snap.Ok && Inl.Ok);
  EXPECT_FALSE(Snap.Metrics.PreludeSnapshotHit);
  EXPECT_FALSE(Inl.Metrics.PreludeSnapshotHit);
  EXPECT_EQ(programBytes(Snap.Program), programBytes(Inl.Program));
}

// Lock-free sharing: many threads compiling through the snapshot at once
// (this is the primary TSan target — any write to snapshot-owned type
// nodes, env scopes, or intern table entries is a race). Half the threads
// compile a program too deep for their own 8 MiB stacks, so each compile
// switches onto its thread's compile stack while the others do the same.
TEST(PreludeDifferential, ConcurrentCompilesShareOneSnapshot) {
  uint64_t BuildsBefore =
      preludeStats().SnapshotBuilds.load(std::memory_order_relaxed);
  constexpr int NumThreads = 8;
  std::vector<std::thread> Ts;
  std::vector<std::string> Bytes(NumThreads);
  // Not vector<bool>: adjacent packed bits share a word, which is itself
  // a data race under concurrent per-thread writes.
  std::vector<char> Ok(NumThreads, 0);
  for (int T = 0; T < NumThreads; ++T)
    Ts.emplace_back([T, &Bytes, &Ok] {
      // Mix of programs so threads unify fresh user vars against shared
      // prelude types concurrently.
      std::string Src =
          T % 2 ? testutil::nestedParens(testutil::kDeepNesting)
                : "fun main () = length (map (fn x => x + " +
                      std::to_string(T) + ") (tabulate (50, fn i => i)))";
      CompileOutput Out = Compiler::compile(Src, CompilerOptions::mtd());
      Ok[T] = Out.Ok;
      if (Out.Ok)
        Bytes[T] = programBytes(Out.Program);
    });
  for (auto &T : Ts)
    T.join();
  for (int T = 0; T < NumThreads; ++T)
    EXPECT_TRUE(Ok[T]) << "thread " << T;
  // At most one construction ever happens per process, no matter how
  // many threads raced to first use.
  uint64_t BuildsAfter =
      preludeStats().SnapshotBuilds.load(std::memory_order_relaxed);
  EXPECT_LE(BuildsAfter, 1u);
  EXPECT_LE(BuildsAfter - BuildsBefore, 1u);
}

// Batch workers must reuse the process snapshot rather than building
// their own.
TEST(PreludeDifferential, BatchWorkersReuseSnapshot) {
  uint64_t HitsBefore =
      preludeStats().SnapshotHits.load(std::memory_order_relaxed);
  BatchOptions BO;
  BO.NumThreads = 4;
  BO.Cache = nullptr; // force real compiles
  BatchCompiler BC(BO);
  std::vector<CompileJob> Jobs;
  for (const BenchmarkProgram &B : benchmarkCorpus()) {
    CompileJob J;
    J.Source = B.Source;
    J.Opts = CompilerOptions::ffb();
    Jobs.push_back(J);
  }
  std::vector<CompileOutput> Outs = BC.compileAll(Jobs);
  ASSERT_EQ(Outs.size(), Jobs.size());
  for (size_t I = 0; I < Outs.size(); ++I) {
    ASSERT_TRUE(Outs[I].Ok) << Jobs[I].Source;
    EXPECT_TRUE(Outs[I].Metrics.PreludeSnapshotHit);
  }
  EXPECT_GE(preludeStats().SnapshotHits.load(std::memory_order_relaxed),
            HitsBefore + Jobs.size());
  EXPECT_LE(preludeStats().SnapshotBuilds.load(std::memory_order_relaxed), 1u);
}

// Server requests ride the same snapshot: after serving compiles the
// process still has at most one construction on record.
TEST(PreludeDifferential, ServerRequestsReuseSnapshot) {
  server::ServerOptions SO;
  SO.SocketPath = uniqueSocketPath();
  SO.NumWorkers = 2;
  server::CompileServer Srv(SO);
  std::string Err;
  ASSERT_TRUE(Srv.start(Err)) << Err;
  std::thread Th([&Srv] { Srv.run(); });
  {
    server::Client Cl;
    ASSERT_TRUE(Cl.connect(SO.SocketPath, Err)) << Err;
    for (int I = 0; I < 3; ++I) {
      server::CompileRequest Req;
      Req.RequestId = static_cast<uint64_t>(I + 1);
      Req.WithPrelude = true;
      Req.Opts = CompilerOptions::ffb();
      Req.Source = "fun main () = length (rev (tabulate (" +
                   std::to_string(10 + I) + ", fn i => i)))";
      server::CompileResponse Resp;
      ASSERT_TRUE(Cl.compile(Req, Resp, Err)) << Err;
      EXPECT_EQ(Resp.St, server::Status::Ok) << Resp.Errors;
    }
  }
  Srv.requestStop();
  Th.join();
  EXPECT_LE(preludeStats().SnapshotBuilds.load(std::memory_order_relaxed), 1u);
}

// The cache key must be prelude-sensitive through the prelude's text, so
// an edit to any prelude function body reaches every key, and must keep
// the two delivery modes disjoint.
TEST(PreludeDifferential, CacheKeyFoldsInFingerprintAndMode) {
  std::string Src = "fun main () = 1";
  CompilerOptions Snap = withMode(CompilerOptions::ffb(), PreludeMode::Snapshot);
  CompilerOptions Inl = withMode(CompilerOptions::ffb(), PreludeMode::Inline);
  std::string KSnap = canonicalJobKey(Src, Snap, true);
  std::string KInl = canonicalJobKey(Src, Inl, true);
  EXPECT_NE(KSnap, KInl);

  // The fingerprint is the hash of the prelude text, and every
  // WithPrelude key carries it little-endian; no-prelude keys do not.
  uint64_t F = PreludeSnapshot::cacheFingerprint();
  EXPECT_EQ(F, fnv1a64(PreludeSnapshot::sourceText()));
  std::string FB;
  for (int Shift = 0; Shift < 64; Shift += 8)
    FB += static_cast<char>((F >> Shift) & 0xff);
  EXPECT_NE(KSnap.find(FB), std::string::npos);
  std::string KNoPre = canonicalJobKey(Src, Snap, false);
  EXPECT_NE(KSnap, KNoPre);
  EXPECT_EQ(KNoPre.find(FB), std::string::npos);

  // Ablated optimizer rules change the generated program, so they must
  // keep keys disjoint.
  CompilerOptions Ablated = Snap;
  Ablated.CpsOptDisable = kCpsRuleWrapCancel;
  EXPECT_NE(canonicalJobKey(Src, Ablated, true), KSnap);

  // Schema salt: entries persisted by builds that kept unreachable
  // functions (0.9.x and older), or under a key that still held the five
  // values no compile depended on (schema v8), can never alias the new
  // keys.
  std::string Salt = compileCacheSalt();
  EXPECT_NE(Salt.find("smltc-0.10.0"), std::string::npos) << Salt;
  EXPECT_NE(Salt.find("optschema=9"), std::string::npos) << Salt;
  EXPECT_EQ(KSnap.find("smltc-0.9.0"), std::string::npos);
}

// Computing a key never builds the prelude snapshot, so `smltcc
// --connect` and the router hash a job without elaborating the prelude.
// The threadsafe death-test style re-executes the test binary, so the
// child is a fresh process in which no earlier test built the snapshot.
TEST(PreludeDifferential, KeyingBuildsNoSnapshot) {
  std::string Style = ::testing::GTEST_FLAG(death_test_style);
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        std::string Key = canonicalJobKey("fun main () = 1",
                                          CompilerOptions::ffb(), true);
        uint64_t Builds =
            preludeStats().SnapshotBuilds.load(std::memory_order_relaxed);
        std::exit(!Key.empty() && Builds == 0 ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  ::testing::GTEST_FLAG(death_test_style) = Style;
}

// Entries written under the old key layout miss cleanly: a lookup against
// a cache seeded through a stale key must recompile, not crash or serve
// the stale blob.
TEST(PreludeDifferential, StaleSchemaEntriesMissCleanly) {
  CompileCache Cache;
  std::string Src = "fun main () = 2 + 2";
  CompilerOptions Opts = CompilerOptions::ffb();
  std::shared_ptr<CompileOutput> Out = std::make_shared<CompileOutput>(
      Compiler::compile(Src, Opts, true));
  ASSERT_TRUE(Out->Ok);
  // Simulate an old-schema entry: same hash bucket semantics, different
  // canonical key (old layouts never collide because the salt differs,
  // so insert under a perturbed key and look up under the real one).
  CompilerOptions OldOpts = withMode(Opts, PreludeMode::Inline);
  Cache.insert(Src, OldOpts, true, Out);
  EXPECT_EQ(Cache.lookup(Src, Opts, true), nullptr);
  // The well-formed key round-trips.
  Cache.insert(Src, Opts, true, Out);
  EXPECT_NE(Cache.lookup(Src, Opts, true), nullptr);
}

// The snapshot reports its one-time construction accounting.
TEST(PreludeDifferential, SnapshotAccounting) {
  const PreludeSnapshot *S = PreludeSnapshot::get();
  ASSERT_NE(S, nullptr) << "snapshot failed its freeze verification";
  EXPECT_GT(S->buildSeconds(), 0.0);
  EXPECT_EQ(preludeStats().SnapshotBuilds.load(std::memory_order_relaxed), 1u);
  // Both layers share one interner and expose usable seeds.
  EXPECT_NE(S->layer(false).Seed.BaseEnv, nullptr);
  EXPECT_NE(S->layer(true).Seed.BaseEnv, nullptr);
  EXPECT_NE(&S->layer(false), &S->layer(true));
  // The MTD layer recorded the prelude's own MTD work; the plain layer
  // must not have any.
  EXPECT_EQ(S->layer(false).Mtd.VarsGrounded, 0u);
  // A compile served by the snapshot reports the hit and (near-)zero
  // acquisition cost relative to a full prelude elaboration.
  CompileOutput C = Compiler::compile("fun main () = 3", CompilerOptions::ffb());
  ASSERT_TRUE(C.Ok);
  EXPECT_TRUE(C.Metrics.PreludeSnapshotHit);
  EXPECT_GE(C.Metrics.PreludeElabSec, 0.0);
}
