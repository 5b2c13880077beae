//===- tests/test_native.cpp - Native backend differential oracle -----------------===//
//
// The native backend is held to the interpreter's bar: bit-identical
// observable state — result, output, exception flag, retired
// instructions, cycles, allocation statistics, GC copy counts — across
// the whole 12x6 corpus, with the interpreter as the oracle. Programs
// containing decoder trap paths (fall-off-the-end pads, statically
// invalid instructions) are refused at native build time and must keep
// trapping through the interpreter.
//
// Every native test skips when no C compiler is reachable (the backend
// is an optional capability, probed once per process).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "native/NativeBackend.h"
#include "native/NativeEmit.h"
#include "vm/Decode.h"
#include "vm/Heap.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <thread>

using namespace smltc;
using testutil::expectIdentical;
using testutil::FreshNativeCache;

namespace {

ExecResult runWith(const TmProgram &P, size_t NurseryKb,
                   bool UnalignedFloats) {
  VmOptions V;
  V.NurseryKb = NurseryKb;
  V.UnalignedFloats = UnalignedFloats;
  return execute(P, V);
}

bool runNative(const TmProgram &P, size_t NurseryKb, bool UnalignedFloats,
               ExecResult &Out, std::string &Err) {
  VmOptions V;
  V.NurseryKb = NurseryKb;
  V.UnalignedFloats = UnalignedFloats;
  return native::executeNative(P, V, Out, Err);
}

#define SKIP_WITHOUT_CC()                                                    \
  do {                                                                       \
    if (!native::nativeAvailable())                                          \
      GTEST_SKIP() << "no C compiler reachable; native backend untestable";  \
  } while (0)

} // namespace

//===----------------------------------------------------------------------===//
// Differential oracle: the full corpus, all six variants
//===----------------------------------------------------------------------===//

TEST(NativeBackend, BitIdenticalAcrossCorpusAndVariants) {
  SKIP_WITHOUT_CC();
  size_t NumVariants;
  const CompilerOptions *Variants = CompilerOptions::allVariants(NumVariants);
  for (const BenchmarkProgram &B : benchmarkCorpus()) {
    for (size_t V = 0; V < NumVariants; ++V) {
      CompileOutput C = Compiler::compile(B.Source, Variants[V]);
      ASSERT_TRUE(C.Ok) << B.Name << " " << Variants[V].VariantName;
      std::string Tag = std::string(B.Name) + " " + Variants[V].VariantName;

      ExecResult N;
      std::string Err;
      ASSERT_TRUE(runNative(C.Program, 256, true, N, Err)) << Tag << ": " << Err;
      ASSERT_TRUE(N.Ok) << Tag << ": " << N.TrapMessage;
      EXPECT_EQ(N.Result, B.ExpectedResult) << Tag;
      EXPECT_EQ(N.Metrics.Dispatch, std::string("native")) << Tag;

      ExecResult T = runWith(C.Program, 256, true);
      expectIdentical(T, N, Tag + " vs threaded");
    }
  }
}

TEST(NativeBackend, TinyNurseryForcesShadowStackScans) {
  // An 8 KiB nursery forces many minor collections whose only roots for
  // native word registers are the shadow frames; any scan or forwarding
  // bug diverges results or GC counters immediately.
  SKIP_WITHOUT_CC();
  size_t SawMinors = 0;
  for (const char *Name : {"Life", "Boyer", "KB-C"}) {
    const BenchmarkProgram *B = findBenchmark(Name);
    ASSERT_NE(B, nullptr) << Name;
    CompileOutput C = Compiler::compile(B->Source, CompilerOptions::ffb());
    ASSERT_TRUE(C.Ok) << Name;
    ExecResult N;
    std::string Err;
    ASSERT_TRUE(runNative(C.Program, 8, true, N, Err)) << Name << ": " << Err;
    ExecResult T = runWith(C.Program, 8, true);
    expectIdentical(T, N, std::string(Name) + " tiny nursery");
    SawMinors += N.Metrics.MinorCollections;
  }
  EXPECT_GT(SawMinors, 0u) << "test exercised no minor collections";
}

//===----------------------------------------------------------------------===//
// Decoder trap paths: trapped by the interpreter, refused natively
//===----------------------------------------------------------------------===//

namespace {

/// A function that falls off its end (the decoder's TrapEnd pad).
TmProgram fallOffEndProgram() {
  TmProgram P;
  TmFunction F;
  Insn M{TmOp::MovI};
  M.Rd = 1;
  M.IVal = 7;
  F.Code.push_back(M);
  P.Funs.push_back(F);
  return P;
}

/// BrF with an unsigned condition: statically invalid (TrapInvalid).
TmProgram floatUnsignedCompareProgram() {
  TmProgram P;
  TmFunction F;
  Insn B{TmOp::BrF};
  B.Rs1 = 0;
  B.Rs2 = 1;
  B.Cond = TmCond::Ult;
  B.Imm = 1;
  F.Code.push_back(B);
  Insn H{TmOp::HaltOp};
  F.Code.push_back(H);
  P.Funs.push_back(F);
  return P;
}

} // namespace

TEST(NativeBackend, TrapEndTrapsInterpretedRefusedNatively) {
  TmProgram P = fallOffEndProgram();
  ExecResult R = runWith(P, 0, true);
  ASSERT_TRUE(R.Trapped);
  EXPECT_EQ(R.TrapMessage, "fell off the end of a function");
  EXPECT_EQ(R.Instructions, 1u); // the MovI retired; the pad did not
  SKIP_WITHOUT_CC();
  ExecResult N;
  std::string Err;
  EXPECT_FALSE(runNative(P, 0, true, N, Err));
  EXPECT_NE(Err.find("fall through"), std::string::npos) << Err;
}

TEST(NativeBackend, TrapInvalidTrapsInterpretedRefusedNatively) {
  TmProgram P = floatUnsignedCompareProgram();
  ExecResult R = runWith(P, 0, true);
  ASSERT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("unsigned"), std::string::npos)
      << R.TrapMessage;
  SKIP_WITHOUT_CC();
  ExecResult N;
  std::string Err;
  EXPECT_FALSE(runNative(P, 0, true, N, Err));
  EXPECT_NE(Err.find("invalid"), std::string::npos) << Err;
}

TEST(NativeBackend, EmitterRefusesBranchToPad) {
  // A branch past the last instruction decodes to a clamped pad target;
  // the emitter must refuse rather than emit a reachable pad.
  TmProgram P;
  TmFunction F;
  Insn B{TmOp::Br};
  B.Rs1 = 0;
  B.Rs2 = 0;
  B.Cond = TmCond::Eq;
  B.Imm = 99; // far out of range: clamps to the pad
  F.Code.push_back(B);
  Insn H{TmOp::HaltOp};
  F.Code.push_back(H);
  P.Funs.push_back(F);

  std::string Src, Err;
  EXPECT_FALSE(native::emitNativeC(P, true, Src, Err));
  EXPECT_NE(Err.find("pad"), std::string::npos) << Err;
}

TEST(NativeBackend, EmitterAcceptsMinimalHaltProgram) {
  TmProgram P;
  TmFunction F;
  Insn M{TmOp::MovI};
  M.Rd = 1;
  M.IVal = 21;
  F.Code.push_back(M);
  Insn H{TmOp::HaltOp};
  H.Rs1 = 1;
  F.Code.push_back(H);
  P.Funs.push_back(F);

  std::string Src, Err;
  ASSERT_TRUE(native::emitNativeC(P, true, Src, Err)) << Err;
  EXPECT_NE(Src.find("smltc_native_entry_v1"), std::string::npos);

  SKIP_WITHOUT_CC();
  ExecResult N;
  ASSERT_TRUE(runNative(P, 0, true, N, Err)) << Err;
  EXPECT_TRUE(N.Ok) << N.TrapMessage;
  EXPECT_EQ(N.Result, 21);
  ExecResult T = runWith(P, 0, true);
  expectIdentical(T, N, "minimal halt");
}

//===----------------------------------------------------------------------===//
// Functions no compiled label names
//===----------------------------------------------------------------------===//

namespace {

Insn insn(TmOp Op, Reg Rd = 0, Reg Rs1 = 0, Reg Rs2 = 0, int32_t Imm = 0,
          int64_t IVal = 0) {
  Insn I{Op};
  I.Rd = Rd;
  I.Rs1 = Rs1;
  I.Rs2 = Rs2;
  I.Imm = Imm;
  I.IVal = IVal;
  return I;
}

/// The entry reaches function 1 only through a label forged from an
/// integer (MovI 1; CallR), after allocating a record it passes along;
/// function 1 reads the record, prints and halts. Tag varies the printed
/// string, so each call builds a program the process has not seen.
TmProgram forgedLabelProgram(const std::string &Tag) {
  TmProgram P;
  P.StringPool = {"forged " + Tag + "\n"};
  TmFunction F0, F1;
  Insn Alloc = insn(TmOp::AllocStart, 0, /*NWords=*/1, /*NFloats=*/0);
  F0.Code = {Alloc,
             insn(TmOp::MovI, 2, 0, 0, 0, 20),
             insn(TmOp::AllocWord, 0, 2),
             insn(TmOp::AllocEnd, 3),
             insn(TmOp::SetArg, 0, 3, 0, 0),
             insn(TmOp::MovI, 1, 0, 0, 0, 1),
             insn(TmOp::CallR, 0, 1)};
  F1.NumWordParams = 1;
  Insn Print = insn(TmOp::CCallRt, 4);
  Print.Rt = CpsOp::RtPrint;
  F1.Code = {insn(TmOp::Load, 2, 1, 0, 0),
             insn(TmOp::LoadStr, 3, 0, 0, 0),
             insn(TmOp::SetArg, 0, 3, 0, 0),
             Print,
             insn(TmOp::MovI, 5, 0, 0, 0, 22),
             insn(TmOp::Add, 6, 2, 5),
             insn(TmOp::HaltOp, 0, 6)};
  P.Funs = {F0, F1};
  return P;
}

} // namespace

TEST(NativeBackend, UnreachableInvalidFunctionIsStillRefused) {
  // Refusal does not depend on reachability: a statically invalid
  // instruction in a function nothing names is still refused.
  TmProgram P = floatUnsignedCompareProgram();
  TmFunction Entry;
  Entry.Code = {insn(TmOp::MovI, 1, 0, 0, 0, 7), insn(TmOp::HaltOp, 0, 1)};
  P.Funs.insert(P.Funs.begin(), Entry);
  ExecResult T = runWith(P, 0, true);
  ASSERT_TRUE(T.Ok) << T.TrapMessage; // the interpreter never reaches it
  EXPECT_EQ(T.Result, 7);

  std::string Src, Err;
  EXPECT_FALSE(native::emitNativeC(P, true, Src, Err));
  EXPECT_NE(Err.find("fn 1"), std::string::npos) << Err;
  EXPECT_NE(Err.find("invalid"), std::string::npos) << Err;
  SKIP_WITHOUT_CC();
  ExecResult N;
  EXPECT_FALSE(runNative(P, 0, true, N, Err));
  EXPECT_NE(Err.find("invalid"), std::string::npos) << Err;
}

TEST(NativeBackend, ForgedLabelMatchesTheInterpreter) {
  // No label names function 1, yet the module holds it: a label forged
  // from an integer runs it exactly as the interpreter does, from the one
  // module built for the program.
  SKIP_WITHOUT_CC();
  static int Round = 0;
  TmProgram P = forgedLabelProgram(std::to_string(++Round));
  FreshNativeCache Cache;
  const native::NativeTotals &NT = native::nativeTotals();
  for (int Run = 0; Run < 2; ++Run) {
    const uint64_t Compiles0 = NT.Compiles.load();
    ExecResult N;
    std::string Err;
    ASSERT_TRUE(runNative(P, 0, true, N, Err)) << Err;
    EXPECT_EQ(NT.Compiles.load() - Compiles0, Run == 0 ? 1u : 0u)
        << "run " << Run;
    ASSERT_TRUE(N.Ok) << N.TrapMessage;
    EXPECT_EQ(N.Result, 42);
    EXPECT_EQ(N.Output, "forged " + std::to_string(Round) + "\n");
    expectIdentical(runWith(P, 0, true), N, "forged label");
  }
  EXPECT_EQ(Cache.files().size(), 1u) << "one module per program";
}

TEST(NativeBackend, ConcurrentColdBuildsOfOneProgram) {
  // Two threads build one program into an empty cache at once. Each
  // build writes its own C source and log and removes both, so the
  // directory ends with the module and nothing else.
  SKIP_WITHOUT_CC();
  static int Round = 0;
  const int K = ++Round;
  CompileOutput C = Compiler::compile(
      "fun main () = let fun f n = if n = 0 then 0 else n + f (n - 1) "
      "in f " + std::to_string(8 + K) + " end",
      CompilerOptions::ffb());
  ASSERT_TRUE(C.Ok) << C.Errors;
  ExecResult T = runWith(C.Program, 256, true);
  ASSERT_TRUE(T.Ok) << T.TrapMessage;

  FreshNativeCache Cache;
  ExecResult N[2];
  std::string Err[2];
  bool Ran[2] = {false, false};
  std::vector<std::thread> Threads;
  for (int I = 0; I < 2; ++I)
    Threads.emplace_back([&, I] {
      Ran[I] = runNative(C.Program, 256, true, N[I], Err[I]);
    });
  for (std::thread &Th : Threads)
    Th.join();
  for (int I = 0; I < 2; ++I) {
    ASSERT_TRUE(Ran[I]) << Err[I];
    expectIdentical(T, N[I], "thread " + std::to_string(I));
  }
  std::vector<std::string> Files = Cache.files();
  std::string Listing;
  for (const std::string &F : Files)
    Listing += " " + F;
  ASSERT_EQ(Files.size(), 1u) << "cache holds:" << Listing;
  EXPECT_EQ(std::filesystem::path(Files[0]).extension(), ".so") << Listing;
}

TEST(NativeBackend, RegisterValidationTrapsBeforeCompile) {
  // An out-of-range register must produce the same load-time trap as the
  // interpreter, before any instruction retires.
  TmProgram P;
  TmFunction F;
  Insn M{TmOp::MovFI};
  M.Rd = 300;
  M.FVal = 1.0;
  F.Code.push_back(M);
  Insn H{TmOp::HaltOp};
  F.Code.push_back(H);
  P.Funs.push_back(F);

  SKIP_WITHOUT_CC();
  ExecResult N;
  std::string Err;
  ASSERT_TRUE(runNative(P, 0, true, N, Err)) << Err;
  ExecResult T = runWith(P, 0, true);
  ASSERT_TRUE(N.Trapped);
  EXPECT_EQ(N.TrapMessage, T.TrapMessage);
  EXPECT_EQ(N.Instructions, 0u);
}

//===----------------------------------------------------------------------===//
// In-process module cache
//===----------------------------------------------------------------------===//

namespace {

struct TotalsSnapshot {
  uint64_t Compiles, MemHits, DiskHits, Refusals;
};

TotalsSnapshot totalsNow() {
  const native::NativeTotals &T = native::nativeTotals();
  return {T.Compiles.load(), T.MemHits.load(), T.DiskHits.load(),
          T.Refusals.load()};
}

} // namespace

TEST(NativeBackend, WarmRunIsAModuleCacheHit) {
  SKIP_WITHOUT_CC();
  const BenchmarkProgram *B = findBenchmark("Life");
  ASSERT_NE(B, nullptr);
  CompileOutput C = Compiler::compile(B->Source, CompilerOptions::ffb());
  ASSERT_TRUE(C.Ok);
  ExecResult First, Second;
  std::string Err;
  ASSERT_TRUE(runNative(C.Program, 256, true, First, Err)) << Err;
  TotalsSnapshot Before = totalsNow();
  ASSERT_TRUE(runNative(C.Program, 256, true, Second, Err)) << Err;
  TotalsSnapshot After = totalsNow();
  EXPECT_EQ(After.MemHits - Before.MemHits, 1u);
  EXPECT_EQ(After.Compiles - Before.Compiles, 0u);
  EXPECT_EQ(After.DiskHits - Before.DiskHits, 0u);
  EXPECT_EQ(Second.Result, B->ExpectedResult);
  expectIdentical(First, Second, "warm rerun");
}

TEST(NativeBackend, RefusalIsNeverCached) {
  // The cache is probed before emission; a refused program must miss
  // and be refused again on every call.
  SKIP_WITHOUT_CC();
  TmProgram P = fallOffEndProgram();
  for (int Call = 0; Call < 3; ++Call) {
    TotalsSnapshot Before = totalsNow();
    ExecResult N;
    std::string Err;
    EXPECT_FALSE(runNative(P, 0, true, N, Err)) << "call " << Call;
    TotalsSnapshot After = totalsNow();
    EXPECT_EQ(After.Refusals - Before.Refusals, 1u) << "call " << Call;
    EXPECT_EQ(After.MemHits - Before.MemHits, 0u) << "call " << Call;
    EXPECT_EQ(After.Compiles - Before.Compiles, 0u) << "call " << Call;
  }
}

//===----------------------------------------------------------------------===//
// Runtime limits shared by the interpreter and native code
//===----------------------------------------------------------------------===//

TEST(NativeBackend, ArrayPastDescriptorLengthRaisesSize) {
  // 2^28 elements do not fit the descriptor's 28-bit length field; the
  // request must raise Size instead of allocating n words that read back
  // as length n mod 2^28.
  CompileOutput C = Compiler::compile(
      "fun main () = (array (268435456, 0); 0) handle Size => 7",
      CompilerOptions::ffb());
  ASSERT_TRUE(C.Ok) << C.Errors;
  ExecResult T = runWith(C.Program, 256, true);
  ASSERT_TRUE(T.Ok) << T.TrapMessage;
  EXPECT_EQ(T.Result, 7);
  EXPECT_EQ(T.Collections, 0u);
  SKIP_WITHOUT_CC();
  ExecResult N;
  std::string Err;
  ASSERT_TRUE(runNative(C.Program, 256, true, N, Err)) << Err;
  expectIdentical(T, N, "native");
}

//===----------------------------------------------------------------------===//
// Shadow-stack root protocol (unit level, no C compiler needed)
//===----------------------------------------------------------------------===//

TEST(NativeBackend, ShadowFramesAreScannedAndUpdatedByGc) {
  Heap H(1 << 12, /*NurseryWords=*/512);
  // A live object in the nursery, referenced only from a shadow frame.
  size_t At = H.allocRaw(2);
  ASSERT_TRUE(H.inNursery(At));
  H.at(At) = makeDesc(ObjKind::Record, 0, 2);
  H.at(At + 1) = tagInt(41);
  H.at(At + 2) = tagInt(42);

  Word Frame[3] = {tagInt(5), makePointer(At), tagInt(6)};
  H.pushFrame(Frame, 3);

  // Fill the nursery so every allocation forces minor collections; the
  // frame's pointer must be forwarded each time and the payload survive.
  for (int I = 0; I < 2000; ++I)
    H.allocRaw(8);
  EXPECT_GT(H.stats().MinorCollections, 0u);

  EXPECT_EQ(Frame[0], tagInt(5));
  EXPECT_EQ(Frame[2], tagInt(6));
  ASSERT_TRUE(isPointer(Frame[1]));
  size_t Moved = pointerIndex(Frame[1]);
  EXPECT_NE(Moved, At) << "object should have been promoted";
  EXPECT_EQ(H.at(Moved + 1), tagInt(41));
  EXPECT_EQ(H.at(Moved + 2), tagInt(42));

  H.popFrame();
  EXPECT_EQ(H.shadowDepthNow(), 0u);
}

TEST(NativeBackend, InterpreterIgnoresShadowStack) {
  // The interpreter never pushes frames: a corpus run leaves depth 0.
  const BenchmarkProgram *B = findBenchmark("Life");
  ASSERT_NE(B, nullptr);
  CompileOutput C = Compiler::compile(B->Source, CompilerOptions::ffb());
  ASSERT_TRUE(C.Ok);
  ExecResult R = runWith(C.Program, 8, true);
  EXPECT_TRUE(R.Ok) << R.TrapMessage;
}
