//===- tests/test_vm_engine.cpp - Dispatch loop, nursery GC, metrics -------------===//
//
// The dispatch loop's results and cost-model counters are pinned per
// corpus row in tests/corpus_counts.tsv (CorpusCounts.MatchPinnedFile);
// these tests cover load-time validation, the decoder, the heap and the
// metrics. The nursery must be invisible to the program: any nursery
// size may change GC cycles but never results or retired instructions.
//
//===----------------------------------------------------------------------===//

#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "vm/Decode.h"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

using namespace smltc;

namespace {

ExecResult runWith(const TmProgram &P, size_t NurseryKb,
                   bool UnalignedFloats, bool Profile = false) {
  VmOptions V;
  V.NurseryKb = NurseryKb;
  V.UnalignedFloats = UnalignedFloats;
  V.ProfileOpcodes = Profile;
  return execute(P, V);
}

} // namespace

//===----------------------------------------------------------------------===//
// Nursery
//===----------------------------------------------------------------------===//

TEST(VmEngine, NurseryIsInvisibleToPrograms) {
  // A tiny nursery forces many minor collections and promotions; results
  // and retired instructions must not change (GC cycles may).
  size_t SawMinors = 0;
  for (const BenchmarkProgram &B : benchmarkCorpus()) {
    CompileOutput C = Compiler::compile(B.Source, CompilerOptions::ffb());
    ASSERT_TRUE(C.Ok) << B.Name;
    ExecResult Plain = runWith(C.Program, 0, true);
    ExecResult Tiny = runWith(C.Program, 8, true);
    ASSERT_TRUE(Plain.Ok) << B.Name << ": " << Plain.TrapMessage;
    ASSERT_TRUE(Tiny.Ok) << B.Name << ": " << Tiny.TrapMessage;
    EXPECT_EQ(Tiny.Result, B.ExpectedResult) << B.Name;
    EXPECT_EQ(Tiny.Result, Plain.Result) << B.Name;
    EXPECT_EQ(Tiny.Output, Plain.Output) << B.Name;
    EXPECT_EQ(Tiny.Instructions, Plain.Instructions) << B.Name;
    EXPECT_EQ(Plain.Metrics.MinorCollections, 0u) << B.Name;
    SawMinors += Tiny.Metrics.MinorCollections;
  }
  EXPECT_GT(SawMinors, 0u) << "tiny nursery never minor-collected";
}

//===----------------------------------------------------------------------===//
// Static validation: traps instead of silent misbehavior
//===----------------------------------------------------------------------===//

TEST(VmEngine, FloatUnsignedCompareTraps) {
  // The seed silently degraded BrF+Ult to a signed compare.
  TmProgram P;
  TmFunction F;
  Insn B{TmOp::BrF};
  B.Rs1 = 0;
  B.Rs2 = 1;
  B.Cond = TmCond::Ult;
  B.Imm = 2;
  F.Code.push_back(B);
  Insn H{TmOp::HaltOp};
  F.Code.push_back(H);
  F.Code.push_back(H);
  P.Funs.push_back(F);
  ExecResult R = runWith(P, 0, true);
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("unsigned"), std::string::npos)
      << R.TrapMessage;
}

TEST(VmEngine, OutOfRangeRegisterTraps) {
  // The seed's 64-entry float file let f64+ writes silently corrupt the
  // argument buffer (Nucleic under sml.nrp reaches f79); registers are
  // now validated at load time.
  TmProgram P;
  TmFunction F;
  Insn M{TmOp::MovFI};
  M.Rd = 300; // past even the enlarged file
  M.FVal = 1.0;
  F.Code.push_back(M);
  Insn H{TmOp::HaltOp};
  F.Code.push_back(H);
  P.Funs.push_back(F);
  ExecResult R = runWith(P, 0, true);
  EXPECT_TRUE(R.Trapped);
  EXPECT_NE(R.TrapMessage.find("register"), std::string::npos)
      << R.TrapMessage;
  EXPECT_EQ(R.Instructions, 0u); // rejected before execution
}

TEST(VmEngine, HighFloatRegistersWork) {
  // Regression for the seed overflow: f100 must be a real register.
  TmProgram P;
  TmFunction F;
  Insn M{TmOp::MovFI};
  M.Rd = 100;
  M.FVal = 2.5;
  F.Code.push_back(M);
  Insn Fl{TmOp::Floor};
  Fl.Rd = 2;
  Fl.Rs1 = 100;
  F.Code.push_back(Fl);
  Insn H{TmOp::HaltOp};
  H.Rs1 = 2;
  F.Code.push_back(H);
  P.Funs.push_back(F);
  ExecResult R = runWith(P, 0, true);
  ASSERT_TRUE(R.Ok) << R.TrapMessage;
  EXPECT_EQ(R.Result, 2);
}

//===----------------------------------------------------------------------===//
// Decoder
//===----------------------------------------------------------------------===//

TEST(VmEngine, DecoderFusesCostsAndPadsFunctions) {
  TmProgram P;
  TmFunction F;
  Insn M{TmOp::MovI};
  M.Rd = 40; // past the fast file: +2 spill surcharge
  M.IVal = 7;
  F.Code.push_back(M);
  Insn J{TmOp::Jmp};
  J.Imm = 99; // out of range: must clamp to the TrapEnd pad
  F.Code.push_back(J);
  P.Funs.push_back(F);
  DecodedProgram DP = decodeProgram(P, true);
  ASSERT_EQ(DP.Funs.size(), 1u);
  ASSERT_EQ(DP.Funs[0].Code.size(), 3u); // 2 insns + TrapEnd pad
  EXPECT_EQ(DP.Funs[0].Code[0].Op, DOp::MovI);
  EXPECT_EQ(DP.Funs[0].Code[0].Cost, 3u); // 1 + spill 2
  EXPECT_EQ(static_cast<Word>(DP.Funs[0].Code[0].IVal), tagInt(7));
  EXPECT_EQ(DP.Funs[0].Code[1].Imm, 2); // clamped to the pad index
  EXPECT_EQ(DP.Funs[0].Code[2].Op, DOp::TrapEnd);
  EXPECT_EQ(DP.Funs[0].NumRegsUsed, 41);
}

//===----------------------------------------------------------------------===//
// Heap: growth, minimum object size, write barrier
//===----------------------------------------------------------------------===//

TEST(VmEngine, HeapGrowsForHugeObjects) {
  Heap H(256);
  Word Roots[1] = {tagInt(0)};
  H.addRootRange(Roots, 1);
  // Far larger than the initial semispace: must grow, not crash.
  size_t At = H.allocRaw(5000);
  H.at(At) = makeDesc(ObjKind::Array, 0, 5000);
  for (size_t I = 0; I < 5000; ++I)
    H.at(At + 1 + I) = tagInt(static_cast<int64_t>(I));
  Roots[0] = makePointer(At);
  // Allocate enough to force a collection of the grown heap.
  for (int I = 0; I < 2000; ++I) {
    size_t T = H.allocRaw(2);
    H.at(T) = makeDesc(ObjKind::Record, 0, 2);
    H.at(T + 1) = tagInt(1);
    H.at(T + 2) = tagInt(2);
  }
  size_t NewAt = pointerIndex(Roots[0]);
  for (size_t I = 0; I < 5000; I += 611)
    EXPECT_EQ(untagInt(H.at(NewAt + 1 + I)), static_cast<int64_t>(I));
  EXPECT_GE(H.semiWords(), 5000u);
}

namespace {

/// Pages of [Base, Base + Bytes) the kernel reports resident (mincore).
size_t residentPages(const void *Base, size_t Bytes) {
  const uintptr_t Page = static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
  uintptr_t Lo = reinterpret_cast<uintptr_t>(Base) & ~(Page - 1);
  uintptr_t Hi = reinterpret_cast<uintptr_t>(Base) + Bytes;
  std::vector<unsigned char> Vec((Hi - Lo + Page - 1) / Page);
  if (::mincore(reinterpret_cast<void *>(Lo), Hi - Lo, Vec.data()) != 0)
    return SIZE_MAX;
  size_t N = 0;
  for (unsigned char C : Vec)
    N += C & 1;
  return N;
}

} // namespace

TEST(VmEngine, HeapCommitsOnlyTouchedPages) {
  // An 8 MiB semispace behind a 256 KiB nursery: a run pays for the
  // pages it writes, not for the configured size.
  Heap H(1 << 20, 1 << 15);
  const size_t Bytes = H.semiWords() * sizeof(Word);
  const size_t Pages = Bytes / static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  EXPECT_EQ(residentPages(H.majorData(), Bytes), 0u);

  // Churn small records through the nursery, keeping every 100th alive
  // on a list so each minor GC promotes a little.
  Word Roots[1] = {tagInt(0)};
  H.addRootRange(Roots, 1);
  for (int I = 0; I < 100000; ++I) {
    size_t T = H.allocRaw(3);
    H.at(T) = makeDesc(ObjKind::Record, 0, 3);
    H.at(T + 1) = tagInt(I);
    H.at(T + 2) = tagInt(0);
    H.at(T + 3) = Roots[0];
    if (I % 100 == 0)
      Roots[0] = makePointer(T);
  }
  EXPECT_EQ(H.stats().MinorCollections, 12u);
  EXPECT_EQ(H.stats().MajorCollections, 0u);
  EXPECT_GT(H.stats().PromotedWords, 0u);
  // Promotion touched a few pages at the bottom of the space. The bound
  // is loose so that transparent huge pages cannot trip it; committing
  // the whole space fails it.
  size_t Resident = residentPages(H.majorData(), Bytes);
  EXPECT_GE(Resident, 1u);
  EXPECT_LE(Resident, Pages / 2);
}

TEST(VmEngine, EmptyObjectsSurviveCollection) {
  // Seed bug: a descriptor-only object (empty string) occupied one word,
  // and the collector's two-word forwarding pair clobbered its neighbor.
  Heap H(512);
  Word Roots[3] = {tagInt(0), tagInt(0), tagInt(0)};
  H.addRootRange(Roots, 3);
  size_t Empty = H.allocRaw(0);
  H.at(Empty) = makeDesc(ObjKind::Bytes, 0, 0);
  size_t Neighbor = H.allocRaw(1);
  H.at(Neighbor) = makeDesc(ObjKind::Cell, 0, 1);
  H.at(Neighbor + 1) = tagInt(4242);
  size_t Empty2 = H.allocRaw(0);
  H.at(Empty2) = makeDesc(ObjKind::Record, 0, 0);
  Roots[0] = makePointer(Empty);
  Roots[1] = makePointer(Neighbor);
  Roots[2] = makePointer(Empty2);
  // Churn until several collections have happened.
  while (H.collections() < 3) {
    size_t T = H.allocRaw(8);
    H.at(T) = makeDesc(ObjKind::Record, 0, 8);
    for (int I = 1; I <= 8; ++I)
      H.at(T + I) = tagInt(0);
  }
  EXPECT_EQ(descKind(H.at(pointerIndex(Roots[0]))), ObjKind::Bytes);
  EXPECT_EQ(descLen1(H.at(pointerIndex(Roots[0]))), 0u);
  EXPECT_EQ(untagInt(H.at(pointerIndex(Roots[1]) + 1)), 4242);
  EXPECT_EQ(descKind(H.at(pointerIndex(Roots[2]))), ObjKind::Record);
}

TEST(VmEngine, WriteBarrierKeepsOldToYoungPointersAlive) {
  Heap H(1 << 14, 512); // 512-word nursery
  Word Roots[1] = {tagInt(0)};
  H.addRootRange(Roots, 1);
  // An old-space cell: too big for the nursery path is easiest, so
  // allocate past the nursery's small-object threshold.
  size_t Old = H.allocRaw(200);
  H.at(Old) = makeDesc(ObjKind::Array, 0, 200);
  for (int I = 1; I <= 200; ++I)
    H.at(Old + I) = tagInt(0);
  Roots[0] = makePointer(Old);
  ASSERT_FALSE(H.inNursery(Old));
  // A young object referenced ONLY through the old object's slot.
  size_t Young = H.allocRaw(1);
  ASSERT_TRUE(H.inNursery(Young));
  H.at(Young) = makeDesc(ObjKind::Cell, 0, 1);
  H.at(Young + 1) = tagInt(777);
  H.storeField(Old + 1, makePointer(Young));
  EXPECT_GT(H.stats().BarrierStores, 0u);
  // Fill the nursery to force a minor collection.
  while (H.stats().MinorCollections == 0) {
    size_t T = H.allocRaw(2);
    H.at(T) = makeDesc(ObjKind::Record, 0, 2);
    H.at(T + 1) = tagInt(0);
    H.at(T + 2) = tagInt(0);
  }
  // The young cell must have been promoted, and the old slot updated.
  Word Slot = H.at(pointerIndex(Roots[0]) + 1);
  ASSERT_TRUE(isPointer(Slot));
  EXPECT_FALSE(H.inNursery(pointerIndex(Slot)));
  EXPECT_EQ(untagInt(H.at(pointerIndex(Slot) + 1)), 777);
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(VmEngine, MetricsAndOpcodeProfileArePopulated) {
  const BenchmarkProgram *B = findBenchmark("Life");
  ASSERT_NE(B, nullptr);
  CompileOutput C = Compiler::compile(B->Source, CompilerOptions::ffb());
  ASSERT_TRUE(C.Ok);
  ExecResult R =
      runWith(C.Program, 8, true, /*Profile=*/true);
  ASSERT_TRUE(R.Ok) << R.TrapMessage;
  const VmMetrics &M = R.Metrics;
  EXPECT_EQ(M.Instructions, R.Instructions);
  EXPECT_GT(M.Instructions, 0u);
  EXPECT_GT(M.MinorCollections, 0u);
  EXPECT_GT(M.PromotedWords, 0u);
  ASSERT_TRUE(M.HasOpCounts);
  uint64_t Sum = 0;
  for (int I = 0; I < NumDOps; ++I)
    Sum += M.OpCounts[I];
  EXPECT_EQ(Sum, M.Instructions);
  std::string J = M.toJson();
  EXPECT_NE(J.find("\"dispatch\""), std::string::npos);
  EXPECT_NE(J.find("\"minor_collections\""), std::string::npos);
  EXPECT_NE(J.find("\"promoted_words\""), std::string::npos);
  EXPECT_NE(J.find("\"op_counts\""), std::string::npos);
}
