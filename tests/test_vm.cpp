//===- tests/test_vm.cpp - Heap, GC, and VM runtime tests -------------------------===//

#include "closure/Spill.h"
#include "corpus/Corpus.h"
#include "driver/Compiler.h"
#include "vm/Heap.h"

#include <gtest/gtest.h>

using namespace smltc;

//===----------------------------------------------------------------------===//
// Tagging and descriptors
//===----------------------------------------------------------------------===//

TEST(Heap, TaggingRoundTrips) {
  for (int64_t V : {0ll, 1ll, -1ll, 42ll, -123456789ll, (1ll << 40)}) {
    Word W = tagInt(V);
    EXPECT_TRUE(isTaggedInt(W));
    EXPECT_FALSE(isPointer(W));
    EXPECT_EQ(untagInt(W), V);
  }
  Word P = makePointer(123);
  EXPECT_TRUE(isPointer(P));
  EXPECT_FALSE(isTaggedInt(P));
  EXPECT_EQ(pointerIndex(P), 123u);
}

TEST(Heap, DescriptorRoundTrips) {
  Word D = makeDesc(ObjKind::Record, 3, 7);
  EXPECT_EQ(descKind(D), ObjKind::Record);
  EXPECT_EQ(descLen1(D), 3u);
  EXPECT_EQ(descLen2(D), 7u);
  EXPECT_EQ(Heap::objectWords(D), 1u + 3 + 7);
  EXPECT_EQ(Heap::objectWords(makeDesc(ObjKind::Bytes, 13, 0)),
            1u + 2); // 13 bytes -> 2 payload words
  EXPECT_EQ(Heap::objectWords(makeDesc(ObjKind::Cell, 0, 1)), 2u);
}

TEST(Heap, AllocatesAndReads) {
  Heap H(1024);
  size_t At = H.allocRaw(2);
  H.at(At) = makeDesc(ObjKind::Record, 0, 2);
  H.at(At + 1) = tagInt(11);
  H.at(At + 2) = tagInt(22);
  EXPECT_EQ(untagInt(H.at(At + 1)), 11);
  EXPECT_EQ(untagInt(H.at(At + 2)), 22);
}

TEST(Heap, CollectsAndPreservesLiveGraph) {
  Heap H(256);
  Word Roots[2] = {tagInt(0), tagInt(0)};
  H.addRootRange(Roots, 2);

  // A live pair pointing to a live cell.
  size_t Cell = H.allocRaw(1);
  H.at(Cell) = makeDesc(ObjKind::Cell, 0, 1);
  H.at(Cell + 1) = tagInt(77);
  size_t Pair = H.allocRaw(2);
  H.at(Pair) = makeDesc(ObjKind::Record, 0, 2);
  H.at(Pair + 1) = makePointer(Cell);
  H.at(Pair + 2) = tagInt(5);
  Roots[0] = makePointer(Pair);

  // Allocate garbage until a collection happens.
  uint64_t Before = H.collections();
  for (int I = 0; I < 200; ++I) {
    size_t G = H.allocRaw(8);
    H.at(G) = makeDesc(ObjKind::Record, 0, 8);
    for (int J = 1; J <= 8; ++J)
      H.at(G + J) = tagInt(J);
  }
  EXPECT_GT(H.collections(), Before);

  // The live graph survived, through the updated root.
  ASSERT_TRUE(isPointer(Roots[0]));
  size_t NewPair = pointerIndex(Roots[0]);
  EXPECT_EQ(descKind(H.at(NewPair)), ObjKind::Record);
  EXPECT_EQ(untagInt(H.at(NewPair + 2)), 5);
  Word CellPtr = H.at(NewPair + 1);
  ASSERT_TRUE(isPointer(CellPtr));
  EXPECT_EQ(untagInt(H.at(pointerIndex(CellPtr) + 1)), 77);
}

TEST(Heap, SharedObjectsStaySharedAcrossGc) {
  Heap H(256);
  Word Roots[2] = {tagInt(0), tagInt(0)};
  H.addRootRange(Roots, 2);
  size_t Cell = H.allocRaw(1);
  H.at(Cell) = makeDesc(ObjKind::Cell, 0, 1);
  H.at(Cell + 1) = tagInt(1);
  Roots[0] = makePointer(Cell);
  Roots[1] = makePointer(Cell);
  for (int I = 0; I < 300; ++I)
    H.allocRaw(4);
  // Both roots must point at the *same* copied object (mutation through
  // one alias stays visible through the other).
  EXPECT_EQ(Roots[0], Roots[1]);
}

//===----------------------------------------------------------------------===//
// End-to-end VM behaviour
//===----------------------------------------------------------------------===//

namespace {

ExecResult runML(const std::string &Src,
                 VmOptions V = VmOptions(),
                 CompilerOptions O = CompilerOptions::ffb()) {
  CompileOutput C = Compiler::compile(Src, O);
  EXPECT_TRUE(C.Ok) << C.Errors;
  if (!C.Ok)
    return ExecResult();
  return execute(C.Program, V);
}

} // namespace

TEST(Vm, GcUnderPressurePreservesResults) {
  // Allocate far more than the (tiny) semispace; the program result must
  // still be correct and collections must have happened.
  VmOptions V;
  V.HeapSemiWords = 1 << 12; // 4K words
  ExecResult R = runML(
      "fun build (0, acc) = acc "
      "  | build (n, acc) = build (n - 1, (n, n * 2) :: acc) "
      "fun total l = foldl (fn ((a, b), s) => s + a + b) 0 l "
      "fun spin (0, s) = s "
      "  | spin (k, s) = spin (k - 1, s + total (build (100, nil))) "
      "fun main () = spin (50, 0)",
      V);
  ASSERT_TRUE(R.Ok) << R.TrapMessage;
  EXPECT_EQ(R.Result, 50 * (100 * 101 / 2) * 3);
  EXPECT_GT(R.Collections, 0u);
}

TEST(Vm, GcPreservesFloatsAndStrings) {
  VmOptions V;
  V.HeapSemiWords = 1 << 12;
  ExecResult R = runML(
      "fun build (0, acc) = acc "
      "  | build (n, acc) = build (n - 1, (real n, itos n) :: acc) "
      "fun check l = foldl (fn ((x, s), a : real) => "
      "                       a + x + real (size s)) 0.0 l "
      "fun spin (0, a : real) = a "
      "  | spin (k, a) = spin (k - 1, a + check (build (60, nil))) "
      "fun main () = floor (spin (40, 0.0))",
      V);
  ASSERT_TRUE(R.Ok) << R.TrapMessage;
  EXPECT_GT(R.Collections, 0u);
  // sum over n=1..60 of (n + digits(n)): 1830 + (9*1 + 51*2) = 1941
  EXPECT_EQ(R.Result, 40 * 1941);
}

TEST(Vm, CycleBudgetTrapsInfiniteLoops) {
  VmOptions V;
  V.MaxCycles = 100000;
  ExecResult R = runML("fun loop () : int = loop () "
                       "fun main () = loop ()",
                       V);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Trapped);
}

TEST(Vm, UncaughtExceptionReported) {
  ExecResult R = runML("exception Boom fun main () = raise Boom");
  ASSERT_TRUE(R.Ok);
  EXPECT_TRUE(R.UncaughtException);
}

TEST(Vm, RuntimeTrapsRaiseCatchableExceptions) {
  EXPECT_EQ(runML("fun main () = (5 div 0) handle Div => 1").Result, 1);
  EXPECT_EQ(runML("fun main () = (5 mod 0) handle Div => 2").Result, 2);
  EXPECT_EQ(runML("fun main () = let val a = array (2, 0) in "
                  "asub (a, 5) handle Subscript => 3 end")
                .Result,
            3);
  EXPECT_EQ(runML("fun main () = let val a = array (2, 0) in "
                  "(aupdate (a, 0 - 1, 9); 0) handle Subscript => 4 end")
                .Result,
            4);
  EXPECT_EQ(runML("fun main () = (array (0 - 5, 0); 0) "
                  "handle Size => 5")
                .Result,
            5);
  EXPECT_EQ(runML("fun main () = (chr 999; 0) handle Chr => 6").Result,
            6);
  EXPECT_EQ(
      runML("fun main () = (substring (\"abc\", 1, 9); 0) "
            "handle Subscript => 7")
          .Result,
      7);
}

TEST(Vm, DivisionRoundsTowardNegativeInfinity) {
  // SML div/mod semantics.
  EXPECT_EQ(runML("fun main () = (0 - 7) div 2").Result, -4);
  EXPECT_EQ(runML("fun main () = (0 - 7) mod 2").Result, 1);
  EXPECT_EQ(runML("fun main () = 7 div (0 - 2)").Result, -4);
  EXPECT_EQ(runML("fun main () = 7 mod (0 - 2)").Result, -1);
}

TEST(Vm, PolymorphicEqualityOnDeepStructures) {
  const char *Src =
      "fun dup 0 = nil | dup n = (n, [n, n + 1]) :: dup (n - 1) "
      "fun eqAt (l1 : (int * int list) list, l2) = l1 = l2 "
      "fun main () = "
      "  (if eqAt (dup 30, dup 30) then 1 else 0) + "
      "  (if eqAt (dup 30, dup 29) then 10 else 20)";
  EXPECT_EQ(runML(Src).Result, 21);
}

TEST(Vm, StringRuntimeBehaviour) {
  EXPECT_EQ(runML("fun main () = strcmp (\"abc\", \"abd\")").Result, -1);
  EXPECT_EQ(runML("fun main () = strcmp (\"abc\", \"ab\")").Result, 1);
  EXPECT_EQ(runML("fun main () = strcmp (\"\", \"\")").Result, 0);
  EXPECT_EQ(runML("fun main () = ord (chr 65)").Result, 65);
  EXPECT_EQ(runML("fun main () = size (rtos 1.5)").Result, 3);
  ExecResult R = runML("fun main () = (print (itos (0 - 12)); 0)");
  EXPECT_EQ(R.Output, "-12");
}

TEST(Vm, CallccAcrossFrames) {
  // Escape from a deep recursion via a captured continuation.
  const char *Src =
      "fun main () = callcc (fn k => "
      "  let fun go n = if n = 5 then throw k 100 + n else go (n + 1) "
      "  in go 0 end)";
  EXPECT_EQ(runML(Src).Result, 100);
}

TEST(Vm, HandlerRestoredAfterHandledException) {
  const char *Src =
      "exception A exception B "
      "fun main () = "
      "  let val x = (raise A) handle A => 1 "
      "      val y = (raise B) handle B => 2 "
      "  in x * 10 + y end";
  EXPECT_EQ(runML(Src).Result, 12);
}

TEST(Vm, NestedHandlersUnwindInOrder) {
  const char *Src =
      "exception E of int "
      "fun main () = "
      "  ((raise E 1) handle E 2 => 99) handle E n => n * 7";
  EXPECT_EQ(runML(Src).Result, 7);
}

//===----------------------------------------------------------------------===//
// Register pressure stays inside the model's fast file
//===----------------------------------------------------------------------===//

TEST(Spill, CorpusStaysWithinRegisterBudget) {
  // The VM charges for pressure over 32; the corpus should mostly fit
  // (the paper's spill phase guarantees it on real hardware).
  for (const BenchmarkProgram &Bm : benchmarkCorpus()) {
    CompileOutput C =
        Compiler::compile(Bm.Source, CompilerOptions::ffb());
    ASSERT_TRUE(C.Ok) << Bm.Name;
    EXPECT_LT(C.Metrics.Codegen.MaxWordRegs, 64)
        << Bm.Name << " has extreme register pressure";
  }
}
