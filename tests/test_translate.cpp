//===- tests/test_translate.cpp - Absyn -> LEXP translation tests ---------------===//

#include "TestUtil.h"
#include "driver/CompileCache.h"
#include "driver/Compiler.h"

#include <gtest/gtest.h>

using namespace smltc;
using testutil::ToLexp;

namespace {

/// Counts LEXP nodes of a given kind.
size_t countKind(const Lexp *E, Lexp::Kind K) {
  if (!E)
    return 0;
  size_t N = E->K == K ? 1 : 0;
  N += countKind(E->A1, K);
  N += countKind(E->A2, K);
  for (const Lexp *X : E->Elems)
    N += countKind(X, K);
  for (const FixDef &D : E->Defs)
    N += countKind(D.Body, K);
  for (const SwitchCase &C : E->Cases)
    N += countKind(C.Body, K);
  N += countKind(E->Default, K);
  return N;
}

size_t countPrim(const Lexp *E, PrimId P) {
  if (!E)
    return 0;
  size_t N = (E->K == Lexp::Kind::Prim && E->Prim == P) ? 1 : 0;
  N += countPrim(E->A1, P);
  N += countPrim(E->A2, P);
  for (const Lexp *X : E->Elems)
    N += countPrim(X, P);
  for (const FixDef &D : E->Defs)
    N += countPrim(D.Body, P);
  for (const SwitchCase &C : E->Cases)
    N += countPrim(C.Body, P);
  N += countPrim(E->Default, P);
  return N;
}

} // namespace

TEST(Translate, SimpleProgramChecks) {
  for (auto Mk : {CompilerOptions::nrp, CompilerOptions::fag,
                  CompilerOptions::rep, CompilerOptions::mtd,
                  CompilerOptions::ffb, CompilerOptions::fp3}) {
    ToLexp T("fun main () = 1 + 2 * 3", Mk());
    ASSERT_TRUE(T.ok()) << T.F.errors();
    LexpCheckResult R = T.check();
    EXPECT_TRUE(R.Ok) << R.Error;
  }
}

TEST(Translate, FloatCodeChecksInAllModes) {
  const char *Src =
      "fun hyp (x, y) = sqrt (x * x + y * y) "
      "fun main () = floor (hyp (3.0, 4.0))";
  for (auto Mk : {CompilerOptions::nrp, CompilerOptions::rep,
                  CompilerOptions::ffb}) {
    ToLexp T(Src, Mk());
    ASSERT_TRUE(T.ok()) << T.F.errors();
    LexpCheckResult R = T.check();
    EXPECT_TRUE(R.Ok) << R.Error;
  }
}

TEST(Translate, NrpWrapsFloatsMoreThanFfb) {
  // Under standard boxed representations every float intermediate is
  // wrapped; with unboxed floats the wraps disappear (paper Section 2).
  const char *Src = "fun f (x : real, y) = x * y + x "
                    "fun main () = floor (f (2.0, 3.0))";
  ToLexp Nrp(Src, CompilerOptions::nrp());
  ToLexp Ffb(Src, CompilerOptions::ffb());
  ASSERT_TRUE(Nrp.ok() && Ffb.ok());
  size_t NrpWraps = countKind(Nrp.Program, Lexp::Kind::Wrap) +
                    countKind(Nrp.Program, Lexp::Kind::Unwrap);
  size_t FfbWraps = countKind(Ffb.Program, Lexp::Kind::Wrap) +
                    countKind(Ffb.Program, Lexp::Kind::Unwrap);
  EXPECT_GT(NrpWraps, FfbWraps);
}

TEST(Translate, MonomorphicEqualityIsPrimitive) {
  ToLexp T("fun main () = if 3 = 4 then 1 else 0",
           CompilerOptions::ffb());
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(countPrim(T.Program, PrimId::IEq), 1u);
  EXPECT_EQ(countPrim(T.Program, PrimId::PolyEq), 0u);
}

TEST(Translate, PolymorphicEqualityIsRuntimeCall) {
  // member stays polymorphic (exported at top level), so its equality is
  // the slow runtime walk.
  ToLexp T("fun member (x, l) = case l of nil => false "
           "| y :: r => x = y orelse member (x, r) "
           "fun main () = if member (1, [1, 2]) then 1 else 0",
           CompilerOptions::rep());
  ASSERT_TRUE(T.ok()) << T.F.errors();
  EXPECT_GE(countPrim(T.Program, PrimId::PolyEq), 1u);
}

TEST(Translate, MtdTurnsPolyEqIntoFieldwiseCompare) {
  // The paper's Life anecdote: membership test in a local function, used
  // only at (int * int).
  const char *Src =
      "structure Main : sig val main : unit -> int end = struct "
      "  fun member (x, l) = case l of nil => false "
      "    | y :: r => x = y orelse member (x, r) "
      "  fun main () = if member ((1, 2), [(1, 2), (3, 4)]) "
      "                then 1 else 0 "
      "end";
  ToLexp NoMtd(Src, CompilerOptions::rep());
  ToLexp WithMtd(Src, CompilerOptions::mtd());
  ASSERT_TRUE(NoMtd.ok() && WithMtd.ok());
  EXPECT_GE(countPrim(NoMtd.Program, PrimId::PolyEq), 1u);
  EXPECT_EQ(countPrim(WithMtd.Program, PrimId::PolyEq), 0u);
  EXPECT_GE(countPrim(WithMtd.Program, PrimId::IEq), 2u);
}

TEST(Translate, DatatypesAndMatchCompile) {
  ToLexp T("datatype shape = Pt | Circle of real | Rect of real * real "
           "fun area s = case s of Pt => 0.0 "
           "  | Circle r => r * r | Rect (w, h) => w * h "
           "fun main () = floor (area (Rect (2.0, 3.0)))",
           CompilerOptions::ffb());
  ASSERT_TRUE(T.ok()) << T.F.errors();
  LexpCheckResult R = T.check();
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_GE(countKind(T.Program, Lexp::Kind::Switch), 1u);
  EXPECT_GE(countKind(T.Program, Lexp::Kind::Decon), 2u);
}

TEST(Translate, ModuleCoercionMemoization) {
  // Two identical module-level coercions share one function when memo-ing
  // is on (paper Section 4.5).
  const char *Src =
      "signature SIG = sig val f : int -> int val g : int -> int end "
      "structure A = struct fun f x = x fun g x = x val h = 1 end "
      "structure B : SIG = A "
      "structure C : SIG = A "
      "fun main () = B.f (C.g 1)";
  CompilerOptions WithMemo = CompilerOptions::ffb();
  ToLexp T1(Src, WithMemo);
  ASSERT_TRUE(T1.ok()) << T1.F.errors();
  EXPECT_TRUE(T1.check().Ok);

  CompilerOptions NoMemo = CompilerOptions::ffb();
  NoMemo.MemoCoercions = false;
  ToLexp T2(Src, NoMemo);
  ASSERT_TRUE(T2.ok());
  EXPECT_TRUE(T2.check().Ok);
}

TEST(Translate, FunctorApplicationCoercesResult) {
  const char *Src =
      "signature ORD = sig type t val le : t * t -> bool end "
      "functor MaxFn (O : ORD) = struct "
      "  fun max (a, b) = if O.le (a, b) then b else a end "
      "structure RealOrd = struct type t = real "
      "  fun le (a : real, b) = a <= b end "
      "structure M = MaxFn (RealOrd) "
      "fun main () = floor (M.max (1.0, 2.0))";
  for (auto Mk : {CompilerOptions::nrp, CompilerOptions::ffb}) {
    ToLexp T(Src, Mk());
    ASSERT_TRUE(T.ok()) << T.F.errors();
    LexpCheckResult R = T.check();
    EXPECT_TRUE(R.Ok) << R.Error;
  }
}

TEST(Translate, PolymorphicFunctionCoercion) {
  // The paper's introduction example: a real-typed function passed to a
  // polymorphic quad must be wrapped.
  const char *Src =
      "fun quad f x = f (f (f (f x))) "
      "fun h (x : real) = x * x "
      "fun main () = floor (quad h 1.05)";
  ToLexp T(Src, CompilerOptions::ffb());
  ASSERT_TRUE(T.ok()) << T.F.errors();
  LexpCheckResult R = T.check();
  EXPECT_TRUE(R.Ok) << R.Error;
  // h must be wrapped: an Fn coercion wrapper with float wrap/unwrap.
  EXPECT_GE(countKind(T.Program, Lexp::Kind::Wrap), 1u);
  EXPECT_GE(countKind(T.Program, Lexp::Kind::Unwrap), 1u);
}

TEST(Translate, ExceptionsTranslate) {
  ToLexp T("exception Neg of int "
           "fun f x = if x < 0 then raise Neg x else x "
           "fun main () = (f (0 - 1)) handle Neg n => 0 - n",
           CompilerOptions::ffb());
  ASSERT_TRUE(T.ok()) << T.F.errors();
  LexpCheckResult R = T.check();
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_GE(countPrim(T.Program, PrimId::MakeTag), 1u);
  EXPECT_GE(countKind(T.Program, Lexp::Kind::Handle), 1u);
}

TEST(Translate, StringsAndLiteralsCheck) {
  ToLexp T("fun greet name = \"hello \" ^ name "
           "fun main () = size (greet \"world\")",
           CompilerOptions::ffb());
  ASSERT_TRUE(T.ok()) << T.F.errors();
  EXPECT_TRUE(T.check().Ok);
}

TEST(Translate, NoHashConsStillCorrect) {
  CompilerOptions O = CompilerOptions::ffb();
  O.HashConsLty = false;
  ToLexp T("fun main () = let val p = (1.0, 2.0) in floor (#1 p) end", O);
  ASSERT_TRUE(T.ok()) << T.F.errors();
  EXPECT_TRUE(T.check().Ok);
}

//===----------------------------------------------------------------------===//
// Unused top-level functions are not translated
//===----------------------------------------------------------------------===//

namespace {

CompilerOptions inMode(CompilerOptions O, PreludeMode M) {
  O.Prelude = M;
  return O;
}

/// Compiles Src under every variant and both prelude modes, and runs each
/// program: every run returns Want, prints WantOut and raises nothing,
/// and the two modes emit the same program.
void expectRunsEverywhere(const std::string &Src, int64_t Want,
                          const std::string &WantOut = "") {
  size_t N;
  const CompilerOptions *Vs = CompilerOptions::allVariants(N);
  for (size_t I = 0; I < N; ++I) {
    std::string Bytes[2];
    for (PreludeMode M : {PreludeMode::Snapshot, PreludeMode::Inline}) {
      std::string Tag = std::string(Vs[I].VariantName) +
                        (M == PreludeMode::Inline ? " inline" : " snapshot");
      CompileOutput Out = Compiler::compile(Src, inMode(Vs[I], M));
      ASSERT_TRUE(Out.Ok) << Tag << ": " << Out.Errors;
      Bytes[M == PreludeMode::Inline] = programBytes(Out.Program);
      ExecResult R = execute(Out.Program, VmOptions());
      ASSERT_TRUE(R.Ok) << Tag << ": " << R.TrapMessage;
      EXPECT_FALSE(R.UncaughtException) << Tag;
      EXPECT_EQ(R.Result, Want) << Tag;
      EXPECT_EQ(R.Output, WantOut) << Tag;
    }
    EXPECT_EQ(Bytes[0], Bytes[1]) << Vs[I].VariantName;
  }
}

} // namespace

// A program that names no prelude function translates exactly what it
// would without the prelude, under either delivery of the prelude; an
// unused `val f = fn ...` goes the same way.
TEST(UnusedTopLevel, MainAloneTranslatesNoPrelude) {
  CompilerOptions O = CompilerOptions::ffb();
  CompileOutput Bare = Compiler::compile("fun main () = 0", O, false);
  ASSERT_TRUE(Bare.Ok) << Bare.Errors;
  for (PreludeMode M : {PreludeMode::Snapshot, PreludeMode::Inline}) {
    CompileOutput Out = Compiler::compile("fun main () = 0", inMode(O, M));
    ASSERT_TRUE(Out.Ok) << Out.Errors;
    EXPECT_EQ(Out.Metrics.LexpNodes, Bare.Metrics.LexpNodes);
    EXPECT_EQ(Out.Metrics.CpsNodesBeforeOpt, Bare.Metrics.CpsNodesBeforeOpt);
    EXPECT_EQ(programBytes(Out.Program), programBytes(Bare.Program));
  }
  CompileOutput Lambda = Compiler::compile(
      "val twice = fn x => x + x fun main () = 0", O, false);
  ASSERT_TRUE(Lambda.Ok) << Lambda.Errors;
  EXPECT_EQ(Lambda.Metrics.LexpNodes, Bare.Metrics.LexpNodes);

  ToLexp Used("fun f x = x + 1 fun main () = f 2", O);
  ToLexp Unused("fun f x = x + 1 fun main () = 2", O);
  ASSERT_TRUE(Used.ok() && Unused.ok());
  EXPECT_EQ(countKind(Used.Program, Lexp::Kind::Fix), 2u);
  EXPECT_EQ(countKind(Unused.Program, Lexp::Kind::Fix), 1u);
}

// A user function that shadows a prelude name does not keep the prelude's
// alive, and a use before the shadowing declaration still reaches the
// prelude's: liveness follows variables, not names.
TEST(UnusedTopLevel, ShadowingIsDecidedByIdentity) {
  expectRunsEverywhere("val n = length [1, 2] "
                       "fun length l = 7 "
                       "fun main () = n + length 0",
                       9);
  expectRunsEverywhere("fun lenOf l = length l "
                       "fun length (l : int list) = 100 "
                       "fun main () = lenOf [4, 5, 6] + length [1]",
                       103);
}

// A prelude function still runs when only a structure body, a functor
// body applied later, an exception handler or a top-level `val` with
// effects names it.
TEST(UnusedTopLevel, PreludeNamedOnlyFromModulesHandlersAndEffects) {
  expectRunsEverywhere(
      "structure S = struct "
      "  fun total l = foldl (fn (x, a) => x + a) 0 l end "
      "fun main () = S.total [1, 2, 3]",
      6);
  expectRunsEverywhere(
      "signature N = sig val n : int end "
      "functor Count (X : N) = struct "
      "  fun g () = length (rev (tabulate (X.n, fn i => i))) end "
      "structure Four = struct val n = 4 end "
      "structure C = Count (Four) "
      "fun main () = C.g ()",
      4);
  expectRunsEverywhere(
      "exception E of int "
      "fun main () = (raise E 4) handle E n => length (tabulate (n, fn i => i))",
      4);
  expectRunsEverywhere("val _ = print (itos (length (rev [1, 2, 3]))) "
                       "fun main () = 0",
                       0, "3");
}

// Declarations with effects or tags stay where they are, between unused
// functions.
TEST(UnusedTopLevel, EffectsAndExceptionsStayBetweenUnusedFunctions) {
  expectRunsEverywhere("fun u1 x = x + 1 "
                       "val _ = print \"a\" "
                       "fun u2 x = u1 x "
                       "exception Never of int "
                       "fun u3 x = if x then raise Never 1 else u2 2 "
                       "fun main () = 5",
                       5, "a");
}

// Elaboration runs before the unused functions are dropped, so a type
// error inside one is still reported.
TEST(UnusedTopLevel, TypeErrorInUnusedFunctionIsReported) {
  const std::string Src = "fun bad (f : int -> int) = f = f "
                          "fun main () = 0";
  for (PreludeMode M : {PreludeMode::Snapshot, PreludeMode::Inline}) {
    CompileOutput Out =
        Compiler::compile(Src, inMode(CompilerOptions::ffb(), M));
    EXPECT_FALSE(Out.Ok);
    EXPECT_FALSE(Out.Errors.empty());
  }
  CompileOutput Bare = Compiler::compile(Src, CompilerOptions::ffb(), false);
  EXPECT_FALSE(Bare.Ok);
}
