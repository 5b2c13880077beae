//===- tests/test_cpsopt.cpp - CPS optimizer unit tests ---------------------------===//

#include "TestUtil.h"
#include "corpus/Corpus.h"
#include "cps/Cps.h"
#include "cps/CpsCheck.h"
#include "cps/CpsOpt.h"
#include "driver/CompileCache.h"
#include "driver/Compiler.h"
#include "driver/Options.h"
#include "support/Arena.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace smltc;

namespace {

/// Optimizes a hand-built CPS program and checks the result.
struct CpsOptFixture : ::testing::Test {
  Arena A;
  CpsBuilder B{A};
  CpsOptStats Stats;

  Cexp *optimize(Cexp *E, CompilerOptions O = CompilerOptions::ffb()) {
    CVar MaxVar = B.maxVar();
    Cexp *R = optimizeCps(A, O, E, MaxVar, Stats);
    EXPECT_TRUE(checkCps(R).Ok);
    return R;
  }
};

} // namespace

TEST_F(CpsOptFixture, ConstantFoldsArithmetic) {
  CVar W = B.fresh();
  Cexp *P = B.arith(CpsOp::IAdd, {CValue::intC(2), CValue::intC(3)}, W,
                    Cty::intTy(), B.halt(CValue::var(W)));
  Cexp *R = optimize(P);
  ASSERT_EQ(R->K, Cexp::Kind::Halt);
  EXPECT_EQ(R->F.K, CValue::Kind::Int);
  EXPECT_EQ(R->F.I, 5);
  EXPECT_GE(Stats.ConstantsFolded, 1u);
}

TEST_F(CpsOptFixture, DoesNotFoldDivisionByZero) {
  CVar W = B.fresh();
  Cexp *P = B.arith(CpsOp::IDiv, {CValue::intC(1), CValue::intC(0)}, W,
                    Cty::intTy(), B.halt(CValue::var(W)));
  Cexp *R = optimize(P);
  EXPECT_EQ(R->K, Cexp::Kind::Arith); // must trap at runtime, not fold
}

TEST_F(CpsOptFixture, RemovesDeadRecords) {
  CVar W = B.fresh();
  Cexp *P = B.record(RecordKind::Std,
                     {{CValue::intC(1), false}, {CValue::intC(2), false}},
                     W, B.halt(CValue::intC(0)));
  Cexp *R = optimize(P);
  EXPECT_EQ(R->K, Cexp::Kind::Halt);
  EXPECT_GE(Stats.DeadRemoved, 1u);
}

TEST_F(CpsOptFixture, KeepsDeadRefCells) {
  // A ref allocation is observable through aliasing; never removed.
  CVar W = B.fresh();
  Cexp *P = B.record(RecordKind::Ref, {{CValue::intC(1), false}}, W,
                     B.halt(CValue::intC(0)));
  Cexp *R = optimize(P);
  EXPECT_EQ(R->K, Cexp::Kind::Record);
}

TEST_F(CpsOptFixture, FoldsSelectFromKnownRecord) {
  CVar W = B.fresh(), S = B.fresh();
  Cexp *P = B.record(
      RecordKind::Std,
      {{CValue::intC(10), false}, {CValue::intC(20), false}}, W,
      B.select(1, false, CValue::var(W), S, Cty::intTy(),
               B.halt(CValue::var(S))));
  Cexp *R = optimize(P);
  ASSERT_EQ(R->K, Cexp::Kind::Halt);
  EXPECT_EQ(R->F.I, 20);
  EXPECT_GE(Stats.SelectsFolded, 1u);
}

TEST_F(CpsOptFixture, FoldsBranchesOnConstants) {
  Cexp *P = B.branch(BranchOp::Ilt, {CValue::intC(1), CValue::intC(2)},
                     B.halt(CValue::intC(111)), B.halt(CValue::intC(222)));
  Cexp *R = optimize(P);
  ASSERT_EQ(R->K, Cexp::Kind::Halt);
  EXPECT_EQ(R->F.I, 111);
}

TEST_F(CpsOptFixture, IsBoxedFoldsOnIntConstant) {
  Cexp *P = B.branch(BranchOp::IsBoxed, {CValue::intC(7)},
                     B.halt(CValue::intC(1)), B.halt(CValue::intC(0)));
  Cexp *R = optimize(P);
  ASSERT_EQ(R->K, Cexp::Kind::Halt);
  EXPECT_EQ(R->F.I, 0); // tagged ints are not boxed
}

TEST_F(CpsOptFixture, CancelsFloatReboxing) {
  // y = unbox(x); z = box(y)  ==>  z := x  (when x is a known box).
  CVar Box = B.fresh(), Raw = B.fresh(), Rebox = B.fresh();
  Cexp *P = B.record(
      RecordKind::FloatBox, {{CValue::realC(1.5), true}}, Box,
      B.select(0, true, CValue::var(Box), Raw, Cty::fltTy(),
               B.record(RecordKind::FloatBox, {{CValue::var(Raw), true}},
                        Rebox, B.halt(CValue::var(Rebox)))));
  CompilerOptions O = CompilerOptions::ffb();
  ASSERT_TRUE(O.CpsWrapCancel);
  Cexp *R = optimize(P, O);
  // One box remains; the rebox reuses it.
  ASSERT_EQ(R->K, Cexp::Kind::Record);
  EXPECT_EQ(R->C1->K, Cexp::Kind::Halt);
  EXPECT_GE(Stats.FloatBoxesReused + Stats.SelectsFolded, 1u);
}

TEST_F(CpsOptFixture, OldCompilerKeepsFloatBoxes) {
  // With CpsWrapCancel off (sml.nrp), the same program keeps both the
  // select and the re-box.
  CVar Box = B.fresh(), Raw = B.fresh(), Rebox = B.fresh();
  Cexp *P = B.record(
      RecordKind::FloatBox, {{CValue::realC(1.5), true}}, Box,
      B.select(0, true, CValue::var(Box), Raw, Cty::fltTy(),
               B.record(RecordKind::FloatBox, {{CValue::var(Raw), true}},
                        Rebox, B.halt(CValue::var(Rebox)))));
  CompilerOptions O = CompilerOptions::nrp();
  ASSERT_FALSE(O.CpsWrapCancel);
  Cexp *R = optimize(P, O);
  ASSERT_EQ(R->K, Cexp::Kind::Record);
  ASSERT_EQ(R->C1->K, Cexp::Kind::Select);
  EXPECT_EQ(R->C1->C1->K, Cexp::Kind::Record);
}

TEST_F(CpsOptFixture, RecordCopyElimination) {
  // Inside a function whose parameter is a known-length record, building
  // a record from its in-order selects is the identity (Section 5.2).
  CVar F = B.fresh(), P1 = B.fresh(), K = B.fresh();
  CVar S0 = B.fresh(), S1 = B.fresh(), Copy = B.fresh();
  Cexp *Body = B.select(
      0, false, CValue::var(P1), S0, Cty::ptrUnknown(),
      B.select(1, false, CValue::var(P1), S1, Cty::ptrUnknown(),
               B.record(RecordKind::Std,
                        {{CValue::var(S0), false}, {CValue::var(S1), false}},
                        Copy, B.app(CValue::var(K), {CValue::var(Copy)}))));
  CFun *Fn = B.fun(CFun::Kind::Escape, F, {P1, K},
                   {Cty::ptr(2), Cty::cntTy()}, Body);
  // Keep F alive by escaping it.
  CVar W = B.fresh();
  Cexp *P = B.fix({Fn}, B.record(RecordKind::Std,
                                 {{CValue::var(F), false}}, W,
                                 B.halt(CValue::var(W))));
  CompilerOptions O = CompilerOptions::ffb();
  Cexp *R = optimize(P, O);
  (void)R;
  EXPECT_GE(Stats.RecordsCopyEliminated, 1u);
}

TEST_F(CpsOptFixture, EtaReducesForwardingConts) {
  // cont k(x) = j(x) ==> uses of k become j.
  CVar J = B.fresh(), JX = B.fresh();
  CVar K = B.fresh(), KX = B.fresh();
  CFun *JFn = B.fun(CFun::Kind::Cont, J, {JX}, {Cty::intTy()},
                    B.halt(CValue::var(JX)));
  CFun *KFn = B.fun(CFun::Kind::Cont, K, {KX}, {Cty::intTy()},
                    B.app(CValue::var(J), {CValue::var(KX)}));
  Cexp *P =
      B.fix({JFn}, B.fix({KFn}, B.app(CValue::var(K), {CValue::intC(9)})));
  Cexp *R = optimize(P);
  // Everything should contract down to Halt(9).
  ASSERT_EQ(R->K, Cexp::Kind::Halt);
  EXPECT_EQ(R->F.I, 9);
}

TEST_F(CpsOptFixture, InlinesSingleUseFunctions) {
  CVar F = B.fresh(), X = B.fresh(), K = B.fresh();
  CVar W = B.fresh(), RK = B.fresh(), RX = B.fresh();
  CFun *Fn =
      B.fun(CFun::Kind::Escape, F, {X, K}, {Cty::intTy(), Cty::cntTy()},
            B.arith(CpsOp::IMul, {CValue::var(X), CValue::intC(3)}, W,
                    Cty::intTy(), B.app(CValue::var(K), {CValue::var(W)})));
  CFun *Ret = B.fun(CFun::Kind::Cont, RK, {RX}, {Cty::intTy()},
                    B.halt(CValue::var(RX)));
  Cexp *P = B.fix(
      {Fn}, B.fix({Ret}, B.app(CValue::var(F),
                               {CValue::intC(14), CValue::var(RK)})));
  Cexp *R = optimize(P);
  ASSERT_EQ(R->K, Cexp::Kind::Halt);
  EXPECT_EQ(R->F.I, 42);
  EXPECT_GE(Stats.InlinedOnce + Stats.InlinedSmall, 1u);
}

TEST_F(CpsOptFixture, DropsDeadFunctions) {
  CVar F = B.fresh(), X = B.fresh(), K = B.fresh();
  CFun *Fn = B.fun(CFun::Kind::Escape, F, {X, K},
                   {Cty::intTy(), Cty::cntTy()},
                   B.app(CValue::var(K), {CValue::var(X)}));
  Cexp *P = B.fix({Fn}, B.halt(CValue::intC(0)));
  Cexp *R = optimize(P);
  EXPECT_EQ(R->K, Cexp::Kind::Halt);
  EXPECT_GE(Stats.DeadRemoved, 1u);
}

TEST_F(CpsOptFixture, FlattensKnownFunctionArguments) {
  // A known function taking a 2-record that it only selects from gets its
  // components spread (sml.fag's Kranz optimization).
  CVar F = B.fresh(), P1 = B.fresh(), K = B.fresh();
  CVar S0 = B.fresh(), W = B.fresh();
  Cexp *Body =
      B.select(0, false, CValue::var(P1), S0, Cty::intTy(),
               B.arith(CpsOp::IAdd, {CValue::var(S0), CValue::intC(1)}, W,
                       Cty::intTy(), B.app(CValue::var(K),
                                           {CValue::var(W)})));
  CFun *Fn = B.fun(CFun::Kind::Known, F, {P1, K},
                   {Cty::ptr(2), Cty::cntTy()}, Body);

  // Two call sites so the function is not simply inlined away.
  CVar RK = B.fresh(), RX = B.fresh();
  CVar Arg1 = B.fresh(), Arg2 = B.fresh();
  CFun *Ret = B.fun(CFun::Kind::Cont, RK, {RX}, {Cty::intTy()},
                    B.app(CValue::var(F), {CValue::var(Arg2),
                                           CValue::var(RK)}));
  auto MakeArg = [&](CVar V, Cexp *Cont) {
    return B.record(RecordKind::Std,
                    {{CValue::intC(5), false}, {CValue::intC(6), false}},
                    V, Cont);
  };
  Cexp *P = MakeArg(
      Arg1,
      MakeArg(Arg2,
              B.fix({Fn}, B.fix({Ret},
                                B.app(CValue::var(F),
                                      {CValue::var(Arg1),
                                       CValue::var(RK)})))));
  CompilerOptions O = CompilerOptions::fag();
  // Disable inlining so flattening is observable.
  O.InlineSmallFns = false;
  Cexp *R = optimize(P, O);
  (void)R;
  EXPECT_GE(Stats.KnownFnsFlattened, 1u);
}

TEST_F(CpsOptFixture, PreservesSideEffectOrder) {
  // Setter / CCall nodes are never removed or reordered.
  CVar W = B.fresh(), Cell = B.fresh();
  Cexp *P = B.record(
      RecordKind::Ref, {{CValue::intC(0), false}}, Cell,
      B.setter(CpsOp::StoreCell,
               {CValue::var(Cell), CValue::intC(0), CValue::intC(5)},
               B.looker(CpsOp::LoadCell,
                        {CValue::var(Cell), CValue::intC(0)}, W,
                        Cty::intTy(), B.halt(CValue::var(W)))));
  Cexp *R = optimize(P);
  ASSERT_EQ(R->K, Cexp::Kind::Record);
  ASSERT_EQ(R->C1->K, Cexp::Kind::Setter);
  ASSERT_EQ(R->C1->C1->K, Cexp::Kind::Looker);
}

namespace {

/// A Depth-deep chain of dead records: each layer only becomes dead once
/// the layer above it is removed.
Cexp *deadRecordChain(CpsBuilder &B, int Depth) {
  std::vector<CVar> Vs;
  for (int I = 0; I < Depth; ++I)
    Vs.push_back(B.fresh());
  Cexp *P = B.halt(CValue::intC(0));
  for (int I = Depth - 1; I >= 0; --I) {
    CValue Field = (I == 0) ? CValue::intC(1) : CValue::var(Vs[I - 1]);
    P = B.record(RecordKind::Std, {{Field, false}}, Vs[I], P);
  }
  return P;
}

} // namespace

TEST(CpsOptFixpoint, FixpointDrainsDeepDeadChain) {
  // The whole chain goes in the first phase: each layer's binding is
  // removed as soon as its count reaches zero, and the second phase
  // finds nothing left to do.
  Arena A;
  CpsBuilder B{A};
  CpsOptStats Stats;
  CompilerOptions O = CompilerOptions::ffb();
  CVar MaxVar;
  Cexp *P = deadRecordChain(B, 40);
  MaxVar = B.maxVar();
  Cexp *R = optimizeCps(A, O, P, MaxVar, Stats);
  ASSERT_TRUE(checkCps(R).Ok);
  EXPECT_EQ(R->K, Cexp::Kind::Halt);
  EXPECT_FALSE(Stats.HitSafetyCeiling);
  EXPECT_LE(Stats.Rounds, 3);
}

namespace {

/// N one-line functions with main a chain of N/10 nested calls: each
/// called function is once-called, so the chain collapses by moving
/// bodies.
std::string callChainSource(size_t N) {
  std::string S;
  for (size_t I = 0; I < N; ++I)
    S += "fun f" + std::to_string(I) + " (x : int) = x + " +
         std::to_string(I) + "\n";
  std::string Body = "0";
  for (size_t I = 0; I < N; I += 10)
    Body = "f" + std::to_string(I) + " (" + Body + ")";
  return S + "fun main () = " + Body + "\n";
}

} // namespace

TEST(CpsOptScaling, CallChainPhasesDoNotGrowWithDepth) {
  // Moving a once-called body to its call site contracts a chain of any
  // depth in one phase, so 8x the depth takes the same number of phases,
  // and the optimizer allocates (for clones and flattening) about in
  // proportion to the program, not to depth times size.
  CompileOutput Small =
      Compiler::compile(callChainSource(300), CompilerOptions::ffb());
  CompileOutput Large =
      Compiler::compile(callChainSource(2400), CompilerOptions::ffb());
  ASSERT_TRUE(Small.Ok) << Small.Errors;
  ASSERT_TRUE(Large.Ok) << Large.Errors;
  EXPECT_EQ(Small.Metrics.Opt.Rounds, Large.Metrics.Opt.Rounds);
  size_t SmallBytes =
      Small.Metrics.Opt.ArenaBytesAfter - Small.Metrics.Opt.ArenaBytesBefore;
  size_t LargeBytes =
      Large.Metrics.Opt.ArenaBytesAfter - Large.Metrics.Opt.ArenaBytesBefore;
  EXPECT_LE(LargeBytes, 10 * std::max<size_t>(SmallBytes, 1))
      << SmallBytes << " -> " << LargeBytes;
}

TEST(CpsOptScaling, LongChainOfUnusedTuplesCompiles) {
  // val a1 = (a0, 1) val a2 = (a1, 2) ...: every tuple is unused, and each
  // becomes dead only once the next is removed. The phase-per-layer
  // cadence this replaced hit the 1000-phase ceiling here.
  std::string S = "val a0 = 0\n";
  for (int I = 1; I <= 1100; ++I)
    S += "val a" + std::to_string(I) + " = (a" + std::to_string(I - 1) +
         ", " + std::to_string(I) + ")\n";
  S += "fun main () = 0\n";
  CompileOutput Out = Compiler::compile(S, CompilerOptions::ffb());
  ASSERT_TRUE(Out.Ok) << Out.Errors;
  EXPECT_LE(Out.Metrics.Opt.Rounds, 5);
  ExecResult R = execute(Out.Program, VmOptions());
  ASSERT_TRUE(R.Ok) << R.TrapMessage;
  EXPECT_EQ(R.Result, 0);
}

TEST(CpsOptFixpoint, DeadRecursionIsNeverInlinedIntoItself) {
  // A dead recursive function's only call sits in its own body, so it
  // looks once-called; moving it into itself would unroll dead code
  // phase after phase. Optimization must not grow the trivial program.
  CompileOutput Out =
      Compiler::compile("fun main () = 0", CompilerOptions::ffb());
  ASSERT_TRUE(Out.Ok) << Out.Errors;
  EXPECT_LE(Out.Metrics.CpsNodesAfterOpt, Out.Metrics.CpsNodesBeforeOpt);
}

TEST_F(CpsOptFixture, SweepsDeadMutualRecursion) {
  // f and g call only each other, so each keeps a use and a call, and no
  // count-based rule can remove them; the reachability sweep does.
  CVar F = B.fresh(), G = B.fresh(), X = B.fresh(), K = B.fresh(),
       Y = B.fresh(), K2 = B.fresh();
  std::vector<Cty> Tys = {Cty::intTy(), Cty::cntTy()};
  CFun *Fn = B.fun(CFun::Kind::Known, F, {X, K}, Tys,
                   B.app(CValue::var(G), {CValue::var(X), CValue::var(K)}));
  CFun *Gn = B.fun(CFun::Kind::Known, G, {Y, K2}, Tys,
                   B.app(CValue::var(F), {CValue::var(Y), CValue::var(K2)}));
  Cexp *R = optimize(B.fix({Fn, Gn}, B.halt(CValue::intC(5))));
  EXPECT_EQ(R->K, Cexp::Kind::Halt);
  EXPECT_GE(Stats.DeadRemoved, 2u);
}

TEST(CpsOptFixpoint, RecursionNamedOnlyInAFoldedBranchIsRemoved) {
  // The shrinker folds `1 < 2`, which leaves f named only by its own
  // recursive call. A sweep that ran only before the shrinker would keep
  // 4 TM functions, of which 3 are reachable.
  CompileOutput Out = Compiler::compile(
      "fun f x = if x = 0 then 0 else f (x - 1)\n"
      "fun main () = if 1 < 2 then 7 else f 3",
      CompilerOptions::ffb(), /*WithPrelude=*/false);
  ASSERT_TRUE(Out.Ok) << Out.Errors;
  EXPECT_EQ(testutil::unreachableFunctions(Out.Program), 0u);
  EXPECT_EQ(Out.Program.Funs.size(), 3u);
  ExecResult R = execute(Out.Program, VmOptions());
  ASSERT_TRUE(R.Ok) << R.TrapMessage;
  EXPECT_EQ(R.Result, 7);
}

// No corpus job may stop at the optimizer's safety ceiling.
TEST(CpsOptDifferential, NoCorpusRowHitsCapOrCeiling) {
  size_t NumVariants = 0;
  const CompilerOptions *Variants = CompilerOptions::allVariants(NumVariants);
  for (const BenchmarkProgram &P : benchmarkCorpus()) {
    for (size_t I = 0; I < NumVariants; ++I) {
      SCOPED_TRACE(std::string(P.Name) + " / " + Variants[I].VariantName);
      CompileOutput Out = Compiler::compile(P.Source, Variants[I]);
      ASSERT_TRUE(Out.Ok) << Out.Errors;
      EXPECT_FALSE(Out.Metrics.Opt.HitSafetyCeiling);
    }
  }
}

//===----------------------------------------------------------------------===//
// Unit tests of the ablatable rules (--cps-opt-disable)
//===----------------------------------------------------------------------===//

using FixpointFixture = CpsOptFixture;

namespace {

/// fun g(x, kk) = kk(x + 1) — a non-forwarding target — and
/// fun f(x, kk) = g(x, kk) — a pure forwarder. Both get two call sites
/// (branching on an escaping function's parameter keeps the counts at
/// two so neither is once-inlined), so eta is the only rule that can
/// remove f. Returns the program root.
Cexp *forwarderPair(CpsBuilder &B) {
  CVar G = B.fresh(), GX = B.fresh(), GK = B.fresh(), GW = B.fresh();
  CVar F = B.fresh(), FX = B.fresh(), FK = B.fresh();
  CVar H = B.fresh(), HZ = B.fresh();
  CVar Wrap = B.fresh(), WP = B.fresh(), WK = B.fresh(), Live = B.fresh();
  CFun *GFn = B.fun(CFun::Kind::Known, G, {GX, GK},
                    {Cty::intTy(), Cty::cntTy()},
                    B.arith(CpsOp::IAdd, {CValue::var(GX), CValue::intC(1)},
                            GW, Cty::intTy(),
                            B.app(CValue::var(GK), {CValue::var(GW)})));
  CFun *FFn = B.fun(CFun::Kind::Known, F, {FX, FK},
                    {Cty::intTy(), Cty::cntTy()},
                    B.app(CValue::var(G),
                          {CValue::var(FX), CValue::var(FK)}));
  CFun *HCnt = B.fun(CFun::Kind::Cont, H, {HZ}, {Cty::intTy()},
                     B.halt(CValue::var(HZ)));
  CFun *WFn = B.fun(
      CFun::Kind::Escape, Wrap, {WP, WK}, {Cty::intTy(), Cty::cntTy()},
      B.fix(
          {HCnt},
          B.fix({GFn, FFn},
                B.branch(BranchOp::Ilt, {CValue::var(WP), CValue::intC(0)},
                         B.app(CValue::var(F),
                               {CValue::intC(1), CValue::var(H)}),
                         B.branch(BranchOp::Ilt,
                                  {CValue::var(WP), CValue::intC(5)},
                                  B.app(CValue::var(F),
                                        {CValue::intC(2), CValue::var(H)}),
                                  B.app(CValue::var(G),
                                        {CValue::intC(3),
                                         CValue::var(H)}))))));
  return B.fix({WFn}, B.record(RecordKind::Std,
                               {{CValue::var(Wrap), false}}, Live,
                               B.halt(CValue::var(Live))));
}

} // namespace

TEST_F(FixpointFixture, EtaReducesForwardingFunctions) {
  Cexp *P = forwarderPair(B);
  CompilerOptions O = CompilerOptions::ffb();
  O.InlineSmallFns = false; // keep the forwarder from being inlined away
  optimize(P, O);
  EXPECT_GE(Stats.EtaFuns, 1u);
}

TEST_F(FixpointFixture, EtaRuleRespectsAblationFlag) {
  Cexp *P = forwarderPair(B);
  CompilerOptions O = CompilerOptions::ffb();
  O.InlineSmallFns = false;
  O.CpsOptDisable = kCpsRuleEta;
  optimize(P, O);
  EXPECT_EQ(Stats.EtaFuns, 0u);
}

TEST_F(FixpointFixture, WrapDedupCancelsNonAdjacentRewrap) {
  // Two boxes of the same raw float with an intervening use: the second
  // wrap reuses the first even though no unwrap sits between them (the
  // adjacent-pair rule of Section 5.2 cannot see this shape).
  CVar F = B.fresh(), Raw = B.fresh(), K = B.fresh();
  CVar B1 = B.fresh(), Mid = B.fresh(), B2 = B.fresh(), Out = B.fresh();
  Cexp *Body = B.record(
      RecordKind::FloatBox, {{CValue::var(Raw), true}}, B1,
      B.record(RecordKind::Std, {{CValue::var(B1), false}}, Mid,
               B.record(RecordKind::FloatBox, {{CValue::var(Raw), true}}, B2,
                        B.record(RecordKind::Std,
                                 {{CValue::var(Mid), false},
                                  {CValue::var(B2), false}},
                                 Out, B.app(CValue::var(K),
                                            {CValue::var(Out)})))));
  CFun *Fn = B.fun(CFun::Kind::Escape, F, {Raw, K},
                   {Cty::fltTy(), Cty::cntTy()}, Body);
  CVar W = B.fresh();
  Cexp *P = B.fix({Fn}, B.record(RecordKind::Std,
                                 {{CValue::var(F), false}}, W,
                                 B.halt(CValue::var(W))));
  CompilerOptions O = CompilerOptions::ffb();
  ASSERT_TRUE(O.CpsWrapCancel);
  optimize(P, O);
  EXPECT_GE(Stats.WrapCancelChains, 1u);
}

TEST_F(FixpointFixture, SelectCseCancelsRepeatedUnwrap) {
  // Two selects of the same index from the same unknown-definition base:
  // the second folds onto the first.
  CVar F = B.fresh(), P1 = B.fresh(), K = B.fresh();
  CVar S1 = B.fresh(), Mid = B.fresh(), S2 = B.fresh(), Out = B.fresh();
  Cexp *Body = B.select(
      0, false, CValue::var(P1), S1, Cty::intTy(),
      B.record(RecordKind::Std, {{CValue::var(S1), false}}, Mid,
               B.select(0, false, CValue::var(P1), S2, Cty::intTy(),
                        B.record(RecordKind::Std,
                                 {{CValue::var(Mid), false},
                                  {CValue::var(S2), false}},
                                 Out, B.app(CValue::var(K),
                                            {CValue::var(Out)})))));
  CFun *Fn = B.fun(CFun::Kind::Escape, F, {P1, K},
                   {Cty::ptrUnknown(), Cty::cntTy()}, Body);
  CVar W = B.fresh();
  Cexp *P = B.fix({Fn}, B.record(RecordKind::Std,
                                 {{CValue::var(F), false}}, W,
                                 B.halt(CValue::var(W))));
  optimize(P);
  EXPECT_GE(Stats.WrapCancelChains, 1u);
}

TEST_F(FixpointFixture, LoopCloneRenamesFoldedOccurrences) {
  // A small loop L whose body folds w := v (a select from a record of v)
  // and holds a dead recursive continuation d that still reads w. The
  // sweep visits L's body first, so d's occurrence of w is unresolved
  // when L is cloned at its outer call; the copy must resolve w to v and
  // then rename v to the copy's own binder, or it reads the original v
  // out of scope.
  CVar L = B.fresh(), X = B.fresh(), K = B.fresh(), V = B.fresh();
  CVar Rec = B.fresh(), W = B.fresh(), D = B.fresh(), DY = B.fresh();
  CVar C = B.fresh(), CZ = B.fresh(), Ret = B.fresh(), RR = B.fresh();
  CVar Ret2 = B.fresh(), R2 = B.fresh();
  CFun *DFn = B.fun(CFun::Kind::Cont, D, {DY}, {Cty::intTy()},
                    B.app(CValue::var(D), {CValue::var(W)}));
  CFun *CFn = B.fun(CFun::Kind::Cont, C, {CZ}, {Cty::intTy()},
                    B.app(CValue::var(L), {CValue::var(CZ), CValue::var(K)}));
  Cexp *Body = B.arith(
      CpsOp::IAdd, {CValue::var(X), CValue::intC(1)}, V, Cty::intTy(),
      B.record(
          RecordKind::Std, {{CValue::var(V), false}}, Rec,
          B.select(0, false, CValue::var(Rec), W, Cty::intTy(),
                   B.fix({DFn},
                         B.fix({CFn},
                               B.branch(BranchOp::Ilt,
                                        {CValue::var(X), CValue::intC(3)},
                                        B.app(CValue::var(C),
                                              {CValue::var(V)}),
                                        B.app(CValue::var(K),
                                              {CValue::var(V)})))))));
  CFun *LFn = B.fun(CFun::Kind::Known, L, {X, K},
                    {Cty::intTy(), Cty::cntTy()}, Body);
  CFun *RetFn = B.fun(CFun::Kind::Cont, Ret, {RR}, {Cty::intTy()},
                      B.halt(CValue::var(RR)));
  CFun *Ret2Fn =
      B.fun(CFun::Kind::Cont, Ret2, {R2}, {Cty::intTy()},
            B.app(CValue::var(L), {CValue::var(R2), CValue::var(Ret)}));
  Cexp *P = B.fix(
      {LFn}, B.fix({RetFn},
                   B.fix({Ret2Fn}, B.app(CValue::var(L),
                                         {CValue::intC(0),
                                          CValue::var(Ret2)}))));
  optimize(P); // checks the result with checkCps
  EXPECT_GE(Stats.InlinedSmall, 1u);
}

// With auditing on, the optimizer recounts uses/calls from scratch after
// every phase and compares against the incrementally maintained tables.
// Any divergence is a bug in a contraction's count bookkeeping.
TEST(CpsOptDifferential, IncrementalCensusMatchesFullRecount) {
  testutil::CensusAudit Audit;
  for (const char *Variant : {"sml.ffb", "sml.fag", "sml.nrp"}) {
    size_t NumVariants = 0;
    const CompilerOptions *Variants = CompilerOptions::allVariants(NumVariants);
    const CompilerOptions *Opts = nullptr;
    for (size_t I = 0; I < NumVariants; ++I)
      if (std::string(Variants[I].VariantName) == Variant)
        Opts = &Variants[I];
    ASSERT_NE(Opts, nullptr);
    for (const BenchmarkProgram &P : benchmarkCorpus()) {
      SCOPED_TRACE(std::string(P.Name) + " / " + Variant);
      CompileOutput Out = Compiler::compile(P.Source, *Opts);
      ASSERT_TRUE(Out.Ok) << Out.Errors;
      EXPECT_EQ(Out.Metrics.Opt.CensusAuditFailures, 0u);
    }
  }
}

//===----------------------------------------------------------------------===//
// CPS checker failure paths
//===----------------------------------------------------------------------===//

TEST(CpsCheckTest, RejectsVariableBoundTwiceAsFixParameters) {
  // fix f(x) = halt x and g(x) = halt x in halt 0
  Arena A;
  CpsBuilder B{A};
  CVar F = B.fresh(), G = B.fresh(), X = B.fresh();
  CFun *FF = B.fun(CFun::Kind::Known, F, {X}, {Cty::intTy()},
                   B.halt(CValue::var(X)));
  CFun *GF = B.fun(CFun::Kind::Known, G, {X}, {Cty::intTy()},
                   B.halt(CValue::var(X)));
  CpsCheckResult R = checkCps(B.fix({FF, GF}, B.halt(CValue::intC(0))));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "variable v" + std::to_string(X) + " bound twice");
}

TEST(CpsCheckTest, RejectsVariableBoundInBothBranchArms) {
  // if 0 = 0 then (w = 1 + 2; halt w) else (w = 3 + 4; halt w)
  Arena A;
  CpsBuilder B{A};
  CVar W = B.fresh();
  Cexp *Then = B.arith(CpsOp::IAdd, {CValue::intC(1), CValue::intC(2)}, W,
                       Cty::intTy(), B.halt(CValue::var(W)));
  Cexp *Else = B.arith(CpsOp::IAdd, {CValue::intC(3), CValue::intC(4)}, W,
                       Cty::intTy(), B.halt(CValue::var(W)));
  CpsCheckResult R = checkCps(B.branch(
      BranchOp::Ieq, {CValue::intC(0), CValue::intC(0)}, Then, Else));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "variable v" + std::to_string(W) + " bound twice");
}

TEST(CpsCheckTest, RejectsUseBeforeBinding) {
  // w = [w]; halt w
  Arena A;
  CpsBuilder B{A};
  CVar W = B.fresh();
  CpsCheckResult R = checkCps(B.record(
      RecordKind::Std, {{CValue::var(W), false}}, W, B.halt(CValue::var(W))));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error,
            "variable v" + std::to_string(W) + " used before binding");
}

TEST(CpsCheckTest, RejectsUseOutsideTheBindersScope) {
  // fix f(x) = halt x in halt x: x is bound, but only inside f's body.
  Arena A;
  CpsBuilder B{A};
  CVar F = B.fresh(), X = B.fresh();
  CFun *FF = B.fun(CFun::Kind::Known, F, {X}, {Cty::intTy()},
                   B.halt(CValue::var(X)));
  CpsCheckResult R = checkCps(B.fix({FF}, B.halt(CValue::var(X))));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error,
            "variable v" + std::to_string(X) + " used outside its scope");
}

TEST(CpsCheckTest, RejectsVariablesOutsideTheBoundRange) {
  // w = 1 + 2; halt v1000000: a use far past every table the checker has
  // grown, then a negative use and a negative binder.
  Arena A;
  CpsBuilder B{A};
  CVar W = B.fresh();
  CpsCheckResult R = checkCps(
      B.arith(CpsOp::IAdd, {CValue::intC(1), CValue::intC(2)}, W,
              Cty::intTy(), B.halt(CValue::var(1000000))));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "variable v1000000 used before binding");

  R = checkCps(B.halt(CValue::var(-7)));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "variable v-7 used before binding");

  R = checkCps(B.arith(CpsOp::IAdd, {CValue::intC(1), CValue::intC(2)}, -3,
                       Cty::intTy(), B.halt(CValue::intC(0))));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error, "variable v-3 has a negative number");
}
