//===- tests/test_closure.cpp - Closure conversion and code generation ----------===//
//
// The contract of closure conversion (paper Section 5.2) on hand-built
// CPS: which variables each function captures, in which order they are
// laid out, how continuations spill past the callee-save registers, and
// how the code generator numbers registers across branch arms.
//
// Free-variable lists are in ascending CVar order: known functions take
// them as trailing parameters and escaping functions store them after the
// code label of their closure record, so both layouts depend on it.
//
//===----------------------------------------------------------------------===//

#include "closure/Closure.h"
#include "codegen/CodeGen.h"
#include "cps/Cps.h"
#include "cps/CpsCheck.h"
#include "driver/Options.h"
#include "support/Arena.h"
#include "vm/Vm.h"

#include <gtest/gtest.h>

#include <vector>

using namespace smltc;

namespace {

struct ClosureFixture : ::testing::Test {
  Arena A;
  CpsBuilder B{A};
  CompilerOptions Opts = CompilerOptions::ffb();

  /// The number of parameters a continuation parameter expands into.
  size_t bundleSize() const {
    return 1 + static_cast<size_t>(kGpCalleeSaves) +
           static_cast<size_t>(Opts.FloatCalleeSaves);
  }

  ClosureResult convert(Cexp *Program) {
    CpsCheckResult C = checkCps(Program);
    EXPECT_TRUE(C.Ok) << C.Error;
    return closureConvert(A, Opts, Program, B.maxVar());
  }

  Cexp *add(CValue X, CValue Y, CVar W, Cexp *Cont) {
    return B.arith(CpsOp::IAdd, {X, Y}, W, Cty::intTy(), Cont);
  }
};

CValue var(CVar V) { return CValue::var(V); }

/// The first App reached from \p E along continuations and else-arms.
const Cexp *firstApp(const Cexp *E) {
  while (E && E->K != Cexp::Kind::App)
    E = E->K == Cexp::Kind::Branch ? E->C2 : E->C1;
  return E;
}

/// The last \p N arguments of \p Call.
std::vector<CValue> trailingArgs(const Cexp *Call, size_t N) {
  std::vector<CValue> Out;
  for (size_t I = Call->Args.size() - N; I < Call->Args.size(); ++I)
    Out.push_back(Call->Args[I]);
  return Out;
}

void expectVars(const std::vector<CValue> &Got,
                const std::vector<CVar> &Want) {
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size(); ++I) {
    EXPECT_TRUE(Got[I].isVar()) << "argument " << I;
    EXPECT_EQ(Got[I].V, Want[I]) << "argument " << I;
  }
}

} // namespace

TEST_F(ClosureFixture, NestedKnownFunctionTakesOuterParametersAscending) {
  // fix outer(a, b, k) =                 (escaping)
  //   fix mid(c, k2) =                   (known)
  //     fix inner(x, k3) =               (known)
  //       s = c + x; t = s + b; u = t + a; k3(u)
  //     in inner(c, k2)
  //   in mid(a, k)
  // in fix ret(r) = halt r in outer(1, 2, ret)
  CVar Outer = B.fresh(), Pa = B.fresh(), Pb = B.fresh(), K = B.fresh();
  CVar Mid = B.fresh(), Pc = B.fresh(), K2 = B.fresh();
  CVar Inner = B.fresh(), Px = B.fresh(), K3 = B.fresh();
  CVar S = B.fresh(), T = B.fresh(), U = B.fresh();
  CVar Ret = B.fresh(), R = B.fresh();
  // inner uses its captured variables in descending order.
  Cexp *InnerBody =
      add(var(Pc), var(Px), S,
          add(var(S), var(Pb), T,
              add(var(T), var(Pa), U, B.app(var(K3), {var(U)}))));
  CFun *InnerF = B.fun(CFun::Kind::Known, Inner, {Px, K3},
                       {Cty::intTy(), Cty::cntTy()}, InnerBody);
  CFun *MidF =
      B.fun(CFun::Kind::Known, Mid, {Pc, K2}, {Cty::intTy(), Cty::cntTy()},
            B.fix({InnerF}, B.app(var(Inner), {var(Pc), var(K2)})));
  CFun *OuterF = B.fun(CFun::Kind::Escape, Outer, {Pa, Pb, K},
                       {Cty::intTy(), Cty::intTy(), Cty::cntTy()},
                       B.fix({MidF}, B.app(var(Mid), {var(Pa), var(K)})));
  CFun *RetF = B.fun(CFun::Kind::Cont, Ret, {R}, {Cty::intTy()},
                     B.halt(var(R)));
  Cexp *Program = B.fix(
      {OuterF},
      B.fix({RetF}, B.app(var(Outer), {CValue::intC(1), CValue::intC(2),
                                       var(Ret)})));

  ClosureResult C = convert(Program);
  // Labels follow the walk: outer 1, mid 2, inner 3, ret 4.
  ASSERT_EQ(C.Funs.size(), 5u);
  // inner: x, k3's bundle, then a, b, c.
  EXPECT_EQ(C.Funs[3]->Params.size(), 1 + bundleSize() + 3);
  // mid: c, k2's bundle, then a, b.
  const CFun *MidC = C.Funs[2];
  ASSERT_EQ(MidC->Params.size(), 1 + bundleSize() + 2);
  CVar MidA = MidC->Params[MidC->Params.size() - 2];
  CVar MidB = MidC->Params[MidC->Params.size() - 1];

  // outer calls mid with its own a and b as mid's trailing arguments.
  const Cexp *CallMid = firstApp(C.Funs[1]->Body);
  ASSERT_NE(CallMid, nullptr);
  ASSERT_EQ(CallMid->F.K, CValue::Kind::Label);
  EXPECT_EQ(CallMid->F.I, 2);
  expectVars(trailingArgs(CallMid, 2), {Pa, Pb});

  // mid calls inner with a and b (its own captured parameters) and then
  // its parameter c: ascending CVar order, not inner's use order.
  const Cexp *CallInner = firstApp(MidC->Body);
  ASSERT_NE(CallInner, nullptr);
  ASSERT_EQ(CallInner->F.K, CValue::Kind::Label);
  EXPECT_EQ(CallInner->F.I, 3);
  expectVars(trailingArgs(CallInner, 3), {MidA, MidB, Pc});

  // And the converted program computes (c + x) + b + a with a = c = x = 1
  // and b = 2.
  CodeGenStats Stats;
  ExecResult X = execute(generateCode(C, Stats), VmOptions());
  ASSERT_TRUE(X.Ok) << X.TrapMessage;
  EXPECT_EQ(X.Result, 5);
}

TEST_F(ClosureFixture, MutuallyRecursiveFunctionsCaptureTheUnionNoNames) {
  // p = 1 + 2; q = 3 + 4
  // fix f(x, k) = s = x + p; g(s, k)
  // and g(y, k) = t = y + q; f(t, k)
  // in fix ret(r) = halt r in f(0, ret)
  CVar P = B.fresh(), Q = B.fresh();
  CVar F = B.fresh(), X = B.fresh(), Kf = B.fresh(), S = B.fresh();
  CVar G = B.fresh(), Y = B.fresh(), Kg = B.fresh(), T = B.fresh();
  CVar Ret = B.fresh(), R = B.fresh();
  CFun *FF = B.fun(CFun::Kind::Known, F, {X, Kf}, {Cty::intTy(), Cty::cntTy()},
                   add(var(X), var(P), S, B.app(var(G), {var(S), var(Kf)})));
  CFun *GF = B.fun(CFun::Kind::Known, G, {Y, Kg}, {Cty::intTy(), Cty::cntTy()},
                   add(var(Y), var(Q), T, B.app(var(F), {var(T), var(Kg)})));
  CFun *RetF = B.fun(CFun::Kind::Cont, Ret, {R}, {Cty::intTy()},
                     B.halt(var(R)));
  Cexp *Program = add(
      CValue::intC(1), CValue::intC(2), P,
      add(CValue::intC(3), CValue::intC(4), Q,
          B.fix({FF, GF},
                B.fix({RetF},
                      B.app(var(F), {CValue::intC(0), var(Ret)})))));

  ClosureResult C = convert(Program);
  // Labels: f 1, g 2, ret 3. Both take p and q, and nothing else: a
  // captured function name would add a parameter.
  ASSERT_EQ(C.Funs.size(), 4u);
  const CFun *FC = C.Funs[1], *GC = C.Funs[2];
  ASSERT_EQ(FC->Params.size(), 1 + bundleSize() + 2);
  ASSERT_EQ(GC->Params.size(), 1 + bundleSize() + 2);
  EXPECT_EQ(C.ClosuresBuilt, 0u);

  // The entry passes its own p and q; f passes its captured p and q on.
  expectVars(trailingArgs(firstApp(C.Funs[0]->Body), 2), {P, Q});
  const Cexp *CallG = firstApp(FC->Body);
  ASSERT_EQ(CallG->F.K, CValue::Kind::Label);
  EXPECT_EQ(CallG->F.I, 2);
  expectVars(trailingArgs(CallG, 2),
             {FC->Params[FC->Params.size() - 2],
              FC->Params[FC->Params.size() - 1]});
  const Cexp *CallF = firstApp(GC->Body);
  ASSERT_EQ(CallF->F.K, CValue::Kind::Label);
  EXPECT_EQ(CallF->F.I, 1);
  expectVars(trailingArgs(CallF, 2),
             {GC->Params[GC->Params.size() - 2],
              GC->Params[GC->Params.size() - 1]});
}

TEST_F(ClosureFixture, CallToSiblingCapturesTheSiblingsFreeVariables) {
  // c = 5 + 6
  // fix f(x, k) = g(x, k)         (f itself uses no free variable)
  // and g(y, k) = t = y + c; k(t)
  // in fix ret(r) = halt r in f(1, ret)
  CVar Cv = B.fresh();
  CVar F = B.fresh(), X = B.fresh(), Kf = B.fresh();
  CVar G = B.fresh(), Y = B.fresh(), Kg = B.fresh(), T = B.fresh();
  CVar Ret = B.fresh(), R = B.fresh();
  CFun *FF = B.fun(CFun::Kind::Known, F, {X, Kf}, {Cty::intTy(), Cty::cntTy()},
                   B.app(var(G), {var(X), var(Kf)}));
  CFun *GF = B.fun(CFun::Kind::Known, G, {Y, Kg}, {Cty::intTy(), Cty::cntTy()},
                   add(var(Y), var(Cv), T, B.app(var(Kg), {var(T)})));
  CFun *RetF = B.fun(CFun::Kind::Cont, Ret, {R}, {Cty::intTy()},
                     B.halt(var(R)));
  Cexp *Program = add(
      CValue::intC(5), CValue::intC(6), Cv,
      B.fix({FF, GF}, B.fix({RetF}, B.app(var(F), {CValue::intC(1),
                                                   var(Ret)}))));

  ClosureResult C = convert(Program);
  ASSERT_EQ(C.Funs.size(), 4u);
  const CFun *FC = C.Funs[1];
  ASSERT_EQ(FC->Params.size(), 1 + bundleSize() + 1);
  EXPECT_EQ(C.Funs[2]->Params.size(), 1 + bundleSize() + 1);
  // The entry hands f the c that only g uses; f passes it on to g.
  expectVars(trailingArgs(firstApp(C.Funs[0]->Body), 1), {Cv});
  expectVars(trailingArgs(firstApp(FC->Body), 1), {FC->Params.back()});

  CodeGenStats Stats;
  ExecResult Run = execute(generateCode(C, Stats), VmOptions());
  ASSERT_TRUE(Run.Ok) << Run.TrapMessage;
  EXPECT_EQ(Run.Result, 12);
}

TEST_F(ClosureFixture, EscapingFunctionValueBuildsClosureRecordAscending) {
  // p = 1 + 2; q = 3 + 4
  // fix h(x, k) = t = q + x; u = t + p; k(u)      (escaping)
  // in w = [h]; halt w
  CVar P = B.fresh(), Q = B.fresh();
  CVar H = B.fresh(), X = B.fresh(), K = B.fresh(), T = B.fresh(),
       U = B.fresh();
  CVar W = B.fresh();
  CFun *HF = B.fun(CFun::Kind::Escape, H, {X, K}, {Cty::intTy(), Cty::cntTy()},
                   add(var(Q), var(X), T,
                       add(var(T), var(P), U, B.app(var(K), {var(U)}))));
  Cexp *Program = add(
      CValue::intC(1), CValue::intC(2), P,
      add(CValue::intC(3), CValue::intC(4), Q,
          B.fix({HF}, B.record(RecordKind::Std, {{var(H), false}}, W,
                               B.halt(var(W))))));

  ClosureResult C = convert(Program);
  EXPECT_EQ(C.ClosuresBuilt, 1u);
  // The closure record is materialized just before the record using it.
  const Cexp *E = C.Funs[0]->Body;
  while (E && !(E->K == Cexp::Kind::Record && E->RK == RecordKind::Closure))
    E = E->C1;
  ASSERT_NE(E, nullptr);
  ASSERT_EQ(E->Fields.size(), 3u);
  EXPECT_EQ(E->Fields[0].V.K, CValue::Kind::Label);
  EXPECT_EQ(E->Fields[0].V.I, 1);
  EXPECT_TRUE(E->Fields[1].V.isVar());
  EXPECT_EQ(E->Fields[1].V.V, P);
  EXPECT_TRUE(E->Fields[2].V.isVar());
  EXPECT_EQ(E->Fields[2].V.V, Q);
  // h takes its closure, x and k's bundle: what it captured comes from
  // the closure record, not from extra parameters.
  EXPECT_EQ(C.Funs[1]->Params.size(), 1 + 1 + bundleSize());
}

TEST_F(ClosureFixture, ContinuationPastCalleeSavesSpillsOnce) {
  // v1 = 1 + 1; ...; vN = N + N with N = kGpCalleeSaves + 1
  // fix k(r) = s1 = r + v1; ...; sN = s(N-1) + vN; halt sN   (continuation)
  // in k(0)
  const int N = kGpCalleeSaves + 1;
  std::vector<CVar> Vs, Ss;
  for (int I = 0; I < N; ++I)
    Vs.push_back(B.fresh());
  CVar K = B.fresh(), R = B.fresh();
  for (int I = 0; I < N; ++I)
    Ss.push_back(B.fresh());
  Cexp *Body = B.halt(var(Ss.back()));
  for (int I = N; I-- > 0;)
    Body = add(I == 0 ? var(R) : var(Ss[I - 1]), var(Vs[I]), Ss[I], Body);
  CFun *KF = B.fun(CFun::Kind::Cont, K, {R}, {Cty::intTy()}, Body);
  Cexp *Program = B.fix({KF}, B.app(var(K), {CValue::intC(0)}));
  for (int I = N; I-- > 0;)
    Program = add(CValue::intC(I + 1), CValue::intC(I + 1), Vs[I], Program);

  ClosureResult C = convert(Program);
  EXPECT_EQ(C.ContSpills, 1u);
  EXPECT_EQ(C.ContFloatBoxes, 0u);

  CodeGenStats Stats;
  ExecResult Run = execute(generateCode(C, Stats), VmOptions());
  ASSERT_TRUE(Run.Ok) << Run.TrapMessage;
  EXPECT_EQ(Run.Result, N * (N + 1));
}

TEST_F(ClosureFixture, BothBranchArmsNumberRegistersFromTheSameStart) {
  // if 1 = 2 then (a = 5 + 6; halt a)
  // else (b = 7 + 8; c = b + 9; halt c)
  CVar Av = B.fresh(), Bv = B.fresh(), Cv = B.fresh();
  Cexp *Then = add(CValue::intC(5), CValue::intC(6), Av, B.halt(var(Av)));
  Cexp *Else =
      add(CValue::intC(7), CValue::intC(8), Bv,
          add(var(Bv), CValue::intC(9), Cv, B.halt(var(Cv))));
  Cexp *Program =
      B.branch(BranchOp::Ieq, {CValue::intC(1), CValue::intC(2)}, Then, Else);

  ClosureResult C = convert(Program);
  CodeGenStats Stats;
  TmProgram P = generateCode(C, Stats);
  const std::vector<Insn> &Code = P.Funs[0].Code;
  size_t Br = 0;
  while (Br < Code.size() && Code[Br].Op != TmOp::Br)
    ++Br;
  ASSERT_LT(Br, Code.size());
  // The else arm falls through; the then arm starts at the branch target.
  size_t ElseStart = Br + 1;
  size_t ThenStart = static_cast<size_t>(Code[Br].Imm);
  ASSERT_LT(ThenStart, Code.size());
  ASSERT_EQ(Code[ElseStart].Op, TmOp::MovI);
  ASSERT_EQ(Code[ThenStart].Op, TmOp::MovI);
  // Each arm's first fresh register is the one after the two operands
  // of the comparison, although the else arm, generated first, used five.
  EXPECT_EQ(Code[ElseStart].Rd, Code[ThenStart].Rd);
  EXPECT_EQ(Code[ThenStart].Rd, 3);

  ExecResult Run = execute(P, VmOptions());
  ASSERT_TRUE(Run.Ok) << Run.TrapMessage;
  EXPECT_EQ(Run.Result, 24);
}
