//===- lexp/Translate.cpp - Absyn to LEXP translation -------------------------===//

#include "lexp/Translate.h"

#include "lexp/PrimRep.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

using namespace smltc;

LVar Translator::lvarOf(ValInfo *V) {
  auto It = ValMap.find(V);
  if (It != ValMap.end())
    return It->second;
  LVar L = B.fresh();
  ValMap.emplace(V, L);
  return L;
}

LVar Translator::lvarOfStr(StrInfo *S) {
  auto It = StrMap.find(S);
  if (It != StrMap.end())
    return It->second;
  LVar L = B.fresh();
  StrMap.emplace(S, L);
  return L;
}

LVar Translator::lvarOfExn(ExnInfo *X) {
  auto It = ExnMap.find(X);
  if (It != ExnMap.end())
    return It->second;
  LVar L = B.fresh();
  ExnMap.emplace(X, L);
  return L;
}

LVar Translator::lvarOfFct(FctInfo *F) {
  auto It = FctMap.find(F);
  if (It != FctMap.end())
    return It->second;
  LVar L = B.fresh();
  FctMap.emplace(F, L);
  return L;
}

//===----------------------------------------------------------------------===//
// Primitive representation types
//===----------------------------------------------------------------------===//

int smltc::primArity(PrimId P) {
  switch (P) {
  case PrimId::INeg:
  case PrimId::IAbs:
  case PrimId::FNeg:
  case PrimId::FAbs:
  case PrimId::RealFromInt:
  case PrimId::Floor:
  case PrimId::Sqrt:
  case PrimId::Sin:
  case PrimId::Cos:
  case PrimId::Atan:
  case PrimId::Exp:
  case PrimId::Ln:
  case PrimId::StrSize:
  case PrimId::Chr:
  case PrimId::Ord:
  case PrimId::IntToString:
  case PrimId::RealToString:
  case PrimId::Deref:
  case PrimId::ArrayLength:
  case PrimId::Callcc:
  case PrimId::Throw:
  case PrimId::Print:
    return 1;
  case PrimId::Substring:
  case PrimId::ArrayUpdate:
    return 3;
  case PrimId::MakeTag:
    return 1; // builtin-exception index (0 for user exceptions)
  default:
    return 2;
  }
}

const Lty *smltc::primArgLty(LtyContext &LC, PrimId P, int I) {
  const Lty *INT = LC.intTy();
  const Lty *REAL = LC.realTy();
  const Lty *BOX = LC.boxedTy();
  const Lty *RB = LC.rboxedTy();
  switch (P) {
  case PrimId::IAdd: case PrimId::ISub: case PrimId::IMul:
  case PrimId::IDiv: case PrimId::IMod: case PrimId::ILt:
  case PrimId::ILe: case PrimId::IGt: case PrimId::IGe:
  case PrimId::IEq: case PrimId::INeg: case PrimId::IAbs:
    return INT;
  case PrimId::FAdd: case PrimId::FSub: case PrimId::FMul:
  case PrimId::FDiv: case PrimId::FLt: case PrimId::FLe:
  case PrimId::FGt: case PrimId::FGe: case PrimId::FEq:
  case PrimId::FNeg: case PrimId::FAbs:
  case PrimId::Floor: case PrimId::Sqrt: case PrimId::Sin:
  case PrimId::Cos: case PrimId::Atan: case PrimId::Exp:
  case PrimId::Ln: case PrimId::RealToString:
    return REAL;
  case PrimId::RealFromInt:
  case PrimId::IntToString:
  case PrimId::Chr:
  case PrimId::MakeTag:
    return INT;
  case PrimId::StrSize: case PrimId::Ord:
    return BOX;
  case PrimId::StrSub:
    return I == 0 ? BOX : INT;
  case PrimId::StrConcat: case PrimId::StrEq: case PrimId::StrCmp:
    return BOX;
  case PrimId::Substring:
    return I == 0 ? BOX : INT;
  case PrimId::Deref:
    return BOX;
  case PrimId::Assign:
    return I == 0 ? BOX : RB;
  case PrimId::ArrayMake:
    return I == 0 ? INT : RB;
  case PrimId::ArraySub:
    return I == 0 ? BOX : INT;
  case PrimId::ArrayUpdate:
    return I == 0 ? BOX : (I == 1 ? INT : RB);
  case PrimId::ArrayLength:
    return BOX;
  case PrimId::PolyEq:
    return RB;
  case PrimId::PtrEq:
    return BOX;
  case PrimId::Callcc:
    return LC.arrow(BOX, RB);
  case PrimId::Throw:
    return BOX;
  case PrimId::Print:
    return BOX;
  default:
    return RB;
  }
}

const Lty *smltc::primResLty(LtyContext &LC, PrimId P) {
  const Lty *INT = LC.intTy();
  const Lty *REAL = LC.realTy();
  const Lty *BOX = LC.boxedTy();
  const Lty *RB = LC.rboxedTy();
  switch (P) {
  case PrimId::IAdd: case PrimId::ISub: case PrimId::IMul:
  case PrimId::IDiv: case PrimId::IMod: case PrimId::INeg:
  case PrimId::IAbs: case PrimId::Floor: case PrimId::StrSize:
  case PrimId::StrSub: case PrimId::StrCmp: case PrimId::Ord:
  case PrimId::ArrayLength: case PrimId::Assign:
  case PrimId::ArrayUpdate: case PrimId::Print:
    return INT;
  case PrimId::FAdd: case PrimId::FSub: case PrimId::FMul:
  case PrimId::FDiv: case PrimId::FNeg: case PrimId::FAbs:
  case PrimId::RealFromInt: case PrimId::Sqrt: case PrimId::Sin:
  case PrimId::Cos: case PrimId::Atan: case PrimId::Exp:
  case PrimId::Ln:
    return REAL;
  case PrimId::ILt: case PrimId::ILe: case PrimId::IGt:
  case PrimId::IGe: case PrimId::IEq: case PrimId::FLt:
  case PrimId::FLe: case PrimId::FGt: case PrimId::FGe:
  case PrimId::FEq: case PrimId::StrEq: case PrimId::PolyEq:
  case PrimId::PtrEq:
    return BOX; // bool values
  case PrimId::StrConcat: case PrimId::Substring: case PrimId::Chr:
  case PrimId::IntToString: case PrimId::RealToString:
  case PrimId::ArrayMake: case PrimId::MakeTag:
    return BOX;
  case PrimId::Deref: case PrimId::ArraySub: case PrimId::Callcc:
    return RB;
  case PrimId::Throw:
    return LC.arrow(RB, RB);
  default:
    return RB;
  }
}

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

Lexp *Translator::boolConst(bool V) {
  return B.conExp(V ? Types.TrueCon : Types.FalseCon, nullptr);
}

Lexp *Translator::exnValue(Lexp *Tag, Type *Payload, Lexp *Arg) {
  // exn = [tag, payload], payload always standard boxed.
  Lexp *Pay;
  if (Payload && Arg)
    Pay = C.coerce(ltyOf(Payload), LC.rboxedTy(), Arg);
  else
    Pay = C.coerce(LC.intTy(), LC.rboxedTy(), B.intConst(0));
  const Lty *ExnLty =
      LC.record({LC.boxedTy(), LC.rboxedTy()});
  return B.record({Tag, Pay}, ExnLty);
}

Lexp *Translator::raiseExn(ExnInfo *X, const Lty *ResLty) {
  Lexp *Tag = B.var(lvarOfExn(X));
  return B.raise(exnValue(Tag, nullptr, nullptr), ResLty);
}

/// Structural equality specialization (paper Section 4.4: "polymorphic
/// equality, if used monomorphically, can be translated into primitive
/// equality").
Lexp *Translator::equalityExp(Type *Ty, Lexp *AVal, Lexp *BVal) {
  Type *T = Types.headNormalize(Ty);
  switch (T->K) {
  case Type::Kind::Con: {
    TyCon *TC = T->Con;
    if (TC == Types.IntTycon || TC == Types.UnitTycon)
      return B.prim(PrimId::IEq, {AVal, BVal});
    if (TC == Types.RealTycon) {
      // Values are at lty(real): REAL under FullFloat, boxed otherwise.
      const Lty *RL = ltyOf(T);
      return B.prim(PrimId::FEq, {C.coerce(RL, LC.realTy(), AVal),
                                  C.coerce(RL, LC.realTy(), BVal)});
    }
    if (TC == Types.StringTycon)
      return B.prim(PrimId::StrEq, {AVal, BVal});
    if (TC == Types.RefTycon || TC == Types.ArrayTycon)
      return B.prim(PrimId::PtrEq, {AVal, BVal});
    if (TC->K == TyCon::Kind::Datatype) {
      bool AllConstant = true;
      for (DataCon *DC : TC->Cons)
        if (DC->Payload)
          AllConstant = false;
      if (AllConstant)
        return B.prim(PrimId::IEq, {AVal, BVal});
      // General datatype: values are already recursively boxed.
      return B.prim(PrimId::PolyEq,
                    {C.coerce(ltyOf(T), LC.rboxedTy(), AVal),
                     C.coerce(ltyOf(T), LC.rboxedTy(), BVal)});
    }
    // Flexible / abstract: runtime structural equality on RBOXED.
    return B.prim(PrimId::PolyEq,
                  {C.coerce(ltyOf(T), LC.rboxedTy(), AVal),
                   C.coerce(ltyOf(T), LC.rboxedTy(), BVal)});
  }
  case Type::Kind::Tuple: {
    if (T->Elems.empty())
      return boolConst(true);
    // Inline field-wise comparison (fast path the MTD anecdote relies on).
    LVar X = B.fresh(), Y = B.fresh();
    Lexp *Acc = nullptr;
    for (size_t I = T->Elems.size(); I-- > 0;) {
      Lexp *FieldEq = equalityExp(
          T->Elems[I], B.select(static_cast<int>(I), B.var(X)),
          B.select(static_cast<int>(I), B.var(Y)));
      if (!Acc) {
        Acc = FieldEq;
      } else {
        // FieldEq andalso Acc
        std::vector<SwitchCase> Cases(2);
        Cases[0].Con = Types.TrueCon;
        Cases[0].Body = Acc;
        Cases[1].Con = Types.FalseCon;
        Cases[1].Body = boolConst(false);
        Acc = B.switchExp(FieldEq, SwitchKind::Con, Cases, nullptr);
      }
    }
    return B.let(X, AVal, B.let(Y, BVal, Acc));
  }
  case Type::Kind::Var:
    // Still polymorphic: equality type variables lower to RBOXED, so the
    // runtime structural walk is safe.
    return B.prim(PrimId::PolyEq, {AVal, BVal});
  case Type::Kind::Arrow:
    break;
  }
  Diags.error(SourceLoc(), "equality at a type that does not admit it");
  return boolConst(false);
}

//===----------------------------------------------------------------------===//
// Primitives
//===----------------------------------------------------------------------===//

Lexp *Translator::saturatePrim(PrimId P, Lexp *ArgVal, Type *ArgTy) {
  int N = primArity(P);
  if (N == 0)
    return B.prim(P, {});
  Type *AT = Types.headNormalize(ArgTy);
  if (N == 1) {
    const Lty *Want = primArgLty(LC, P, 0);
    return B.prim(P, {C.coerce(ltyOf(AT), Want, ArgVal)});
  }
  assert(AT->K == Type::Kind::Tuple &&
         static_cast<int>(AT->Elems.size()) == N &&
         "prim argument tuple mismatch");
  LVar X = B.fresh();
  std::vector<Lexp *> Args;
  for (int I = 0; I < N; ++I) {
    const Lty *Have = ltyOf(AT->Elems[I]);
    const Lty *Want = primArgLty(LC, P, I);
    Args.push_back(C.coerce(Have, Want, B.select(I, B.var(X))));
  }
  return B.let(X, ArgVal, B.prim(P, Args));
}

Lexp *Translator::transPrimApp(AExp *PrimExp, AExp *ArgExp, Type *ResTy) {
  PrimId P = PrimExp->Prim;
  Type *ArgTy = ArgExp->Ty;
  Lexp *ArgVal = transExp(ArgExp);

  if (P == PrimId::GenericEq || P == PrimId::GenericNe) {
    Type *AT = Types.headNormalize(ArgTy);
    assert(AT->K == Type::Kind::Tuple && AT->Elems.size() == 2);
    LVar X = B.fresh();
    Lexp *Eq = equalityExp(AT->Elems[0], B.select(0, B.var(X)),
                           B.select(1, B.var(X)));
    if (P == PrimId::GenericNe) {
      std::vector<SwitchCase> Cases(2);
      Cases[0].Con = Types.TrueCon;
      Cases[0].Body = boolConst(false);
      Cases[1].Con = Types.FalseCon;
      Cases[1].Body = boolConst(true);
      Eq = B.switchExp(Eq, SwitchKind::Con, Cases, nullptr);
    }
    return B.let(X, ArgVal, Eq);
  }

  assert(!isUnresolvedPrim(P) && "unresolved overloaded primitive");
  Lexp *Res = saturatePrim(P, ArgVal, ArgTy);
  return C.coerce(primResLty(LC, P), ltyOf(ResTy), Res);
}

Lexp *Translator::primValue(AExp *PrimExp) {
  // A primitive used as a first-class value: eta-expand at the instance
  // type (the coercions below then adapt representations).
  Type *T = Types.headNormalize(PrimExp->Ty);
  assert(T->K == Type::Kind::Arrow && "prim value must have function type");
  PrimId P = PrimExp->Prim;
  LVar X = B.fresh();
  const Lty *ArgL = ltyOf(T->From);
  const Lty *ResL = ltyOf(T->To);

  Lexp *Body;
  if (P == PrimId::GenericEq || P == PrimId::GenericNe) {
    Type *AT = Types.headNormalize(T->From);
    assert(AT->K == Type::Kind::Tuple && AT->Elems.size() == 2);
    Body = equalityExp(AT->Elems[0], B.select(0, B.var(X)),
                       B.select(1, B.var(X)));
    if (P == PrimId::GenericNe) {
      std::vector<SwitchCase> Cases(2);
      Cases[0].Con = Types.TrueCon;
      Cases[0].Body = boolConst(false);
      Cases[1].Con = Types.FalseCon;
      Cases[1].Body = boolConst(true);
      Body = B.switchExp(Body, SwitchKind::Con, Cases, nullptr);
    }
  } else {
    Lexp *Res = saturatePrim(P, B.var(X), T->From);
    Body = C.coerce(primResLty(LC, P), ResL, Res);
  }
  return B.fn(X, ArgL, ResL, Body);
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

Lexp *Translator::transMatchFn(Span<ARule> Rules, Type *ArgTy, Type *ResTy,
                               ExnInfo *FailureExn, SourceLoc Loc) {
  (void)Loc;
  LVar Param = B.fresh();
  const Lty *ResL = ltyOf(ResTy);
  std::vector<MatchCompiler::Row> Rows;
  for (const ARule &R : Rules) {
    MatchCompiler::Row Row;
    Row.Pats = {R.P};
    AExp *BodyExp = R.E;
    Row.Emit =
        [this, BodyExp](const std::vector<std::pair<ValInfo *, LVar>> &BS)
        -> Lexp * {
      for (const auto &[V, L] : BS)
        ValMap[V] = L;
      return transExp(BodyExp);
    };
    Rows.push_back(std::move(Row));
  }
  MatchCompiler::Col Col;
  Col.V = Param;
  Col.Ty = ArgTy;
  Col.Std = false;
  Lexp *Body = MC.compile({Col}, Rows, [this, FailureExn, ResL]() {
    return raiseExn(FailureExn, ResL);
  });
  return B.fn(Param, ltyOf(ArgTy), ResL, Body);
}

Lexp *Translator::transFnExp(AExp *E) {
  Type *T = Types.headNormalize(E->Ty);
  assert(T->K == Type::Kind::Arrow);
  return transMatchFn(E->Rules, T->From, T->To, Exns.Match, E->Loc);
}

Lexp *Translator::transExp(AExp *E) {
  switch (E->K) {
  case AExp::Kind::Int:
    return B.intConst(E->IntValue);
  case AExp::Kind::Real: {
    Lexp *R = B.realConst(E->RealValue);
    // Real literals are REAL values; coerce into the mode's representation.
    return C.coerce(LC.realTy(), ltyOf(E->Ty), R);
  }
  case AExp::Kind::String:
    return B.strConst(E->StrValue);
  case AExp::Kind::Var: {
    Lexp *V = B.var(lvarOf(E->Var));
    const Lty *Src = Low.lowerScheme(E->Var->Scheme);
    const Lty *Dst = ltyOf(E->Ty);
    return C.coerce(Src, Dst, V);
  }
  case AExp::Kind::Path: {
    Lexp *V = B.var(lvarOfStr(E->Root));
    for (int Slot : E->Slots)
      V = B.select(Slot, V);
    const Lty *Src = Low.lowerScheme(E->PathScheme);
    const Lty *Dst = ltyOf(E->Ty);
    return C.coerce(Src, Dst, V);
  }
  case AExp::Kind::Prim:
    return primValue(E);
  case AExp::Kind::ExnTag:
    return B.var(lvarOfExn(E->Exn));
  case AExp::Kind::ExnCon: {
    Lexp *Tag = transExp(E->TagExp);
    if (E->ExnPayload && !E->Arg) {
      // Bare value-carrying exception constructor: eta-expand.
      LVar X = B.fresh();
      const Lty *PayL = ltyOf(E->ExnPayload);
      Lexp *Val = exnValue(Tag, E->ExnPayload, B.var(X));
      return B.fn(X, PayL, LC.boxedTy(), Val);
    }
    Lexp *Arg = E->Arg ? transExp(E->Arg) : nullptr;
    Lexp *V = exnValue(Tag, E->ExnPayload, Arg);
    // The record is typed RECORD[...]; uses expect BOXED exn.
    return B.wrap(LC.record({LC.boxedTy(), LC.rboxedTy()}), V,
                  LC.boxedTy());
  }
  case AExp::Kind::Con: {
    DataCon *DC = E->Con;
    if (!DC->Payload)
      return B.conExp(DC, nullptr);
    if (E->Arg) {
      Type *PayTy = Types.substitute(DC->Payload, DC->Owner->Formals,
                                     E->TypeArgs);
      Lexp *Arg = transExp(E->Arg);
      Lexp *Pay = C.coerce(ltyOf(PayTy), LC.rboxedTy(), Arg);
      return B.conExp(DC, Pay);
    }
    // Bare value-carrying constructor: eta-expand at the instance type.
    Type *T = Types.headNormalize(E->Ty);
    assert(T->K == Type::Kind::Arrow);
    LVar X = B.fresh();
    Lexp *Pay = C.coerce(ltyOf(T->From), LC.rboxedTy(), B.var(X));
    return B.fn(X, ltyOf(T->From), ltyOf(T->To), B.conExp(DC, Pay));
  }
  case AExp::Kind::Tuple: {
    if (E->Elems.empty())
      return B.intConst(0); // unit
    std::vector<Lexp *> Elems;
    for (AExp *X : E->Elems)
      Elems.push_back(transExp(X));
    return B.record(Elems, ltyOf(E->Ty));
  }
  case AExp::Kind::Select:
    return B.select(E->SelectIndex, transExp(E->Arg));
  case AExp::Kind::App: {
    if (E->Fun->K == AExp::Kind::Prim)
      return transPrimApp(E->Fun, E->Arg, E->Ty);
    Lexp *F = transExp(E->Fun);
    Lexp *Arg = transExp(E->Arg);
    return B.app(F, Arg);
  }
  case AExp::Kind::Fn:
    return transFnExp(E);
  case AExp::Kind::Case: {
    // Compile as an applied match-function body: bind the scrutinee and
    // run the decision tree inline.
    Lexp *Scrut = transExp(E->Scrut);
    LVar SV = B.fresh();
    std::vector<MatchCompiler::Row> Rows;
    for (const ARule &R : E->Rules) {
      MatchCompiler::Row Row;
      Row.Pats = {R.P};
      AExp *BodyExp = R.E;
      Row.Emit =
          [this, BodyExp](const std::vector<std::pair<ValInfo *, LVar>> &BS)
          -> Lexp * {
        for (const auto &[V, L] : BS)
          ValMap[V] = L;
        return transExp(BodyExp);
      };
      Rows.push_back(std::move(Row));
    }
    MatchCompiler::Col Col;
    Col.V = SV;
    Col.Ty = E->Scrut->Ty;
    Col.Std = false;
    const Lty *ResL = ltyOf(E->Ty);
    Lexp *Body = MC.compile({Col}, Rows, [this, ResL]() {
      return raiseExn(Exns.Match, ResL);
    });
    return B.let(SV, Scrut, Body);
  }
  case AExp::Kind::Let: {
    AExp *BodyExp = E->Body;
    return transDecs(E->Decs, 0,
                     [this, BodyExp]() { return transExp(BodyExp); });
  }
  case AExp::Kind::Seq: {
    Lexp *Result = nullptr;
    std::vector<Lexp *> Vals;
    for (AExp *X : E->Elems)
      Vals.push_back(transExp(X));
    Result = Vals.back();
    for (size_t I = Vals.size() - 1; I-- > 0;)
      Result = B.let(B.fresh(), Vals[I], Result);
    return Result;
  }
  case AExp::Kind::Raise:
    return B.raise(transExp(E->Arg), ltyOf(E->Ty));
  case AExp::Kind::Handle: {
    Lexp *Body = transExp(E->Arg);
    LVar XV = B.fresh();
    std::vector<MatchCompiler::Row> Rows;
    for (const ARule &R : E->Rules) {
      MatchCompiler::Row Row;
      Row.Pats = {R.P};
      AExp *BodyExp = R.E;
      Row.Emit =
          [this, BodyExp](const std::vector<std::pair<ValInfo *, LVar>> &BS)
          -> Lexp * {
        for (const auto &[V, L] : BS)
          ValMap[V] = L;
        return transExp(BodyExp);
      };
      Rows.push_back(std::move(Row));
    }
    MatchCompiler::Col Col;
    Col.V = XV;
    Col.Ty = Types.ExnType;
    Col.Std = false;
    const Lty *ResL = ltyOf(E->Ty);
    Lexp *HBody = MC.compile({Col}, Rows, [this, XV, ResL]() {
      // Unhandled: re-raise.
      return B.raise(B.var(XV), ResL);
    });
    Lexp *Handler = B.fn(XV, LC.boxedTy(), ResL, HBody);
    return B.handle(Body, Handler);
  }
  case AExp::Kind::StrLet:
    break;
  }
  assert(false && "unhandled Absyn expression");
  return B.intConst(0);
}

//===----------------------------------------------------------------------===//
// Declarations and modules
//===----------------------------------------------------------------------===//

Lexp *Translator::transDecs(Span<ADec *> Decs, size_t I,
                            const std::function<Lexp *()> &Body) {
  if (I == Decs.size())
    return Body();
  return transDec(Decs[I], [this, Decs, I, &Body]() {
    return transDecs(Decs, I + 1, Body);
  });
}

Lexp *Translator::transDec(ADec *D, const std::function<Lexp *()> &Body) {
  switch (D->K) {
  case ADec::Kind::Val: {
    Lexp *Rhs = transExp(D->Exp);
    APat *P = D->Pat;
    // Common case: a simple variable binding.
    if (P->K == APat::Kind::Var) {
      LVar V = lvarOf(P->Var);
      return B.let(V, Rhs, Body());
    }
    if (P->K == APat::Kind::Wild)
      return B.let(B.fresh(), Rhs, Body());
    // General pattern: run the decision tree; failure raises Bind.
    LVar SV = B.fresh();
    MatchCompiler::Row Row;
    Row.Pats = {P};
    Row.Emit =
        [this, &Body](const std::vector<std::pair<ValInfo *, LVar>> &BS)
        -> Lexp * {
      for (const auto &[V, L] : BS)
        ValMap[V] = L;
      return Body();
    };
    MatchCompiler::Col Col;
    Col.V = SV;
    Col.Ty = P->Ty;
    Col.Std = false;
    // The result type of the continuation is unknown here; Bind failures
    // use RBOXED, which any context accepts after the raise.
    Lexp *MBody = MC.compile({Col}, {Row}, [this]() {
      return raiseExn(Exns.Bind, LC.rboxedTy());
    });
    return B.let(SV, Rhs, MBody);
  }
  case ADec::Kind::ValRec: {
    std::vector<FixDef> Defs;
    for (size_t I = 0; I < D->RecVars.size(); ++I) {
      LVar Name = lvarOf(D->RecVars[I]);
      Lexp *Fn = transExp(D->RecExps[I]);
      assert(Fn->K == Lexp::Kind::Fn && "val rec rhs must be a function");
      FixDef FD;
      FD.Name = Name;
      FD.Param = Fn->Var;
      FD.ParamLty = Fn->Ty;
      FD.RetLty = Fn->Ty2;
      FD.Body = Fn->A1;
      Defs.push_back(FD);
    }
    return B.fix(Span<FixDef>::copy(A, Defs), Body());
  }
  case ADec::Kind::Exception: {
    LVar Tag = lvarOfExn(D->Exn);
    return B.let(Tag, B.prim(PrimId::MakeTag, {B.intConst(0)}), Body());
  }
  case ADec::Kind::Structure: {
    Lexp *S = transStrExp(D->StrExp);
    return B.let(lvarOfStr(D->Str), S, Body());
  }
  case ADec::Kind::Functor: {
    FctInfo *F = D->Fct;
    LVar Param = lvarOfStr(F->Param);
    Lexp *FBody = transStrExp(F->Body);
    const Lty *ArgL = Low.lowerStatic(F->ParamStatic);
    const Lty *ResL = Low.lowerStatic(F->BodyStatic);
    Lexp *Fn = B.fn(Param, ArgL, ResL, FBody);
    return B.let(lvarOfFct(F), Fn, Body());
  }
  case ADec::Kind::Empty:
    return Body();
  }
  return Body();
}

namespace {
/// The SRECORD type a thinning produces (the "view" type).
const Lty *thinningLty(const Thinning *T, TypeLowering &Low,
                       LtyContext &LC) {
  std::vector<const Lty *> Fields;
  for (const ThinComp &C : T->Comps) {
    switch (C.K) {
    case StrComp::Kind::Val:
      Fields.push_back(Low.lowerScheme(C.DstScheme));
      break;
    case StrComp::Kind::Exn:
      Fields.push_back(LC.boxedTy());
      break;
    case StrComp::Kind::Str:
      Fields.push_back(thinningLty(C.Sub, Low, LC));
      break;
    }
  }
  return LC.srecord(Fields);
}
} // namespace

Lexp *Translator::transThinning(const Thinning *T, Lexp *SrcVal) {
  LVar S = B.fresh();
  std::vector<Lexp *> Fields;
  std::vector<const Lty *> FieldLtys;
  for (const ThinComp &C2 : T->Comps) {
    Lexp *Src = B.select(C2.SrcSlot, B.var(S));
    switch (C2.K) {
    case StrComp::Kind::Val: {
      const Lty *From = Low.lowerScheme(C2.SrcScheme);
      const Lty *To = Low.lowerScheme(C2.DstScheme);
      Fields.push_back(C.coerce(From, To, Src));
      FieldLtys.push_back(To);
      break;
    }
    case StrComp::Kind::Exn:
      Fields.push_back(Src);
      FieldLtys.push_back(LC.boxedTy());
      break;
    case StrComp::Kind::Str: {
      Lexp *Sub = transThinning(C2.Sub, Src);
      Fields.push_back(Sub);
      FieldLtys.push_back(thinningLty(C2.Sub, Low, LC));
      break;
    }
    }
  }
  const Lty *RecL = LC.srecord(FieldLtys);
  return B.let(S, SrcVal, B.record(Fields, RecL));
}

Lexp *Translator::transStrExp(AStrExp *S) {
  switch (S->K) {
  case AStrExp::Kind::Struct: {
    Span<SlotRef> Slots = S->Slots;
    return transDecs(S->Decs, 0, [this, Slots]() -> Lexp * {
      std::vector<Lexp *> Fields;
      std::vector<const Lty *> FieldLtys;
      for (const SlotRef &R : Slots) {
        switch (R.K) {
        case StrComp::Kind::Val: {
          Lexp *V = B.var(lvarOf(R.Val));
          const Lty *From = Low.lowerScheme(R.Val->Scheme);
          const Lty *To = Low.lowerScheme(R.CompScheme);
          Fields.push_back(C.coerce(From, To, V));
          FieldLtys.push_back(To);
          break;
        }
        case StrComp::Kind::Exn:
          Fields.push_back(B.var(lvarOfExn(R.Exn)));
          FieldLtys.push_back(LC.boxedTy());
          break;
        case StrComp::Kind::Str: {
          Lexp *V = B.var(lvarOfStr(R.Str));
          Fields.push_back(V);
          FieldLtys.push_back(Low.lowerStatic(R.Str->Static));
          break;
        }
        }
      }
      return B.record(Fields, LC.srecord(FieldLtys));
    });
  }
  case AStrExp::Kind::Var: {
    Lexp *V = B.var(lvarOfStr(S->Root));
    for (int Slot : S->Path)
      V = B.select(Slot, V);
    return V;
  }
  case AStrExp::Kind::FctApp: {
    Lexp *Arg = transStrExp(S->Arg);
    Lexp *ArgView = transThinning(S->ArgThin, Arg);
    Lexp *F = B.var(lvarOfFct(S->Fct));
    Lexp *Res = B.app(F, ArgView);
    const Lty *From = Low.lowerStatic(S->AbstractResult);
    const Lty *To = Low.lowerStatic(S->Static);
    return C.coerce(From, To, Res);
  }
  case AStrExp::Kind::Thinned: {
    Lexp *Inner = transStrExp(S->Inner);
    return transThinning(S->Thin, Inner);
  }
  }
  assert(false && "unhandled structure expression");
  return B.intConst(0);
}

//===----------------------------------------------------------------------===//
// Unused top-level functions
//===----------------------------------------------------------------------===//

namespace {

/// The value variables that kept code names, wherever a ValInfo can be
/// named: expressions, handler and pattern tag expressions, nested
/// declarations, structure slots and functor bodies. Each walk visits
/// every child field; the ones a node's kind does not use are empty.
class LiveVars {
public:
  bool has(const ValInfo *V) const { return Live.count(V) != 0; }

  void dec(const ADec *D) {
    pat(D->Pat);
    exp(D->Exp);
    for (const AExp *E : D->RecExps)
      exp(E);
    strExp(D->StrExp);
    if (D->Fct)
      strExp(D->Fct->Body);
  }

  void exp(const AExp *E) {
    if (!E)
      return;
    if (E->K == AExp::Kind::Var)
      Live.insert(E->Var);
    exp(E->TagExp);
    exp(E->Fun);
    exp(E->Arg);
    exp(E->Scrut);
    exp(E->Body);
    for (const AExp *X : E->Elems)
      exp(X);
    for (const ARule &R : E->Rules) {
      pat(R.P);
      exp(R.E);
    }
    for (const ADec *D : E->Decs)
      dec(D);
  }

private:
  void pat(const APat *P) {
    if (!P)
      return;
    for (const APat *X : P->Elems)
      pat(X);
    pat(P->Arg);
    exp(P->ExnTag);
  }

  void strExp(const AStrExp *S) {
    if (!S)
      return;
    for (const ADec *D : S->Decs)
      dec(D);
    for (const SlotRef &R : S->Slots)
      if (R.Val)
        Live.insert(R.Val);
    strExp(S->Arg);
    strExp(S->Inner);
  }

  std::unordered_set<const ValInfo *> Live;
};

/// True for a `fun` group none of whose functions Live holds, and for a
/// `val x = fn ...` whose x it does not hold.
bool unusedFunctions(const ADec *D, const LiveVars &Live) {
  if (D->K == ADec::Kind::ValRec)
    return std::none_of(D->RecVars.begin(), D->RecVars.end(),
                        [&](const ValInfo *V) { return Live.has(V); });
  return D->K == ADec::Kind::Val && D->Pat->K == APat::Kind::Var &&
         D->Exp->K == AExp::Kind::Fn && !Live.has(D->Pat->Var);
}

/// The top-level declarations worth translating, in program order. One
/// backward pass drops the functions that neither the program's result
/// nor a declaration kept after them names. Every other declaration
/// stays: it may have effects or create exception tags. Naming is by
/// variable identity, so a user binding that shadows a prelude function
/// does not keep the prelude's alive.
std::vector<ADec *> usedTopLevel(const AProgram &P) {
  LiveVars Live;
  Live.exp(P.Result);
  std::vector<ADec *> Kept;
  for (size_t I = P.Decs.size(); I-- > 0;) {
    ADec *D = P.Decs[I];
    if (unusedFunctions(D, Live))
      continue;
    Live.dec(D);
    Kept.push_back(D);
  }
  std::reverse(Kept.begin(), Kept.end());
  return Kept;
}

} // namespace

Lexp *Translator::translate(const AProgram &P) {
  std::vector<ADec *> Used = usedTopLevel(P);
  Span<ADec *> Decs(Used.data(), Used.size());
  Lexp *Program = transDecs(Decs, 0, [this, &P]() -> Lexp * {
    if (P.Result)
      return C.coerce(ltyOf(P.Result->Ty), LC.intTy(), transExp(P.Result));
    return B.intConst(0);
  });

  // Prologue: create the builtin exception tags. The positive indices let
  // the runtime identify the tags it raises itself (Div, Subscript, ...).
  std::vector<ExnInfo *> Builtins = Exns.all();
  for (size_t I = Builtins.size(); I-- > 0;) {
    LVar Tag = lvarOfExn(Builtins[I]);
    Program = B.let(
        Tag,
        B.prim(PrimId::MakeTag, {B.intConst(static_cast<int64_t>(I) + 1)}),
        Program);
  }

  // Shared (memo-ized) module coercions become one top-level FIX.
  if (!C.sharedDefs().empty())
    Program = B.fix(Span<FixDef>::copy(A, C.sharedDefs()), Program);
  return Program;
}
