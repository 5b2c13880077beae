//===- cps/CpsConvert.cpp - LEXP to CPS conversion ------------------------------===//

#include "cps/CpsConvert.h"

#include "lexp/PrimRep.h"

#include <cassert>
#include <functional>
#include <unordered_map>

using namespace smltc;

RecordLayout smltc::layoutOf(const Lty *RecordTy) {
  RecordLayout L;
  assert(RecordTy->isRecordLike());
  // Floats first (Figure 1c): physical index = rank among floats, words
  // follow after all floats.
  int FloatCount = 0;
  for (const Lty *F : RecordTy->fields())
    if (F->kind() == LtyKind::Real)
      ++FloatCount;
  int NextFloat = 0;
  int NextWord = FloatCount;
  for (const Lty *F : RecordTy->fields()) {
    if (F->kind() == LtyKind::Real)
      L.Slots.push_back({NextFloat++, true});
    else
      L.Slots.push_back({NextWord++, false});
  }
  L.NumFloats = FloatCount;
  L.NumWords = static_cast<int>(RecordTy->fields().size()) - FloatCount;
  return L;
}

namespace {

/// The conversion continuation: receives the CPS value of the expression.
using MetaK = std::function<Cexp *(CValue)>;

class Converter {
public:
  Converter(Arena &A, LtyContext &LC, const CompilerOptions &Opts)
      : A(A), LC(LC), Opts(Opts), B(A) {}

  Cexp *convertProgram(const Lexp *Program) {
    // Install the uncaught-exception handler, then run, then halt.
    CVar HFun = B.fresh();
    CVar HParam = B.fresh();
    Cexp *HBody = B.halt(CValue::intC(-1));
    HBody->Idx = 1; // exceptional halt
    CFun *H = B.fun(CFun::Kind::Cont, HFun, {HParam},
                    {Cty::ptrUnknown()}, HBody);
    Cexp *Body = conv(Program, [this](CValue V) { return B.halt(V); });
    Cexp *Install =
        B.setter(CpsOp::SetHandler, {CValue::var(HFun)}, Body);
    return B.fix({H}, Install);
  }

  CVar maxVar() const { return B.maxVar(); }

private:
  //===--------------------------------------------------------------------===//
  // LTY synthesis and argument spreading
  //===--------------------------------------------------------------------===//

  const Lty *ltyOf(const Lexp *E) {
    switch (E->K) {
    case Lexp::Kind::Var: {
      auto It = Env.find(E->Var);
      return It != Env.end() ? It->second.second : LC.rboxedTy();
    }
    case Lexp::Kind::Int:
      return LC.intTy();
    case Lexp::Kind::Real:
      return LC.realTy();
    case Lexp::Kind::String:
      return LC.boxedTy();
    case Lexp::Kind::Fn:
      return LC.arrow(E->Ty, E->Ty2);
    case Lexp::Kind::Fix:
      return ltyOf(E->A1);
    case Lexp::Kind::App: {
      const Lty *F = ltyOf(E->A1);
      return F->kind() == LtyKind::Arrow ? F->to() : LC.rboxedTy();
    }
    case Lexp::Kind::Let:
      // Good enough for the positions ltyOf is used in: the interesting
      // lets in function position wrap a literal Fn (arrow coercions).
      return ltyOf(E->A2);
    case Lexp::Kind::Record:
      return E->Ty;
    case Lexp::Kind::Select: {
      const Lty *R = ltyOf(E->A1);
      if (R->isRecordLike() &&
          E->Index < static_cast<int>(R->fields().size()))
        return R->fields()[E->Index];
      if (R->kind() == LtyKind::PRecord) {
        for (const PField &F : R->pfields())
          if (F.Index == E->Index)
            return F.Ty;
      }
      return LC.rboxedTy();
    }
    case Lexp::Kind::Con:
      return LC.boxedTy();
    case Lexp::Kind::Decon:
      return LC.rboxedTy();
    case Lexp::Kind::Switch: {
      if (!E->Cases.empty())
        return ltyOf(E->Cases[0].Body);
      return E->Default ? ltyOf(E->Default) : LC.rboxedTy();
    }
    case Lexp::Kind::Prim:
      return primResLty(LC, E->Prim);
    case Lexp::Kind::Wrap:
      return E->Ty2 ? E->Ty2 : LC.boxedTy();
    case Lexp::Kind::Unwrap:
      return E->Ty;
    case Lexp::Kind::Raise:
      return E->Ty;
    case Lexp::Kind::Handle:
      return ltyOf(E->A1);
    }
    return LC.rboxedTy();
  }

  static Cty ctyOf(const Lty *T) {
    switch (T->kind()) {
    case LtyKind::Int:
      return Cty::intTy();
    case LtyKind::Real:
      return Cty::fltTy();
    case LtyKind::Record:
    case LtyKind::SRecord:
      return Cty::ptr(static_cast<int>(T->fields().size()));
    case LtyKind::Arrow:
      return Cty::funTy();
    default:
      return Cty::ptrUnknown();
    }
  }

  /// Returns the field LTYs if calls of this parameter type use the spread
  /// convention (paper Section 5.1, footnote 6).
  bool spreads(const Lty *ParamLty, std::vector<const Lty *> &Fields) {
    if (Opts.Repr == ReprMode::Standard)
      return false;
    if (!ParamLty->isRecordLike())
      return false;
    size_t N = ParamLty->fields().size();
    if (N < 1 || N > static_cast<size_t>(kMaxSpreadArgs))
      return false;
    Fields.assign(ParamLty->fields().begin(), ParamLty->fields().end());
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Core conversion
  //===--------------------------------------------------------------------===//

  void bind(LVar V, CValue CV, const Lty *T) { Env[V] = {CV, T}; }

  Cexp *conv(const Lexp *E, const MetaK &K) {
    switch (E->K) {
    case Lexp::Kind::Var: {
      auto It = Env.find(E->Var);
      assert(It != Env.end() && "unbound LEXP variable in CPS conversion");
      return K(It->second.first);
    }
    case Lexp::Kind::Int:
      return K(CValue::intC(E->IntVal));
    case Lexp::Kind::Real:
      return K(CValue::realC(E->RealVal));
    case Lexp::Kind::String:
      return K(CValue::strC(E->StrVal));
    case Lexp::Kind::Let: {
      const Lexp *Body = E->A2;
      LVar V = E->Var;
      const Lty *RhsLty = ltyOf(E->A1);
      return conv(E->A1, [this, Body, V, RhsLty, &K](CValue RV) {
        bind(V, RV, RhsLty);
        return conv(Body, K);
      });
    }
    case Lexp::Kind::Fn: {
      CVar FV = B.fresh();
      CFun *F = convertFunction(CFun::Kind::Escape, FV, E);
      Cexp *Rest = K(CValue::var(FV));
      return B.fix({F}, Rest);
    }
    case Lexp::Kind::Fix: {
      // Bind all names first (mutual recursion).
      std::vector<CVar> Names;
      for (const FixDef &D : E->Defs) {
        CVar FV = B.fresh();
        Names.push_back(FV);
        bind(D.Name, CValue::var(FV), LC.arrow(D.ParamLty, D.RetLty));
      }
      std::vector<CFun *> Funs;
      for (size_t I = 0; I < E->Defs.size(); ++I) {
        const FixDef &D = E->Defs[I];
        Funs.push_back(convertFnPieces(CFun::Kind::Escape, Names[I],
                                       D.Param, D.ParamLty, D.RetLty,
                                       D.Body));
      }
      Cexp *Rest = conv(E->A1, K);
      return B.fix(Funs, Rest);
    }
    case Lexp::Kind::App:
      return convertApp(E, K);
    case Lexp::Kind::Record: {
      if (E->Elems.empty())
        return K(CValue::intC(0));
      const Lty *RecLty = E->Ty;
      std::vector<const Lexp *> Elems(E->Elems.begin(), E->Elems.end());
      auto Fields = std::make_shared<std::vector<CValue>>();
      return convertList(Elems, Fields, [this, RecLty, Fields, &K]() {
        return buildRecord(RecLty, *Fields, K);
      });
    }
    case Lexp::Kind::Select: {
      const Lty *ArgLty = ltyOf(E->A1);
      int Index = E->Index;
      return conv(E->A1, [this, ArgLty, Index, &K](CValue V) {
        return emitSelect(V, ArgLty, Index, K);
      });
    }
    case Lexp::Kind::Con:
      return convertCon(E, K);
    case Lexp::Kind::Decon:
      return convertDecon(E, K);
    case Lexp::Kind::Switch:
      return convertSwitch(E, K);
    case Lexp::Kind::Prim:
      return convertPrim(E, K);
    case Lexp::Kind::Wrap: {
      if (E->Ty->kind() == LtyKind::Real) {
        return conv(E->A1, [this, &K](CValue V) {
          CVar W = B.fresh();
          return B.record(RecordKind::FloatBox, {{V, true}}, W,
                          K(CValue::var(W)));
        });
      }
      return conv(E->A1, K); // pointer/int view change: free
    }
    case Lexp::Kind::Unwrap: {
      if (E->Ty->kind() == LtyKind::Real) {
        return conv(E->A1, [this, &K](CValue V) {
          CVar W = B.fresh();
          return B.select(0, /*IsFloat=*/true, V, W, Cty::fltTy(),
                          K(CValue::var(W)));
        });
      }
      return conv(E->A1, K);
    }
    case Lexp::Kind::Raise: {
      return conv(E->A1, [this](CValue V) {
        CVar H = B.fresh();
        return B.looker(CpsOp::GetHandler, {}, H, Cty::cntTy(),
                        B.app(CValue::var(H), {V}));
      });
    }
    case Lexp::Kind::Handle:
      return convertHandle(E, K);
    }
    assert(false && "unhandled LEXP node in CPS conversion");
    return B.halt(CValue::intC(0));
  }

  /// Converts a list of expressions left to right, accumulating values.
  Cexp *convertList(const std::vector<const Lexp *> &Es,
                    std::shared_ptr<std::vector<CValue>> Out,
                    const std::function<Cexp *()> &Done, size_t I = 0) {
    if (I == Es.size())
      return Done();
    return conv(Es[I], [this, &Es, Out, &Done, I](CValue V) {
      Out->push_back(V);
      return convertList(Es, Out, Done, I + 1);
    });
  }

  /// Allocates a record of the given LTY from logical-order field values.
  Cexp *buildRecord(const Lty *RecLty, const std::vector<CValue> &Logical,
                    const MetaK &K) {
    RecordLayout L = layoutOf(RecLty);
    std::vector<CField> Phys(Logical.size());
    for (size_t I = 0; I < Logical.size(); ++I)
      Phys[L.Slots[I].Phys] = CField{Logical[I], L.Slots[I].IsFloat};
    CVar W = B.fresh();
    return B.record(L.kind(), Phys, W, K(CValue::var(W)));
  }

  Cexp *emitSelect(CValue V, const Lty *ArgLty, int LogicalIdx,
                   const MetaK &K) {
    CVar W = B.fresh();
    if (ArgLty->isRecordLike()) {
      RecordLayout L = layoutOf(ArgLty);
      assert(LogicalIdx < static_cast<int>(L.Slots.size()));
      const Lty *FieldLty = ArgLty->fields()[LogicalIdx];
      return B.select(L.Slots[LogicalIdx].Phys,
                      L.Slots[LogicalIdx].IsFloat, V, W, ctyOf(FieldLty),
                      K(CValue::var(W)));
    }
    // Standard boxed / partial record: all fields are words in logical
    // order.
    return B.select(LogicalIdx, /*IsFloat=*/false, V, W, Cty::ptrUnknown(),
                    K(CValue::var(W)));
  }

  //===--------------------------------------------------------------------===//
  // Functions and calls
  //===--------------------------------------------------------------------===//

  CFun *convertFunction(CFun::Kind FK, CVar Name, const Lexp *FnExp) {
    assert(FnExp->K == Lexp::Kind::Fn);
    return convertFnPieces(FK, Name, FnExp->Var, FnExp->Ty, FnExp->Ty2,
                           FnExp->A1);
  }

  CFun *convertFnPieces(CFun::Kind FK, CVar Name, LVar ParamVar,
                        const Lty *ParamLty, const Lty *RetLty,
                        const Lexp *Body) {
    (void)RetLty;
    std::vector<CVar> Params;
    std::vector<Cty> ParamTys;
    std::vector<const Lty *> SpreadFields;
    Cexp *Entry;
    CVar KVar = 0;

    if (spreads(ParamLty, SpreadFields)) {
      // Components arrive in registers; rebuild the record lazily (the CPS
      // contracter deletes it when the body only selects from it).
      std::vector<CValue> Logical;
      for (const Lty *FT : SpreadFields) {
        CVar P = B.fresh();
        Params.push_back(P);
        ParamTys.push_back(ctyOf(FT));
        Logical.push_back(CValue::var(P));
      }
      KVar = B.fresh();
      Params.push_back(KVar);
      ParamTys.push_back(Cty::cntTy());
      Entry = buildRecord(ParamLty, Logical,
                          [this, ParamVar, ParamLty, KVar,
                           Body](CValue RV) {
                            bind(ParamVar, RV, ParamLty);
                            return convBodyWithRet(Body, KVar);
                          });
    } else {
      CVar P = B.fresh();
      Params.push_back(P);
      ParamTys.push_back(ctyOf(ParamLty));
      KVar = B.fresh();
      Params.push_back(KVar);
      ParamTys.push_back(Cty::cntTy());
      bind(ParamVar, CValue::var(P), ParamLty);
      Entry = convBodyWithRet(Body, KVar);
    }
    return B.fun(FK, Name, Params, ParamTys, Entry);
  }

  Cexp *convBodyWithRet(const Lexp *Body, CVar KVar) {
    return conv(Body, [this, KVar](CValue R) {
      return B.app(CValue::var(KVar), {R});
    });
  }

  Cexp *convertApp(const Lexp *E, const MetaK &K) {
    const Lty *FunLty = ltyOf(E->A1);
    const Lexp *ArgExp = E->A2;
    return conv(E->A1, [this, FunLty, ArgExp, &K](CValue FV) {
      return conv(ArgExp, [this, FunLty, FV, &K](CValue AV) {
        // Make the return continuation.
        const Lty *ResLty = FunLty->kind() == LtyKind::Arrow
                                ? FunLty->to()
                                : LC.rboxedTy();
        CVar KName = B.fresh();
        CVar RParam = B.fresh();
        Cexp *KBody = K(CValue::var(RParam));
        CFun *KF = B.fun(CFun::Kind::Cont, KName, {RParam},
                         {ctyOf(ResLty)}, KBody);

        std::vector<const Lty *> SpreadFields;
        const Lty *ParamLty = FunLty->kind() == LtyKind::Arrow
                                  ? FunLty->from()
                                  : LC.rboxedTy();
        Cexp *CallSite;
        if (spreads(ParamLty, SpreadFields)) {
          // Spread: pass the components in registers.
          RecordLayout L = layoutOf(ParamLty);
          std::vector<CValue> Args;
          Cexp *Call = nullptr;
          // Emit selects (contracted away when AV is a fresh record).
          std::vector<CVar> Sel(SpreadFields.size());
          for (size_t I = 0; I < SpreadFields.size(); ++I)
            Sel[I] = B.fresh();
          for (size_t I = 0; I < SpreadFields.size(); ++I)
            Args.push_back(CValue::var(Sel[I]));
          Args.push_back(CValue::var(KName));
          Call = B.app(FV, Args);
          for (size_t I = SpreadFields.size(); I-- > 0;)
            Call = B.select(L.Slots[I].Phys, L.Slots[I].IsFloat, AV,
                            Sel[I], ctyOf(SpreadFields[I]), Call);
          CallSite = Call;
        } else {
          CallSite = B.app(FV, {AV, CValue::var(KName)});
        }
        return B.fix({KF}, CallSite);
      });
    });
  }

  //===--------------------------------------------------------------------===//
  // Constructors and switches
  //===--------------------------------------------------------------------===//

  Cexp *convertCon(const Lexp *E, const MetaK &K) {
    const DataCon *DC = E->DC;
    switch (DC->Rep.K) {
    case ConRepKind::Constant:
      return K(CValue::intC(DC->Rep.Tag));
    case ConRepKind::Transparent:
      return conv(E->A1, K);
    case ConRepKind::TaggedBox:
      return conv(E->A1, [this, DC, &K](CValue V) {
        CVar W = B.fresh();
        return B.record(RecordKind::Std,
                        {{CValue::intC(DC->Rep.Tag), false}, {V, false}},
                        W, K(CValue::var(W)));
      });
    case ConRepKind::Ref:
      return conv(E->A1, [this, &K](CValue V) {
        CVar W = B.fresh();
        return B.record(RecordKind::Ref, {{V, false}}, W,
                        K(CValue::var(W)));
      });
    }
    return K(CValue::intC(0));
  }

  Cexp *convertDecon(const Lexp *E, const MetaK &K) {
    const DataCon *DC = E->DC;
    switch (DC->Rep.K) {
    case ConRepKind::Constant:
      return K(CValue::intC(0)); // no payload
    case ConRepKind::Transparent:
      return conv(E->A1, K);
    case ConRepKind::TaggedBox:
      return conv(E->A1, [this, &K](CValue V) {
        CVar W = B.fresh();
        return B.select(1, false, V, W, Cty::ptrUnknown(),
                        K(CValue::var(W)));
      });
    case ConRepKind::Ref:
      return conv(E->A1, [this, &K](CValue V) {
        CVar W = B.fresh();
        return B.looker(CpsOp::LoadCell, {V, CValue::intC(0)}, W,
                        Cty::ptrUnknown(), K(CValue::var(W)));
      });
    }
    return K(CValue::intC(0));
  }

  /// Reifies the meta-continuation as a join point so switch arms share it.
  Cexp *withJoin(const Lty *ResLty, const MetaK &K,
                 const std::function<Cexp *(const MetaK &)> &Build) {
    CVar JName = B.fresh();
    CVar JParam = B.fresh();
    Cexp *JBody = K(CValue::var(JParam));
    CFun *JF =
        B.fun(CFun::Kind::Cont, JName, {JParam}, {ctyOf(ResLty)}, JBody);
    MetaK Jump = [this, JName](CValue V) {
      return B.app(CValue::var(JName), {V});
    };
    Cexp *Body = Build(Jump);
    return B.fix({JF}, Body);
  }

  /// Emits a comparison branch directly from a comparison primitive
  /// (fusing `if a < b ...` into one BRANCH, Section 5.2's common case).
  bool isComparisonPrim(PrimId P, BranchOp &Op, bool &IsFloat) {
    IsFloat = false;
    switch (P) {
    case PrimId::ILt: Op = BranchOp::Ilt; return true;
    case PrimId::ILe: Op = BranchOp::Ile; return true;
    case PrimId::IGt: Op = BranchOp::Igt; return true;
    case PrimId::IGe: Op = BranchOp::Ige; return true;
    case PrimId::IEq: Op = BranchOp::Ieq; return true;
    case PrimId::PtrEq: Op = BranchOp::Ieq; return true;
    case PrimId::FLt: Op = BranchOp::Flt; IsFloat = true; return true;
    case PrimId::FLe: Op = BranchOp::Fle; IsFloat = true; return true;
    case PrimId::FGt: Op = BranchOp::Fgt; IsFloat = true; return true;
    case PrimId::FGe: Op = BranchOp::Fge; IsFloat = true; return true;
    case PrimId::FEq: Op = BranchOp::Feq; IsFloat = true; return true;
    default:
      return false;
    }
  }

  Cexp *convertSwitch(const Lexp *E, const MetaK &K) {
    const Lty *ResLty = ltyOf(E);
    return withJoin(ResLty, K, [this, E](const MetaK &J) {
      // Fused branch: switch-on-comparison over the two bool constants.
      if (E->SK == SwitchKind::Con && E->A1->K == Lexp::Kind::Prim &&
          E->Cases.size() == 2 && !E->Cases[0].Con->Payload &&
          !E->Cases[1].Con->Payload) {
        BranchOp Op;
        bool IsFloat;
        if (isComparisonPrim(E->A1->Prim, Op, IsFloat)) {
          const Lexp *Prim = E->A1;
          const Lexp *TrueBody = nullptr;
          const Lexp *FalseBody = nullptr;
          for (const SwitchCase &C : E->Cases) {
            if (C.Con->Rep.Tag == 1)
              TrueBody = C.Body;
            else
              FalseBody = C.Body;
          }
          if (TrueBody && FalseBody) {
            std::vector<const Lexp *> Args(Prim->Elems.begin(),
                                           Prim->Elems.end());
            auto Vals = std::make_shared<std::vector<CValue>>();
            return convertList(
                Args, Vals, [this, Op, Vals, TrueBody, FalseBody, &J]() {
                  return B.branch(Op, *Vals, conv(TrueBody, J),
                                  conv(FalseBody, J));
                });
          }
        }
      }
      const Lexp *Scrut = E->A1;
      return conv(Scrut, [this, E, &J](CValue SV) {
        switch (E->SK) {
        case SwitchKind::Int:
          return intSwitch(E, SV, J);
        case SwitchKind::Str:
          return strSwitch(E, SV, J, 0);
        case SwitchKind::Con:
          return conSwitch(E, SV, J);
        }
        return B.halt(CValue::intC(0));
      });
    });
  }

  Cexp *intSwitch(const Lexp *E, CValue SV, const MetaK &J,
                  size_t I = 0) {
    if (I == E->Cases.size())
      return conv(E->Default, J);
    const SwitchCase &C = E->Cases[I];
    return B.branch(BranchOp::Ieq, {SV, CValue::intC(C.IntKey)},
                    conv(C.Body, J), intSwitch(E, SV, J, I + 1));
  }

  Cexp *strSwitch(const Lexp *E, CValue SV, const MetaK &J, size_t I) {
    if (I == E->Cases.size())
      return conv(E->Default, J);
    const SwitchCase &C = E->Cases[I];
    CVar R = B.fresh();
    return B.ccall(CpsOp::RtStrEq, {SV, CValue::strC(C.StrKey)}, R,
                   Cty::intTy(),
                   B.branch(BranchOp::Ieq,
                            {CValue::var(R), CValue::intC(1)},
                            conv(C.Body, J), strSwitch(E, SV, J, I + 1)));
  }

  Cexp *conSwitch(const Lexp *E, CValue SV, const MetaK &J) {
    // Partition the cases by representation.
    std::vector<const SwitchCase *> Constants;
    std::vector<const SwitchCase *> Tagged;
    const SwitchCase *Transparent = nullptr;
    TyCon *DT = nullptr;
    for (const SwitchCase &C : E->Cases) {
      DT = C.Con->Owner;
      switch (C.Con->Rep.K) {
      case ConRepKind::Constant:
        Constants.push_back(&C);
        break;
      case ConRepKind::Transparent:
        Transparent = &C;
        break;
      case ConRepKind::TaggedBox:
        Tagged.push_back(&C);
        break;
      case ConRepKind::Ref:
        Transparent = &C;
        break;
      }
    }
    // Exhaustiveness: count constructor shapes in the datatype.
    int DtConstants = 0, DtCarriers = 0;
    if (DT) {
      for (const DataCon *DC : DT->Cons)
        (DC->Payload ? DtCarriers : DtConstants)++;
    }
    auto Fail = [this, E, &J]() -> Cexp * {
      if (E->Default)
        return conv(E->Default, J);
      // Unreachable by exhaustiveness; keep the program well-formed.
      return B.halt(CValue::intC(-2));
    };

    // Chain over constant tags (SV compared as a tagged int).
    std::function<Cexp *(size_t, bool)> ConstChain =
        [&](size_t I, bool Exhaustive) -> Cexp * {
      if (I == Constants.size())
        return Fail();
      if (Exhaustive && I + 1 == Constants.size())
        return conv(Constants[I]->Body, J);
      return B.branch(
          BranchOp::Ieq,
          {SV, CValue::intC(Constants[I]->Con->Rep.Tag)},
          conv(Constants[I]->Body, J), ConstChain(I + 1, Exhaustive));
    };

    bool HaveCarrierCases = Transparent || !Tagged.empty();
    if (!HaveCarrierCases && DtCarriers == 0) {
      // Pure enumeration.
      bool Exhaustive = !E->Default && static_cast<int>(Constants.size()) ==
                                           DtConstants;
      return ConstChain(0, Exhaustive);
    }

    // Boxed side.
    auto BoxedSide = [&]() -> Cexp * {
      if (Transparent)
        return conv(Transparent->Body, J);
      if (Tagged.empty())
        return Fail();
      // Select the tag, then chain.
      CVar Tag = B.fresh();
      bool Exhaustive =
          !E->Default && static_cast<int>(Tagged.size()) == DtCarriers;
      std::function<Cexp *(size_t)> TagChain = [&](size_t I) -> Cexp * {
        if (I == Tagged.size())
          return Fail();
        if (Exhaustive && I + 1 == Tagged.size())
          return conv(Tagged[I]->Body, J);
        return B.branch(BranchOp::Ieq,
                        {CValue::var(Tag),
                         CValue::intC(Tagged[I]->Con->Rep.Tag)},
                        conv(Tagged[I]->Body, J), TagChain(I + 1));
      };
      return B.select(0, false, SV, Tag, Cty::intTy(), TagChain(0));
    };

    if (Constants.empty() && DtConstants == 0)
      return BoxedSide();

    // Mixed: discriminate pointer vs tagged int first.
    bool IntExhaustive =
        static_cast<int>(Constants.size()) == DtConstants && !E->Default;
    Cexp *IntSide = Constants.empty() ? Fail() : ConstChain(0, IntExhaustive);
    return B.branch(BranchOp::IsBoxed, {SV}, BoxedSide(), IntSide);
  }

  //===--------------------------------------------------------------------===//
  // Primitives
  //===--------------------------------------------------------------------===//

  Cexp *convertPrim(const Lexp *E, const MetaK &K) {
    PrimId P = E->Prim;

    // Control primitives first.
    if (P == PrimId::Callcc)
      return convertCallcc(E, K);
    if (P == PrimId::Throw)
      return convertThrow(E, K);

    std::vector<const Lexp *> ArgExps(E->Elems.begin(), E->Elems.end());
    auto Vals = std::make_shared<std::vector<CValue>>();
    return convertList(ArgExps, Vals, [this, E, P, Vals, &K]() {
      const std::vector<CValue> &V = *Vals;
      CVar W = B.fresh();
      CValue WV = CValue::var(W);
      Cty ResT = ctyOf(primResLty(LC, P));
      switch (P) {
      case PrimId::IAdd:
        return B.arith(CpsOp::IAdd, V, W, ResT, K(WV));
      case PrimId::ISub:
        return B.arith(CpsOp::ISub, V, W, ResT, K(WV));
      case PrimId::IMul:
        return B.arith(CpsOp::IMul, V, W, ResT, K(WV));
      case PrimId::IDiv:
      case PrimId::IMod: {
        CpsOp Op = P == PrimId::IDiv ? CpsOp::IDiv : CpsOp::IMod;
        // Division by zero raises Div through the current handler. The
        // translator cannot reach the Div tag here, so the runtime traps:
        // the VM raises via the handler register.
        return B.arith(Op, V, W, ResT, K(WV));
      }
      case PrimId::INeg:
        return B.arith(CpsOp::INeg, V, W, ResT, K(WV));
      case PrimId::IAbs:
        return B.arith(CpsOp::IAbs, V, W, ResT, K(WV));
      case PrimId::FAdd:
        return B.arith(CpsOp::FAdd, V, W, ResT, K(WV));
      case PrimId::FSub:
        return B.arith(CpsOp::FSub, V, W, ResT, K(WV));
      case PrimId::FMul:
        return B.arith(CpsOp::FMul, V, W, ResT, K(WV));
      case PrimId::FDiv:
        return B.arith(CpsOp::FDiv, V, W, ResT, K(WV));
      case PrimId::FNeg:
        return B.arith(CpsOp::FNeg, V, W, ResT, K(WV));
      case PrimId::FAbs:
        return B.arith(CpsOp::FAbs, V, W, ResT, K(WV));
      case PrimId::Floor:
        return B.arith(CpsOp::Floor, V, W, ResT, K(WV));
      case PrimId::RealFromInt:
        return B.arith(CpsOp::RealFromInt, V, W, ResT, K(WV));
      case PrimId::Sqrt:
        return B.arith(CpsOp::FSqrt, V, W, ResT, K(WV));
      case PrimId::Sin:
        return B.arith(CpsOp::FSin, V, W, ResT, K(WV));
      case PrimId::Cos:
        return B.arith(CpsOp::FCos, V, W, ResT, K(WV));
      case PrimId::Atan:
        return B.arith(CpsOp::FAtan, V, W, ResT, K(WV));
      case PrimId::Exp:
        return B.arith(CpsOp::FExp, V, W, ResT, K(WV));
      case PrimId::Ln:
        return B.arith(CpsOp::FLn, V, W, ResT, K(WV));

      case PrimId::ILt: case PrimId::ILe: case PrimId::IGt:
      case PrimId::IGe: case PrimId::IEq: case PrimId::PtrEq:
      case PrimId::FLt: case PrimId::FLe: case PrimId::FGt:
      case PrimId::FGe: case PrimId::FEq: {
        BranchOp Op;
        bool IsFloat;
        isComparisonPrim(P, Op, IsFloat);
        return withJoin(LC.boxedTy(), K, [this, Op, &V](const MetaK &J) {
          return B.branch(Op, V, J(CValue::intC(1)), J(CValue::intC(0)));
        });
      }

      case PrimId::StrSize:
        return B.looker(CpsOp::SizeOf, V, W, ResT, K(WV));
      case PrimId::StrSub:
        return B.looker(CpsOp::LoadByte, V, W, ResT, K(WV));
      case PrimId::Ord:
        return B.looker(CpsOp::LoadByte, {V[0], CValue::intC(0)}, W, ResT,
                        K(WV));
      case PrimId::StrEq:
        return B.ccall(CpsOp::RtStrEq, V, W, ResT, K(WV));
      case PrimId::StrCmp:
        return B.ccall(CpsOp::RtStrCmp, V, W, ResT, K(WV));
      case PrimId::StrConcat:
        return B.ccall(CpsOp::RtConcat, V, W, ResT, K(WV));
      case PrimId::Substring:
        return B.ccall(CpsOp::RtSubstring, V, W, ResT, K(WV));
      case PrimId::Chr:
        return B.ccall(CpsOp::RtChr, V, W, ResT, K(WV));
      case PrimId::IntToString:
        return B.ccall(CpsOp::RtItos, V, W, ResT, K(WV));
      case PrimId::RealToString:
        return B.ccall(CpsOp::RtRtos, V, W, ResT, K(WV));
      case PrimId::Print:
        return B.ccall(CpsOp::RtPrint, V, W, ResT, K(WV));
      case PrimId::MakeTag:
        return B.ccall(CpsOp::RtMakeTag, V, W, ResT, K(WV));
      case PrimId::PolyEq:
        return B.ccall(CpsOp::RtPolyEq, V, W, ResT, K(WV));

      case PrimId::Deref:
        return B.looker(CpsOp::LoadCell, {V[0], CValue::intC(0)}, W, ResT,
                        K(WV));
      case PrimId::Assign:
        return B.setter(CpsOp::StoreCell,
                        {V[0], CValue::intC(0), V[1]},
                        K(CValue::intC(0)));
      case PrimId::ArrayMake:
        return B.ccall(CpsOp::RtArrayMake, V, W, ResT, K(WV));
      case PrimId::ArrayLength:
        return B.looker(CpsOp::SizeOf, V, W, ResT, K(WV));
      case PrimId::ArraySub: {
        // Bounds check, then load; out of bounds raises through the
        // handler (the VM's checked load).
        return B.looker(CpsOp::LoadCell, {V[0], V[1]}, W, ResT, K(WV));
      }
      case PrimId::ArrayUpdate:
        return B.setter(CpsOp::StoreCell, {V[0], V[1], V[2]},
                        K(CValue::intC(0)));
      default:
        assert(false && "unexpected primitive in CPS conversion");
        return B.halt(CValue::intC(0));
      }
    });
  }

  Cexp *convertCallcc(const Lexp *E, const MetaK &K) {
    // callcc f: reify the current continuation as a value and hand it to
    // f both as its argument and as its return continuation.
    return conv(E->Elems[0], [this, &K](CValue FV) {
      CVar JName = B.fresh();
      CVar JParam = B.fresh();
      Cexp *JBody = K(CValue::var(JParam));
      CFun *JF = B.fun(CFun::Kind::Cont, JName, {JParam},
                       {Cty::ptrUnknown()}, JBody);
      Cexp *Call =
          B.app(FV, {CValue::var(JName), CValue::var(JName)});
      return B.fix({JF}, Call);
    });
  }

  Cexp *convertThrow(const Lexp *E, const MetaK &K) {
    // throw k: a function value that invokes the reified continuation.
    return conv(E->Elems[0], [this, &K](CValue KV) {
      CVar FName = B.fresh();
      CVar X = B.fresh();
      CVar Dead = B.fresh(); // the never-used return continuation
      Cexp *Body = B.app(KV, {CValue::var(X)});
      CFun *F = B.fun(CFun::Kind::Escape, FName, {X, Dead},
                      {Cty::ptrUnknown(), Cty::cntTy()}, Body);
      Cexp *Rest = K(CValue::var(FName));
      return B.fix({F}, Rest);
    });
  }

  //===--------------------------------------------------------------------===//
  // Exceptions
  //===--------------------------------------------------------------------===//

  Cexp *convertHandle(const Lexp *E, const MetaK &K) {
    const Lexp *Body = E->A1;
    const Lexp *Handler = E->A2; // an Fn from exn
    assert(Handler->K == Lexp::Kind::Fn);
    const Lty *ResLty = ltyOf(Body);

    CVar H0 = B.fresh(); // saved handler
    return B.looker(
        CpsOp::GetHandler, {}, H0, Cty::cntTy(),
        withJoin(ResLty, K, [this, Body, Handler, H0](const MetaK &J) {
          // New handler: restore, then run the handler body.
          CVar HName = B.fresh();
          CVar EParam = B.fresh();
          bind(Handler->Var, CValue::var(EParam), LC.boxedTy());
          Cexp *HBody = B.setter(
              CpsOp::SetHandler, {CValue::var(H0)},
              conv(Handler->A1, J));
          CFun *HF = B.fun(CFun::Kind::Cont, HName, {EParam},
                           {Cty::ptrUnknown()}, HBody);

          Cexp *Normal = conv(Body, [this, H0, &J](CValue V) {
            return B.setter(CpsOp::SetHandler, {CValue::var(H0)}, J(V));
          });
          return B.fix(
              {HF},
              B.setter(CpsOp::SetHandler, {CValue::var(HName)}, Normal));
        }));
  }

  Arena &A;
  LtyContext &LC;
  const CompilerOptions &Opts;
  CpsBuilder B;
  std::unordered_map<LVar, std::pair<CValue, const Lty *>> Env;
};

} // namespace

CpsConvertResult smltc::convertToCps(Arena &A, LtyContext &LC,
                                     const CompilerOptions &Opts,
                                     const Lexp *Program) {
  Converter C(A, LC, Opts);
  CpsConvertResult R;
  R.Program = C.convertProgram(Program);
  R.MaxVar = C.maxVar();
  return R;
}
