//===- elab/ElabModule.cpp - Module-language elaboration -------------------===//
//
// Implements the paper's Section 3: structures, signatures, transparent
// signature matching, opaque abstraction, functors, and functor application,
// recording thinning functions and realizations for the Lambda Translator.
//
//===----------------------------------------------------------------------===//

#include "elab/Elaborator.h"
#include "elab/Internal.h"

#include <cassert>

using namespace smltc;

//===----------------------------------------------------------------------===//
// Signature elaboration ("most abstract" instantiation)
//===----------------------------------------------------------------------===//

void Elaborator::elabSpecs(Span<ast::Spec *> Specs, Env &SigEnv,
                           CompCollector &CC) {
  // SigEnv is the *current* E (already pushed); specs bind into it so later
  // specs can refer to earlier ones.
  (void)SigEnv;
  for (const ast::Spec *Sp : Specs) {
    switch (Sp->K) {
    case ast::Spec::Kind::Val: {
      TyVarMap TyVars;
      Type *T = elabTy(Sp->ValTy, &TyVars);
      std::vector<Type *> Bound;
      for (auto &[Name, V] : TyVars) {
        V->IsBound = true;
        Bound.push_back(V);
      }
      TypeScheme S{Span<Type *>::copy(A, Bound), T};
      CC.addValScheme(Sp->Name, S);
      break;
    }
    case ast::Spec::Kind::Type:
    case ast::Spec::Kind::EqType: {
      if (Sp->Manifest) {
        TyVarMap Formals;
        std::vector<Type *> FormalVars;
        for (Symbol S : Sp->TyVars) {
          Type *F = Types.freshVar(0);
          F->IsBound = true;
          Formals[S] = F;
          FormalVars.push_back(F);
        }
        Type *Body = elabTy(Sp->Manifest, &Formals);
        TyCon *TC = Types.makeAbbrev(Sp->Name,
                                     Span<Type *>::copy(A, FormalVars), Body);
        E->bindTycon(Sp->Name, TC);
        CC.addTycon(Sp->Name, TC);
      } else {
        bool Eq = Sp->K == ast::Spec::Kind::EqType;
        TyCon *TC = Types.makeFlexible(
            Sp->Name, static_cast<int>(Sp->TyVars.size()), Eq);
        E->bindTycon(Sp->Name, TC);
        CC.addTycon(Sp->Name, TC);
      }
      break;
    }
    case ast::Spec::Kind::Datatype: {
      ast::DatBind DB = Sp->DatB;
      elabDatBinds(Span<ast::DatBind>(A.copyArray(&DB, 1), 1), &CC);
      break;
    }
    case ast::Spec::Kind::Exception: {
      Type *Payload = Sp->ExnOfTy ? elabTy(Sp->ExnOfTy, nullptr) : nullptr;
      CC.addExnSpec(Sp->Name, Payload);
      break;
    }
    case ast::Spec::Kind::Structure: {
      StrStatic *Sub = elabSigStaticInEnv(Sp->StrSig, *E);
      CC.addStrSpec(Sp->Name, Sub);
      // Bind a placeholder StrInfo so later specs can say `val x : S.t`.
      StrInfo *SI = A.create<StrInfo>();
      SI->Name = Sp->Name;
      SI->Static = Sub;
      SI->Id = NextStrId++;
      E->bindStr(Sp->Name, SI);
      break;
    }
    }
  }
}

StrStatic *Elaborator::elabSigStaticInEnv(const ast::SigExp *S, Env &DefEnv) {
  if (S->K == ast::SigExp::Kind::Var) {
    std::shared_ptr<SigInfo> Info = E->lookupSig(S->Name);
    if (!Info) {
      // Also try the definition environment (for nested references).
      Info = DefEnv.lookupSig(S->Name);
    }
    if (!Info) {
      Diags.error(S->Loc, "unbound signature '" +
                              std::string(S->Name.str()) + "'");
      return A.create<StrStatic>();
    }
    return elabSigStaticInEnv(Info->Def, *Info->DefEnv);
  }
  std::shared_ptr<Env> Saved = E;
  E = std::make_shared<Env>(DefEnv);
  E->push();
  CompCollector CC;
  elabSpecs(S->Specs, *E, CC);
  E = Saved;
  return CC.finish(A);
}

StrStatic *Elaborator::elabSigStatic(const ast::SigExp *S) {
  return elabSigStaticInEnv(S, *E);
}

//===----------------------------------------------------------------------===//
// Realization
//===----------------------------------------------------------------------===//

namespace {
Type *realize(TypeContext &Types, Type *T,
              const std::unordered_map<TyCon *, TyCon *> &Real,
              TypeMemo<Type *> &Done);

Type *realizeNode(TypeContext &Types, Type *T,
                  const std::unordered_map<TyCon *, TyCon *> &Real,
                  TypeMemo<Type *> &Done) {
  switch (T->K) {
  case Type::Kind::Var:
    return T;
  case Type::Kind::Con: {
    auto It = Real.find(T->Con);
    TyCon *NewCon = It == Real.end() ? T->Con : It->second;
    bool Changed = NewCon != T->Con;
    std::vector<Type *> Args;
    for (Type *Arg : T->Args) {
      Type *NA = realize(Types, Arg, Real, Done);
      Changed |= NA != TypeContext::resolve(Arg);
      Args.push_back(NA);
    }
    if (!Changed)
      return T;
    return Types.con(NewCon, std::move(Args));
  }
  case Type::Kind::Tuple: {
    std::vector<Type *> Elems;
    bool Changed = false;
    for (Type *El : T->Elems) {
      Type *NE = realize(Types, El, Real, Done);
      Changed |= NE != TypeContext::resolve(El);
      Elems.push_back(NE);
    }
    if (!Changed)
      return T;
    return Types.tuple(std::move(Elems));
  }
  case Type::Kind::Arrow: {
    Type *F = realize(Types, T->From, Real, Done);
    Type *R = realize(Types, T->To, Real, Done);
    if (F == TypeContext::resolve(T->From) &&
        R == TypeContext::resolve(T->To))
      return T;
    return Types.arrow(F, R);
  }
  }
  return T;
}

Type *realize(TypeContext &Types, Type *T,
              const std::unordered_map<TyCon *, TyCon *> &Real,
              TypeMemo<Type *> &Done) {
  T = TypeContext::resolve(T);
  if (!hasChildren(T))
    return realizeNode(Types, T, Real, Done);
  if (Type **Prev = Done.find(T))
    return *Prev;
  Type *R = realizeNode(Types, T, Real, Done);
  Done.insert(T, R);
  return R;
}
} // namespace

Type *Elaborator::realizeType(
    Type *T, const std::unordered_map<TyCon *, TyCon *> &Real) {
  TypeMemo<Type *> Done;
  return realize(Types, T, Real, Done);
}

TypeScheme Elaborator::realizeScheme(
    const TypeScheme &S, const std::unordered_map<TyCon *, TyCon *> &Real) {
  TypeScheme R;
  R.BoundVars = S.BoundVars;
  R.Body = realizeType(S.Body, Real);
  return R;
}

StrStatic *Elaborator::realizeStatic(
    const StrStatic *S, const std::unordered_map<TyCon *, TyCon *> &Real) {
  StrStatic *R = A.create<StrStatic>();
  std::vector<StrComp> Comps;
  for (const StrComp &C : S->Comps) {
    StrComp NC = C;
    switch (C.K) {
    case StrComp::Kind::Val:
      NC.Scheme = realizeScheme(C.Scheme, Real);
      break;
    case StrComp::Kind::Exn:
      if (C.ExnPayload)
        NC.ExnPayload = realizeType(C.ExnPayload, Real);
      break;
    case StrComp::Kind::Str:
      NC.Str = realizeStatic(C.Str, Real);
      break;
    }
    Comps.push_back(NC);
  }
  R->Comps = Span<StrComp>::copy(A, Comps);

  std::vector<StrTyComp> TyComps;
  for (const StrTyComp &C : S->TyComps) {
    StrTyComp NC = C;
    auto It = Real.find(C.Tycon);
    if (It != Real.end())
      NC.Tycon = It->second;
    TyComps.push_back(NC);
  }
  R->TyComps = Span<StrTyComp>::copy(A, TyComps);

  std::vector<StrConComp> ConComps;
  for (const StrConComp &C : S->ConComps) {
    StrConComp NC = C;
    auto It = Real.find(C.Con->Owner);
    if (It != Real.end() && It->second->K == TyCon::Kind::Datatype) {
      // Map to the actual datatype's constructor of the same name.
      for (DataCon *DC : It->second->Cons)
        if (DC->Name == C.Con->Name)
          NC.Con = DC;
    }
    ConComps.push_back(NC);
  }
  R->ConComps = Span<StrConComp>::copy(A, ConComps);
  return R;
}

Thinning *Elaborator::realizeThinningDst(
    const Thinning *T, const std::unordered_map<TyCon *, TyCon *> &Real) {
  std::vector<ThinComp> Comps;
  for (const ThinComp &C : T->Comps) {
    ThinComp NC = C;
    if (C.DstScheme.Body)
      NC.DstScheme = realizeScheme(C.DstScheme, Real);
    if (C.Sub)
      NC.Sub = realizeThinningDst(C.Sub, Real);
    Comps.push_back(NC);
  }
  Thinning *R = A.create<Thinning>();
  R->Comps = Span<ThinComp>::copy(A, Comps);
  return R;
}

//===----------------------------------------------------------------------===//
// Signature matching (paper Section 3, Figure 5)
//===----------------------------------------------------------------------===//

Thinning *Elaborator::matchAgainstStatic(
    const StrStatic *Source, const StrStatic *Target,
    std::unordered_map<TyCon *, TyCon *> &Real, SourceLoc Loc) {
  // Phase 1: realize the target's type components from the source.
  for (const StrTyComp &TC : Target->TyComps) {
    const StrTyComp *Src = Source->findTy(TC.Name);
    if (!Src) {
      Diags.error(Loc, "signature matching: missing type component '" +
                           std::string(TC.Name.str()) + "'");
      continue;
    }
    TyCon *TT = TC.Tycon;
    TyCon *ST = Src->Tycon;
    if (TT->Arity != ST->Arity) {
      Diags.error(Loc, "signature matching: arity mismatch for type '" +
                           std::string(TC.Name.str()) + "'");
      continue;
    }
    switch (TT->K) {
    case TyCon::Kind::Flexible:
      if (TT->AdmitsEq && !ST->AdmitsEq)
        Diags.error(Loc, "signature matching: type '" +
                             std::string(TC.Name.str()) +
                             "' must admit equality");
      Real[TT] = ST;
      break;
    case TyCon::Kind::Datatype: {
      if (ST->K != TyCon::Kind::Datatype) {
        Diags.error(Loc, "signature matching: '" +
                             std::string(TC.Name.str()) +
                             "' must be a datatype");
        break;
      }
      if (TT->Cons.size() != ST->Cons.size()) {
        Diags.error(Loc, "signature matching: datatype '" +
                             std::string(TC.Name.str()) +
                             "' has a different constructor list");
        break;
      }
      for (size_t I = 0; I < TT->Cons.size(); ++I) {
        DataCon *DT = TT->Cons[I];
        DataCon *DS = ST->Cons[I];
        if (DT->Name != DS->Name ||
            (DT->Payload == nullptr) != (DS->Payload == nullptr) ||
            DT->Rep.K != DS->Rep.K || DT->Rep.Tag != DS->Rep.Tag) {
          Diags.error(Loc,
                      "signature matching: constructor '" +
                          std::string(DT->Name.str()) +
                          "' of datatype '" + std::string(TC.Name.str()) +
                          "' does not match (name/arity/representation)");
        }
      }
      Real[TT] = ST;
      break;
    }
    case TyCon::Kind::Abbrev:
      // Manifest spec: accept if the source is reachable; a full
      // equivalence check would compare expansions.
      break;
    case TyCon::Kind::Prim:
      break;
    }
  }

  // Phase 2: value, exception, and substructure components.
  std::vector<ThinComp> Comps;
  for (const StrComp &C : Target->Comps) {
    const StrComp *Src = Source->findComp(C.Name);
    if (!Src || Src->K != C.K) {
      Diags.error(Loc, "signature matching: missing component '" +
                           std::string(C.Name.str()) + "'");
      continue;
    }
    ThinComp TC;
    TC.K = C.K;
    TC.SrcSlot = Src->Slot;
    switch (C.K) {
    case StrComp::Kind::Val: {
      // Instance check: the source scheme must generalize the (realized)
      // spec type. The spec's bound variables act as skolems.
      Type *SpecBody = realizeType(C.Scheme.Body, Real);
      std::vector<Type *> Inst;
      Type *SrcInst = Types.instantiate(Src->Scheme, Depth + 1, Inst);
      UnifyResult R = unify(Types, SrcInst, SpecBody);
      if (!R.Ok)
        Diags.error(Loc, "signature matching: value '" +
                             std::string(C.Name.str()) +
                             "' does not match its specification: " +
                             R.Message);
      TC.SrcScheme = Src->Scheme;
      TC.DstScheme = C.Scheme;
      break;
    }
    case StrComp::Kind::Exn: {
      Type *SpecPayload =
          C.ExnPayload ? realizeType(C.ExnPayload, Real) : nullptr;
      bool Ok = (SpecPayload == nullptr) == (Src->ExnPayload == nullptr);
      if (Ok && SpecPayload)
        Ok = Types.sameType(SpecPayload, Src->ExnPayload);
      if (!Ok)
        Diags.error(Loc, "signature matching: exception '" +
                             std::string(C.Name.str()) +
                             "' does not match its specification");
      TC.SrcScheme = TypeScheme{Span<Type *>(), Types.ExnType};
      TC.DstScheme = TC.SrcScheme;
      break;
    }
    case StrComp::Kind::Str: {
      TC.Sub = matchAgainstStatic(Src->Str, C.Str, Real, Loc);
      break;
    }
    }
    Comps.push_back(TC);
  }

  // Constructors specified via datatype specs must exist in the source.
  for (const StrConComp &C : Target->ConComps) {
    if (!Source->findCon(C.Name))
      Diags.error(Loc, "signature matching: missing constructor '" +
                           std::string(C.Name.str()) + "'");
  }

  Thinning *T = A.create<Thinning>();
  T->Comps = Span<ThinComp>::copy(A, Comps);
  return T;
}

void Elaborator::demoteHidden(const StrStatic *Source, const Thinning *Thin) {
  // Mark everything hidden, then re-export what the thinning keeps. Used
  // by minimum typing derivations (paper Section 3.1: "variables hidden by
  // signature matching").
  for (const StrComp &C : Source->Comps)
    if (C.K == StrComp::Kind::Val && C.Val)
      C.Val->Exported = false;
  for (const ThinComp &C : Thin->Comps) {
    if (C.K == StrComp::Kind::Val) {
      for (const StrComp &SC : Source->Comps)
        if (SC.Slot == C.SrcSlot && SC.Val)
          SC.Val->Exported = true;
    } else if (C.K == StrComp::Kind::Str && C.Sub) {
      for (const StrComp &SC : Source->Comps)
        if (SC.Slot == C.SrcSlot && SC.K == StrComp::Kind::Str)
          demoteHidden(SC.Str, C.Sub);
    }
  }
}

//===----------------------------------------------------------------------===//
// Structure expressions and declarations
//===----------------------------------------------------------------------===//

AStrExp *Elaborator::elabStrExp(const ast::StrExp *S) {
  AStrExp *X = A.create<AStrExp>();
  X->Loc = S->Loc;
  switch (S->K) {
  case ast::StrExp::Kind::Struct: {
    X->K = AStrExp::Kind::Struct;
    E->push();
    CompCollector CC;
    std::vector<ADec *> Decs;
    for (const ast::Dec *D : S->Decs)
      elabDec(D, Decs, &CC);
    E->pop();
    X->Decs = Span<ADec *>::copy(A, Decs);
    X->Slots = Span<SlotRef>::copy(A, CC.Slots);
    X->Static = CC.finish(A);
    return X;
  }
  case ast::StrExp::Kind::Var: {
    X->K = AStrExp::Kind::Var;
    StrInfo *Root = E->lookupStr(S->Name.Parts[0]);
    if (!Root) {
      Diags.error(S->Loc, "unbound structure '" +
                              std::string(S->Name.Parts[0].str()) + "'");
      X->Static = A.create<StrStatic>();
      return X;
    }
    const StrStatic *Cur = Root->Static;
    std::vector<int> Slots;
    for (size_t I = 1; I < S->Name.Parts.size(); ++I) {
      const StrComp *C = Cur->findComp(S->Name.Parts[I]);
      if (!C || C->K != StrComp::Kind::Str) {
        Diags.error(S->Loc, "unbound substructure '" +
                                std::string(S->Name.Parts[I].str()) + "'");
        X->Static = A.create<StrStatic>();
        return X;
      }
      Slots.push_back(C->Slot);
      Cur = C->Str;
    }
    X->Root = Root;
    X->Path = Span<int>::copy(A, Slots);
    X->Static = const_cast<StrStatic *>(Cur);
    return X;
  }
  case ast::StrExp::Kind::App: {
    X->K = AStrExp::Kind::FctApp;
    FctInfo *F = E->lookupFct(S->FctName);
    if (!F) {
      Diags.error(S->Loc, "unbound functor '" +
                              std::string(S->FctName.str()) + "'");
      X->Static = A.create<StrStatic>();
      return X;
    }
    AStrExp *Arg = elabStrExp(S->Arg);
    std::unordered_map<TyCon *, TyCon *> Real;
    Thinning *T =
        matchAgainstStatic(Arg->Static, F->ParamStatic, Real, S->Loc);
    X->Fct = F;
    X->Arg = Arg;
    X->ArgThin = T;
    X->ArgSigStatic = F->ParamStatic;
    X->AbstractResult = F->BodyStatic;
    X->Static = realizeStatic(F->BodyStatic, Real);
    return X;
  }
  }
  X->K = AStrExp::Kind::Struct;
  X->Static = A.create<StrStatic>();
  return X;
}

void Elaborator::elabStructureDec(const ast::Dec *D, std::vector<ADec *> &Out,
                                  CompCollector *CC) {
  AStrExp *Body = elabStrExp(D->StrBody);
  AStrExp *Final = Body;
  if (D->StrConstraint != ast::SigConstraintKind::None) {
    StrStatic *SigStd = elabSigStatic(D->StrSig);
    std::unordered_map<TyCon *, TyCon *> Real;
    Thinning *T = matchAgainstStatic(Body->Static, SigStd, Real, D->Loc);
    StrStatic *ResultStatic;
    Thinning *Used;
    if (D->StrConstraint == ast::SigConstraintKind::Opaque) {
      // Abstraction: the result keeps the abstract types (paper Figure 5,
      // "abstraction matching is opaque").
      ResultStatic = SigStd;
      Used = T;
    } else {
      // Transparent matching: the result sees the realized types.
      ResultStatic = realizeStatic(SigStd, Real);
      Used = realizeThinningDst(T, Real);
    }
    if (D->StrBody->K == ast::StrExp::Kind::Struct)
      demoteHidden(Body->Static, T);
    AStrExp *Thinned = A.create<AStrExp>();
    Thinned->K = AStrExp::Kind::Thinned;
    Thinned->Loc = D->Loc;
    Thinned->Inner = Body;
    Thinned->Thin = Used;
    Thinned->Static = ResultStatic;
    Final = Thinned;
  }
  StrInfo *SI = A.create<StrInfo>();
  SI->Name = D->StrName;
  SI->Static = Final->Static;
  SI->Id = NextStrId++;
  E->bindStr(D->StrName, SI);
  if (CC)
    CC->addStr(D->StrName, SI);
  ADec *AD = A.create<ADec>();
  AD->K = ADec::Kind::Structure;
  AD->Loc = D->Loc;
  AD->Str = SI;
  AD->StrExp = Final;
  Out.push_back(AD);
}

void Elaborator::elabFunctorDec(const ast::Dec *D, std::vector<ADec *> &Out,
                                CompCollector *CC) {
  (void)CC; // functors are not structure components in this subset
  StrStatic *ParamStatic = elabSigStatic(D->FctArgSig);
  StrInfo *Param = A.create<StrInfo>();
  Param->Name = D->FctArgName;
  Param->Static = ParamStatic;
  Param->Id = NextStrId++;

  E->push();
  E->bindStr(D->FctArgName, Param);
  AStrExp *Body = elabStrExp(D->FctBody);
  AStrExp *Final = Body;
  if (D->FctConstraint != ast::SigConstraintKind::None) {
    StrStatic *SigStd = elabSigStatic(D->FctResultSig);
    std::unordered_map<TyCon *, TyCon *> Real;
    Thinning *T = matchAgainstStatic(Body->Static, SigStd, Real, D->Loc);
    StrStatic *ResultStatic;
    Thinning *Used;
    if (D->FctConstraint == ast::SigConstraintKind::Opaque) {
      ResultStatic = SigStd;
      Used = T;
    } else {
      ResultStatic = realizeStatic(SigStd, Real);
      Used = realizeThinningDst(T, Real);
    }
    if (D->FctBody->K == ast::StrExp::Kind::Struct)
      demoteHidden(Body->Static, T);
    AStrExp *Thinned = A.create<AStrExp>();
    Thinned->K = AStrExp::Kind::Thinned;
    Thinned->Loc = D->Loc;
    Thinned->Inner = Body;
    Thinned->Thin = Used;
    Thinned->Static = ResultStatic;
    Final = Thinned;
  }
  E->pop();

  FctInfo *F = A.create<FctInfo>();
  F->Name = D->FctName;
  F->Id = NextFctId++;
  F->Param = Param;
  F->Body = Final;
  F->ParamStatic = ParamStatic;
  F->BodyStatic = Final->Static;
  E->bindFct(D->FctName, F);

  ADec *AD = A.create<ADec>();
  AD->K = ADec::Kind::Functor;
  AD->Loc = D->Loc;
  AD->Fct = F;
  Out.push_back(AD);
}
