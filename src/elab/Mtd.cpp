//===- elab/Mtd.cpp - Minimum typing derivations ----------------------------===//

#include "elab/Mtd.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace smltc;

namespace {

/// Collects instantiation evidence for scheme-bound variables across the
/// whole program.
class MtdAnalysis {
public:
  explicit MtdAnalysis(TypeContext &Types) : Types(Types) {}

  std::unordered_map<Type *, std::vector<Type *>> Instances;
  std::unordered_set<Type *> Poisoned;
  std::vector<ValInfo *> PolyBindings;

  void walkProgram(const AProgram &P) {
    for (ADec *D : P.Decs)
      walkDec(D);
    if (P.Result)
      walkExp(P.Result);
  }

private:
  void poisonScheme(const TypeScheme &S) {
    for (Type *B : S.BoundVars)
      Poisoned.insert(B);
  }

  void recordBinding(ValInfo *V) {
    if (V->Scheme.BoundVars.empty())
      return;
    PolyBindings.push_back(V);
    if (V->Exported)
      poisonScheme(V->Scheme);
  }

  void walkDec(ADec *D) {
    switch (D->K) {
    case ADec::Kind::Val:
      walkPat(D->Pat);
      walkExp(D->Exp);
      return;
    case ADec::Kind::ValRec:
      for (ValInfo *V : D->RecVars)
        recordBinding(V);
      for (AExp *E : D->RecExps)
        walkExp(E);
      return;
    case ADec::Kind::Exception:
      return;
    case ADec::Kind::Structure:
      walkStrExp(D->StrExp);
      return;
    case ADec::Kind::Functor:
      walkStrExp(D->Fct->Body);
      return;
    case ADec::Kind::Empty:
      return;
    }
  }

  void walkStrExp(AStrExp *S) {
    if (!S)
      return;
    switch (S->K) {
    case AStrExp::Kind::Struct:
      for (ADec *D : S->Decs)
        walkDec(D);
      return;
    case AStrExp::Kind::Var:
      return;
    case AStrExp::Kind::FctApp:
      walkStrExp(S->Arg);
      return;
    case AStrExp::Kind::Thinned:
      walkStrExp(S->Inner);
      return;
    }
  }

  void walkPat(APat *P) {
    if (!P)
      return;
    if (P->K == APat::Kind::Var || P->K == APat::Kind::Layered)
      recordBinding(P->Var);
    for (APat *E : P->Elems)
      walkPat(E);
    if (P->Arg)
      walkPat(P->Arg);
    if (P->ExnTag)
      walkExp(P->ExnTag);
  }

  void walkExp(AExp *E) {
    if (!E)
      return;
    switch (E->K) {
    case AExp::Kind::Var: {
      const TypeScheme &S = E->Var->Scheme;
      if (S.BoundVars.empty())
        return;
      if (E->TypeArgs.empty())
        return; // monomorphic recursive occurrence: unconstraining
      if (E->Var->Exported) {
        // Handled by recordBinding, but occurrences through rebound
        // schemes are poisoned here for safety.
        for (Type *B : S.BoundVars)
          Poisoned.insert(B);
        return;
      }
      size_t N = std::min(S.BoundVars.size(), E->TypeArgs.size());
      for (size_t I = 0; I < N; ++I)
        Instances[S.BoundVars[I]].push_back(E->TypeArgs[I]);
      return;
    }
    case AExp::Kind::Path:
      // Slot accesses denote exported components; never narrow them.
      for (Type *B : E->PathScheme.BoundVars)
        Poisoned.insert(B);
      return;
    default:
      break;
    }
    walkExp(E->TagExp);
    walkExp(E->Fun);
    walkExp(E->Arg);
    walkExp(E->Scrut);
    walkExp(E->Body);
    for (AExp *X : E->Elems)
      walkExp(X);
    for (const ARule &R : E->Rules) {
      walkPat(R.P);
      walkExp(R.E);
    }
    for (ADec *D : E->Decs)
      walkDec(D);
  }

  TypeContext &Types;
};

/// A node seen before was ground: a variable ends the walk.
bool isGround(Type *T, TypeMemo<bool> &Seen) {
  T = TypeContext::resolve(T);
  if (hasChildren(T) && !Seen.firstVisit(T))
    return true;
  switch (T->K) {
  case Type::Kind::Var:
    return false;
  case Type::Kind::Con:
    for (Type *A : T->Args)
      if (!isGround(A, Seen))
        return false;
    return true;
  case Type::Kind::Tuple:
    for (Type *E : T->Elems)
      if (!isGround(E, Seen))
        return false;
    return true;
  case Type::Kind::Arrow:
    return isGround(T->From, Seen) && isGround(T->To, Seen);
  }
  return false;
}

bool isGround(Type *T) {
  TypeMemo<bool> Seen;
  return isGround(T, Seen);
}

} // namespace

MtdStats smltc::runMtd(AProgram &Prog, TypeContext &Types, Arena &A) {
  MtdStats Stats;
  MtdAnalysis An(Types);
  An.walkProgram(Prog);

  // Fixpoint: grounding one binding's variable can make another binding's
  // instances ground.
  bool Changed = true;
  int Guard = 0;
  while (Changed && Guard++ < 32) {
    Changed = false;
    for (auto &[BoundVar, Insts] : An.Instances) {
      if (BoundVar->Link || An.Poisoned.count(BoundVar))
        continue;
      if (Insts.empty())
        continue;
      Type *First = TypeContext::resolve(Insts[0]);
      if (!isGround(First))
        continue;
      bool AllSame = true;
      for (size_t I = 1; I < Insts.size(); ++I) {
        Type *T = TypeContext::resolve(Insts[I]);
        if (!isGround(T) || !Types.sameType(First, T)) {
          AllSame = false;
          break;
        }
      }
      if (!AllSame)
        continue;
      // Least general scheme: this variable is always used at First.
      BoundVar->Link = First;
      ++Stats.VarsGrounded;
      Changed = true;
    }
  }

  // Rebuild schemes, dropping grounded variables.
  std::unordered_set<ValInfo *> Seen;
  for (ValInfo *V : An.PolyBindings) {
    if (!Seen.insert(V).second)
      continue;
    bool Narrowed = false;
    std::vector<Type *> Kept;
    for (Type *B : V->Scheme.BoundVars) {
      if (B->Link)
        Narrowed = true;
      else
        Kept.push_back(B);
    }
    if (!Narrowed)
      continue;
    V->Scheme.BoundVars = Span<Type *>::copy(A, Kept);
    ++Stats.BindingsNarrowed;
  }
  return Stats;
}
