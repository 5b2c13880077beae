//===- types/Unify.cpp - Unification ---------------------------------------===//

#include "types/Unify.h"

using namespace smltc;

namespace {

/// True if Var occurs in T; also lowers depths in T to Var's depth so that
/// generalization stays sound, and propagates the equality constraint.
/// A node seen before did not contain Var: an occurrence ends the walk.
bool occursAdjust(Type *Var, Type *T, bool MakeEq, TypeMemo<bool> &Seen) {
  T = TypeContext::resolve(T);
  if (hasChildren(T) && !Seen.firstVisit(T))
    return false;
  switch (T->K) {
  case Type::Kind::Var:
    if (T == Var)
      return true;
    if (T->Depth > Var->Depth)
      T->Depth = Var->Depth;
    if (MakeEq)
      T->IsEq = true;
    return false;
  case Type::Kind::Con:
    for (Type *Arg : T->Args)
      if (occursAdjust(Var, Arg, MakeEq, Seen))
        return true;
    return false;
  case Type::Kind::Tuple:
    for (Type *E : T->Elems)
      if (occursAdjust(Var, E, MakeEq, Seen))
        return true;
    return false;
  case Type::Kind::Arrow:
    return occursAdjust(Var, T->From, MakeEq, Seen) ||
           occursAdjust(Var, T->To, MakeEq, Seen);
  }
  return false;
}

UnifyResult bindVar(TypeContext &Ctx, Type *Var, Type *T) {
  assert(Var->K == Type::Kind::Var && !Var->Link);
  if (Var->IsBound)
    return UnifyResult::failure("cannot instantiate a generalized type "
                                "variable (type is less polymorphic)");
  T = TypeContext::resolve(T);
  if (T == Var)
    return UnifyResult::success();
  if (Var->IsOverload) {
    Type *H = Ctx.headNormalize(T);
    if (!(H->K == Type::Kind::Var ||
          (H->K == Type::Kind::Con &&
           (H->Con == Ctx.IntTycon || H->Con == Ctx.RealTycon))))
      return UnifyResult::failure(
          "overloaded operator used at type " + Ctx.toString(T) +
          " (must be int or real)");
    if (H->K == Type::Kind::Var)
      H->IsOverload = true;
  }
  if (Var->IsEq && !Ctx.admitsEquality(T))
    return UnifyResult::failure("type " + Ctx.toString(T) +
                                " does not admit equality");
  TypeMemo<bool> Seen;
  if (occursAdjust(Var, T, Var->IsEq, Seen))
    return UnifyResult::failure("circular type (occurs check failed)");
  Var->Link = T;
  return UnifyResult::success();
}

UnifyResult unifyRec(TypeContext &Ctx, Type *T1, Type *T2,
                     TypePairMemo &Entered) {
  T1 = Ctx.headNormalize(T1);
  T2 = Ctx.headNormalize(T2);
  if (T1 == T2)
    return UnifyResult::success();

  if (T1->K == Type::Kind::Var)
    return bindVar(Ctx, T1, T2);
  if (T2->K == Type::Kind::Var)
    return bindVar(Ctx, T2, T1);

  if (T1->K != T2->K)
    return UnifyResult::failure("type mismatch: " + Ctx.toString(T1) +
                                " vs " + Ctx.toString(T2));
  // A pair entered before was unified then (a failure ends the call), so
  // unifying it again would change nothing.
  if (hasChildren(T1) && !Entered.firstVisit({T1, T2}))
    return UnifyResult::success();

  switch (T1->K) {
  case Type::Kind::Con: {
    if (T1->Con != T2->Con)
      return UnifyResult::failure("type mismatch: " + Ctx.toString(T1) +
                                  " vs " + Ctx.toString(T2));
    for (size_t I = 0; I < T1->Args.size(); ++I) {
      UnifyResult R = unifyRec(Ctx, T1->Args[I], T2->Args[I], Entered);
      if (!R.Ok)
        return R;
    }
    return UnifyResult::success();
  }
  case Type::Kind::Tuple: {
    if (T1->Elems.size() != T2->Elems.size())
      return UnifyResult::failure(
          "tuple size mismatch: " + Ctx.toString(T1) + " vs " +
          Ctx.toString(T2));
    for (size_t I = 0; I < T1->Elems.size(); ++I) {
      UnifyResult R = unifyRec(Ctx, T1->Elems[I], T2->Elems[I], Entered);
      if (!R.Ok)
        return R;
    }
    return UnifyResult::success();
  }
  case Type::Kind::Arrow: {
    UnifyResult R = unifyRec(Ctx, T1->From, T2->From, Entered);
    if (!R.Ok)
      return R;
    return unifyRec(Ctx, T1->To, T2->To, Entered);
  }
  case Type::Kind::Var:
    break;
  }
  return UnifyResult::failure("unexpected unification case");
}

} // namespace

UnifyResult smltc::unify(TypeContext &Ctx, Type *T1, Type *T2) {
  TypePairMemo Entered;
  return unifyRec(Ctx, T1, T2, Entered);
}
