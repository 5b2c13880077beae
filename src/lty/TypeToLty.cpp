//===- lty/TypeToLty.cpp - ML types to LTY -----------------------------------===//

#include "lty/TypeToLty.h"

using namespace smltc;

void TypeLowering::markVars(Type *T, bool InCon, Walk &W) {
  // A node is walked at most twice: once outside a constructor, and once
  // inside one, which marks a superset.
  T = TypeContext::resolve(T);
  if (hasChildren(T)) {
    const uint8_t Level = InCon ? 2 : 1;
    uint8_t *Prev = W.MarkedAt.find(T);
    if (Prev && *Prev >= Level)
      return;
    if (Prev)
      *Prev = Level;
    else
      W.MarkedAt.insert(T, Level);
  }
  T = Types.headNormalize(T);
  switch (T->K) {
  case Type::Kind::Var:
    if (InCon || T->IsEq)
      W.Marked.insert(T);
    return;
  case Type::Kind::Con:
    // Record and function type constructors are not "constructor types"
    // (paper footnote 2); every other tycon application marks the
    // variables below it.
    for (Type *Arg : T->Args)
      markVars(Arg, /*InCon=*/true, W);
    return;
  case Type::Kind::Tuple:
    for (Type *E : T->Elems)
      markVars(E, InCon, W);
    return;
  case Type::Kind::Arrow:
    markVars(T->From, InCon, W);
    markVars(T->To, InCon, W);
    return;
  }
}

const Lty *TypeLowering::lowerRec(Type *T, Walk &W) {
  T = TypeContext::resolve(T);
  if (Mode == ReprMode::Standard || !hasChildren(T))
    return lowerNode(T, W);
  if (const Lty **Prev = W.Lowered.find(T))
    return *Prev;
  const Lty *R = lowerNode(T, W);
  W.Lowered.insert(T, R);
  return R;
}

const Lty *TypeLowering::lowerNode(Type *T, Walk &W) {
  T = Types.headNormalize(T);

  if (Mode == ReprMode::Standard) {
    // Non-type-based compilers: standard boxed representations everywhere.
    // Record and arrow arity is still structural (SELECTs exist in the
    // untyped compiler too), but every field/argument is one word.
    switch (T->K) {
    case Type::Kind::Var:
      return LC.rboxedTy();
    case Type::Kind::Con:
      if (T->Con == Types.IntTycon || T->Con == Types.UnitTycon)
        return LC.intTy();
      return LC.rboxedTy();
    case Type::Kind::Tuple: {
      if (T->Elems.empty())
        return LC.intTy();
      std::vector<const Lty *> Fields(T->Elems.size(), LC.rboxedTy());
      return LC.record(Fields);
    }
    case Type::Kind::Arrow:
      return LC.arrow(LC.rboxedTy(), LC.rboxedTy());
    }
    return LC.rboxedTy();
  }

  switch (T->K) {
  case Type::Kind::Var:
    return W.Marked.count(T) ? LC.rboxedTy() : LC.boxedTy();
  case Type::Kind::Con: {
    TyCon *C = T->Con;
    if (C == Types.IntTycon || C == Types.UnitTycon)
      return LC.intTy();
    if (C == Types.RealTycon)
      return Mode == ReprMode::FullFloat ? LC.realTy() : LC.boxedTy();
    if (C->K == TyCon::Kind::Flexible)
      return LC.rboxedTy();
    // All rigid constructor types (string, list, ref, array, exn, cont,
    // bool, user datatypes) are one-word pointers/words.
    return LC.boxedTy();
  }
  case Type::Kind::Tuple: {
    if (T->Elems.empty())
      return LC.intTy();
    std::vector<const Lty *> Fields;
    for (Type *E : T->Elems)
      Fields.push_back(lowerRec(E, W));
    return LC.record(Fields);
  }
  case Type::Kind::Arrow:
    return LC.arrow(lowerRec(T->From, W), lowerRec(T->To, W));
  }
  return LC.boxedTy();
}

const Lty *TypeLowering::lower(Type *T) {
  Walk W;
  if (Mode != ReprMode::Standard)
    markVars(T, /*InCon=*/false, W);
  return lowerRec(T, W);
}

const Lty *TypeLowering::lowerScheme(const TypeScheme &S) {
  return lower(S.Body);
}

const Lty *TypeLowering::lowerStatic(const StrStatic *S) {
  if (auto It = Statics.find(S); It != Statics.end())
    return It->second;
  std::vector<const Lty *> Fields;
  for (const StrComp &C : S->Comps) {
    switch (C.K) {
    case StrComp::Kind::Val:
      Fields.push_back(lowerScheme(C.Scheme));
      break;
    case StrComp::Kind::Exn:
      Fields.push_back(LC.boxedTy()); // the runtime tag
      break;
    case StrComp::Kind::Str:
      Fields.push_back(lowerStatic(C.Str));
      break;
    }
  }
  return Statics[S] = LC.srecord(Fields);
}
