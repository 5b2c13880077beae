//===- types/Type.cpp - ML semantic types ----------------------------------===//

#include "types/Type.h"

#include <sstream>
#include <unordered_map>

using namespace smltc;

TypeContext::TypeContext(Arena &A, StringInterner &Interner)
    : A(A), Interner(Interner) {
  auto MakePrim = [&](const char *Name, int Arity, bool Eq) {
    TyCon *TC = A.create<TyCon>();
    TC->K = TyCon::Kind::Prim;
    TC->Name = Interner.intern(Name);
    TC->Arity = Arity;
    TC->AdmitsEq = Eq;
    TC->Stamp = NextStamp++;
    return TC;
  };
  IntTycon = MakePrim("int", 0, true);
  // Real admits equality in SML'90 (the paper's setting).
  RealTycon = MakePrim("real", 0, true);
  StringTycon = MakePrim("string", 0, true);
  UnitTycon = MakePrim("unit", 0, true);
  RefTycon = MakePrim("ref", 1, true);
  ArrayTycon = MakePrim("array", 1, true);
  ExnTycon = MakePrim("exn", 0, false);
  ContTycon = MakePrim("cont", 1, false);

  IntType = con(IntTycon);
  RealType = con(RealTycon);
  StringType = con(StringTycon);
  UnitType = con(UnitTycon);
  ExnType = con(ExnTycon);

  // bool as a datatype with two constant constructors (false=0, true=1).
  BoolTycon = makeDatatype(Interner.intern("bool"), 0);
  {
    DataCon *F = A.create<DataCon>();
    F->Name = Interner.intern("false");
    F->Owner = BoolTycon;
    F->Index = 0;
    DataCon *T = A.create<DataCon>();
    T->Name = Interner.intern("true");
    T->Owner = BoolTycon;
    T->Index = 1;
    DataCon *Cons[2] = {F, T};
    BoolTycon->Cons = Span<DataCon *>(A.copyArray(Cons, 2), 2);
    assignConReps(BoolTycon);
    FalseCon = F;
    TrueCon = T;
  }
  BoolType = con(BoolTycon);

  // 'a list = nil | :: of 'a * 'a list.
  ListTycon = makeDatatype(Interner.intern("list"), 1);
  {
    Type *Formal = freshVar(0);
    Type *Formals[1] = {Formal};
    ListTycon->Formals = Span<Type *>(A.copyArray(Formals, 1), 1);
    DataCon *Nil = A.create<DataCon>();
    Nil->Name = Interner.intern("nil");
    Nil->Owner = ListTycon;
    Nil->Index = 0;
    DataCon *C = A.create<DataCon>();
    C->Name = Interner.intern("::");
    C->Owner = ListTycon;
    C->Index = 1;
    C->Payload = tuple({Formal, listOf(Formal)});
    DataCon *Cons[2] = {Nil, C};
    ListTycon->Cons = Span<DataCon *>(A.copyArray(Cons, 2), 2);
    assignConReps(ListTycon);
    NilCon = Nil;
    ConsCon = C;
  }

  // ref constructor (builtin special representation): ref : 'a -> 'a ref.
  {
    Type *Formal = freshVar(0);
    Formal->IsBound = true;
    Type *Formals[1] = {Formal};
    RefTycon->Formals = Span<Type *>(A.copyArray(Formals, 1), 1);
    RefCon = A.create<DataCon>();
    RefCon->Name = Interner.intern("ref");
    RefCon->Owner = RefTycon;
    RefCon->Index = 0;
    RefCon->Payload = Formal;
    RefCon->Rep = ConRep{ConRepKind::Ref, 0};
    DataCon *Cons[1] = {RefCon};
    RefTycon->Cons = Span<DataCon *>(A.copyArray(Cons, 1), 1);
  }
}

TypeContext::TypeContext(Arena &A, StringInterner &Interner,
                         const TypeContext &Base)
    : A(A), Interner(Interner) {
  IntTycon = Base.IntTycon;
  RealTycon = Base.RealTycon;
  StringTycon = Base.StringTycon;
  UnitTycon = Base.UnitTycon;
  BoolTycon = Base.BoolTycon;
  ListTycon = Base.ListTycon;
  RefTycon = Base.RefTycon;
  ArrayTycon = Base.ArrayTycon;
  ExnTycon = Base.ExnTycon;
  ContTycon = Base.ContTycon;
  TrueCon = Base.TrueCon;
  FalseCon = Base.FalseCon;
  NilCon = Base.NilCon;
  ConsCon = Base.ConsCon;
  RefCon = Base.RefCon;
  IntType = Base.IntType;
  RealType = Base.RealType;
  StringType = Base.StringType;
  UnitType = Base.UnitType;
  BoolType = Base.BoolType;
  ExnType = Base.ExnType;
  NextVarId = Base.NextVarId;
  NextStamp = Base.NextStamp;
}

Type *TypeContext::freshVar(int Depth, bool IsEq) {
  Type *T = A.create<Type>();
  T->K = Type::Kind::Var;
  T->VarId = NextVarId++;
  T->IsEq = IsEq;
  T->Depth = Depth;
  return T;
}

Type *TypeContext::freshOverloadVar(int Depth) {
  Type *T = freshVar(Depth);
  T->IsOverload = true;
  return T;
}

Type *TypeContext::con(TyCon *TC, Span<Type *> Args) {
  assert(TC && static_cast<int>(Args.size()) == TC->Arity &&
         "tycon arity mismatch");
  Type *T = A.create<Type>();
  T->K = Type::Kind::Con;
  T->Con = TC;
  T->Args = Args;
  return T;
}

Type *TypeContext::con(TyCon *TC, std::vector<Type *> Args) {
  return con(TC, Span<Type *>::copy(A, Args));
}

Type *TypeContext::tuple(std::vector<Type *> Elems) {
  assert(Elems.size() != 1 && "1-tuples do not exist");
  Type *T = A.create<Type>();
  T->K = Type::Kind::Tuple;
  T->Elems = Span<Type *>::copy(A, Elems);
  return T;
}

Type *TypeContext::arrow(Type *From, Type *To) {
  Type *T = A.create<Type>();
  T->K = Type::Kind::Arrow;
  T->From = From;
  T->To = To;
  return T;
}

Type *TypeContext::resolve(Type *T) {
  while (T->K == Type::Kind::Var && T->Link) {
    if (T->Link->K == Type::Kind::Var && T->Link->Link)
      T->Link = T->Link->Link; // path compression
    T = T->Link;
  }
  return T;
}

Type *TypeContext::headNormalize(Type *T) {
  T = resolve(T);
  while (T->K == Type::Kind::Con && T->Con->K == TyCon::Kind::Abbrev) {
    T = substitute(T->Con->AbbrevBody, T->Con->Formals, T->Args);
    T = resolve(T);
  }
  return T;
}

Type *TypeContext::substitute(Type *T, Span<Type *> Formals,
                              Span<Type *> Actuals) {
  assert(Formals.size() == Actuals.size());
  TypeMemo<Type *> Done;
  return substitute(T, Formals, Actuals, Done);
}

Type *TypeContext::substitute(Type *T, Span<Type *> Formals,
                              Span<Type *> Actuals, TypeMemo<Type *> &Done) {
  T = resolve(T);
  if (!hasChildren(T))
    return substituteNode(T, Formals, Actuals, Done);
  if (Type **Prev = Done.find(T))
    return *Prev;
  Type *R = substituteNode(T, Formals, Actuals, Done);
  Done.insert(T, R);
  return R;
}

Type *TypeContext::substituteNode(Type *T, Span<Type *> Formals,
                                  Span<Type *> Actuals,
                                  TypeMemo<Type *> &Done) {
  switch (T->K) {
  case Type::Kind::Var:
    for (size_t I = 0; I < Formals.size(); ++I)
      if (T == resolve(const_cast<Type *>(Formals[I])))
        return Actuals[I];
    return T;
  case Type::Kind::Con: {
    if (T->Args.empty())
      return T;
    std::vector<Type *> NewArgs;
    bool Changed = false;
    for (Type *Arg : T->Args) {
      Type *NA = substitute(Arg, Formals, Actuals, Done);
      Changed |= (NA != resolve(Arg));
      NewArgs.push_back(NA);
    }
    if (!Changed)
      return T;
    return con(T->Con, std::move(NewArgs));
  }
  case Type::Kind::Tuple: {
    std::vector<Type *> NewElems;
    bool Changed = false;
    for (Type *E : T->Elems) {
      Type *NE = substitute(E, Formals, Actuals, Done);
      Changed |= (NE != resolve(E));
      NewElems.push_back(NE);
    }
    if (!Changed)
      return T;
    return tuple(std::move(NewElems));
  }
  case Type::Kind::Arrow: {
    Type *NF = substitute(T->From, Formals, Actuals, Done);
    Type *NT = substitute(T->To, Formals, Actuals, Done);
    if (NF == resolve(T->From) && NT == resolve(T->To))
      return T;
    return arrow(NF, NT);
  }
  }
  return T;
}

Type *TypeContext::instantiate(const TypeScheme &S, int Depth,
                               std::vector<Type *> &InstVars) {
  if (S.BoundVars.empty())
    return S.Body;
  std::vector<Type *> Fresh;
  for (Type *BV : S.BoundVars) {
    Type *V = freshVar(Depth, BV->IsEq);
    Fresh.push_back(V);
    InstVars.push_back(V);
  }
  return substitute(S.Body, S.BoundVars,
                    Span<Type *>(Fresh.data(), Fresh.size()));
}

namespace {
/// Appends T's generalizable variables to Out in first-occurrence order.
void collectGeneralizable(Type *T, int Depth, std::vector<Type *> &Out,
                          TypeMemo<bool> &Seen) {
  T = TypeContext::resolve(T);
  if (hasChildren(T) && !Seen.firstVisit(T))
    return;
  switch (T->K) {
  case Type::Kind::Var:
    if (!T->IsBound && !T->IsOverload && T->Depth > Depth) {
      for (Type *Seen : Out)
        if (Seen == T)
          return;
      Out.push_back(T);
    }
    return;
  case Type::Kind::Con:
    for (Type *Arg : T->Args)
      collectGeneralizable(Arg, Depth, Out, Seen);
    return;
  case Type::Kind::Tuple:
    for (Type *E : T->Elems)
      collectGeneralizable(E, Depth, Out, Seen);
    return;
  case Type::Kind::Arrow:
    collectGeneralizable(T->From, Depth, Out, Seen);
    collectGeneralizable(T->To, Depth, Out, Seen);
    return;
  }
}
} // namespace

TypeScheme TypeContext::generalize(Type *T, int Depth) {
  std::vector<Type *> Vars;
  TypeMemo<bool> Seen;
  collectGeneralizable(T, Depth, Vars, Seen);
  for (Type *V : Vars)
    V->IsBound = true;
  TypeScheme S;
  S.BoundVars = Span<Type *>::copy(A, Vars);
  S.Body = T;
  return S;
}

bool TypeContext::admitsEquality(Type *T) {
  TypeMemo<bool> Seen;
  return admitsEquality(T, Seen);
}

bool TypeContext::admitsEquality(Type *T, TypeMemo<bool> &Seen) {
  // A node seen before admitted equality: a refusal ends the walk.
  T = resolve(T);
  if (hasChildren(T) && !Seen.firstVisit(T))
    return true;
  T = headNormalize(T);
  switch (T->K) {
  case Type::Kind::Var:
    // Unbound var: unification will constrain it later; allow (the caller
    // turns it into an equality variable).
    return true;
  case Type::Kind::Con:
    if (T->Con == RefTycon || T->Con == ArrayTycon)
      return true; // ref/array admit (pointer) equality regardless of arg
    if (!T->Con->AdmitsEq)
      return false;
    if (T->Con->K == TyCon::Kind::Datatype) {
      // AdmitsEq on the tycon was computed at declaration; args must too.
      for (Type *Arg : T->Args)
        if (!admitsEquality(Arg, Seen))
          return false;
      return true;
    }
    for (Type *Arg : T->Args)
      if (!admitsEquality(Arg, Seen))
        return false;
    return true;
  case Type::Kind::Tuple:
    for (Type *E : T->Elems)
      if (!admitsEquality(E, Seen))
        return false;
    return true;
  case Type::Kind::Arrow:
    return false;
  }
  return false;
}

bool TypeContext::sameType(Type *T1, Type *T2) {
  TypePairMemo Entered;
  return sameType(T1, T2, Entered);
}

bool TypeContext::sameType(Type *T1, Type *T2, TypePairMemo &Entered) {
  T1 = headNormalize(T1);
  T2 = headNormalize(T2);
  if (T1 == T2)
    return true;
  if (T1->K != T2->K)
    return false;
  // A pair entered before compared equal: a difference ends the call.
  if (hasChildren(T1) && !Entered.firstVisit({T1, T2}))
    return true;
  switch (T1->K) {
  case Type::Kind::Var:
    return false; // distinct var nodes
  case Type::Kind::Con: {
    if (T1->Con != T2->Con)
      return false;
    for (size_t I = 0; I < T1->Args.size(); ++I)
      if (!sameType(T1->Args[I], T2->Args[I], Entered))
        return false;
    return true;
  }
  case Type::Kind::Tuple: {
    if (T1->Elems.size() != T2->Elems.size())
      return false;
    for (size_t I = 0; I < T1->Elems.size(); ++I)
      if (!sameType(T1->Elems[I], T2->Elems[I], Entered))
        return false;
    return true;
  }
  case Type::Kind::Arrow:
    return sameType(T1->From, T2->From, Entered) &&
           sameType(T1->To, T2->To, Entered);
  }
  return false;
}

TyCon *TypeContext::makeDatatype(Symbol Name, int Arity) {
  TyCon *TC = A.create<TyCon>();
  TC->K = TyCon::Kind::Datatype;
  TC->Name = Name;
  TC->Arity = Arity;
  TC->AdmitsEq = true; // refined by the elaborator after payloads are known
  TC->Stamp = NextStamp++;
  return TC;
}

TyCon *TypeContext::makeFlexible(Symbol Name, int Arity, bool AdmitsEq) {
  TyCon *TC = A.create<TyCon>();
  TC->K = TyCon::Kind::Flexible;
  TC->Name = Name;
  TC->Arity = Arity;
  TC->AdmitsEq = AdmitsEq;
  TC->Stamp = NextStamp++;
  return TC;
}

TyCon *TypeContext::makeAbbrev(Symbol Name, Span<Type *> Formals,
                               Type *Body) {
  TyCon *TC = A.create<TyCon>();
  TC->K = TyCon::Kind::Abbrev;
  TC->Name = Name;
  TC->Arity = static_cast<int>(Formals.size());
  TC->Formals = Formals;
  TC->AbbrevBody = Body;
  TC->Stamp = NextStamp++;
  return TC;
}

bool TypeContext::isStaticallyBoxed(Type *T) {
  T = headNormalize(T);
  if (T->K == Type::Kind::Tuple && T->Elems.size() >= 2)
    return true;
  if (T->K == Type::Kind::Con && T->Con == StringTycon)
    return true;
  return false;
}

void TypeContext::assignConReps(TyCon *Datatype) {
  assert(Datatype->K == TyCon::Kind::Datatype);
  int NumCarrying = 0;
  DataCon *Carrier = nullptr;
  for (DataCon *DC : Datatype->Cons) {
    if (DC->Payload) {
      ++NumCarrying;
      Carrier = DC;
    }
  }
  // Constant constructors get consecutive small-int tags.
  int ConstTag = 0;
  for (DataCon *DC : Datatype->Cons)
    if (!DC->Payload)
      DC->Rep = ConRep{ConRepKind::Constant, ConstTag++};

  if (NumCarrying == 0)
    return;
  if (NumCarrying == 1 && isStaticallyBoxed(Carrier->Payload)) {
    // The payload is always a pointer, so the value can be the payload
    // itself; constants are distinguishable as tagged ints.
    Carrier->Rep = ConRep{ConRepKind::Transparent, 0};
    return;
  }
  int BoxTag = 0;
  for (DataCon *DC : Datatype->Cons)
    if (DC->Payload)
      DC->Rep = ConRep{ConRepKind::TaggedBox, BoxTag++};
}

Type *TypeContext::listOf(Type *Elem) { return con(ListTycon, {Elem}); }
Type *TypeContext::refOf(Type *Elem) { return con(RefTycon, {Elem}); }
Type *TypeContext::arrayOf(Type *Elem) { return con(ArrayTycon, {Elem}); }
Type *TypeContext::contOf(Type *Elem) { return con(ContTycon, {Elem}); }

namespace {
/// Renders T for a diagnostic. Budget counts the nodes still to render:
/// past it a subtree prints as "...", so a type whose tree is exponential
/// in its size (a DAG) still renders in bounded space.
void emitType(std::ostringstream &OS, Type *T,
              std::unordered_map<const Type *, std::string> &VarNames,
              size_t &Budget) {
  if (Budget == 0) {
    OS << "...";
    return;
  }
  --Budget;
  T = TypeContext::resolve(T);
  switch (T->K) {
  case Type::Kind::Var: {
    auto It = VarNames.find(T);
    if (It == VarNames.end()) {
      std::string Name = (T->IsEq ? "''" : "'");
      Name += static_cast<char>('a' + (VarNames.size() % 26));
      It = VarNames.emplace(T, Name).first;
    }
    OS << It->second;
    return;
  }
  case Type::Kind::Con: {
    if (T->Args.size() == 1) {
      emitType(OS, T->Args[0], VarNames, Budget);
      OS << ' ';
    } else if (T->Args.size() > 1) {
      OS << '(';
      for (size_t I = 0; I < T->Args.size(); ++I) {
        if (I)
          OS << ", ";
        emitType(OS, T->Args[I], VarNames, Budget);
      }
      OS << ") ";
    }
    OS << T->Con->Name.str();
    return;
  }
  case Type::Kind::Tuple: {
    if (T->Elems.empty()) {
      OS << "unit";
      return;
    }
    OS << '(';
    for (size_t I = 0; I < T->Elems.size(); ++I) {
      if (I)
        OS << " * ";
      emitType(OS, T->Elems[I], VarNames, Budget);
    }
    OS << ')';
    return;
  }
  case Type::Kind::Arrow:
    OS << '(';
    emitType(OS, T->From, VarNames, Budget);
    OS << " -> ";
    emitType(OS, T->To, VarNames, Budget);
    OS << ')';
    return;
  }
}
} // namespace

std::string TypeContext::toString(Type *T) {
  std::ostringstream OS;
  std::unordered_map<const Type *, std::string> VarNames;
  size_t Budget = kMaxRenderedTypeNodes;
  emitType(OS, T, VarNames, Budget);
  return OS.str();
}

std::string TypeContext::toString(const TypeScheme &S) {
  std::ostringstream OS;
  std::unordered_map<const Type *, std::string> VarNames;
  size_t Budget = kMaxRenderedTypeNodes;
  if (!S.BoundVars.empty()) {
    OS << "forall";
    for (Type *BV : S.BoundVars) {
      OS << ' ';
      emitType(OS, BV, VarNames, Budget);
    }
    OS << ". ";
  }
  emitType(OS, S.Body, VarNames, Budget);
  return OS.str();
}
