//===- tests/test_property.cpp - Property-style sweeps ----------------------------===//
//
// Parameterized properties over randomly generated programs and size
// sweeps: every compiler variant must agree with a host-side reference
// evaluation, and semantic laws (rev . rev = id, etc.) must hold at every
// size — in particular around the argument-spreading threshold.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "driver/CompileCache.h"
#include "driver/Compiler.h"
#include "native/NativeBackend.h"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <utility>

using namespace smltc;

namespace {

int64_t runNoPrelude(const std::string &Src, const CompilerOptions &O) {
  ExecResult R = Compiler::compileAndRun(Src, O, /*WithPrelude=*/false);
  EXPECT_TRUE(R.Ok) << O.VariantName << ": " << R.TrapMessage;
  EXPECT_FALSE(R.UncaughtException) << O.VariantName;
  return R.Result;
}

//===----------------------------------------------------------------------===//
// Generated programs: every variant and a host evaluation agree
//===----------------------------------------------------------------------===//
//
// A seeded generator builds a small typed AST of a well-typed MiniML
// program, evaluates it on the host (result, printed output, uncaught
// exception), and prints it as source. Each shape aims at a shrink rule
// or a decision point of the paper: constant and branch folding, dead
// code that keeps its effects, select folding and record-copy
// elimination over mixed int/real tuples, wrap/unwrap cancellation of
// reals passed through polymorphic functions and lists, body moves,
// inline-small and eta, Kranz flattening and argument spreading across
// the 10-register threshold, loops with fuel, prelude higher-order
// functions over capturing closures, exceptions across calls, refs,
// polymorphic equality on tuples holding reals, and functions nothing
// live names (dead self- and mutual recursion, a dead caller of a live
// function, recursion named only in a branch that folds), and top-level
// functions named map, length, rev or filter that code before them does
// not see and code after them does. Ints stay small and reals stay exact
// binary fractions, so the host's arithmetic is the machine's.

namespace gen {

struct Ty {
  enum Kind : uint8_t { Int, Real, Bool, Unit, Tuple, List, Ref, Fun } K = Int;
  std::vector<Ty> Sub; ///< Tuple fields; List/Ref element; Fun arg, result

  bool operator==(const Ty &O) const { return K == O.K && Sub == O.Sub; }
  std::string str() const {
    switch (K) {
    case Int:
      return "int";
    case Real:
      return "real";
    case Bool:
      return "bool";
    case Unit:
      return "unit";
    case Tuple: {
      std::string S;
      for (size_t I = 0; I < Sub.size(); ++I)
        S += (I ? " * " : "") + Sub[I].str();
      return "(" + S + ")";
    }
    case List:
      return Sub[0].str() + " list";
    case Ref:
      return Sub[0].str() + " ref";
    case Fun:
      return "(" + Sub[0].str() + " -> " + Sub[1].str() + ")";
    }
    return "";
  }
};

const Ty IntT{Ty::Int, {}}, RealT{Ty::Real, {}}, BoolT{Ty::Bool, {}},
    UnitT{Ty::Unit, {}};
Ty tupleOf(std::vector<Ty> Fields) { return Ty{Ty::Tuple, std::move(Fields)}; }
Ty listOf(Ty T) { return Ty{Ty::List, {std::move(T)}}; }
Ty refOf(Ty T) { return Ty{Ty::Ref, {std::move(T)}}; }
Ty funOf(Ty A, Ty R) { return Ty{Ty::Fun, {std::move(A), std::move(R)}}; }

struct Node;

/// `val Name = Init`, or `fun Name <pattern> = <body>` when Init is a Fn;
/// And holds the further functions of a `fun ... and ...` group.
struct Decl {
  std::string Name;
  Node *Init = nullptr;
  std::vector<Decl> And;
};

struct Node {
  enum Kind : uint8_t {
    Int,      ///< I
    Real,     ///< R
    Var,      ///< S
    Bin,      ///< Kids[0] S Kids[1]; S is + - * < <= > >= = <>
    If,       ///< Kids: condition, then, else
    Let,      ///< Decls, Kids[0]
    Tuple,    ///< Kids
    Sel,      ///< #I Kids[0]
    App,      ///< Kids[0] Kids[1]
    Fn,       ///< fn Params => Kids[0]; ParamTys empty = polymorphic
    Seq,      ///< (Kids[0]; ...; Kids[n-1])
    PrintInt, ///< print (itos Kids[0] ^ " ")
    Ref,      ///< ref Kids[0]
    Deref,    ///< ! Kids[0]
    Assign,   ///< Kids[0] := Kids[1]
    Raise,    ///< raise S Kids[0]
    Handle,   ///< Kids[0] handle S Params[0] => Kids[1]
    List,     ///< [Kids]
    Prim,     ///< S applied to Kids: floor, real, length, hd, rev, map,
              ///< filter, foldl (curried, as in the prelude), tabulate (a
              ///< pair); a user function of the same name in scope wins
  };
  Kind K = Int;
  Ty T;
  int64_t I = 0;
  double R = 0;
  std::string S;
  std::vector<Node *> Kids;
  std::vector<Decl> Decls;
  std::vector<std::string> Params;
  std::vector<Ty> ParamTys;
};

//===--- Printing ---------------------------------------------------------===//

std::string realLit(double R) {
  std::ostringstream OS;
  OS.precision(17);
  OS << std::fabs(R);
  std::string S = OS.str();
  if (S.find('.') == std::string::npos)
    S += ".0";
  return R < 0 ? "(0.0 - " + S + ")" : S;
}

std::string pattern(const Node *Fn) {
  std::string S;
  for (size_t I = 0; I < Fn->Params.size(); ++I) {
    S += (I ? ", " : "") + Fn->Params[I];
    if (!Fn->ParamTys.empty())
      S += " : " + Fn->ParamTys[I].str();
  }
  return Fn->Params.size() == 1 && Fn->ParamTys.empty() ? S : "(" + S + ")";
}

std::string show(const Node *N);

std::string showDecl(const Decl &D) {
  if (D.Init->K != Node::Fn)
    return "val " + D.Name + " = " + show(D.Init);
  std::string S = "fun " + D.Name + " " + pattern(D.Init) + " = " +
                  show(D.Init->Kids[0]);
  for (const Decl &G : D.And)
    S += "\n    and " + G.Name + " " + pattern(G.Init) + " = " +
         show(G.Init->Kids[0]);
  return S;
}

std::string join(const std::vector<Node *> &Ns, const char *Sep) {
  std::string S;
  for (size_t I = 0; I < Ns.size(); ++I)
    S += (I ? Sep : "") + show(Ns[I]);
  return S;
}

std::string show(const Node *N) {
  const auto &K = N->Kids;
  switch (N->K) {
  case Node::Int:
    return N->I < 0 ? "(0 - " + std::to_string(-N->I) + ")"
                    : std::to_string(N->I);
  case Node::Real:
    return realLit(N->R);
  case Node::Var:
    return N->S;
  case Node::Bin:
    return "(" + show(K[0]) + " " + N->S + " " + show(K[1]) + ")";
  case Node::If:
    return "(if " + show(K[0]) + " then " + show(K[1]) + " else " +
           show(K[2]) + ")";
  case Node::Let: {
    std::string S = "(let";
    for (const Decl &D : N->Decls)
      S += "\n    " + showDecl(D);
    return S + "\n  in " + show(K[0]) + " end)";
  }
  case Node::Tuple:
    return "(" + join(K, ", ") + ")";
  case Node::Sel:
    return "(#" + std::to_string(N->I) + " " + show(K[0]) + ")";
  case Node::App:
    return "(" + show(K[0]) + " " + show(K[1]) + ")";
  case Node::Fn:
    return "(fn " + pattern(N) + " => " + show(K[0]) + ")";
  case Node::Seq:
    return "(" + join(K, "; ") + ")";
  case Node::PrintInt:
    return "(print (itos " + show(K[0]) + " ^ \" \"))";
  case Node::Ref:
    return "(ref " + show(K[0]) + ")";
  case Node::Deref:
    return "(! " + show(K[0]) + ")";
  case Node::Assign:
    return "(" + show(K[0]) + " := " + show(K[1]) + ")";
  case Node::Raise:
    return "(raise " + N->S + " " + show(K[0]) + ")";
  case Node::Handle:
    return "(" + show(K[0]) + " handle " + N->S + " " + N->Params[0] +
           " => " + show(K[1]) + ")";
  case Node::List:
    return "[" + join(K, ", ") + "]";
  case Node::Prim:
    if (N->S == "tabulate")
      return "(tabulate (" + join(K, ", ") + "))";
    return "(" + N->S + " " + join(K, " ") + ")";
  }
  return "";
}

//===--- Host evaluation --------------------------------------------------===//

struct Env;

struct Value {
  enum Kind : uint8_t { Int, Real, Bool, Unit, Tuple, List, Ref, Clo };
  Kind K = Unit;
  int64_t I = 0;
  double R = 0;
  std::vector<Value *> Elems; ///< Tuple fields, List elements, Ref cell
  const Node *Fn = nullptr;   ///< Clo
  const Env *Scope = nullptr; ///< Clo
};

struct Env {
  const std::string *Name;
  Value *V;
  const Env *Next;
};

/// An exception raised by the program.
struct Raised {
  std::string Exn;
  int64_t Arg;
};

/// The program left the range the generator promises: an int beyond
/// 2^28, a real that is not a small binary fraction (or is -0.0), or a
/// runaway evaluation. The generator retries with a fresh stream.
struct OutOfRange {};

class Evaluator {
public:
  std::string Out;

  /// Evaluates the top-level declarations, then Main; returns main's int.
  int64_t run(const std::vector<Decl> &Top, const Node *Main) {
    const Env *E = nullptr;
    for (const Decl &D : Top)
      E = declare(D, E);
    return eval(Main, E)->I;
  }

private:
  std::deque<Value> Vals;
  std::deque<Env> Envs;
  uint64_t Steps = 0;

  Value *make(Value::Kind K) {
    Vals.emplace_back().K = K;
    return &Vals.back();
  }
  Value *integer(int64_t I) {
    if (I > (1 << 28) || I < -(1 << 28))
      throw OutOfRange();
    Value *V = make(Value::Int);
    V->I = I;
    return V;
  }
  Value *real(double R) {
    if (!(std::fabs(R) <= 1 << 20) || R * 1024 != std::floor(R * 1024) ||
        (R == 0 && std::signbit(R)))
      throw OutOfRange();
    Value *V = make(Value::Real);
    V->R = R;
    return V;
  }
  Value *boolean(bool B) {
    Value *V = make(Value::Bool);
    V->I = B;
    return V;
  }
  Value *seq(Value::Kind K, std::vector<Value *> Elems) {
    Value *V = make(K);
    V->Elems = std::move(Elems);
    return V;
  }
  const Env *bind(const std::string &Name, Value *V, const Env *E) {
    Envs.push_back(Env{&Name, V, E});
    return &Envs.back();
  }
  static Value *find(const std::string &Name, const Env *E) {
    for (; E; E = E->Next)
      if (*E->Name == Name)
        return E->V;
    return nullptr;
  }
  static Value *lookup(const std::string &Name, const Env *E) {
    if (Value *V = find(Name, E))
      return V;
    throw std::logic_error("generator bug: unbound " + Name);
  }
  const Env *declare(const Decl &D, const Env *E) {
    if (D.Init->K != Node::Fn)
      return bind(D.Name, eval(D.Init, E), E);
    // `fun` is recursive, and the functions of an `and` group see each
    // other.
    std::vector<Value *> Group;
    auto Add = [&](const Decl &G) {
      Value *C = make(Value::Clo);
      C->Fn = G.Init;
      E = bind(G.Name, C, E);
      Group.push_back(C);
    };
    Add(D);
    for (const Decl &G : D.And)
      Add(G);
    for (Value *C : Group)
      C->Scope = E;
    return E;
  }
  Value *apply(const Value *F, Value *Arg) {
    const Node *Fn = F->Fn;
    const Env *E = F->Scope;
    if (Fn->Params.size() == 1)
      E = bind(Fn->Params[0], Arg, E);
    else
      for (size_t I = 0; I < Fn->Params.size(); ++I)
        E = bind(Fn->Params[I], Arg->Elems[I], E);
    return eval(Fn->Kids[0], E);
  }
  static bool equal(const Value *A, const Value *B) {
    if (A->K == Value::Real)
      return A->R == B->R;
    if (A->K == Value::Tuple || A->K == Value::List) {
      if (A->Elems.size() != B->Elems.size())
        return false;
      for (size_t I = 0; I < A->Elems.size(); ++I)
        if (!equal(A->Elems[I], B->Elems[I]))
          return false;
      return true;
    }
    return A->I == B->I;
  }
  Value *binary(const std::string &Op, Value *A, Value *B) {
    if (Op == "=" || Op == "<>")
      return boolean(equal(A, B) == (Op == "="));
    if (A->K == Value::Real) {
      double X = A->R, Y = B->R;
      if (Op == "+")
        return real(X + Y);
      if (Op == "-")
        return real(X - Y);
      if (Op == "*")
        return real(X * Y);
      if (Op == "<")
        return boolean(X < Y);
      return boolean(X <= Y);
    }
    int64_t X = A->I, Y = B->I;
    if (Op == "+")
      return integer(X + Y);
    if (Op == "-")
      return integer(X - Y);
    if (Op == "*")
      return integer(X * Y);
    if (Op == "<")
      return boolean(X < Y);
    if (Op == "<=")
      return boolean(X <= Y);
    if (Op == ">")
      return boolean(X > Y);
    return boolean(X >= Y);
  }
  Value *prim(const Node *N, const Env *E) {
    std::vector<Value *> A;
    for (const Node *K : N->Kids)
      A.push_back(eval(K, E));
    const std::string &P = N->S;
    if (Value *F = find(P, E)) { // a user function shadows the prelude's
      for (Value *X : A)
        F = apply(F, X);
      return F;
    }
    if (P == "floor")
      return integer(static_cast<int64_t>(std::floor(A[0]->R)));
    if (P == "real")
      return real(static_cast<double>(A[0]->I));
    if (P == "length")
      return integer(static_cast<int64_t>(A[0]->Elems.size()));
    if (P == "hd")
      return A[0]->Elems.at(0);
    if (P == "rev")
      return seq(Value::List, std::vector<Value *>(A[0]->Elems.rbegin(),
                                                   A[0]->Elems.rend()));
    std::vector<Value *> R;
    if (P == "tabulate") {
      for (int64_t I = 0; I < A[0]->I; ++I)
        R.push_back(apply(A[1], integer(I)));
      return seq(Value::List, R);
    }
    if (P == "foldl") {
      Value *Acc = A[1];
      for (Value *X : A[2]->Elems)
        Acc = apply(A[0], seq(Value::Tuple, {X, Acc}));
      return Acc;
    }
    for (Value *X : A[1]->Elems) {
      Value *Y = apply(A[0], X);
      if (P == "map")
        R.push_back(Y);
      else if (Y->I) // filter
        R.push_back(X);
    }
    return seq(Value::List, R);
  }

  Value *eval(const Node *N, const Env *E) {
    if (++Steps > 1000000)
      throw OutOfRange();
    const auto &K = N->Kids;
    switch (N->K) {
    case Node::Int:
      return integer(N->I);
    case Node::Real:
      return real(N->R);
    case Node::Var:
      return lookup(N->S, E);
    case Node::Bin: {
      Value *A = eval(K[0], E);
      return binary(N->S, A, eval(K[1], E));
    }
    case Node::If:
      return eval(eval(K[0], E)->I ? K[1] : K[2], E);
    case Node::Let:
      for (const Decl &D : N->Decls)
        E = declare(D, E);
      return eval(K[0], E);
    case Node::Tuple:
    case Node::List: {
      std::vector<Value *> Elems;
      for (const Node *X : K)
        Elems.push_back(eval(X, E));
      return seq(N->K == Node::Tuple ? Value::Tuple : Value::List, Elems);
    }
    case Node::Sel:
      return eval(K[0], E)->Elems.at(N->I - 1);
    case Node::App: {
      Value *F = eval(K[0], E);
      return apply(F, eval(K[1], E));
    }
    case Node::Fn: {
      Value *C = make(Value::Clo);
      C->Fn = N;
      C->Scope = E;
      return C;
    }
    case Node::Seq: {
      Value *V = nullptr;
      for (const Node *X : K)
        V = eval(X, E);
      return V;
    }
    case Node::PrintInt:
      Out += std::to_string(eval(K[0], E)->I) + " ";
      return make(Value::Unit);
    case Node::Ref:
      return seq(Value::Ref, {eval(K[0], E)});
    case Node::Deref:
      return eval(K[0], E)->Elems[0];
    case Node::Assign: {
      Value *R = eval(K[0], E);
      R->Elems[0] = eval(K[1], E);
      return make(Value::Unit);
    }
    case Node::Raise:
      throw Raised{N->S, eval(K[0], E)->I};
    case Node::Handle:
      try {
        return eval(K[0], E);
      } catch (const Raised &X) {
        if (X.Exn != N->S)
          throw;
        return eval(K[1], bind(N->Params[0], integer(X.Arg), E));
      }
    case Node::Prim:
      return prim(N, E);
    }
    throw std::logic_error("generator bug: bad node");
  }
};

//===--- Generation -------------------------------------------------------===//

/// A generated program with its host-evaluated observables.
struct Case {
  std::string Source;
  int64_t Result = 0;
  std::string Output;
  bool Uncaught = false;
};

class Generator {
public:
  explicit Generator(uint32_t Seed) : Rng(Seed) {}

  /// Builds one program; throws OutOfRange when its evaluation leaves
  /// the promised ranges.
  Case build() {
    Block = &Top;
    // Polymorphic helpers that reals and tuples pass through.
    Node *X = var("x", IntT);
    fun("pid", {"x"}, {}, X);
    fun("pfst", {"a", "b"}, {}, var("a", IntT));
    fun("peq", {"a", "b"}, {}, bin("=", var("a", IntT), var("b", IntT)));
    std::vector<Decl> Locals;
    Block = &Locals;
    shapeArith();
    int NumShapes = 3 + pick(4);
    for (int I = 0; I < NumShapes; ++I)
      shape(pick(14));
    Node *Body = Obs.empty() ? lit(0) : Obs[0];
    for (size_t I = 1; I < Obs.size(); ++I)
      Body = bin("+", Body, Obs[I]);
    if (coin(12)) // sometimes the program ends by raising
      Body = mk(Node::If, IntT,
                {genBool(2), mk(Node::Raise, IntT, {lit(pick(9))}, "E1"),
                 Body});
    Node *Main = mk(Node::Let, IntT, {Body});
    Main->Decls = Locals;

    Case C;
    C.Source = "exception E0 of int\nexception E1 of int\n";
    for (const Decl &D : Top)
      C.Source += showDecl(D) + "\n";
    C.Source += "fun main () =\n  " + show(Main) + "\n";
    Evaluator Ev;
    try {
      C.Result = Ev.run(Top, Main);
    } catch (const Raised &) {
      C.Uncaught = true;
      C.Result = -1;
    }
    C.Output = Ev.Out;
    return C;
  }

private:
  struct Binding {
    std::string Name;
    Ty T;
  };

  std::mt19937 Rng;
  std::deque<Node> Pool;
  std::vector<Binding> Scope; ///< names visible where code is generated
  std::vector<Decl> Top;      ///< top-level declarations before main
  std::vector<Decl> *Block = nullptr; ///< where declarations go
  std::vector<Node *> Obs; ///< int observations main sums at its end
  int Counter = 0;

  int pick(int N) { return std::uniform_int_distribution<int>(0, N - 1)(Rng); }
  bool coin(int N = 2) { return pick(N) == 0; }
  std::string fresh(const char *Stem) {
    return Stem + std::to_string(Counter++);
  }

  Node *mk(Node::Kind K, Ty T, std::vector<Node *> Kids = {},
           std::string S = "") {
    Node *N = &Pool.emplace_back();
    N->K = K;
    N->T = std::move(T);
    N->Kids = std::move(Kids);
    N->S = std::move(S);
    return N;
  }
  Node *lit(int64_t V) {
    Node *N = mk(Node::Int, IntT);
    N->I = V;
    return N;
  }
  Node *rlit(double V) {
    Node *N = mk(Node::Real, RealT);
    N->R = V;
    return N;
  }
  Node *var(const std::string &Name, Ty T) {
    return mk(Node::Var, std::move(T), {}, Name);
  }
  Node *bin(std::string Op, Node *A, Node *B) {
    bool Cmp = Op != "+" && Op != "-" && Op != "*";
    return mk(Node::Bin, Cmp ? BoolT : A->T, {A, B}, std::move(Op));
  }
  Node *prim(const char *Name, Ty T, std::vector<Node *> Args) {
    return mk(Node::Prim, std::move(T), std::move(Args), Name);
  }
  Node *sel(Node *Tup, int I) {
    Node *N = mk(Node::Sel, Tup->T.Sub[I - 1], {Tup});
    N->I = I;
    return N;
  }
  Node *app(const Binding &F, Node *Arg) {
    return mk(Node::App, F.T.Sub[1], {var(F.Name, F.T), Arg});
  }
  Node *lambda(std::vector<std::string> Params, std::vector<Ty> Tys,
               Node *Body) {
    Ty Arg = Tys.size() == 1 ? Tys[0] : tupleOf(Tys);
    Node *N = mk(Node::Fn, funOf(Arg, Body->T), {Body});
    N->Params = std::move(Params);
    N->ParamTys = std::move(Tys);
    return N;
  }
  Node *tupleNode(std::vector<Node *> Elems) {
    std::vector<Ty> Tys;
    for (Node *E : Elems)
      Tys.push_back(E->T);
    return mk(Node::Tuple, tupleOf(Tys), std::move(Elems));
  }

  /// Adds `val Name = Init` to the current block; Visible puts the name
  /// in scope for later code.
  Node *val(const std::string &Name, Node *Init, bool Visible = true) {
    Block->push_back(Decl{Name, Init, {}});
    if (Visible)
      Scope.push_back({Name, Init->T});
    return var(Name, Init->T);
  }
  /// Adds `fun Name Params = Body` to the current block (not in scope).
  Binding fun(const std::string &Name, std::vector<std::string> Params,
              std::vector<Ty> Tys, Node *Body) {
    Node *Fn = lambda(std::move(Params), std::move(Tys), Body);
    Block->push_back(Decl{Name, Fn, {}});
    return {Name, Fn->T};
  }
  /// Runs Gen, which declares a function, at top level: its declaration
  /// goes before main and no local of main is in scope.
  template <typename F> Binding atTopLevel(F Gen) {
    std::vector<Decl> *Local = Block;
    std::vector<Binding> Locals = std::exchange(Scope, {});
    Block = &Top;
    Binding B = Gen();
    Block = Local;
    Scope = std::move(Locals);
    return B;
  }
  /// Generates a function body with the parameters in scope.
  template <typename F>
  Node *withParams(const std::vector<std::string> &Ps,
                   const std::vector<Ty> &Tys, F Gen) {
    size_t Mark = Scope.size();
    for (size_t I = 0; I < Ps.size(); ++I)
      Scope.push_back({Ps[I], Tys[I]});
    Node *Body = Gen();
    Scope.resize(Mark);
    return Body;
  }

  /// A random binding of type T in scope, or null.
  const Binding *anyOf(const Ty &T) {
    std::vector<const Binding *> Vs;
    for (const Binding &B : Scope)
      if (B.T == T)
        Vs.push_back(&B);
    return Vs.empty() ? nullptr : Vs[pick(static_cast<int>(Vs.size()))];
  }
  /// A field of kind K of some tuple in scope, as `#i t`.
  Node *fieldOf(Ty::Kind K) {
    std::vector<std::pair<const Binding *, int>> Fs;
    for (const Binding &B : Scope)
      if (B.T.K == Ty::Tuple)
        for (size_t I = 0; I < B.T.Sub.size(); ++I)
          if (B.T.Sub[I].K == K)
            Fs.push_back({&B, static_cast<int>(I) + 1});
    if (Fs.empty())
      return nullptr;
    auto [B, I] = Fs[pick(static_cast<int>(Fs.size()))];
    return sel(var(B->Name, B->T), I);
  }

  Node *intLeaf() {
    if (coin(2))
      if (const Binding *B = anyOf(IntT))
        return var(B->Name, IntT);
    return lit(pick(41) - 20);
  }
  Node *realLeaf() {
    if (coin(2))
      if (const Binding *B = anyOf(RealT))
        return var(B->Name, RealT);
    return rlit((pick(25) - 8) / 4.0);
  }

  Node *genInt(int D) {
    if (D <= 0 || coin(4))
      return intLeaf();
    switch (pick(10)) {
    case 0:
    case 1:
    case 2: {
      const char *Op = pick(3) == 0 ? "*" : coin() ? "+" : "-";
      Node *A = genInt(D - 1);
      return bin(Op, A, genInt(D - 1));
    }
    case 3:
      return mk(Node::If, IntT, {genBool(D - 1), genInt(D - 1), genInt(D - 1)});
    case 4:
      if (Node *F = fieldOf(Ty::Int))
        return F;
      break;
    case 5:
      return prim("floor", IntT, {genReal(D - 1)});
    case 6:
      if (const Binding *F = anyOf(funOf(IntT, IntT)))
        return app(*F, genInt(D - 1));
      break;
    case 7:
      if (const Binding *R = anyOf(refOf(IntT)))
        return mk(Node::Deref, IntT, {var(R->Name, R->T)});
      break;
    case 8: { // a let-bound subexpression, unused half the time
      std::string X = fresh("x");
      Node *Init = genInt(D - 1);
      Node *Body = withParams({X}, {IntT}, [&] { return genInt(D - 1); });
      Node *L = mk(Node::Let, IntT, {Body});
      L->Decls.push_back(Decl{X, Init, {}});
      return L;
    }
    default: { // a constant subexpression
      Node *A = lit(pick(21));
      return bin("-", A, lit(pick(21)));
    }
    }
    return intLeaf();
  }

  Node *genReal(int D) {
    if (D <= 0 || coin(4))
      return realLeaf();
    switch (pick(7)) {
    case 0: {
      Node *A = genReal(D - 1);
      return bin("*", A, rlit((pick(5) + 1) / 2.0));
    }
    case 1:
    case 2: {
      const char *Op = coin() ? "+" : "-";
      Node *A = genReal(D - 1);
      return bin(Op, A, genReal(D - 1));
    }
    case 3:
      return prim("real", RealT, {genInt(D - 1)});
    case 4:
      if (Node *F = fieldOf(Ty::Real))
        return F;
      break;
    case 5:
      if (const Binding *F = anyOf(funOf(RealT, RealT)))
        return app(*F, genReal(D - 1));
      break;
    default:
      return mk(Node::If, RealT,
                {genBool(D - 1), genReal(D - 1), genReal(D - 1)});
    }
    return realLeaf();
  }

  Node *genBool(int D) {
    static const char *IntCmp[] = {"<", "<=", ">", ">=", "=", "<>"};
    const char *Op = IntCmp[pick(6)];
    switch (pick(5)) {
    case 0:
    case 1: { // constant comparison, equal operands half the time
      int X = pick(11);
      return bin(Op, lit(X), lit(coin() ? X : pick(11)));
    }
    case 2: {
      const char *ROp = coin() ? "<" : "<=";
      Node *A = genReal(D);
      return bin(ROp, A, genReal(D));
    }
    default: {
      Node *A = genInt(D);
      return bin(Op, A, genInt(D));
    }
    }
  }

  /// An int observation of a real: exact, since reals are binary
  /// fractions with small denominators.
  Node *observeReal(Node *R) {
    return prim("floor", IntT, {bin("*", R, rlit(4.0))});
  }

  //===--- Shapes ---------------------------------------------------------===//

  void shape(int Which) {
    switch (Which) {
    case 0:
      return shapeArith();
    case 1:
      return shapeDead();
    case 2:
      return shapeTuples();
    case 3:
      return shapePolyReals();
    case 4:
      return shapeLocalFuns();
    case 5:
      return shapeWideArgs();
    case 6:
      return shapeLoop();
    case 7:
      return shapePrelude();
    case 8:
      return shapeExceptions();
    case 9:
      return shapeRefs();
    case 10:
      return shapeEquality();
    case 11:
      return shapeChain();
    case 12:
      return shapeDeadFuns();
    default:
      return shapeShadow();
    }
  }

  /// Let-bound int expressions over + - *, constants and conditionals
  /// (the random expressions this test started from).
  void shapeArith() {
    for (int I = 0, N = 1 + pick(3); I < N; ++I)
      val(fresh("v"), genInt(3));
    if (coin())
      val(fresh("r"), genReal(2));
    Obs.push_back(genInt(3));
  }

  /// Unused values: tuples, refs, and initializers that print.
  void shapeDead() {
    switch (pick(4)) {
    case 0:
      val(fresh("d"), tupleNode({genInt(2), genReal(1)}), false);
      break;
    case 1:
      val(fresh("d"), mk(Node::Ref, refOf(IntT), {genInt(2)}), false);
      break;
    case 2:
      val(fresh("d"),
          mk(Node::Seq, IntT, {mk(Node::PrintInt, UnitT, {genInt(2)}), genInt(1)}),
          false);
      break;
    default:
      val(fresh("d"), mk(Node::PrintInt, UnitT, {genInt(2)}), false);
    }
  }

  /// Mixed int/real tuples read by #n, and one rebuilt field by field.
  void shapeTuples() {
    std::vector<Node *> Fields;
    for (int I = 0, N = 2 + pick(5); I < N; ++I)
      Fields.push_back(coin() ? genInt(2) : genReal(1));
    Node *T = val(fresh("t"), tupleNode(Fields));
    std::vector<Node *> Copy;
    for (size_t I = 1; I <= Fields.size(); ++I)
      Copy.push_back(sel(T, static_cast<int>(I)));
    Node *U = val(fresh("u"), tupleNode(Copy));
    int J = 1 + pick(static_cast<int>(Fields.size()));
    Node *F = sel(coin() ? T : U, J);
    Obs.push_back(F->T.K == Ty::Real ? observeReal(F) : F);
  }

  /// Reals through polymorphic functions and lists.
  void shapePolyReals() {
    Node *Pid = var("pid", funOf(RealT, RealT));
    Node *R1 = val(fresh("r"), mk(Node::App, RealT, {Pid, genReal(2)}));
    Node *Pfst = var("pfst", funOf(tupleOf({RealT, IntT}), RealT));
    Node *Pair = tupleNode({genReal(1), genInt(1)});
    Node *R2 = val(fresh("r"), mk(Node::App, RealT, {Pfst, Pair}));
    Node *L = val(fresh("l"),
                  mk(Node::List, listOf(RealT), {R1, genReal(1), R2}));
    std::string A = fresh("a"), X = fresh("x");
    Node *Add = lambda({X, A}, {RealT, RealT},
                       bin("+", var(A, RealT), var(X, RealT)));
    Obs.push_back(observeReal(prim("foldl", RealT, {Add, rlit(0.5), L})));
    Obs.push_back(observeReal(prim("hd", RealT, {L})));
  }

  /// Local functions: called once with several int parameters, small and
  /// called more than once, and forwarded by `fn x => f x`.
  void shapeLocalFuns() {
    std::string A = fresh("a"), B = fresh("b");
    Node *Body = withParams({A, B}, {IntT, IntT}, [&] {
      Node *Scaled = bin("*", var(A, IntT), lit(2 + pick(3)));
      return bin("-", Scaled, genInt(2));
    });
    Binding Once = fun(fresh("f"), {A, B}, {IntT, IntT}, Body);
    Obs.push_back(mk(Node::App, IntT,
                     {var(Once.Name, Once.T), tupleNode({genInt(2), genInt(2)})}));

    std::string X = fresh("x");
    Node *SBody = withParams({X}, {IntT}, [&] {
      return bin("+", var(X, IntT), intLeaf());
    });
    Binding Small = fun(fresh("h"), {X}, {IntT}, SBody);
    Scope.push_back(Small);
    Node *First = app(Small, genInt(1));
    Obs.push_back(bin("+", First, app(Small, genInt(1))));
    if (coin()) { // a forwarder, eta-reducible to h
      std::string Y = fresh("y");
      Node *Fwd = val(fresh("w"), lambda({Y}, {IntT}, app(Small, var(Y, IntT))));
      Obs.push_back(mk(Node::App, IntT, {Fwd, genInt(1)}));
    }
  }

  /// A chain of once-called local functions, each calling the previous.
  void shapeChain() {
    Binding Prev{"", IntT};
    for (int I = 0, N = 2 + pick(4); I < N; ++I) {
      std::string X = fresh("x");
      Node *Body = withParams({X}, {IntT}, [&] {
        const char *Op = coin() ? "+" : "-";
        Node *Arg = bin(Op, var(X, IntT), intLeaf());
        return Prev.Name.empty() ? bin("*", Arg, lit(pick(4)))
                                 : app(Prev, Arg);
      });
      Prev = fun(fresh("g"), {X}, {IntT}, Body);
    }
    Obs.push_back(app(Prev, genInt(2)));
  }

  /// Functions over tuples of 1 to 12 int and real components, at top
  /// level or local, called with a literal tuple or a bound one.
  void shapeWideArgs() {
    int N = 1 + pick(12);
    std::vector<std::string> Ps;
    std::vector<Ty> Tys;
    for (int I = 0; I < N; ++I) {
      Ps.push_back(fresh("p"));
      Tys.push_back(coin(3) ? RealT : IntT);
    }
    auto Declare = [&] {
      Node *Body = withParams(Ps, Tys, [&] {
        Node *Sum = lit(pick(5));
        for (int I = 0; I < N; ++I) {
          Node *P = var(Ps[I], Tys[I]);
          Node *Term = Tys[I] == RealT ? observeReal(P)
                                       : bin("*", P, lit(I + 1));
          Sum = bin(coin(3) ? "-" : "+", Sum, Term);
        }
        return Sum;
      });
      return fun(fresh("w"), Ps, Tys, Body);
    };
    Binding F = coin() ? atTopLevel(Declare) : Declare();
    for (int Calls = 1 + pick(2); Calls > 0; --Calls) {
      std::vector<Node *> Args;
      for (const Ty &T : Tys)
        Args.push_back(T == RealT ? genReal(1) : genInt(1));
      Node *Arg = N == 1 ? Args[0] : tupleNode(Args);
      if (N > 1 && coin())
        Arg = val(fresh("k"), Arg);
      Obs.push_back(mk(Node::App, IntT, {var(F.Name, F.T), Arg}));
    }
  }

  /// Recursion with a decreasing fuel argument, printing on some steps.
  void shapeLoop() {
    std::string Name = fresh("lp"), N = fresh("n"), Acc = fresh("acc");
    bool RealAcc = coin(3);
    Ty AccT = RealAcc ? RealT : IntT;
    Binding Self{Name, funOf(tupleOf({IntT, AccT}), AccT)};
    Node *Body = withParams({N, Acc}, {IntT, AccT}, [&] {
      Node *Step = RealAcc ? bin("+", var(Acc, RealT), rlit(pick(4) / 2.0))
                           : bin("+", var(Acc, IntT),
                                 bin("-", var(N, IntT), intLeaf()));
      Node *Rec = app(Self, tupleNode({bin("-", var(N, IntT), lit(1)), Step}));
      if (coin(3))
        Rec = mk(Node::Seq, AccT,
                 {mk(Node::PrintInt, UnitT, {var(N, IntT)}), Rec});
      return mk(Node::If, AccT,
                {bin("<=", var(N, IntT), lit(0)), var(Acc, AccT), Rec});
    });
    fun(Name, {N, Acc}, {IntT, AccT}, Body);
    Node *Fuel = lit(pick(7));
    Node *Call =
        app(Self, tupleNode({Fuel, RealAcc ? genReal(1) : genInt(1)}));
    Obs.push_back(RealAcc ? observeReal(Call) : Call);
  }

  /// Prelude tabulate, map, filter and foldl over closures that capture
  /// locals.
  void shapePrelude() {
    Ty L = listOf(IntT);
    std::string I = fresh("i"), X = fresh("x"), Y = fresh("y"), Z = fresh("z"),
                A = fresh("a");
    Node *Len = lit(pick(7));
    Node *Gen = withParams({I}, {IntT}, [&] {
      Node *Scaled = bin("*", var(I, IntT), intLeaf());
      return bin("+", Scaled, intLeaf());
    });
    Node *Tab = val(fresh("l"),
                    prim("tabulate", L, {Len, lambda({I}, {IntT}, Gen)}));
    Node *Shift = withParams({X}, {IntT}, [&] {
      return bin("-", var(X, IntT), intLeaf());
    });
    Node *Mapped =
        val(fresh("l"), prim("map", L, {lambda({X}, {IntT}, Shift), Tab}));
    Node *Test = withParams({Y}, {IntT}, [&] {
      const char *Op = coin() ? ">" : "<=";
      return bin(Op, var(Y, IntT), intLeaf());
    });
    Node *Kept = prim("filter", L, {lambda({Y}, {IntT}, Test), Mapped});
    Node *Add = lambda({Z, A}, {IntT, IntT},
                       bin("+", var(A, IntT), var(Z, IntT)));
    Obs.push_back(prim("foldl", IntT, {Add, intLeaf(), Kept}));
    Obs.push_back(prim("length", IntT, {Mapped}));
  }

  /// `exception E0 of int` raised in a callee, handled in a caller,
  /// sometimes re-raised as E1 or passed through a handler for E1.
  void shapeExceptions() {
    Binding Thrower = atTopLevel([&] {
      std::string X = fresh("x");
      Node *Body = withParams({X}, {IntT}, [&] {
        Node *Raise =
            mk(Node::Raise, IntT, {bin("+", var(X, IntT), lit(1))}, "E0");
        return mk(Node::If, IntT,
                  {bin(">", var(X, IntT), lit(pick(9) - 2)), Raise,
                   bin("*", var(X, IntT), lit(2))});
      });
      return fun(fresh("th"), {X}, {IntT}, Body);
    });
    Node *Call = app(Thrower, genInt(1));
    switch (pick(3)) {
    case 0:
      Obs.push_back(handle(Call, "E0", [&](Node *N) {
        return bin("+", N, lit(100));
      }));
      break;
    case 1: { // re-raised as E1, handled further out
      Node *Inner = handle(Call, "E0", [&](Node *N) {
        return mk(Node::Raise, IntT, {bin("*", N, lit(2))}, "E1");
      });
      Obs.push_back(handle(Inner, "E1", [&](Node *N) {
        return bin("-", N, lit(1));
      }));
      break;
    }
    default: { // a handler for E1 that E0 passes through
      Node *Inner = handle(Call, "E1", [&](Node *N) { return N; });
      Obs.push_back(handle(Inner, "E0", [&](Node *N) {
        return bin("+", N, lit(7));
      }));
    }
    }
  }

  /// `E handle Exn n => Handler(n)`.
  template <typename F> Node *handle(Node *E, const char *Exn, F Handler) {
    std::string N = fresh("e");
    Node *H = mk(Node::Handle, IntT, {E, Handler(var(N, IntT))}, Exn);
    H->Params = {N};
    return H;
  }

  /// Refs updated and read in sequence with prints, and a closure that
  /// bumps one.
  void shapeRefs() {
    Node *C = val(fresh("c"), mk(Node::Ref, refOf(IntT), {genInt(2)}));
    Node *Bang = mk(Node::Deref, IntT, {C});
    Node *Set = mk(Node::Assign, UnitT, {C, bin("+", Bang, genInt(1))});
    val("_", mk(Node::Seq, UnitT, {Set, mk(Node::PrintInt, UnitT, {Bang})}),
        false);
    std::string X = fresh("x");
    Node *Body = withParams({X}, {IntT}, [&] {
      Node *Add = bin("+", Bang, var(X, IntT));
      return mk(Node::Seq, IntT, {mk(Node::Assign, UnitT, {C, Add}), Bang});
    });
    Binding Bump = fun(fresh("bump"), {X}, {IntT}, Body);
    Obs.push_back(app(Bump, genInt(1)));
    if (coin()) // later code may bump it again
      Scope.push_back(Bump);
    Obs.push_back(Bang);
  }

  /// Polymorphic equality on tuples that hold reals, inline and through
  /// a polymorphic function.
  void shapeEquality() {
    int I = pick(5);
    double R = pick(9) / 4.0;
    Node *Q = val(fresh("q"), tupleNode({lit(I), rlit(R), genInt(1)}));
    auto other = [&] {
      return tupleNode({lit(coin(3) ? I + 1 : I), rlit(coin(3) ? R + 0.5 : R),
                        sel(var(Q->S, Q->T), 3)});
    };
    Obs.push_back(mk(Node::If, IntT, {bin("=", Q, other()), lit(1), lit(2)}));
    Node *Peq = var("peq", funOf(tupleOf({Q->T, Q->T}), BoolT));
    Node *Same = mk(Node::App, BoolT, {Peq, tupleNode({Q, other()})});
    Obs.push_back(mk(Node::If, IntT, {Same, lit(10), lit(20)}));
  }

  /// `if x <= 0 then leaf else Next (x - 1) op leaf`, with x in scope.
  Node *countdown(const Binding &Next, const std::string &X) {
    return withParams({X}, {IntT}, [&] {
      Node *Rec = app(Next, bin("-", var(X, IntT), lit(1)));
      return mk(Node::If, IntT,
                {bin("<=", var(X, IntT), lit(0)), intLeaf(),
                 bin(coin() ? "+" : "*", Rec, intLeaf())});
    });
  }

  /// Functions that nothing live names, at top level or local: dead
  /// self-recursion, a dead `fun ... and ...` pair, a dead function that
  /// calls a live one, and a recursive function named only in the arm of
  /// a branch that folds away.
  void shapeDeadFuns() {
    const Ty IntFn = funOf(IntT, IntT);
    const int Which = pick(4);
    auto Declare = [&]() -> Binding {
      switch (Which) {
      case 0: { // dead self-recursion
        std::string X = fresh("x");
        Binding Self{fresh("dr"), IntFn};
        fun(Self.Name, {X}, {IntT}, countdown(Self, X));
        return Self;
      }
      case 1: { // a dead mutually recursive pair
        std::string X = fresh("x"), Y = fresh("y");
        Binding F{fresh("da"), IntFn}, G{fresh("db"), IntFn};
        Node *FBody = countdown(G, X), *GBody = countdown(F, Y);
        Block->push_back(Decl{F.Name, lambda({X}, {IntT}, FBody),
                              {Decl{G.Name, lambda({Y}, {IntT}, GBody), {}}}});
        return F;
      }
      case 2: { // a dead caller of a live function
        std::string X = fresh("x"), Y = fresh("y");
        Node *LBody = withParams({X}, {IntT}, [&] {
          return bin("+", bin("*", var(X, IntT), lit(1 + pick(3))),
                     intLeaf());
        });
        Binding Live = fun(fresh("lv"), {X}, {IntT}, LBody);
        Node *DBody = withParams({Y}, {IntT}, [&] {
          Node *A = app(Live, bin("+", var(Y, IntT), intLeaf()));
          return bin("-", A, app(Live, var(Y, IntT)));
        });
        fun(fresh("dc"), {Y}, {IntT}, DBody);
        return Live;
      }
      default: { // recursion named only in a branch that folds
        std::string X = fresh("x");
        Binding Self{fresh("rf"), IntFn};
        fun(Self.Name, {X}, {IntT}, countdown(Self, X));
        return Self;
      }
      }
    };
    Binding F = coin() ? atTopLevel(Declare) : Declare();
    if (Which == 2) {
      Obs.push_back(app(F, genInt(1)));
    } else if (Which == 3) {
      int A = pick(9);
      Obs.push_back(mk(Node::If, IntT,
                       {bin("<", lit(A), lit(A + 1 + pick(3))), genInt(1),
                        app(F, lit(pick(4)))}));
    }
  }

  /// A top-level user function named map, length, rev or filter, typed
  /// like the prelude's at int lists but doing something else. A
  /// top-level value or function declared before it names the prelude's
  /// (or an earlier user one), and main names the user's.
  void shapeShadow() {
    static const char *const Names[] = {"map", "length", "rev", "filter"};
    const std::string Name = Names[pick(4)];
    atTopLevel([&] {
      if (coin()) {
        Obs.push_back(val(fresh("sh"), useOf(Name, intList())));
      } else {
        const Ty L = listOf(IntT);
        std::string Ls = fresh("l");
        Binding F = fun(fresh("sh"), {Ls}, {L}, useOf(Name, var(Ls, L)));
        Obs.push_back(app(F, intList()));
      }
      return declareShadow(Name);
    });
    Obs.push_back(useOf(Name, intList()));
  }

  Node *intList() {
    std::vector<Node *> Elems;
    for (int I = 0, N = 1 + pick(4); I < N; ++I)
      Elems.push_back(lit(pick(21) - 10));
    return mk(Node::List, listOf(IntT), std::move(Elems));
  }

  /// An int observation of the function Name names, applied to the int
  /// list Arg: its result itself (length) or an order-sensitive digest
  /// of the list it returns.
  Node *useOf(const std::string &Name, Node *Arg) {
    const Ty L = listOf(IntT);
    if (Name == "length")
      return prim("length", IntT, {Arg});
    Node *List;
    if (Name == "rev") {
      List = prim("rev", L, {Arg});
    } else {
      std::string Y = fresh("y");
      Node *Body = Name == "map"
                       ? bin("*", var(Y, IntT), lit(1 + pick(3)))
                       : bin(">", var(Y, IntT), lit(pick(9) - 4));
      List = prim(Name.c_str(), L, {lambda({Y}, {IntT}, Body), Arg});
    }
    std::string Z = fresh("z"), A = fresh("a");
    Node *Step = lambda({Z, A}, {IntT, IntT},
                        bin("+", bin("*", var(A, IntT), lit(3)), var(Z, IntT)));
    return prim("foldl", IntT, {Step, lit(0), List});
  }

  /// `fun Name ...` at the type the generator uses Name at, with another
  /// body: length sums scaled elements, rev shifts them, map keeps the
  /// elements whose image passes a test, and filter replaces the
  /// rejected ones by a constant. Each names only other functions.
  Binding declareShadow(const std::string &Name) {
    const Ty L = listOf(IntT);
    std::string Ls = fresh("l"), Y = fresh("y");
    if (Name == "length") {
      std::string Z = fresh("z"), A = fresh("a");
      Node *Step = lambda({Z, A}, {IntT, IntT},
                          bin("+", var(A, IntT),
                              bin("*", var(Z, IntT), lit(2 + pick(3)))));
      return fun(Name, {Ls}, {L},
                 prim("foldl", IntT, {Step, lit(pick(5)), var(Ls, L)}));
    }
    if (Name == "rev") {
      Node *Shift =
          lambda({Y}, {IntT}, bin("+", var(Y, IntT), lit(1 + pick(5))));
      return fun(Name, {Ls}, {L}, prim("map", L, {Shift, var(Ls, L)}));
    }
    Binding F{fresh("f"), funOf(IntT, Name == "map" ? IntT : BoolT)};
    Node *Image = app(F, var(Y, IntT));
    Node *Inner =
        Name == "map"
            ? prim("filter", L,
                   {lambda({Y}, {IntT}, bin(">", Image, lit(pick(9) - 4))),
                    var(Ls, L)})
            : prim("map", L,
                   {lambda({Y}, {IntT},
                           mk(Node::If, IntT,
                              {Image, var(Y, IntT), lit(pick(9))})),
                    var(Ls, L)});
    return fun(Name, {F.Name}, {F.T}, lambda({Ls}, {L}, Inner));
  }
};

/// The program of Seed: the first stream whose evaluation stays in range.
Case generate(int Seed) {
  for (uint32_t Attempt = 0;; ++Attempt) {
    Generator G(static_cast<uint32_t>(Seed) * 7919u + 13u + Attempt * 104729u);
    try {
      return G.build();
    } catch (const OutOfRange &) {
    }
  }
}

} // namespace gen

ExecResult runOn(const TmProgram &P) { return execute(P, VmOptions()); }

class GeneratedPrograms : public ::testing::TestWithParam<int> {};

// Each program compiles under the six variants, with the default rules
// and with every ablatable rule off, to TM code whose every function is
// reachable from the entry, and runs: result, output and exception state
// equal the host's. The default-rules compile is byte-identical under the
// inline prelude, and the first four programs' default sml.ffb compiles
// also run natively, with the interpreter's counts.
TEST_P(GeneratedPrograms, MatchHostOnEveryVariant) {
  const int Seed = GetParam();
  gen::Case C = gen::generate(Seed);
  SCOPED_TRACE("seed " + std::to_string(Seed) + ", program:\n" + C.Source);
  testutil::CensusAudit Audit;
  std::optional<testutil::FreshNativeCache> NativeCache;
  if (Seed < 4 && native::nativeAvailable())
    NativeCache.emplace();
  size_t N;
  const CompilerOptions *Vs = CompilerOptions::allVariants(N);
  for (size_t V = 0; V < N; ++V) {
    for (uint8_t Disable : {uint8_t(0), uint8_t(kCpsRuleAll)}) {
      CompilerOptions O = Vs[V];
      O.CpsOptDisable = Disable;
      std::string Tag =
          std::string(O.VariantName) + (Disable ? " (rules off)" : "");
      CompileOutput Out = Compiler::compile(C.Source, O);
      ASSERT_TRUE(Out.Ok) << Tag << ": " << Out.Errors;
      EXPECT_EQ(Out.Metrics.Opt.CensusAuditFailures, 0u) << Tag;
      EXPECT_FALSE(Out.Metrics.Opt.HitSafetyCeiling) << Tag;
      EXPECT_EQ(testutil::unreachableFunctions(Out.Program), 0u) << Tag;

      ExecResult T = runOn(Out.Program);
      ASSERT_TRUE(T.Ok) << Tag << ": " << T.TrapMessage;
      EXPECT_EQ(T.UncaughtException, C.Uncaught) << Tag;
      EXPECT_EQ(T.Result, C.Result) << Tag;
      EXPECT_EQ(T.Output, C.Output) << Tag;

      if (!Disable) {
        CompilerOptions Inl = O;
        Inl.Prelude = PreludeMode::Inline;
        CompileOutput InlOut = Compiler::compile(C.Source, Inl);
        ASSERT_TRUE(InlOut.Ok) << Tag << " inline: " << InlOut.Errors;
        EXPECT_EQ(programBytes(InlOut.Program), programBytes(Out.Program))
            << Tag << ": snapshot and inline prelude diverged";
      }
      if (NativeCache && !Disable && std::string(O.VariantName) == "sml.ffb") {
        ExecResult Nat;
        std::string Err;
        ASSERT_TRUE(native::executeNative(Out.Program, VmOptions(), Nat, Err))
            << Tag << ": " << Err;
        testutil::expectIdentical(T, Nat, Tag + " native vs threaded");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedPrograms, ::testing::Range(0, 100));

//===----------------------------------------------------------------------===//
// Straight-line code past the register file
//===----------------------------------------------------------------------===//

std::string sequenceSource(int N) {
  std::string S = "fun main () = let val r = ref 0 in (";
  for (int I = 0; I < N; ++I)
    S += "r := !r + 1; ";
  return S + "!r) end";
}

std::string listSource(int N) {
  std::string S = "val l = [0";
  for (int I = 1; I < N; ++I)
    S += ", " + std::to_string(I);
  return S + "]\nfun main () = foldl (fn (x, a) => a + x) 0 l";
}

std::string concatSource(int N) {
  std::string S = "fun main () = size (\"a\"";
  for (int I = 1; I < N; ++I)
    S += " ^ \"a\"";
  return S + ")";
}

/// Under every variant, Src either compiles and runs to Want, or (unless
/// MustRun) fails to compile naming the register file. It never compiles
/// into a program the loader then rejects.
void expectRunsOrRefused(const std::string &Src, int64_t Want, bool MustRun) {
  size_t N;
  const CompilerOptions *Vs = CompilerOptions::allVariants(N);
  for (size_t V = 0; V < N; ++V) {
    CompileOutput Out = Compiler::compile(Src, Vs[V]);
    if (!Out.Ok) {
      EXPECT_FALSE(MustRun) << Vs[V].VariantName << ": " << Out.Errors;
      EXPECT_NE(Out.Errors.find("registers"), std::string::npos)
          << Vs[V].VariantName << ": " << Out.Errors;
      continue;
    }
    ExecResult R = runOn(Out.Program);
    ASSERT_TRUE(R.Ok) << Vs[V].VariantName << ": " << R.TrapMessage;
    EXPECT_EQ(R.Result, Want) << Vs[V].VariantName;
  }
}

TEST(RegisterFileLimit, ShortPathsCompileAndRun) {
  expectRunsOrRefused(sequenceSource(40), 40, /*MustRun=*/true);
  expectRunsOrRefused(listSource(100), 99 * 100 / 2, /*MustRun=*/true);
}

TEST(RegisterFileLimit, LongPathsRunOrFailToCompile) {
  expectRunsOrRefused(sequenceSource(600), 600, /*MustRun=*/false);
  expectRunsOrRefused(listSource(1200), 1199 * 1200 / 2, /*MustRun=*/false);
  expectRunsOrRefused(concatSource(3000), 3000, /*MustRun=*/false);
}

//===----------------------------------------------------------------------===//
// Tuple arity sweep (crosses the 10-register spreading threshold)
//===----------------------------------------------------------------------===//

class TupleAritySweep : public ::testing::TestWithParam<int> {};

TEST_P(TupleAritySweep, SpreadAndUnspreadCallsAgree) {
  int N = GetParam();
  // f (x1, ..., xn) = x1 + 2*x2 + ... + n*xn, called with (1, ..., n).
  std::ostringstream OS;
  OS << "fun f (";
  for (int I = 1; I <= N; ++I)
    OS << (I > 1 ? ", " : "") << "x" << I << " : int";
  OS << ") = ";
  int64_t Expected = 0;
  for (int I = 1; I <= N; ++I) {
    OS << (I > 1 ? " + " : "") << I << " * x" << I;
    Expected += static_cast<int64_t>(I) * I;
  }
  OS << "\nfun main () = f (";
  for (int I = 1; I <= N; ++I)
    OS << (I > 1 ? ", " : "") << I;
  OS << ")\n";
  for (auto Mk : {CompilerOptions::nrp, CompilerOptions::rep,
                  CompilerOptions::ffb})
    EXPECT_EQ(runNoPrelude(OS.str(), Mk()), Expected);
}

INSTANTIATE_TEST_SUITE_P(Arity, TupleAritySweep,
                         ::testing::Values(2, 3, 8, 9, 10, 11, 13));

//===----------------------------------------------------------------------===//
// Mixed float/word tuple sweep (Figure 1c layouts at every shape)
//===----------------------------------------------------------------------===//

class MixedTupleSweep : public ::testing::TestWithParam<int> {};

TEST_P(MixedTupleSweep, ReorderedLayoutsReadBack) {
  // Build a tuple with floats and ints interleaved by a bitmask and read
  // every field back.
  int Mask = GetParam();
  int N = 6;
  std::ostringstream OS;
  OS << "val t = (";
  double FloatSum = 0;
  int64_t IntSum = 0;
  for (int I = 0; I < N; ++I) {
    if (I)
      OS << ", ";
    if (Mask & (1 << I)) {
      OS << I << ".5";
      FloatSum += I + 0.5;
    } else {
      OS << I + 1;
      IntSum += I + 1;
    }
  }
  OS << ")\nfun main () = ";
  bool First = true;
  std::ostringstream FloatPart;
  for (int I = 0; I < N; ++I) {
    if (Mask & (1 << I))
      continue;
    OS << (First ? "" : " + ") << "#" << I + 1 << " t";
    First = false;
  }
  if (First)
    OS << "0";
  OS << " + floor (0.0";
  for (int I = 0; I < N; ++I)
    if (Mask & (1 << I))
      OS << " + #" << I + 1 << " t";
  OS << ")\n";
  int64_t Expected =
      IntSum + static_cast<int64_t>(std::floor(FloatSum));
  for (auto Mk : {CompilerOptions::nrp, CompilerOptions::rep,
                  CompilerOptions::ffb, CompilerOptions::fp3})
    EXPECT_EQ(runNoPrelude(OS.str(), Mk()), Expected) << OS.str();
}

INSTANTIATE_TEST_SUITE_P(Masks, MixedTupleSweep,
                         ::testing::Values(0, 1, 2, 21, 42, 63, 37, 26));

//===----------------------------------------------------------------------===//
// List laws at several sizes
//===----------------------------------------------------------------------===//

class ListLaws : public ::testing::TestWithParam<int> {};

TEST_P(ListLaws, ReverseAndAppendLaws) {
  int N = GetParam();
  std::ostringstream OS;
  OS << "fun upto (i, n) = if i > n then nil else i :: upto (i + 1, n)\n"
     << "fun main () =\n"
     << "  let val l = upto (1, " << N << ")\n"
     << "      val ok1 = rev (rev l) = l\n"
     << "      val ok2 = length (l @ l) = 2 * length l\n"
     << "      val ok3 = rev (l @ l) = (rev l @ rev l)\n"
     << "      val ok4 = foldl (fn (x, a) => a + x) 0 l = "
        "foldr (fn (x, a) => a + x) 0 l\n"
     << "  in (if ok1 then 1 else 0) + (if ok2 then 10 else 0)\n"
     << "     + (if ok3 then 100 else 0) + (if ok4 then 1000 else 0) "
        "end\n";
  ExecResult R =
      Compiler::compileAndRun(OS.str(), CompilerOptions::ffb());
  ASSERT_TRUE(R.Ok) << R.TrapMessage;
  EXPECT_EQ(R.Result, 1111) << "N=" << N;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ListLaws,
                         ::testing::Values(0, 1, 2, 7, 31));

//===----------------------------------------------------------------------===//
// Coercion round-trips through polymorphic identity
//===----------------------------------------------------------------------===//

TEST(CoercionRoundTrip, ValuesSurvivePolymorphicPassage) {
  // Passing every kind of value through the BOXED world and back must be
  // the identity (wrap/unwrap round trips).
  const char *Src =
      "fun id x = x "
      "fun twice f x = f (f x) "
      "fun main () = "
      "  let val a = id 42 "
      "      val b = floor (id 2.5 * 2.0) "
      "      val c = #1 (id (7, 8)) "
      "      val d = if id true then 1 else 0 "
      "      val e = hd (id [9]) "
      "      val f = floor (twice (fn x : real => x * x) 2.0) "
      "      val g = size (id \"xyz\") "
      "  in a + b + c + d + e + f + g end";
  for (auto Mk : {CompilerOptions::nrp, CompilerOptions::rep,
                  CompilerOptions::ffb}) {
    ExecResult R = Compiler::compileAndRun(Src, Mk());
    ASSERT_TRUE(R.Ok) << R.TrapMessage;
    EXPECT_EQ(R.Result, 42 + 5 + 7 + 1 + 9 + 16 + 3);
  }
}

TEST(CoercionRoundTrip, EqualityTypeVariablesStayWalkable) {
  // ''a values must reach the runtime equality in recursively boxed form
  // even when their concrete representation is flat.
  const char *Src =
      "fun eqpoly (x, y) = x = y "
      "fun main () = "
      "  (if eqpoly ((1.5, 2.5), (1.5, 2.5)) then 1 else 0) + "
      "  (if eqpoly ((1.5, 2.5), (1.5, 9.9)) then 10 else 20)";
  for (auto Mk : {CompilerOptions::nrp, CompilerOptions::ffb}) {
    ExecResult R = Compiler::compileAndRun(Src, Mk());
    ASSERT_TRUE(R.Ok) << R.TrapMessage;
    EXPECT_EQ(R.Result, 21);
  }
}

} // namespace
