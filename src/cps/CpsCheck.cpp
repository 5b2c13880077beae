//===- cps/CpsCheck.cpp - CPS well-formedness checking ---------------------------===//

#include "cps/CpsCheck.h"

#include "cps/DenseVarMap.h"

#include <algorithm>

using namespace smltc;

namespace {

class Checker {
public:
  CpsCheckResult Result;

  void bindVar(CVar V) {
    if (V < 0) {
      fail("variable v" + std::to_string(V) + " has a negative number");
    } else if (!Bound.insert(V)) {
      fail("variable v" + std::to_string(V) + " bound twice");
    } else {
      InScope.insert(V);
      Trail.push_back(V);
    }
  }

  void useValue(const CValue &V) {
    if (!V.isVar() || InScope.has(V.V))
      return;
    fail("variable v" + std::to_string(V.V) +
         (Bound.has(V.V) ? " used outside its scope" : " used before binding"));
  }

  /// Scopes: a function's parameters and body bindings are visible only
  /// in its body, and a branch arm's bindings only in that arm.
  size_t scopeMark() const { return Trail.size(); }
  void popScope(size_t Mark) {
    for (; Trail.size() > Mark; Trail.pop_back())
      InScope.erase(Trail.back());
  }

  void check(const Cexp *E) {
    if (!Result.Ok || !E)
      return;
    ++Result.NodesChecked;
    switch (E->K) {
    case Cexp::Kind::Record:
      for (const CField &F : E->Fields)
        useValue(F.V);
      bindVar(E->W);
      check(E->C1);
      return;
    case Cexp::Kind::Select:
      useValue(E->F);
      bindVar(E->W);
      check(E->C1);
      return;
    case Cexp::Kind::App:
      useValue(E->F);
      for (const CValue &V : E->Args)
        useValue(V);
      return;
    case Cexp::Kind::Fix:
      for (const CFun *F : E->Funs)
        bindVar(F->Name);
      for (const CFun *F : E->Funs) {
        if (F->Params.size() != F->ParamTys.size()) {
          fail("function param/type arity mismatch");
          return;
        }
        size_t Mark = scopeMark();
        for (CVar P : F->Params)
          bindVar(P);
        check(F->Body);
        popScope(Mark);
      }
      check(E->C1);
      return;
    case Cexp::Kind::Branch: {
      for (const CValue &V : E->Args)
        useValue(V);
      size_t Mark = scopeMark();
      check(E->C1);
      popScope(Mark);
      check(E->C2);
      return;
    }
    case Cexp::Kind::Arith:
    case Cexp::Kind::Pure:
    case Cexp::Kind::Looker:
    case Cexp::Kind::CCall:
      for (const CValue &V : E->Args)
        useValue(V);
      bindVar(E->W);
      check(E->C1);
      return;
    case Cexp::Kind::Setter:
      for (const CValue &V : E->Args)
        useValue(V);
      check(E->C1);
      return;
    case Cexp::Kind::Halt:
      useValue(E->F);
      return;
    }
  }

private:
  void fail(std::string Msg) {
    if (Result.Ok) {
      Result.Ok = false;
      Result.Error = std::move(Msg);
    }
  }
  DenseVarSet Bound;   ///< every binder seen so far (uniqueness)
  DenseVarSet InScope; ///< binders visible at the current node
  std::vector<CVar> Trail;
};

} // namespace

CpsCheckResult smltc::checkCps(const Cexp *Program) {
  Checker C;
  C.check(Program);
  return C.Result;
}

namespace {

/// Recounts occurrences over the physical tree, resolving each value
/// through the caller's substitution first (an incrementally maintained
/// census describes the virtual, fully substituted tree).
class CensusRecounter {
public:
  CensusRecounter(size_t N, const std::function<CValue(CValue)> &Resolve)
      : Uses(N, 0), Calls(N, 0), Resolve(Resolve) {}

  std::vector<int32_t> Uses;
  std::vector<int32_t> Calls;
  size_t Nodes = 0;

  void count(const Cexp *E) {
    for (;;) {
      ++Nodes;
      switch (E->K) {
      case Cexp::Kind::Record:
        for (const CField &F : E->Fields)
          val(F.V, false);
        E = E->C1;
        continue;
      case Cexp::Kind::Select:
        val(E->F, false);
        E = E->C1;
        continue;
      case Cexp::Kind::App:
        val(E->F, true);
        for (const CValue &V : E->Args)
          val(V, false);
        return;
      case Cexp::Kind::Fix:
        for (const CFun *F : E->Funs)
          count(F->Body);
        E = E->C1;
        continue;
      case Cexp::Kind::Branch:
        for (const CValue &V : E->Args)
          val(V, false);
        count(E->C1);
        E = E->C2;
        continue;
      case Cexp::Kind::Arith:
      case Cexp::Kind::Pure:
      case Cexp::Kind::Looker:
      case Cexp::Kind::CCall:
      case Cexp::Kind::Setter:
        for (const CValue &V : E->Args)
          val(V, false);
        E = E->C1;
        continue;
      case Cexp::Kind::Halt:
        val(E->F, false);
        return;
      }
    }
  }

private:
  void val(CValue V, bool Call) {
    if (Resolve)
      V = Resolve(V);
    if (!V.isVar() || static_cast<size_t>(V.V) >= Uses.size())
      return;
    ++Uses[V.V];
    if (Call)
      ++Calls[V.V];
  }

  const std::function<CValue(CValue)> &Resolve;
};

} // namespace

CpsCheckResult
smltc::checkCpsCensus(const Cexp *Program,
                      const std::vector<int32_t> &UseCounts,
                      const std::vector<int32_t> &CallCounts,
                      const std::function<CValue(CValue)> &Resolve) {
  CpsCheckResult R;
  if (!Program)
    return R;
  size_t N = std::min(UseCounts.size(), CallCounts.size());
  CensusRecounter C(N, Resolve);
  C.count(Program);
  R.NodesChecked = C.Nodes;
  for (size_t I = 0; I < N; ++I) {
    if (C.Uses[I] != UseCounts[I]) {
      R.Ok = false;
      R.Error = "census use count drifted for v" + std::to_string(I) +
                ": maintained " + std::to_string(UseCounts[I]) +
                ", recounted " + std::to_string(C.Uses[I]);
      return R;
    }
    if (C.Calls[I] != CallCounts[I]) {
      R.Ok = false;
      R.Error = "census call count drifted for v" + std::to_string(I) +
                ": maintained " + std::to_string(CallCounts[I]) +
                ", recounted " + std::to_string(C.Calls[I]);
      return R;
    }
  }
  return R;
}
