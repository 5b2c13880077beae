//===- closure/Closure.cpp - Closure conversion -----------------------------------===//

#include "closure/Closure.h"

#include "cps/DenseVarMap.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace smltc;

namespace {

/// A captured value component. A continuation variable is a *bundle* of
/// 1 + NCS word values and FCS float values (the callee-save convention),
/// so capturing one captures all of its components.
struct CompRef {
  CVar V;
  int Idx;      ///< -1: plain variable; otherwise bundle component index
  bool IsFloat; ///< lives in a float register
};

/// Placement of one continuation's captured components. Floats beyond
/// the float callee-save registers are stored *flat* in the spill record
/// (it is a heap record, so raw floats are fine there); word overflow
/// shares the same record. The spill pointer rides the last word slot.
struct ContPlan {
  std::vector<CompRef> FloatRegs;    ///< in float callee-save registers
  std::vector<CompRef> FloatSpilled; ///< flat in the spill record
  std::vector<CompRef> Words;        ///< in word callee-save slots
  std::vector<CompRef> Spilled;      ///< words in the spill record
  bool HasSpill = false;
};

/// Per-function data of the converter, indexed by preorder ordinal.
struct FnInfo {
  CFun *F = nullptr;
  int Label = 0;
  std::vector<CVar> Fv;       ///< free variables, ascending
  std::vector<CompRef> Comps; ///< Fv expanded into value components
  ContPlan Plan;              ///< continuations only
};

class ClosureConverter {
public:
  ClosureConverter(Arena &A, const CompilerOptions &Opts, CVar MaxVar)
      : A(A), B(A, MaxVar), FCS(Opts.FloatCalleeSaves) {}

  ClosureResult run(Cexp *Program) {
    collect(Program, /*Owner=*/-1);
    closeFreeVars();
    // Ascending-name order fixes stub labels and fresh-variable numbering.
    std::vector<int> ByName(Fns.size());
    for (size_t I = 0; I < ByName.size(); ++I)
      ByName[I] = static_cast<int>(I);
    std::sort(ByName.begin(), ByName.end(), [&](int X, int Y) {
      return Fns[X].F->Name < Fns[Y].F->Name;
    });
    for (FnInfo &Fn : Fns) {
      Fn.Comps = expandComponents(Fn.Fv);
      if (Fn.F->K == CFun::Kind::Cont)
        planCont(Fn);
    }

    Result.Funs.resize(Fns.size() + 1, nullptr);
    Env.clear();
    Cexp *EntryBody = rewriteExp(Program);
    Result.Funs[0] =
        B.fun(CFun::Kind::Escape, /*Name=*/0, {}, {}, EntryBody);
    for (int O : ByName)
      Result.Funs[Fns[O].Label] = rewriteFun(Fns[O]);
    Result.MaxVar = B.maxVar();
    return Result;
  }

private:
  //===--------------------------------------------------------------------===//
  // Collection and free variables
  //===--------------------------------------------------------------------===//

  /// One walk over the program. It numbers functions in preorder (so a
  /// function's nested functions are exactly the ordinals in [Ord, End)),
  /// assigns code labels, records each variable's binding function, and
  /// computes each function's direct free variables on the way out of it:
  /// its own uses plus its children's sets, minus the variables bound
  /// inside its interval and its own name. checkCps, which runs just
  /// before, guarantees unique binders bound before every use, so "bound
  /// inside the interval" is exactly "bound in scope".
  void collect(const Cexp *E, int Owner) {
    for (;;) {
      switch (E->K) {
      case Cexp::Kind::Record:
        for (const CField &F : E->Fields)
          use(F.V, Owner);
        bind(E->W, E->WTy, Owner);
        E = E->C1;
        continue;
      case Cexp::Kind::Select:
        use(E->F, Owner);
        bind(E->W, E->WTy, Owner);
        E = E->C1;
        continue;
      case Cexp::Kind::App:
        use(E->F, Owner);
        for (const CValue &V : E->Args)
          use(V, Owner);
        return;
      case Cexp::Kind::Fix: {
        int Label = NextLabel;
        NextLabel += static_cast<int>(E->Funs.size());
        if (Owner >= 0)
          for (const CFun *F : E->Funs)
            Scope.set(F->Name, Owner);
        for (CFun *F : E->Funs)
          collectFun(F, Label++, Owner);
        E = E->C1;
        continue;
      }
      case Cexp::Kind::Branch:
        for (const CValue &V : E->Args)
          use(V, Owner);
        collect(E->C1, Owner);
        E = E->C2;
        continue;
      case Cexp::Kind::Halt:
        use(E->F, Owner);
        return;
      default:
        for (const CValue &V : E->Args)
          use(V, Owner);
        if (E->W)
          bind(E->W, E->WTy, Owner);
        E = E->C1;
        continue;
      }
    }
  }

  void collectFun(CFun *F, int Label, int Owner) {
    int Ord = static_cast<int>(Fns.size());
    Fns.push_back({});
    Fns[Ord].F = F;
    Fns[Ord].Label = Label;
    FnOf.set(F->Name, Ord);
    for (size_t I = 0; I < F->Params.size(); ++I) {
      bind(F->Params[I], F->ParamTys[I], Ord);
      // Only continuation *parameters* are callee-save bundles;
      // continuation-typed locals (handler values, code pointers) are
      // single packaged words.
      if (F->ParamTys[I].K == CtyKind::Cnt)
        BundleVars.insert(F->Params[I]);
    }
    size_t Mark = Uses.size();
    collect(F->Body, Ord);
    // The functions nested in this one are the ordinals [Ord, End).
    int End = static_cast<int>(Fns.size());
    std::vector<CVar> &Fv = Fns[Ord].Fv;
    Seen.clear();
    for (size_t I = Mark; I < Uses.size(); ++I) {
      CVar V = Uses[I];
      if (Seen.has(V))
        continue;
      Seen.set(V, 1);
      const int *S = Scope.get(V);
      if (V != F->Name && !(S && *S >= Ord && *S < End))
        Fv.push_back(V);
    }
    Uses.resize(Mark);
    std::sort(Fv.begin(), Fv.end());
    if (Owner >= 0)
      Uses.insert(Uses.end(), Fv.begin(), Fv.end());
  }

  void use(const CValue &V, int Owner) {
    if (V.isVar() && Owner >= 0)
      Uses.push_back(V.V);
  }

  void bind(CVar V, Cty T, int Owner) {
    if (Owner >= 0)
      Scope.set(V, Owner);
    if (T.isFloat())
      FloatVars.insert(V);
  }

  bool isFloatVar(CVar V) const { return FloatVars.has(V); }
  bool isCntVar(CVar V) const { return BundleVars.has(V); }

  /// Replaces each function name in the direct free sets by that
  /// function's free variables, transitively: one pass per strongly
  /// connected component of the name-reference graph (Tarjan), in
  /// completion order, so every successor component is already closed.
  /// Every member of a component ends up with the same set, with no
  /// function names left in it.
  void closeFreeVars() {
    size_t N = Fns.size();
    SccIndex.assign(N, -1);
    SccLow.assign(N, 0);
    SccOf.assign(N, -1);
    SccMerged.assign(N, -1);
    for (size_t I = 0; I < N; ++I)
      if (SccIndex[I] < 0)
        sccVisit(static_cast<int>(I));
  }

  void sccVisit(int V) {
    SccIndex[V] = SccLow[V] = SccCounter++;
    SccStack.push_back(V);
    for (CVar X : Fns[V].Fv) {
      const int *W = FnOf.get(X);
      if (!W)
        continue;
      if (SccIndex[*W] < 0) {
        sccVisit(*W);
        SccLow[V] = std::min(SccLow[V], SccLow[*W]);
      } else if (SccOf[*W] < 0) {
        SccLow[V] = std::min(SccLow[V], SccIndex[*W]);
      }
    }
    if (SccLow[V] != SccIndex[V])
      return;
    size_t Begin = SccStack.size();
    do
      --Begin;
    while (SccStack[Begin] != V);
    int Id = SccCount++;
    for (size_t I = Begin; I < SccStack.size(); ++I)
      SccOf[SccStack[I]] = Id;
    std::vector<CVar> Out;
    Seen.clear();
    auto Add = [&](CVar X) {
      if (!Seen.has(X)) {
        Seen.set(X, 1);
        Out.push_back(X);
      }
    };
    for (size_t I = Begin; I < SccStack.size(); ++I)
      for (CVar X : Fns[SccStack[I]].Fv) {
        const int *W = FnOf.get(X);
        if (!W) {
          Add(X);
          continue;
        }
        int C = SccOf[*W];
        if (C == Id || SccMerged[C] == Id)
          continue;
        SccMerged[C] = Id;
        for (CVar Y : Fns[*W].Fv)
          Add(Y);
      }
    std::sort(Out.begin(), Out.end());
    for (size_t I = Begin; I + 1 < SccStack.size(); ++I)
      Fns[SccStack[I]].Fv = Out;
    Fns[SccStack.back()].Fv = std::move(Out);
    SccStack.resize(Begin);
  }

  /// Expands a free-variable list into value components (continuation
  /// variables contribute their whole callee-save bundle).
  std::vector<CompRef> expandComponents(const std::vector<CVar> &Vars) {
    std::vector<CompRef> Out;
    for (CVar V : Vars) {
      if (isCntVar(V)) {
        for (int I = 0; I <= NCS; ++I)
          Out.push_back({V, I, false});
        for (int I = 0; I < FCS; ++I)
          Out.push_back({V, NCS + 1 + I, true});
      } else {
        Out.push_back({V, -1, isFloatVar(V)});
      }
    }
    return Out;
  }

  //===--------------------------------------------------------------------===//
  // Continuation plans
  //===--------------------------------------------------------------------===//

  void planCont(FnInfo &Fn) {
    ContPlan &P = Fn.Plan;
    std::vector<CompRef> Words;
    for (const CompRef &C : Fn.Comps) {
      if (C.IsFloat) {
        if (static_cast<int>(P.FloatRegs.size()) < FCS)
          P.FloatRegs.push_back(C);
        else
          P.FloatSpilled.push_back(C);
      } else {
        Words.push_back(C);
      }
    }
    P.HasSpill = !P.FloatSpilled.empty() ||
                 static_cast<int>(Words.size()) > NCS;
    if (!P.HasSpill) {
      P.Words = Words;
    } else {
      size_t InRegs = std::min<size_t>(Words.size(), NCS - 1);
      for (size_t I = 0; I < InRegs; ++I)
        P.Words.push_back(Words[I]);
      for (size_t I = InRegs; I < Words.size(); ++I)
        P.Spilled.push_back(Words[I]);
    }
  }

  //===--------------------------------------------------------------------===//
  // Access and materialization
  //===--------------------------------------------------------------------===//

  struct Access {
    enum class Kind : uint8_t { Value, KBundle } K = Kind::Value;
    CValue V;
    std::vector<CValue> Bundle; ///< [kcode, cs1..csNCS, fcs1..fcsFCS]
  };

  std::vector<Cexp *> Pending;

  Cexp *wrapPending(size_t Mark, Cexp *Inner) {
    while (Pending.size() > Mark) {
      Cexp *P = Pending.back();
      Pending.pop_back();
      P->C1 = Inner;
      Inner = P;
    }
    return Inner;
  }

  /// The function named \p V, or null if \p V names no function.
  const FnInfo *fnNamed(CVar V) const {
    const int *O = FnOf.get(V);
    return O ? &Fns[*O] : nullptr;
  }
  bool isContFn(CVar V) const {
    const FnInfo *Fn = fnNamed(V);
    return Fn && Fn->F->K == CFun::Kind::Cont;
  }

  CValue access(const CValue &V) {
    if (!V.isVar())
      return V;
    auto It = Env.find(V.V);
    if (It != Env.end()) {
      assert(It->second.K == Access::Kind::Value &&
             "continuation bundle used as a single value");
      return It->second.V;
    }
    return V; // local
  }

  /// One component of a captured value.
  CValue accessComp(const CompRef &C) {
    if (C.Idx < 0)
      return access(CValue::var(C.V));
    auto It = Env.find(C.V);
    if (It != Env.end()) {
      assert(It->second.K == Access::Kind::KBundle);
      return It->second.Bundle[static_cast<size_t>(C.Idx)];
    }
    // A continuation *function* captured by name: its bundle.
    assert(isContFn(C.V) && "bundle component of a non-continuation");
    return bundleOfCont(*fnNamed(C.V))[static_cast<size_t>(C.Idx)];
  }

  CValue accessValuePos(const CValue &V) {
    if (!V.isVar())
      return V;
    auto It = Env.find(V.V);
    if (It != Env.end() && It->second.K == Access::Kind::KBundle)
      return packageBundle(It->second.Bundle);
    if (const FnInfo *Fn = fnNamed(V.V))
      return Fn->F->K == CFun::Kind::Cont ? packageBundle(bundleOfCont(*Fn))
                                           : buildClosure(*Fn);
    return access(V);
  }

  CValue emitFloatBox(CValue F) {
    ++Result.ContFloatBoxes;
    CVar W = B.fresh();
    Cexp *R = B.record(RecordKind::FloatBox, {{F, true}}, W, nullptr);
    Pending.push_back(R);
    return CValue::var(W);
  }

  /// An escaping function's flat closure [code, comps...]; float
  /// components are boxed so the closure stays all-words.
  CValue buildClosure(const FnInfo &Fn) {
    ++Result.ClosuresBuilt;
    std::vector<CField> Fields;
    Fields.push_back({CValue::label(Fn.Label), false});
    for (const CompRef &C : Fn.Comps) {
      CValue AV = accessComp(C);
      if (C.IsFloat)
        AV = emitFloatBox(AV);
      Fields.push_back({AV, false});
    }
    CVar W = B.fresh();
    Cexp *R = B.record(RecordKind::Closure, Fields, W, nullptr);
    Pending.push_back(R);
    return CValue::var(W);
  }

  /// The callee-save bundle of a continuation function:
  /// [code, cs1..csNCS, fcs1..fcsFCS].
  std::vector<CValue> bundleOfCont(const FnInfo &Fn) {
    const ContPlan &P = Fn.Plan;
    std::vector<CValue> Out;
    Out.push_back(CValue::label(Fn.Label));

    std::vector<CValue> WordVals;
    for (const CompRef &C : P.Words)
      WordVals.push_back(accessComp(C));
    if (P.HasSpill) {
      ++Result.ContSpills;
      Result.ContFloatBoxes += P.FloatSpilled.size();
      // Spill record: flat floats first, then overflow words.
      std::vector<CField> Fields;
      for (const CompRef &C : P.FloatSpilled)
        Fields.push_back({accessComp(C), true});
      for (const CompRef &C : P.Spilled)
        Fields.push_back({accessComp(C), false});
      CVar SW = B.fresh();
      Cexp *R = B.record(RecordKind::Spill, Fields, SW, nullptr);
      Pending.push_back(R);
      WordVals.push_back(CValue::var(SW));
    }
    while (static_cast<int>(WordVals.size()) < NCS)
      WordVals.push_back(CValue::pad());
    for (CValue &V : WordVals)
      Out.push_back(V);

    std::vector<CValue> FloatVals;
    for (const CompRef &C : P.FloatRegs)
      FloatVals.push_back(accessComp(C));
    while (static_cast<int>(FloatVals.size()) < FCS)
      FloatVals.push_back(CValue::padF());
    for (CValue &V : FloatVals)
      Out.push_back(V);
    return Out;
  }

  /// Packages a continuation bundle as an escaping closure with a stub, so
  /// first-class continuations are invoked like ordinary functions.
  CValue packageBundle(const std::vector<CValue> &Bundle) {
    int StubLabel = static_cast<int>(Result.Funs.size());
    // Reserve the slot now (nested packaging may create more stubs).
    Result.Funs.push_back(nullptr);

    std::vector<CField> Fields;
    Fields.push_back({CValue::label(StubLabel), false});
    size_t NumWords = 1 + static_cast<size_t>(NCS);
    for (size_t I = 0; I < NumWords; ++I)
      Fields.push_back({Bundle[I], false});
    for (size_t I = NumWords; I < Bundle.size(); ++I)
      Fields.push_back({emitFloatBox(Bundle[I]), false});

    // Stub: (clo, x, kcode, cs..., fcs...) -> jump into the packaged cont.
    std::vector<CVar> Params;
    std::vector<Cty> Tys;
    CVar Clo = B.fresh();
    Params.push_back(Clo);
    Tys.push_back(Cty::ptrUnknown());
    CVar X = B.fresh();
    Params.push_back(X);
    Tys.push_back(Cty::ptrUnknown());
    Params.push_back(B.fresh());
    Tys.push_back(Cty::cntTy());
    for (int I = 0; I < NCS; ++I) {
      Params.push_back(B.fresh());
      Tys.push_back(Cty::ptrUnknown());
    }
    for (int I = 0; I < FCS; ++I) {
      Params.push_back(B.fresh());
      Tys.push_back(Cty::fltTy());
    }
    CVar KCode = B.fresh();
    std::vector<CVar> Cs(NCS);
    for (int I = 0; I < NCS; ++I)
      Cs[I] = B.fresh();
    int NumFloats = static_cast<int>(Bundle.size() - NumWords);
    std::vector<CVar> FBoxes(NumFloats), FVals(NumFloats);
    for (int I = 0; I < NumFloats; ++I) {
      FBoxes[I] = B.fresh();
      FVals[I] = B.fresh();
    }
    std::vector<CValue> JumpArgs;
    JumpArgs.push_back(CValue::var(X));
    for (int I = 0; I < NCS; ++I)
      JumpArgs.push_back(CValue::var(Cs[I]));
    for (int I = 0; I < NumFloats; ++I)
      JumpArgs.push_back(CValue::var(FVals[I]));
    for (int I = NumFloats; I < FCS; ++I)
      JumpArgs.push_back(CValue::padF());
    Cexp *Jump = B.app(CValue::var(KCode), JumpArgs);
    for (int I = NumFloats; I-- > 0;)
      Jump = B.select(0, true, CValue::var(FBoxes[I]), FVals[I],
                      Cty::fltTy(), Jump);
    for (int I = NumFloats; I-- > 0;)
      Jump = B.select(static_cast<int>(NumWords) + 1 + I, false,
                      CValue::var(Clo), FBoxes[I], Cty::ptrUnknown(),
                      Jump);
    for (int I = NCS; I-- > 0;)
      Jump = B.select(2 + I, false, CValue::var(Clo), Cs[I],
                      Cty::ptrUnknown(), Jump);
    Jump = B.select(1, false, CValue::var(Clo), KCode, Cty::cntTy(), Jump);
    Result.Funs[StubLabel] =
        B.fun(CFun::Kind::Escape, /*Name=*/0, Params, Tys, Jump);

    CVar W = B.fresh();
    Cexp *R = B.record(RecordKind::Closure, Fields, W, nullptr);
    Pending.push_back(R);
    ++Result.ClosuresBuilt;
    return CValue::var(W);
  }

  //===--------------------------------------------------------------------===//
  // Function rewriting
  //===--------------------------------------------------------------------===//

  void expandContParam(CVar Orig, std::vector<CVar> &Params,
                       std::vector<Cty> &Tys) {
    Access Acc;
    Acc.K = Access::Kind::KBundle;
    CVar KCode = B.fresh();
    Params.push_back(KCode);
    Tys.push_back(Cty::cntTy());
    Acc.Bundle.push_back(CValue::var(KCode));
    for (int I = 0; I < NCS; ++I) {
      CVar CS = B.fresh();
      Params.push_back(CS);
      Tys.push_back(Cty::ptrUnknown());
      Acc.Bundle.push_back(CValue::var(CS));
    }
    for (int I = 0; I < FCS; ++I) {
      CVar FS = B.fresh();
      Params.push_back(FS);
      Tys.push_back(Cty::fltTy());
      Acc.Bundle.push_back(CValue::var(FS));
    }
    Env[Orig] = Acc;
  }

  /// Binds captured components back into Env entries (assembling KBundles
  /// for captured continuations).
  class CompBinder {
  public:
    explicit CompBinder(ClosureConverter &CC) : CC(CC) {}

    void add(const CompRef &C, CValue V) {
      if (C.Idx < 0) {
        ClosureConverter::Access A;
        A.K = Access::Kind::Value;
        A.V = V;
        CC.Env[C.V] = A;
        return;
      }
      auto &Acc = CC.Env[C.V];
      if (Acc.K != Access::Kind::KBundle || Acc.Bundle.empty()) {
        Acc.K = Access::Kind::KBundle;
        Acc.Bundle.assign(
            static_cast<size_t>(1 + CC.NCS + CC.FCS), CValue::intC(0));
      }
      Acc.Bundle[static_cast<size_t>(C.Idx)] = V;
    }

  private:
    ClosureConverter &CC;
  };

  CFun *rewriteFun(const FnInfo &Fn) {
    const CFun *F = Fn.F;
    Env.clear();
    std::vector<CVar> Params;
    std::vector<Cty> Tys;
    std::vector<Cexp *> Pro;
    CompBinder Binder(*this);

    if (F->K == CFun::Kind::Cont) {
      for (size_t I = 0; I < F->Params.size(); ++I) {
        Params.push_back(F->Params[I]);
        Tys.push_back(F->ParamTys[I]);
      }
      const ContPlan &P = Fn.Plan;
      std::vector<CVar> Cs(NCS), Fs(FCS);
      for (int I = 0; I < NCS; ++I) {
        Cs[I] = B.fresh();
        Params.push_back(Cs[I]);
        Tys.push_back(Cty::ptrUnknown());
      }
      for (int I = 0; I < FCS; ++I) {
        Fs[I] = B.fresh();
        Params.push_back(Fs[I]);
        Tys.push_back(Cty::fltTy());
      }
      for (size_t I = 0; I < P.FloatRegs.size(); ++I)
        Binder.add(P.FloatRegs[I], CValue::var(Fs[I]));

      int SlotIdx = 0;
      for (const CompRef &C : P.Words)
        Binder.add(C, CValue::var(Cs[SlotIdx++]));
      if (P.HasSpill) {
        CVar Spill = Cs[SlotIdx];
        size_t NF = P.FloatSpilled.size();
        for (size_t I = 0; I < NF; ++I) {
          CVar SV = B.fresh();
          Cexp *Sel = B.select(static_cast<int>(I), true,
                               CValue::var(Spill), SV, Cty::fltTy(),
                               nullptr);
          Pro.push_back(Sel);
          Binder.add(P.FloatSpilled[I], CValue::var(SV));
        }
        for (size_t I = 0; I < P.Spilled.size(); ++I) {
          CVar SV = B.fresh();
          Cexp *Sel = B.select(static_cast<int>(NF + I), false,
                               CValue::var(Spill), SV, Cty::ptrUnknown(),
                               nullptr);
          Pro.push_back(Sel);
          Binder.add(P.Spilled[I], CValue::var(SV));
        }
      }
    } else if (F->K == CFun::Kind::Known) {
      for (size_t I = 0; I < F->Params.size(); ++I) {
        if (F->ParamTys[I].K == CtyKind::Cnt) {
          expandContParam(F->Params[I], Params, Tys);
        } else {
          Params.push_back(F->Params[I]);
          Tys.push_back(F->ParamTys[I]);
        }
      }
      for (const CompRef &C : Fn.Comps) {
        CVar P = B.fresh();
        Params.push_back(P);
        Tys.push_back(C.IsFloat ? Cty::fltTy() : Cty::ptrUnknown());
        Binder.add(C, CValue::var(P));
      }
    } else {
      CVar Clo = B.fresh();
      Params.push_back(Clo);
      Tys.push_back(Cty::ptrUnknown());
      for (size_t I = 0; I < F->Params.size(); ++I) {
        if (F->ParamTys[I].K == CtyKind::Cnt) {
          expandContParam(F->Params[I], Params, Tys);
        } else {
          Params.push_back(F->Params[I]);
          Tys.push_back(F->ParamTys[I]);
        }
      }
      const std::vector<CompRef> &Comps = Fn.Comps;
      for (size_t I = 0; I < Comps.size(); ++I) {
        CVar Loaded = B.fresh();
        Cexp *Sel =
            B.select(static_cast<int>(I) + 1, false, CValue::var(Clo),
                     Loaded, Cty::ptrUnknown(), nullptr);
        Pro.push_back(Sel);
        if (Comps[I].IsFloat) {
          CVar Raw = B.fresh();
          Cexp *Unbox = B.select(0, true, CValue::var(Loaded), Raw,
                                 Cty::fltTy(), nullptr);
          Pro.push_back(Unbox);
          Binder.add(Comps[I], CValue::var(Raw));
        } else {
          Binder.add(Comps[I], CValue::var(Loaded));
        }
      }
      // Self-reference: the closure parameter is this function's value.
      Access Self;
      Self.K = Access::Kind::Value;
      Self.V = CValue::var(Clo);
      Env[F->Name] = Self;
    }

    Cexp *Body = rewriteExp(F->Body);
    for (size_t I = Pro.size(); I-- > 0;) {
      Pro[I]->C1 = Body;
      Body = Pro[I];
    }
    return B.fun(F->K, F->Name, Params, Tys, Body);
  }

  //===--------------------------------------------------------------------===//
  // Expression rewriting
  //===--------------------------------------------------------------------===//

  void expandArgs(Span<CValue> Args, std::vector<CValue> &Out,
                  bool &SawBundle) {
    SawBundle = false;
    for (size_t I = 0; I < Args.size(); ++I) {
      const CValue &V = Args[I];
      bool Last = I + 1 == Args.size();
      if (V.isVar()) {
        auto It = Env.find(V.V);
        bool IsBundleParam =
            It != Env.end() && It->second.K == Access::Kind::KBundle;
        if (Last && (IsBundleParam || isContFn(V.V))) {
          std::vector<CValue> Bundle = IsBundleParam
                                           ? It->second.Bundle
                                           : bundleOfCont(*fnNamed(V.V));
          for (const CValue &BV : Bundle)
            Out.push_back(BV);
          SawBundle = true;
          continue;
        }
      }
      Out.push_back(accessValuePos(V));
    }
  }

  void appendDummyBundle(std::vector<CValue> &Out) {
    Out.push_back(CValue::pad());
    for (int I = 0; I < NCS; ++I)
      Out.push_back(CValue::pad());
    for (int I = 0; I < FCS; ++I)
      Out.push_back(CValue::padF());
  }

  Cexp *rewriteExp(const Cexp *E) {
    switch (E->K) {
    case Cexp::Kind::Record: {
      size_t M = Pending.size();
      std::vector<CField> Fields;
      for (const CField &F : E->Fields)
        Fields.push_back({accessValuePos(F.V), F.IsFloat});
      Cexp *N = B.record(E->RK, Fields, E->W, rewriteExp(E->C1));
      N->WTy = E->WTy;
      return wrapPending(M, N);
    }
    case Cexp::Kind::Select: {
      size_t M = Pending.size();
      CValue Base = access(E->F);
      Cexp *N = B.select(E->Idx, E->IsFloat, Base, E->W, E->WTy,
                         rewriteExp(E->C1));
      return wrapPending(M, N);
    }
    case Cexp::Kind::App: {
      size_t M = Pending.size();
      Cexp *Call = rewriteApp(E);
      return wrapPending(M, Call);
    }
    case Cexp::Kind::Fix:
      // Function bodies are rewritten separately; closures materialize at
      // use sites.
      return rewriteExp(E->C1);
    case Cexp::Kind::Branch: {
      size_t M = Pending.size();
      std::vector<CValue> Args;
      for (const CValue &V : E->Args)
        Args.push_back(accessValuePos(V));
      Cexp *N =
          B.branch(E->BOp, Args, rewriteExp(E->C1), rewriteExp(E->C2));
      return wrapPending(M, N);
    }
    case Cexp::Kind::Arith:
    case Cexp::Kind::Pure:
    case Cexp::Kind::Looker:
    case Cexp::Kind::CCall:
    case Cexp::Kind::Setter: {
      size_t M = Pending.size();
      std::vector<CValue> Args;
      for (const CValue &V : E->Args)
        Args.push_back(accessValuePos(V));
      Cexp *N;
      switch (E->K) {
      case Cexp::Kind::Arith:
        N = B.arith(E->Op, Args, E->W, E->WTy, nullptr);
        break;
      case Cexp::Kind::Pure:
        N = B.pure(E->Op, Args, E->W, E->WTy, nullptr);
        break;
      case Cexp::Kind::Looker:
        N = B.looker(E->Op, Args, E->W, E->WTy, nullptr);
        break;
      case Cexp::Kind::CCall:
        N = B.ccall(E->Op, Args, E->W, E->WTy, nullptr);
        break;
      default:
        N = B.setter(E->Op, Args, nullptr);
        break;
      }
      N->C1 = rewriteExp(E->C1);
      return wrapPending(M, N);
    }
    case Cexp::Kind::Halt: {
      size_t M = Pending.size();
      Cexp *N = B.halt(accessValuePos(E->F));
      N->Idx = E->Idx;
      return wrapPending(M, N);
    }
    }
    assert(false && "unknown CPS node in closure conversion");
    return nullptr;
  }

  Cexp *rewriteApp(const Cexp *E) {
    const FnInfo *Fn = E->F.isVar() ? fnNamed(E->F.V) : nullptr;
    // Direct call to a continuation (join point / return to known cont).
    if (Fn && Fn->F->K == CFun::Kind::Cont) {
      std::vector<CValue> Bundle = bundleOfCont(*Fn);
      std::vector<CValue> Args;
      for (const CValue &V : E->Args)
        Args.push_back(accessValuePos(V));
      for (size_t I = 1; I < Bundle.size(); ++I)
        Args.push_back(Bundle[I]);
      return B.app(Bundle[0], Args);
    }
    // Return through a continuation parameter bundle.
    if (E->F.isVar()) {
      auto It = Env.find(E->F.V);
      if (It != Env.end() && It->second.K == Access::Kind::KBundle) {
        const std::vector<CValue> &Bundle = It->second.Bundle;
        std::vector<CValue> Args;
        for (const CValue &V : E->Args)
          Args.push_back(accessValuePos(V));
        for (size_t I = 1; I < Bundle.size(); ++I)
          Args.push_back(Bundle[I]);
        return B.app(Bundle[0], Args);
      }
    }
    // Known function: direct call, free-variable components as extra args.
    if (Fn && Fn->F->K == CFun::Kind::Known) {
      std::vector<CValue> Args;
      bool SawBundle;
      expandArgs(E->Args, Args, SawBundle);
      if (!SawBundle)
        appendDummyBundle(Args);
      for (const CompRef &C : Fn->Comps)
        Args.push_back(accessComp(C));
      return B.app(CValue::label(Fn->Label), Args);
    }
    // Escaping function called directly: build its closure here.
    if (Fn) {
      CValue Clo = buildClosure(*Fn);
      std::vector<CValue> Args;
      Args.push_back(Clo);
      bool SawBundle;
      expandArgs(E->Args, Args, SawBundle);
      if (!SawBundle)
        appendDummyBundle(Args);
      return B.app(CValue::label(Fn->Label), Args);
    }
    // Unknown call: fetch the code pointer from the closure.
    CValue FV = access(E->F);
    CVar Code = B.fresh();
    std::vector<CValue> Args;
    Args.push_back(FV);
    bool SawBundle;
    expandArgs(E->Args, Args, SawBundle);
    if (!SawBundle)
      appendDummyBundle(Args);
    Cexp *Call = B.app(CValue::var(Code), Args);
    return B.select(0, false, FV, Code, Cty::cntTy(), Call);
  }

  friend class CompBinder;

  Arena &A;
  CpsBuilder B;
  static constexpr int NCS = kGpCalleeSaves;
  int FCS;
  int NextLabel = 1;

  /// Per-function data, indexed by preorder ordinal.
  std::vector<FnInfo> Fns;
  DenseVarMap<int> FnOf;  ///< function name -> ordinal
  DenseVarMap<int> Scope; ///< variable -> ordinal of its binding function
  DenseVarSet FloatVars;
  DenseVarSet BundleVars;
  std::vector<CVar> Uses; ///< free-variable candidates of the open functions
  DenseVarMap<uint8_t> Seen;
  std::vector<int> SccIndex, SccLow, SccOf, SccMerged, SccStack;
  int SccCounter = 0;
  int SccCount = 0;
  std::unordered_map<CVar, Access> Env;
  ClosureResult Result;
};

} // namespace

ClosureResult smltc::closureConvert(Arena &A, const CompilerOptions &Opts,
                                    Cexp *Program, CVar MaxVar) {
  ClosureConverter C(A, Opts, MaxVar);
  return C.run(Program);
}
