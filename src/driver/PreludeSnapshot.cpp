//===- driver/PreludeSnapshot.cpp - Elaborate-once prelude sharing ---------===//

#include "driver/PreludeSnapshot.h"

#include "ast/Parser.h"
#include "driver/CompileCache.h"
#include "driver/Compiler.h"
#include "obs/Trace.h"
#include "support/Diagnostics.h"

#include <chrono>
#include <unordered_set>

using namespace smltc;

PreludeStats &smltc::preludeStats() {
  static PreludeStats Stats;
  return Stats;
}

const std::string &PreludeSnapshot::sourceText() {
  static const std::string Text(Compiler::prelude());
  return Text;
}

namespace {

//===----------------------------------------------------------------------===//
// Freeze pass
//===----------------------------------------------------------------------===//

/// Walks every type reachable from a layer's environment and typed
/// program. Two jobs: (1) fully compress union-find links, so job-side
/// `TypeContext::resolve` on shared nodes is write-free (lock-free
/// sharing stays TSan-clean); (2) verify that no unbound, un-generalized
/// type variable is reachable — those are the only nodes job-side
/// unification could mutate. Tycon formal variables and constructor
/// payload templates are visited in *template* mode where raw formals
/// are legal: they are substituted away, never unified against.
class TypeFreezer : public EnvVisitor {
public:
  bool Ok = true;
  std::string Error;

  void type(Type *T, bool Template = false) {
    if (!T || !Visited.insert(T).second)
      return;
    switch (T->K) {
    case Type::Kind::Var:
      if (T->Link) {
        Type *R = TypeContext::resolve(T);
        T->Link = R; // chain length 1: job-side resolve never writes
        type(R, Template);
      } else if (!T->IsBound && !Template) {
        fail("unbound type variable reachable from the prelude snapshot");
      }
      return;
    case Type::Kind::Con:
      tycon(T->Con);
      for (Type *Arg : T->Args)
        type(Arg, Template);
      return;
    case Type::Kind::Tuple:
      for (Type *E : T->Elems)
        type(E, Template);
      return;
    case Type::Kind::Arrow:
      type(T->From, Template);
      type(T->To, Template);
      return;
    }
  }

  void scheme(const TypeScheme &S) {
    for (Type *B : S.BoundVars)
      type(B, /*Template=*/true);
    if (S.Body)
      type(S.Body);
  }

  void tycon(TyCon *TC) {
    if (!TC || !Visited.insert(TC).second)
      return;
    for (Type *F : TC->Formals)
      type(F, /*Template=*/true);
    if (TC->AbbrevBody)
      type(TC->AbbrevBody, /*Template=*/true);
    for (DataCon *DC : TC->Cons)
      datacon(DC);
  }

  void datacon(DataCon *DC) {
    if (!DC || !Visited.insert(DC).second)
      return;
    if (DC->Payload)
      type(DC->Payload, /*Template=*/true);
    tycon(DC->Owner);
  }

  void valinfo(ValInfo *V) {
    if (!V || !Visited.insert(V).second)
      return;
    scheme(V->Scheme);
  }

  void exninfo(ExnInfo *X) {
    if (!X || !Visited.insert(X).second)
      return;
    if (X->Payload)
      type(X->Payload);
  }

  void strstatic(const StrStatic *S) {
    if (!S || !Visited.insert(S).second)
      return;
    for (const StrComp &C : S->Comps) {
      scheme(C.Scheme);
      valinfo(C.Val);
      exninfo(C.Exn);
      if (C.ExnPayload)
        type(C.ExnPayload);
      strstatic(C.Str);
    }
    for (const StrTyComp &C : S->TyComps)
      tycon(C.Tycon);
    for (const StrConComp &C : S->ConComps)
      datacon(C.Con);
  }

  void strinfo(StrInfo *I) {
    if (!I || !Visited.insert(I).second)
      return;
    strstatic(I->Static);
  }

  void thinning(const Thinning *T) {
    if (!T || !Visited.insert(T).second)
      return;
    for (const ThinComp &C : T->Comps) {
      scheme(C.SrcScheme);
      scheme(C.DstScheme);
      thinning(C.Sub);
    }
  }

  void fctinfo(FctInfo *F) {
    if (!F || !Visited.insert(F).second)
      return;
    strinfo(F->Param);
    strexp(F->Body);
    strstatic(F->ParamStatic);
    strstatic(F->BodyStatic);
  }

  void pat(APat *P) {
    if (!P || !Visited.insert(P).second)
      return;
    if (P->Ty)
      type(P->Ty);
    valinfo(P->Var);
    for (Type *T : P->TypeArgs)
      type(T);
    datacon(P->Con);
    for (APat *E : P->Elems)
      pat(E);
    pat(P->Arg);
    exp(P->ExnTag);
    if (P->ExnPayload)
      type(P->ExnPayload);
  }

  void exp(AExp *E) {
    if (!E || !Visited.insert(E).second)
      return;
    if (E->Ty)
      type(E->Ty);
    for (Type *T : E->TypeArgs)
      type(T);
    valinfo(E->Var);
    strinfo(E->Root);
    scheme(E->PathScheme);
    exninfo(E->Exn);
    exp(E->TagExp);
    if (E->ExnPayload)
      type(E->ExnPayload);
    datacon(E->Con);
    for (AExp *X : E->Elems)
      exp(X);
    exp(E->Fun);
    exp(E->Arg);
    exp(E->Scrut);
    exp(E->Body);
    for (const ARule &R : E->Rules) {
      pat(R.P);
      exp(R.E);
    }
    for (ADec *D : E->Decs)
      dec(D);
  }

  void strexp(AStrExp *S) {
    if (!S || !Visited.insert(S).second)
      return;
    strstatic(S->Static);
    for (ADec *D : S->Decs)
      dec(D);
    for (const SlotRef &R : S->Slots) {
      valinfo(R.Val);
      scheme(R.CompScheme);
      exninfo(R.Exn);
      strinfo(R.Str);
    }
    strinfo(S->Root);
    fctinfo(S->Fct);
    strexp(S->Arg);
    thinning(S->ArgThin);
    strstatic(S->ArgSigStatic);
    strstatic(S->AbstractResult);
    strexp(S->Inner);
    thinning(S->Thin);
  }

  void dec(ADec *D) {
    if (!D || !Visited.insert(D).second)
      return;
    pat(D->Pat);
    exp(D->Exp);
    for (ValInfo *V : D->RecVars)
      valinfo(V);
    for (AExp *E : D->RecExps)
      exp(E);
    exninfo(D->Exn);
    strinfo(D->Str);
    strexp(D->StrExp);
    fctinfo(D->Fct);
  }

  void env(const Env &E) {
    if (!Visited.insert(&E).second)
      return;
    E.visit(*this);
  }

  // EnvVisitor
  void val(Symbol, const ValBinding &B) override {
    switch (B.K) {
    case ValBinding::Kind::Val:
      valinfo(B.Val);
      return;
    case ValBinding::Kind::Con:
      datacon(B.Con);
      return;
    case ValBinding::Kind::Exn:
      exninfo(B.Exn);
      return;
    case ValBinding::Kind::Prim:
      scheme(B.Prim.Scheme);
      return;
    case ValBinding::Kind::None:
      return;
    }
  }
  void tycon(Symbol, TyCon *T) override { tycon(T); }
  void str(Symbol, StrInfo *I) override { strinfo(I); }
  void sig(Symbol, const SigInfo &I) override {
    if (I.DefEnv)
      env(*I.DefEnv);
  }
  void fct(Symbol, FctInfo *F) override { fctinfo(F); }

private:
  void fail(const char *Msg) {
    if (Ok) {
      Ok = false;
      Error = Msg;
    }
  }

  std::unordered_set<const void *> Visited;
};

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

bool buildLayer(PreludeLayer &L, StringInterner &Interner, bool Mtd,
                std::string &Err) {
  L.A = std::make_unique<Arena>();
  L.Types = std::make_unique<TypeContext>(*L.A, Interner);
  DiagnosticEngine Diags;
  Parser P(PreludeSnapshot::sourceText(), *L.A, Interner, Diags);
  ast::Program Raw = P.parseProgram();
  Elaborator Elab(*L.A, *L.Types, Interner, Diags);
  L.Prog = Elab.elaborate(Raw);
  if (Diags.hasErrors()) {
    Err = "prelude does not elaborate: " + Diags.render();
    return false;
  }
  if (L.Prog.Result) {
    // The prelude must not define `main`; a Result expression would be
    // evaluated twice once jobs concatenate their own declarations.
    Err = "prelude unexpectedly produced a program result";
    return false;
  }
  if (Mtd)
    L.Mtd = runMtd(L.Prog, *L.Types, *L.A);
  L.Seed = Elab.exportSeed();
  L.E = Elab.environment();
  L.TypeSeed = L.Types->counters();

  TypeFreezer F;
  F.env(*L.E);
  for (ADec *D : L.Prog.Decs)
    F.dec(D);
  if (!F.Ok) {
    Err = F.Error;
    return false;
  }
  return true;
}

} // namespace

std::unique_ptr<const PreludeSnapshot> PreludeSnapshot::build() {
  auto T0 = std::chrono::steady_clock::now();
  obs::Span BuildSpan("prelude_snapshot", "compile");
  std::unique_ptr<PreludeSnapshot> Snap(new PreludeSnapshot());
  std::string Err;
  if (!buildLayer(Snap->PlainLayer, Snap->Interner, /*Mtd=*/false, Err) ||
      !buildLayer(Snap->MtdLayer, Snap->Interner, /*Mtd=*/true, Err)) {
    BuildSpan.arg("error", Err);
    return nullptr;
  }
  Snap->BuildSec = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
  preludeStats().SnapshotBuilds.fetch_add(1, std::memory_order_relaxed);
  return Snap;
}

const PreludeSnapshot *PreludeSnapshot::get() {
  static const std::unique_ptr<const PreludeSnapshot> Snap = build();
  return Snap.get();
}

uint64_t PreludeSnapshot::cacheFingerprint() {
  static const uint64_t Hash = fnv1a64(sourceText());
  return Hash;
}
