//===- ledger/replica.cpp - Compile pipeline with a span per layer -----------===//

#include "replica.h"

#include "ast/Parser.h"
#include "closure/Closure.h"
#include "cps/CpsCheck.h"
#include "cps/CpsConvert.h"
#include "driver/PreludeSnapshot.h"
#include "elab/Elaborator.h"
#include "lexp/LexpCheck.h"
#include "lexp/Translate.h"
#include "support/Diagnostics.h"
#include "support/StringInterner.h"

#include <optional>

using namespace smltc;

namespace ledger {

CompileOutput compileTraced(const std::string &Source,
                            const CompilerOptions &Opts, Tracer &T) {
  CompileOutput Out;
  SpanScope Whole(T, "driver.compile");

  Arena A;
  StringInterner Interner;
  DiagnosticEngine Diags;

  const PreludeSnapshot *Snap = nullptr;
  const PreludeLayer *Layer = nullptr;
  if (Opts.Prelude == PreludeMode::Snapshot) {
    Snap = PreludeSnapshot::get();
    if (Snap)
      Layer = &Snap->layer(Opts.Mtd);
  }

  std::optional<TypeContext> TypesOpt;
  if (Layer) {
    Interner.setBase(&Snap->interner());
    TypesOpt.emplace(A, Interner, *Layer->Types);
  } else {
    TypesOpt.emplace(A, Interner);
  }
  TypeContext &Types = *TypesOpt;

  std::string Full;
  const std::string *ParseInput = &Source;
  if (!Layer) {
    Full = PreludeSnapshot::sourceText() + Source;
    ParseInput = &Full;
  }

  Parser P(*ParseInput, A, Interner, Diags);
  ast::Program Raw;
  {
    SpanScope S(T, "ast.parse");
    Raw = P.parseProgram();
  }
  std::optional<Elaborator> ElabOpt;
  if (Layer)
    ElabOpt.emplace(A, Types, Interner, Diags, Layer->Seed);
  else
    ElabOpt.emplace(A, Types, Interner, Diags);
  Elaborator &Elab = *ElabOpt;
  AProgram Prog;
  {
    SpanScope S(T, "elab.elaborate");
    Prog = Elab.elaborate(Raw);
  }
  if (Diags.hasErrors()) {
    Out.Errors = Diags.render();
    return Out;
  }
  if (Opts.Mtd) {
    SpanScope S(T, "elab.mtd");
    Out.Metrics.Mtd = runMtd(Prog, Types, A);
  }
  if (Layer) {
    std::vector<ADec *> All;
    All.reserve(Layer->Prog.Decs.size() + Prog.Decs.size());
    for (ADec *D : Layer->Prog.Decs)
      All.push_back(D);
    for (ADec *D : Prog.Decs)
      All.push_back(D);
    Prog.Decs = smltc::Span<ADec *>::copy(A, All);
  }

  LtyContext LC(A, Opts.HashConsLty);
  BuiltinExns Exns;
  Exns.Match = Elab.MatchExn;
  Exns.Bind = Elab.BindExn;
  Exns.Div = Elab.DivExn;
  Exns.Subscript = Elab.SubscriptExn;
  Exns.Size = Elab.SizeExn;
  Exns.Overflow = Elab.OverflowExn;
  Exns.Chr = Elab.ChrExn;
  Translator Trans(A, Types, LC, Opts, Exns, Diags);
  Lexp *Lambda;
  {
    SpanScope S(T, "lexp.translate");
    Lambda = Trans.translate(Prog);
  }
  if (Diags.hasErrors()) {
    Out.Errors = Diags.render();
    return Out;
  }
  Out.Metrics.LexpNodes = countLexpNodes(Lambda);
  Out.Metrics.CoerceMemoHits = Trans.coercer().memoHits();
  Out.Metrics.CoerceMemoMisses = Trans.coercer().memoMisses();

  LexpCheckResult LCheck;
  {
    SpanScope S(T, "lexp.check");
    LCheck = checkLexp(Lambda, LC);
  }
  if (!LCheck.Ok) {
    Out.Errors = "internal: LEXP check failed: " + LCheck.Error;
    return Out;
  }

  CpsConvertResult Cps;
  {
    SpanScope S(T, "cps.cps_convert");
    Cps = convertToCps(A, LC, Opts, Lambda);
  }
  Out.Metrics.CpsNodesBeforeOpt = countCpsNodes(Cps.Program);
  CpsCheckResult CCheck;
  {
    SpanScope S(T, "cps.check");
    CCheck = checkCps(Cps.Program);
  }
  if (!CCheck.Ok) {
    Out.Errors = "internal: CPS check failed: " + CCheck.Error;
    return Out;
  }
  CVar MaxVar = Cps.MaxVar;
  Cexp *Optimized;
  {
    SpanScope S(T, "cps.cps_opt");
    Optimized = optimizeCps(A, Opts, Cps.Program, MaxVar, Out.Metrics.Opt);
  }
  Out.Metrics.CpsNodesAfterOpt = countCpsNodes(Optimized);
  {
    SpanScope S(T, "cps.check");
    CCheck = checkCps(Optimized);
  }
  if (!CCheck.Ok) {
    Out.Errors = "internal: CPS check failed after optimization: " +
                 CCheck.Error;
    return Out;
  }
  if (Out.Metrics.Opt.HitSafetyCeiling) {
    Out.Errors = "internal: CPS optimizer failed to converge";
    return Out;
  }
  ClosureResult Closed;
  {
    SpanScope S(T, "closure.closure");
    Closed = closureConvert(A, Opts, Optimized, MaxVar);
  }
  Out.Metrics.ClosuresBuilt = Closed.ClosuresBuilt;
  {
    SpanScope S(T, "codegen.codegen");
    Out.Program = generateCode(Closed, Out.Metrics.Codegen);
  }
  Out.Metrics.CodeSize = Out.Program.codeSize();
  Out.Ok = true;
  return Out;
}

} // namespace ledger
