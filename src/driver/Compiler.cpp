//===- driver/Compiler.cpp - The full compiler pipeline ------------------------------===//

#include "driver/Compiler.h"

#include "ast/Parser.h"
#include "closure/Closure.h"
#include "cps/CpsCheck.h"
#include "cps/CpsConvert.h"
#include "driver/PreludeSnapshot.h"
#include "elab/Elaborator.h"
#include "lexp/LexpCheck.h"
#include "lexp/Translate.h"
#include "native/NativeBackend.h"
#include "obs/Trace.h"
#include "support/Diagnostics.h"
#include "support/StringInterner.h"
#include "vm/Runtime.h"

#include <chrono>
#include <functional>
#include <optional>
#include <pthread.h>
#include <vector>

using namespace smltc;

namespace {

/// CPS trees for whole programs are deep and the optimizer's rewriting is
/// recursive; run compilation on a thread with a generous stack. Returns
/// false when the big-stack thread could not be created and \p Fn ran on
/// the caller's own stack instead.
bool runWithBigStack(const std::function<void()> &Fn) {
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, 1ull << 30); // 1 GiB
  struct Ctx {
    const std::function<void()> *Fn;
  } C{&Fn};
  pthread_t Tid;
  auto Trampoline = [](void *P) -> void * {
    (*static_cast<Ctx *>(P)->Fn)();
    return nullptr;
  };
  bool BigStack = pthread_create(&Tid, &Attr, Trampoline, &C) == 0;
  if (BigStack)
    pthread_join(Tid, nullptr);
  else
    Fn(); // fall back to the current stack
  pthread_attr_destroy(&Attr);
  return BigStack;
}

} // namespace

const char *Compiler::prelude() {
  return R"PRELUDE(
fun not b = if b then false else true
fun rev l = let fun re (nil, a) = a | re (x :: r, a) = re (r, x :: a)
            in re (l, nil) end
fun map f l = case l of nil => nil | x :: r => f x :: map f r
fun app f l = case l of nil => () | x :: r => (f x; app f r)
fun foldl f b l = case l of nil => b | x :: r => foldl f (f (x, b)) r
fun foldr f b l = case l of nil => b | x :: r => f (x, foldr f b r)
fun length l = let fun n (nil, k) = k | n (_ :: r, k) = n (r, k + 1)
               in n (l, 0) end
fun exists p l = case l of nil => false
                         | x :: r => if p x then true else exists p r
fun all p l = case l of nil => true
                      | x :: r => if p x then all p r else false
fun filter p l = case l of nil => nil
                         | x :: r => if p x then x :: filter p r
                                     else filter p r
fun hd l = case l of x :: _ => x | nil => raise Match
fun tl l = case l of _ :: r => r | nil => raise Match
fun null l = case l of nil => true | _ => false
fun op @ (l1, l2) = case l1 of nil => l2 | x :: r => x :: (r @ l2)
fun op o (f, g) = fn x => f (g x)
fun tabulate (n, f) =
  let fun go i = if i >= n then nil else f i :: go (i + 1) in go 0 end
fun nth (l, n) = if n = 0 then hd l else nth (tl l, n - 1)
)PRELUDE";
}

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

} // namespace

CompileOutput Compiler::compile(const std::string &Source,
                                const CompilerOptions &Opts,
                                bool WithPrelude) {
  CompileOutput Out;
  bool BigStack =
      runWithBigStack([&]() { Out = compileImpl(Source, Opts, WithPrelude); });
  if (!BigStack)
    Out.Metrics.BigStackUnavailable = true;
  return Out;
}

CompileOutput Compiler::compileOnThisThread(const std::string &Source,
                                            const CompilerOptions &Opts,
                                            bool WithPrelude) {
  return compileImpl(Source, Opts, WithPrelude);
}

CompileOutput Compiler::compileImpl(const std::string &Source,
                                    const CompilerOptions &Opts,
                                    bool WithPrelude) {
  CompileOutput Out;
  auto TStart = std::chrono::steady_clock::now();
  obs::Span PipelineSpan("compile", "compile");
  PipelineSpan.arg("variant", Opts.VariantName);

  Arena A;
  StringInterner Interner;
  DiagnosticEngine Diags;

  // Prelude delivery: layer on the process-wide snapshot (default), or
  // fall back to the legacy source-text concatenation when the caller
  // asked for the inline oracle or the snapshot failed verification.
  const PreludeSnapshot *Snap = nullptr;
  const PreludeLayer *Layer = nullptr;
  if (WithPrelude && Opts.Prelude == PreludeMode::Snapshot) {
    auto TSnap = std::chrono::steady_clock::now();
    Snap = PreludeSnapshot::get();
    Out.Metrics.PreludeElabSec = secondsSince(TSnap);
    if (Snap) {
      Layer = &Snap->layer(Opts.Mtd);
      Out.Metrics.PreludeSnapshotHit = true;
      preludeStats().SnapshotHits.fetch_add(1, std::memory_order_relaxed);
    } else {
      preludeStats().InlineFallbacks.fetch_add(1, std::memory_order_relaxed);
    }
  }

  std::optional<TypeContext> TypesOpt;
  if (Layer) {
    Interner.setBase(&Snap->interner());
    TypesOpt.emplace(A, Interner, *Layer->Types);
  } else {
    TypesOpt.emplace(A, Interner);
  }
  TypeContext &Types = *TypesOpt;

  // Under the snapshot the job parses only its own source, so
  // diagnostics carry user-relative line numbers; the inline oracle
  // keeps the historical prelude-offset positions byte-for-byte.
  std::string Full;
  const std::string *ParseInput = &Source;
  if (WithPrelude && !Layer) {
    Full = PreludeSnapshot::sourceText() + Source;
    ParseInput = &Full;
  }

  // --- Front end: parse + elaborate (+ MTD) ---
  auto TFront = std::chrono::steady_clock::now();
  Parser P(*ParseInput, A, Interner, Diags);
  ast::Program Raw;
  {
    SMLTC_SPAN("parse", "compile");
    Raw = P.parseProgram();
  }
  Out.Metrics.ParseSec = secondsSince(TFront);
  auto TElab = std::chrono::steady_clock::now();
  std::optional<Elaborator> ElabOpt;
  if (Layer)
    ElabOpt.emplace(A, Types, Interner, Diags, Layer->Seed);
  else
    ElabOpt.emplace(A, Types, Interner, Diags);
  Elaborator &Elab = *ElabOpt;
  AProgram Prog;
  {
    SMLTC_SPAN("elaborate", "compile");
    Prog = Elab.elaborate(Raw);
  }
  Out.Metrics.ElabSec = secondsSince(TElab);
  if (Diags.hasErrors()) {
    Out.Errors = Diags.render();
    Out.Metrics.FrontSec = secondsSince(TFront);
    Out.Metrics.TotalSec = secondsSince(TStart);
    return Out;
  }
  if (Opts.Mtd) {
    // Under the snapshot the user program is analyzed alone; the
    // prelude's own MTD pass ran at snapshot construction (the split is
    // exact: prelude top-levels are Exported/poisoned and prelude inner
    // bindings only see prelude-internal evidence), so adding the stored
    // stats reproduces the fused pass's numbers.
    auto TMtd = std::chrono::steady_clock::now();
    SMLTC_SPAN("mtd", "compile");
    Out.Metrics.Mtd = runMtd(Prog, Types, A);
    if (Layer) {
      Out.Metrics.Mtd.VarsGrounded += Layer->Mtd.VarsGrounded;
      Out.Metrics.Mtd.BindingsNarrowed += Layer->Mtd.BindingsNarrowed;
    }
    Out.Metrics.MtdSec = secondsSince(TMtd);
  }
  if (Layer) {
    // The job's typed program is the snapshot's declarations followed by
    // its own — exactly the sequence the inline path elaborates.
    std::vector<ADec *> All;
    All.reserve(Layer->Prog.Decs.size() + Prog.Decs.size());
    for (ADec *D : Layer->Prog.Decs)
      All.push_back(D);
    for (ADec *D : Prog.Decs)
      All.push_back(D);
    Prog.Decs = Span<ADec *>::copy(A, All);
  }
  Out.Metrics.FrontSec = secondsSince(TFront);

  // --- Middle end: Absyn -> LEXP ---
  auto TTrans = std::chrono::steady_clock::now();
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
    SMLTC_SPAN("translate", "compile");
    Lambda = Trans.translate(Prog);
  }
  if (Diags.hasErrors()) {
    Out.Errors = Diags.render();
    Out.Metrics.TranslateSec = secondsSince(TTrans);
    Out.Metrics.TotalSec = secondsSince(TStart);
    return Out;
  }
  Out.Metrics.TranslateSec = secondsSince(TTrans);
  Out.Metrics.LexpNodes = countLexpNodes(Lambda);
  Out.Metrics.LtyInterned = LC.internedCount();
  Out.Metrics.LtyAllocated = LC.allocatedCount();
  Out.Metrics.CoerceMemoHits = Trans.coercer().memoHits();
  Out.Metrics.CoerceMemoMisses = Trans.coercer().memoMisses();

  if (Opts.KeepDumps)
    Out.LexpDump = printLexp(Lambda);

  LexpCheckResult LCheck = checkLexp(Lambda, LC);
  if (!LCheck.Ok) {
    Out.Errors = "internal: LEXP check failed: " + LCheck.Error;
    Out.Metrics.TotalSec = secondsSince(TStart);
    return Out;
  }

  // --- Back end: CPS -> optimize -> closure -> code ---
  auto TBack = std::chrono::steady_clock::now();
  CpsConvertResult Cps;
  CpsCheckResult CCheck;
  {
    SMLTC_SPAN("cps_convert", "compile");
    Cps = convertToCps(A, LC, Opts, Lambda);
    Out.Metrics.CpsNodesBeforeOpt = countCpsNodes(Cps.Program);
    CCheck = checkCps(Cps.Program);
  }
  Out.Metrics.CpsConvertSec = secondsSince(TBack);
  if (!CCheck.Ok) {
    Out.Errors = "internal: CPS check failed: " + CCheck.Error;
    Out.Metrics.BackSec = secondsSince(TBack);
    Out.Metrics.TotalSec = secondsSince(TStart);
    return Out;
  }
  CVar MaxVar = Cps.MaxVar;
  auto TOpt = std::chrono::steady_clock::now();
  Cexp *Optimized;
  {
    SMLTC_SPAN("cps_opt", "compile");
    Optimized = optimizeCps(A, Opts, Cps.Program, MaxVar, Out.Metrics.Opt);
    Out.Metrics.CpsNodesAfterOpt = countCpsNodes(Optimized);
    if (Opts.KeepDumps)
      Out.CpsDump = printCps(Optimized);
    CCheck = checkCps(Optimized);
  }
  Out.Metrics.CpsOptSec = secondsSince(TOpt);
  if (!CCheck.Ok) {
    Out.Errors = "internal: CPS check failed after optimization: " +
                 CCheck.Error;
    Out.Metrics.BackSec = secondsSince(TBack);
    Out.Metrics.TotalSec = secondsSince(TStart);
    return Out;
  }
  if (Out.Metrics.Opt.HitSafetyCeiling) {
    // Contraction rules provably shrink the term, so a fixpoint run that
    // is still firing at the ceiling is an optimizer bug, not a program
    // property. Fail loudly rather than ship a half-contracted program.
    Out.Errors =
        "internal: CPS optimizer failed to converge within " +
        std::to_string(Out.Metrics.Opt.Rounds) +
        " phases (safety ceiling); please report this program";
    Out.Metrics.BackSec = secondsSince(TBack);
    Out.Metrics.TotalSec = secondsSince(TStart);
    return Out;
  }
  auto TClosure = std::chrono::steady_clock::now();
  ClosureResult Closed;
  {
    SMLTC_SPAN("closure", "compile");
    Closed = closureConvert(A, Opts, Optimized, MaxVar);
    Out.Metrics.ClosuresBuilt = Closed.ClosuresBuilt;
  }
  Out.Metrics.ClosureSec = secondsSince(TClosure);
  auto TCodegen = std::chrono::steady_clock::now();
  {
    SMLTC_SPAN("codegen", "compile");
    Out.Program = generateCode(Closed, Out.Metrics.Codegen);
    Out.Metrics.CodeSize = Out.Program.codeSize();
  }
  Out.Metrics.CodegenSec = secondsSince(TCodegen);
  Out.Metrics.BackSec = secondsSince(TBack);
  Out.Metrics.TotalSec = secondsSince(TStart);
  // Never report success for a program the loader rejects: codegen does
  // not reuse registers, so a long enough path runs past the register
  // file. The loader keeps its own check for programs from the disk
  // cache and the wire.
  if (const char *Err = validateRegisters(Out.Program)) {
    Out.Errors = std::string("internal: generated code needs more than the ") +
                 std::to_string(vmdetail::NumWordRegs) + " word and " +
                 std::to_string(vmdetail::NumFloatRegs) +
                 " float registers or " + std::to_string(vmdetail::MaxArgs) +
                 " argument slots of the machine (" + Err + ")";
    return Out;
  }
  Out.Ok = true;
  return Out;
}

ExecResult Compiler::compileAndRun(const std::string &Source,
                                   const CompilerOptions &Opts,
                                   bool WithPrelude, VmOptions VmOpts) {
  CompileOutput C = compile(Source, Opts, WithPrelude);
  if (!C.Ok) {
    ExecResult R;
    R.Trapped = true;
    R.TrapMessage = C.Errors;
    return R;
  }
  VmOpts.UnalignedFloats = Opts.UnalignedFloats;
  if (Opts.Backend == ExecBackend::Native) {
    ExecResult R;
    std::string Err;
    if (!native::executeNative(C.Program, VmOpts, R, Err)) {
      // No silent interpreter fallback: a native-selection caller wants
      // native numbers or an explicit error.
      R = ExecResult();
      R.Trapped = true;
      R.TrapMessage = Err;
    }
    return R;
  }
  return execute(C.Program, VmOpts);
}

const CompilerOptions *CompilerOptions::allVariants(size_t &Count) {
  static const CompilerOptions Variants[6] = {nrp(), fag(), rep(),
                                              mtd(), ffb(), fp3()};
  Count = 6;
  return Variants;
}
