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
#include "obs/Trace.h"
#include "support/Diagnostics.h"
#include "support/StringInterner.h"
#include "vm/Runtime.h"

#include <chrono>
#include <exception>
#include <functional>
#include <optional>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define SMLTC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SMLTC_ASAN 1
#endif
#endif
#ifdef SMLTC_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

using namespace smltc;

namespace {

/// AddressSanitizer keeps its own record of the stack a thread runs on;
/// these tell it about each switch. No-ops in other builds.
void startSwitch([[maybe_unused]] void **FakeStack,
                 [[maybe_unused]] const void *Bottom,
                 [[maybe_unused]] size_t Size) {
#ifdef SMLTC_ASAN
  __sanitizer_start_switch_fiber(FakeStack, Bottom, Size);
#endif
}

void finishSwitch([[maybe_unused]] void *FakeStack,
                  [[maybe_unused]] const void **Bottom,
                  [[maybe_unused]] size_t *Size) {
#ifdef SMLTC_ASAN
  __sanitizer_finish_switch_fiber(FakeStack, Bottom, Size);
#endif
}

/// Size of a compile stack, its guard page included.
constexpr size_t kCompileStackBytes = size_t(1) << 30;

/// A thread's compile stack: one 1 GiB mapping, made by the thread's
/// first compile and unmapped when the thread exits. CPS trees for
/// whole programs are deep and the compiler's passes recurse over them,
/// so every compile runs on it: `run` switches the calling thread onto
/// it and back, with no thread start and no mapping per call.
///
/// The switch in is getcontext + setcontext and the switch back is the
/// context's `uc_link`, not swapcontext: AddressSanitizer intercepts
/// swapcontext and warns on its first call, annotated or not.
class CompileStack {
public:
  CompileStack() = default;
  CompileStack(const CompileStack &) = delete;
  CompileStack &operator=(const CompileStack &) = delete;
  ~CompileStack() {
    if (Base)
      ::munmap(Base, kCompileStackBytes);
  }

  /// Runs \p F on this stack. Runs it in place instead when the thread
  /// is already on this stack, or when the stack cannot be mapped; only
  /// the second returns false. An exception from \p F is caught on this
  /// stack and rethrown on the caller's.
  bool run(const std::function<void()> &F);

private:
  bool map();
  static void entry();

  char *Base = nullptr; ///< the mapping; its lowest page is the guard
  size_t GuardBytes = 0;
  bool OnStack = false;
  const std::function<void()> *Fn = nullptr;
  std::exception_ptr Error;
  ucontext_t Caller{}; ///< where `entry` returns to
  ucontext_t Callee{}; ///< `entry`, on this stack
  // AddressSanitizer's record of the caller's stack, across the switch.
  void *FakeStack = nullptr;
  const void *CallerBottom = nullptr;
  size_t CallerSize = 0;
};

thread_local CompileStack ThreadCompileStack;

bool CompileStack::map() {
  void *P = ::mmap(nullptr, kCompileStackBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                   -1, 0);
  if (P == MAP_FAILED)
    return false;
  GuardBytes = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  if (::mprotect(P, GuardBytes, PROT_NONE) != 0) {
    ::munmap(P, kCompileStackBytes);
    return false;
  }
  Base = static_cast<char *>(P);
  return true;
}

bool CompileStack::run(const std::function<void()> &F) {
  if (OnStack) {
    F(); // a compile inside a compile is already on this stack
    return true;
  }
  if (!Base && !map()) {
    F();
    return false;
  }
  Fn = &F;
  ::getcontext(&Callee);
  Callee.uc_stack.ss_sp = Base + GuardBytes;
  Callee.uc_stack.ss_size = kCompileStackBytes - GuardBytes;
  Callee.uc_link = &Caller;
  ::makecontext(&Callee, &CompileStack::entry, 0);
  // Returns twice: now, and again when `entry` returns through uc_link.
  ::getcontext(&Caller);
  if (!OnStack) {
    OnStack = true;
    startSwitch(&FakeStack, Callee.uc_stack.ss_sp, Callee.uc_stack.ss_size);
    ::setcontext(&Callee);
  }
  finishSwitch(FakeStack, nullptr, nullptr);
  OnStack = false;
  if (Error)
    std::rethrow_exception(std::exchange(Error, nullptr));
  return true;
}

void CompileStack::entry() {
  CompileStack &S = ThreadCompileStack;
  finishSwitch(nullptr, &S.CallerBottom, &S.CallerSize);
  try {
    (*S.Fn)();
  } catch (...) {
    S.Error = std::current_exception();
  }
  startSwitch(nullptr, S.CallerBottom, S.CallerSize);
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
  if (!ThreadCompileStack.run(
          [&] { Out = compileImpl(Source, Opts, WithPrelude); }))
    Out.Metrics.BigStackUnavailable = true;
  return Out;
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
  return execute(C.Program, VmOpts);
}
