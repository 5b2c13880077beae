//===- native/NativeEmit.cpp - TM -> C source emission -----------------------------===//
//
// One C function per TM function, driven by a trampoline in the host
// (NativeBackend.cpp). Refusal checks run on every function before any
// text is emitted. The contract with the interpreter is bit-exact
// observable state: results, output, instruction and cycle counts,
// allocation statistics, and GC copy counts all match the decoded
// interpreter loops across every program the emitter accepts. The
// executable comments below cite the corresponding interpreter behavior
// (vm/InterpLoop.inc) wherever parity is subtle.
//
// Register protocol (see NativeAbi.h): word registers are C locals
// `w0..wN-1`, shadowed by a frame array `fr[]` that is published on the
// heap's shadow stack for the whole activation. Around every host call
// that can run the collector (Alloc, Rt, Raise) the code spills locals
// to fr, lets GC update them in place, and reloads. Float registers
// share the host's F file directly — floats are unboxed, invisible to
// GC, and the interpreter never clears F between calls, so stale-read
// behavior is preserved by construction.
//
// Allocation: AllocStart bumps the nursery cursor in the context inline
// when Heap::allocRaw would place the object there without collecting,
// and spills nothing. Otherwise it jumps to the function's one slow
// path, which spills, calls Alloc (the collector runs there, at exactly
// the allocation where the interpreter's runs), reloads and switches
// back to the site. Traps and raises likewise share one failure exit per
// function, so a site costs a store and a jump, not a spill sequence.
//
// Cycle accounting: instructions and cycles accumulate in locals (ni,
// cy) flushed to the shared counters at every control transfer, so the
// counters are exact whenever the host (or another function) can see
// them. The budget check runs at function entry and on taken backward
// branches rather than per fetch; a straight-line run can therefore
// overshoot the budget by a bounded amount before trapping, which is
// observable only for programs that exhaust the budget (documented in
// EXPERIMENTS.md; the differential corpus never trips it).
//
//===----------------------------------------------------------------------===//

#include "native/NativeEmit.h"

#include "native/NativeAbi.h"
#include "vm/Decode.h"
#include "vm/Runtime.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <vector>

using namespace smltc;
using namespace smltc::native;

namespace {

std::string fmt(const char *F, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, F);
  vsnprintf(Buf, sizeof(Buf), F, Ap);
  va_end(Ap);
  return Buf;
}

std::string wreg(int R) { return "w" + std::to_string(R); }
std::string freg(int R) { return "Fv[" + std::to_string(R) + "]"; }

/// The C text of the ABI structs. Field order must match NativeAbi.h
/// exactly; NativeBackend.cpp pins the layout with offsetof asserts
/// against a mirror compiled from this same text.
const char *AbiDecls = R"c(
typedef struct NtFrame { uint64_t *Base; uint64_t Count; } NtFrame;
typedef struct NtCtx NtCtx;
struct NtCtx {
  uint64_t *ArgW;
  double *ArgF;
  double *F;
  uint64_t *Handler;
  uint64_t *StrPtrs;
  NtFrame *Frames;
  uint64_t *FrameDepth;
  uint64_t *MajorMem;
  uint64_t *NurseryMem;
  uint64_t *Instructions;
  uint64_t *Cycles;
  uint64_t MaxCycles;
  uint64_t W0;
  int32_t CallNW;
  int32_t CallNF;
  int32_t MaxW;
  int32_t MaxF;
  int64_t NextFn;
  uint64_t *AllocPtr;
  uint64_t AllocRef;
  uint64_t NurseryHP;
  uint64_t NurseryWords;
  uint64_t PendObjects;
  uint64_t PendWords32;
  void *Host;
  void (*Alloc)(NtCtx *, uint32_t, uint32_t, int32_t);
  void (*StoreBarrier)(NtCtx *, uint64_t, uint64_t);
  int32_t (*Rt)(NtCtx *, int32_t, int32_t);
  void (*Raise)(NtCtx *, int32_t);
  void (*Trap)(NtCtx *, const char *);
  void (*Halt)(NtCtx *, int64_t);
  void (*HaltExn)(NtCtx *);
};
typedef int64_t (*NtFun)(NtCtx *);
typedef struct NtModule { int32_t Abi; int32_t NumFuns; const NtFun *Funs; } NtModule;
)c";

const char *Macros = R"c(
#define NT_TAG0 1ULL
#define NT_TAG(n) ((((uint64_t)(n)) << 1) | 1ULL)
#define NT_UNTAG(x) (((int64_t)(x)) >> 1)
#define NT_ISPTR(x) ((x) != 0 && ((x) & 1ULL) == 0)
#define NT_NB (((uint64_t)1) << 32)
#define NT_AT(i) (*((i) >= NT_NB ? ctx->NurseryMem + ((i) - NT_NB) : ctx->MajorMem + (i)))
#define NT_KIND(d) ((uint64_t)(d) >> 56)
#define NT_LEN1(d) ((uint64_t)(((d) >> 28) & 0xFFFFFFFULL))
#define NT_LEN2(d) ((uint64_t)((d) & 0xFFFFFFFULL))
#define NT_FLUSH() do { *ctx->Instructions += ni; *ctx->Cycles += cy; ni = 0; cy = 0; } while (0)
#define NT_BUMP(need, desc, w32, site) do { uint64_t hp_ = ctx->NurseryHP, *p_; \
    if (hp_ + (need) > ctx->NurseryWords || 4 * (need) > ctx->NurseryWords) { \
      as = (site); goto nt_alloc; } \
    p_ = ctx->NurseryMem + hp_; ctx->NurseryHP = hp_ + (need); p_[0] = (desc); \
    ctx->AllocPtr = p_ + 1; ctx->AllocRef = (NT_NB + hp_) << 3; \
    ctx->PendObjects += 1; ctx->PendWords32 += (w32); } while (0)
)c";

class FnEmitter {
public:
  FnEmitter(std::string &O, const DecodedFunction &F, int FnIdx, int NumFuns)
      : O(O), F(F), FnIdx(FnIdx), NumFuns(NumFuns), N(F.NumRegsUsed) {}

  /// The refusal checks; also marks the branch targets emit() labels.
  bool check(std::string &Err);
  /// Appends the function's C text. Only for functions check() accepted.
  void emit();

private:
  std::string &O;
  const DecodedFunction &F;
  int FnIdx;
  int NumFuns;
  int N; ///< word registers used (fr[] size, spill width)
  std::vector<bool> IsTarget;
  /// (words, floats, is-ref) of each AllocStart, indexed by site number:
  /// the slow path's Alloc arguments and switch cases.
  std::vector<std::string> AllocSites;

  bool refuse(std::string &Err, size_t Pc, const std::string &Why) {
    Err = fmt("native: fn %d pc %zu: ", FnIdx, Pc) + Why;
    return false;
  }

  /// A host trap through the function's failure exit; never returns to
  /// straight-line code.
  std::string trapSeq(const std::string &Msg) {
    return "tm = \"" + Msg + "\"; goto nt_fail;";
  }
  /// A builtin raise through the failure exit (tm stays null).
  std::string raiseSeq(int Tag) {
    return fmt("tg = %d; goto nt_fail;", Tag);
  }

  void ln(const std::string &S) { O += "  " + S + "\n"; }
  void emitSpillReloadMacros();
  void emitPrologue();
  void emitInsn(const DInsn &I, size_t Pc);
  void emitBranchTail(const DInsn &I, size_t Pc);
  void emitAllocStart(const DInsn &I);
  void emitExits();
};

void FnEmitter::emitSpillReloadMacros() {
  std::string Spill = "#define NT_SPILL() do { ";
  std::string Reload = "#define NT_RELOAD() do { ";
  for (int R = 0; R < N; ++R) {
    Spill += fmt("fr[%d] = w%d; ", R, R);
    Reload += fmt("w%d = fr[%d]; ", R, R);
    if (R % 8 == 7 && R + 1 < N) {
      Spill += "\\\n    ";
      Reload += "\\\n    ";
    }
  }
  Spill += "} while (0)\n";
  Reload += "} while (0)\n";
  O += Spill;
  O += Reload;
}

void FnEmitter::emitPrologue() {
  O += fmt("static int64_t nt_f%d(NtCtx *ctx) {\n", FnIdx);
  ln(fmt("uint64_t fr[%d];", N));
  ln("double *const Fv = ctx->F;");
  ln("uint64_t ni = 0, cy = 0;");
  ln("int32_t mw, mf;");
  // Exit-block operands: the allocation site to resume; the trap
  // message, or null for a raise of the builtin exception tg.
  ln("uint32_t as = 0; const char *tm = 0; int32_t tg = 0;");
  // Word-register locals, 8 declarations per line.
  for (int R = 0; R < N; R += 8) {
    std::string D = "uint64_t ";
    for (int C = R; C < N && C < R + 8; ++C)
      D += (C > R ? ", " : "") + wreg(C);
    ln(D + ";");
  }
  // Publish the frame before anything can allocate. The slots hold junk
  // until the first NT_SPILL, but the collector can only run inside the
  // Alloc/Rt callbacks, and every call site spills first.
  ln("{ NtFrame *sf = ctx->Frames + *ctx->FrameDepth;");
  ln("  sf->Base = fr; sf->Count = " + std::to_string(N) +
     "; *ctx->FrameDepth += 1; }");
  ln("mw = ctx->MaxW; mf = ctx->MaxF;");
  ln("w0 = ctx->W0;");
  // Parameter staging, exactly jumpIntoDecoded: W[1+i] gets ArgW[i] when
  // the caller staged that many, else tagged zero; same for floats.
  if (F.NumWordParams > 0 || F.NumFloatParams > 0) {
    ln("{ int32_t nw = ctx->CallNW, nf = ctx->CallNF; (void)nw; (void)nf;");
    for (int I = 0; I < F.NumWordParams; ++I)
      ln(fmt("  w%d = %d < nw ? ctx->ArgW[%d] : NT_TAG0;", 1 + I, I, I));
    for (int I = 0; I < F.NumFloatParams; ++I)
      ln(fmt("  Fv[%d] = %d < nf ? ctx->ArgF[%d] : 0.0;", 1 + I, I, I));
    ln("}");
  }
  for (int R = 1 + F.NumWordParams; R < N; ++R)
    ln(wreg(R) + " = NT_TAG0;");
  // Entry budget check: the interpreter tests before every fetch, so on
  // entry this runs before instruction 0, with flushed exact counters.
  ln("if (*ctx->Cycles > ctx->MaxCycles) {");
  ln("  " + trapSeq("cycle budget exhausted"));
  ln("}");
}

/// Taken-branch tail: the +1 surcharge, a budget check on backward edges
/// (the only way a function can run unboundedly without a transfer), and
/// the goto.
void FnEmitter::emitBranchTail(const DInsn &I, size_t Pc) {
  ln("  cy += 1;");
  if (I.Imm <= static_cast<int32_t>(Pc)) {
    ln("  if (*ctx->Cycles + cy > ctx->MaxCycles) {");
    ln("    " + trapSeq("cycle budget exhausted"));
    ln("  }");
  }
  ln(fmt("  goto L%d;", I.Imm));
}

void FnEmitter::emitInsn(const DInsn &I, size_t Pc) {
  const std::string Rd = wreg(I.Rd), Rs1 = wreg(I.Rs1), Rs2 = wreg(I.Rs2);
  const std::string Fd = freg(I.Rd), Fs1 = freg(I.Rs1), Fs2 = freg(I.Rs2);
  // Fetch accounting first, as in the decoded loops; ops that can trap
  // or raise before charging emit `ni` here and defer `cy` to the
  // success path (the interpreter refunds the fused cost on those paths).
  auto Charge = [&]() { ln(fmt("ni += 1; cy += %u;", I.Cost)); };
  auto CountOnly = [&]() { ln("ni += 1;"); };
  auto ChargeCy = [&]() { ln(fmt("  cy += %u;", I.Cost)); };

  switch (I.Op) {
  case DOp::MovI:
  case DOp::LoadLabel:
    Charge();
    ln(fmt("%s = 0x%llxULL;", Rd.c_str(),
           (unsigned long long)(uint64_t)I.IVal));
    return;
  case DOp::MovR:
    Charge();
    ln(Rd + " = " + Rs1 + ";");
    return;
  case DOp::MovFI: {
    Charge();
    uint64_t Bits;
    std::memcpy(&Bits, &I.FVal, 8);
    ln(fmt("{ uint64_t b = 0x%llxULL; memcpy(&%s, &b, 8); }",
           (unsigned long long)Bits, Fd.c_str()));
    return;
  }
  case DOp::MovFR:
    Charge();
    ln(Fd + " = " + Fs1 + ";");
    return;
  case DOp::LoadStr:
    Charge();
    ln(fmt("%s = ctx->StrPtrs[%d];", Rd.c_str(), I.Imm));
    return;

  case DOp::Add:
    Charge();
    ln(Rd + " = NT_TAG(NT_UNTAG(" + Rs1 + ") + NT_UNTAG(" + Rs2 + "));");
    return;
  case DOp::Sub:
    Charge();
    ln(Rd + " = NT_TAG(NT_UNTAG(" + Rs1 + ") - NT_UNTAG(" + Rs2 + "));");
    return;
  case DOp::Mul:
    Charge();
    ln(Rd + " = NT_TAG(NT_UNTAG(" + Rs1 + ") * NT_UNTAG(" + Rs2 + "));");
    return;
  case DOp::Div:
    CountOnly();
    ln("{ int64_t d = NT_UNTAG(" + Rs2 + ");");
    ln("  if (d == 0) {");
    ln("    " + raiseSeq(vmdetail::TagDiv));
    ln("  }");
    ChargeCy();
    ln("  { int64_t n = NT_UNTAG(" + Rs1 + ");");
    ln("    int64_t q = n / d, rm = n % d;");
    ln("    if (rm != 0 && ((rm < 0) != (d < 0))) q -= 1;"); // SML floor div
    ln("    " + Rd + " = NT_TAG(q); } }");
    return;
  case DOp::Mod:
    CountOnly();
    ln("{ int64_t d = NT_UNTAG(" + Rs2 + ");");
    ln("  if (d == 0) {");
    ln("    " + raiseSeq(vmdetail::TagDiv));
    ln("  }");
    ChargeCy();
    ln("  { int64_t rm = NT_UNTAG(" + Rs1 + ") % d;");
    ln("    if (rm != 0 && ((rm < 0) != (d < 0))) rm += d;");
    ln("    " + Rd + " = NT_TAG(rm); } }");
    return;
  case DOp::Neg:
    Charge();
    ln(Rd + " = NT_TAG(-NT_UNTAG(" + Rs1 + "));");
    return;
  case DOp::Abs:
    Charge();
    ln("{ int64_t v = NT_UNTAG(" + Rs1 + "); " + Rd +
       " = NT_TAG(v < 0 ? -v : v); }");
    return;

  case DOp::FAdd:
    Charge();
    ln(Fd + " = " + Fs1 + " + " + Fs2 + ";");
    return;
  case DOp::FSub:
    Charge();
    ln(Fd + " = " + Fs1 + " - " + Fs2 + ";");
    return;
  case DOp::FMul:
    Charge();
    ln(Fd + " = " + Fs1 + " * " + Fs2 + ";");
    return;
  case DOp::FDiv:
    Charge();
    ln(Fd + " = " + Fs1 + " / " + Fs2 + ";");
    return;
  case DOp::FNeg:
    Charge();
    ln(Fd + " = -" + Fs1 + ";");
    return;
  case DOp::FAbs:
    Charge();
    ln(Fd + " = fabs(" + Fs1 + ");");
    return;
  case DOp::FSqrt:
    Charge();
    ln(Fd + " = sqrt(" + Fs1 + ");");
    return;
  case DOp::FSin:
    Charge();
    ln(Fd + " = sin(" + Fs1 + ");");
    return;
  case DOp::FCos:
    Charge();
    ln(Fd + " = cos(" + Fs1 + ");");
    return;
  case DOp::FAtan:
    Charge();
    ln(Fd + " = atan(" + Fs1 + ");");
    return;
  case DOp::FExp:
    Charge();
    ln(Fd + " = exp(" + Fs1 + ");");
    return;
  case DOp::FLn:
    Charge();
    ln(Fd + " = log(" + Fs1 + ");");
    return;
  case DOp::Floor:
    Charge();
    ln(Rd + " = NT_TAG((int64_t)floor(" + Fs1 + "));");
    return;
  case DOp::IToF:
    Charge();
    ln(Fd + " = (double)NT_UNTAG(" + Rs1 + ");");
    return;

  case DOp::Br: {
    Charge();
    static const char *CondOp[] = {"==", "!=", "<", "<=", ">", ">="};
    TmCond C = static_cast<TmCond>(I.Aux);
    std::string Cmp;
    if (C == TmCond::Ult)
      Cmp = Rs1 + " < " + Rs2; // raw words are already uint64
    else if (C == TmCond::Eq || C == TmCond::Ne)
      Cmp = Rs1 + " " + CondOp[(int)C] + " " + Rs2;
    else
      Cmp = "(int64_t)" + Rs1 + " " + CondOp[(int)C] + " (int64_t)" + Rs2;
    ln("if (" + Cmp + ") {");
    emitBranchTail(I, Pc);
    ln("}");
    return;
  }
  case DOp::BrF: {
    Charge();
    static const char *CondOp[] = {"==", "!=", "<", "<=", ">", ">="};
    // Ult on floats decodes to TrapInvalid, refused below.
    ln("if (" + Fs1 + " " + CondOp[(int)I.Aux] + " " + Fs2 + ") {");
    emitBranchTail(I, Pc);
    ln("}");
    return;
  }
  case DOp::BrBoxed:
    Charge();
    ln("if (NT_ISPTR(" + Rs1 + ")) {");
    emitBranchTail(I, Pc);
    ln("}");
    return;
  case DOp::Jmp:
    Charge();
    if (I.Imm <= static_cast<int32_t>(Pc)) {
      ln("if (*ctx->Cycles + cy > ctx->MaxCycles) {");
      ln("  " + trapSeq("cycle budget exhausted"));
      ln("}");
    }
    ln(fmt("goto L%d;", I.Imm));
    return;

  case DOp::Load:
    CountOnly();
    ln("{ uint64_t b = " + Rs1 + ";");
    ln("  if (!NT_ISPTR(b)) {");
    ln("    " + trapSeq(fmt("load from a non-pointer (fn %d pc %zu)",
                            FnIdx, Pc)));
    ln("  }");
    ChargeCy();
    ln(fmt("  %s = NT_AT((b >> 3) + %dULL); }", Rd.c_str(), 1 + I.Imm));
    return;
  case DOp::Store:
    CountOnly();
    ln("{ uint64_t b = " + Rs1 + ";");
    ln("  if (!NT_ISPTR(b)) {");
    ln("    " + trapSeq("store to a non-pointer"));
    ln("  }");
    ChargeCy();
    ln(fmt("  { uint64_t s = (b >> 3) + %dULL, v = %s;", 1 + I.Imm,
           Rd.c_str()));
    ln("    NT_AT(s) = v;");
    // Heap::storeField's generational barrier, inlined: only an
    // old-space slot receiving a nursery pointer needs recording.
    ln("    if (s < NT_NB && NT_ISPTR(v) && (v >> 3) >= NT_NB)");
    ln("      ctx->StoreBarrier(ctx, s, v); } }");
    return;
  case DOp::LoadF:
    CountOnly();
    ln("{ uint64_t b = " + Rs1 + ";");
    ln("  if (!NT_ISPTR(b)) {");
    ln("    " + trapSeq("float load from a non-pointer"));
    ln("  }");
    ChargeCy();
    ln(fmt("  { uint64_t bits = NT_AT((b >> 3) + %dULL);", 1 + I.Imm));
    ln("    memcpy(&" + Fd + ", &bits, 8); } }");
    return;
  case DOp::LoadIdx:
    CountOnly();
    ln("{ uint64_t b = " + Rs1 + ";");
    ln("  if (!NT_ISPTR(b)) {");
    ln("    " + trapSeq("indexed load from a non-pointer"));
    ln("  }");
    ln("  { int64_t ix = NT_UNTAG(" + Rs2 + ");");
    ln("    uint64_t bi = b >> 3, d = NT_AT(bi);");
    ln("    int64_t len = NT_KIND(d) == 3 ? 1 : (int64_t)NT_LEN2(d);");
    ln("    if (ix < 0 || ix >= len) {");
    ln("      " + raiseSeq(vmdetail::TagSubscript));
    ln("    }");
    ln(fmt("    cy += %u;", I.Cost));
    ln(fmt("    %s = NT_AT(bi + 1 + (uint64_t)ix); } }", Rd.c_str()));
    return;
  case DOp::StoreIdx:
    CountOnly();
    ln("{ uint64_t b = " + Rs1 + ";");
    ln("  if (!NT_ISPTR(b)) {");
    ln("    " + trapSeq("indexed store to a non-pointer"));
    ln("  }");
    ln("  { int64_t ix = NT_UNTAG(" + Rs2 + ");");
    ln("    uint64_t bi = b >> 3, d = NT_AT(bi);");
    ln("    int64_t len = NT_KIND(d) == 3 ? 1 : (int64_t)NT_LEN2(d);");
    ln("    if (ix < 0 || ix >= len) {");
    ln("      " + raiseSeq(vmdetail::TagSubscript));
    ln("    }");
    ln(fmt("    cy += %u;", I.Cost));
    ln(fmt("    { uint64_t s = bi + 1 + (uint64_t)ix, v = %s;", Rd.c_str()));
    ln("      NT_AT(s) = v;");
    ln("      if (s < NT_NB && NT_ISPTR(v) && (v >> 3) >= NT_NB)");
    ln("        ctx->StoreBarrier(ctx, s, v); } } }");
    return;
  case DOp::LoadByte:
    // The interpreter reads the descriptor without a pointer check
    // (bytesData); codegen only emits LoadByte on strings.
    CountOnly();
    ln("{ uint64_t bi = " + Rs1 + " >> 3, d = NT_AT(bi);");
    ln("  int64_t ix = NT_UNTAG(" + Rs2 + ");");
    ln("  if (ix < 0 || (uint64_t)ix >= NT_LEN1(d)) {");
    ln("    " + raiseSeq(vmdetail::TagSubscript));
    ln("  }");
    ChargeCy();
    ln(fmt("  %s = NT_TAG((int64_t)*((const unsigned char *)&NT_AT(bi + 1) "
           "+ ix)); }",
           Rd.c_str()));
    return;
  case DOp::SizeOfOp:
    Charge();
    ln("{ uint64_t d = NT_AT(" + Rs1 + " >> 3);");
    ln("  uint64_t k = NT_KIND(d);");
    ln("  int64_t n = k == 2 ? (int64_t)NT_LEN1(d)");
    ln("            : k == 4 ? (int64_t)NT_LEN2(d)");
    ln("            : k == 3 ? 1");
    ln("            : (int64_t)NT_LEN1(d) + (int64_t)NT_LEN2(d);");
    ln("  " + Rd + " = NT_TAG(n); }");
    return;

  case DOp::AllocStart:
    Charge();
    emitAllocStart(I);
    return;
  case DOp::AllocWord:
    Charge();
    ln("*ctx->AllocPtr++ = " + Rs1 + ";");
    return;
  case DOp::AllocFloat:
    Charge();
    ln("memcpy(ctx->AllocPtr, &" + Fs1 + ", 8); ctx->AllocPtr += 1;");
    return;
  case DOp::AllocEnd:
    Charge();
    ln(Rd + " = ctx->AllocRef;");
    return;

  case DOp::GetHdlr:
    Charge();
    ln(Rd + " = *ctx->Handler;");
    return;
  case DOp::SetHdlr:
    Charge();
    ln("*ctx->Handler = " + Rs1 + ";");
    return;

  case DOp::SetArg:
    Charge();
    ln(fmt("ctx->ArgW[%d] = %s; if (%d > mw) mw = %d;", I.Imm, Rs1.c_str(),
           I.Imm, I.Imm));
    return;
  case DOp::SetArgF:
    Charge();
    ln(fmt("ctx->ArgF[%d] = %s; if (%d > mf) mf = %d;", I.Imm, Fs1.c_str(),
           I.Imm, I.Imm));
    return;

  case DOp::CallL:
    Charge();
    if (I.Imm < 0 || I.Imm >= NumFuns) {
      // Statically invalid label: the interpreter traps at call time.
      ln(trapSeq("jump to invalid label"));
      return;
    }
    ln("ctx->CallNW = mw + 1; ctx->CallNF = mf + 1;");
    ln("ctx->MaxW = -1; ctx->MaxF = -1;");
    ln("NT_FLUSH();");
    ln("ctx->W0 = w0;");
    ln("*ctx->FrameDepth -= 1;");
    ln(fmt("return %d;", I.Imm));
    return;
  case DOp::CallR:
    // The call cost is charged before the tag check: no refund.
    Charge();
    ln("{ uint64_t c = " + Rs1 + ";");
    ln("  if (!(c & 1ULL)) {");
    ln("    " + trapSeq(fmt("indirect call through a non-label value "
                            "(fn %d pc %zu reg %d)",
                            FnIdx, Pc, (int)I.Rs1)));
    ln("  }");
    ln("  { int64_t t = NT_UNTAG(c);");
    ln(fmt("    if (t < 0 || t >= %d) {", NumFuns));
    ln("      " + trapSeq("jump to invalid label"));
    ln("    }");
    ln("    ctx->CallNW = mw + 1; ctx->CallNF = mf + 1;");
    ln("    ctx->MaxW = -1; ctx->MaxF = -1;");
    ln("    NT_FLUSH();");
    ln("    ctx->W0 = w0;");
    ln("    *ctx->FrameDepth -= 1;");
    ln("    return t; } }");
    return;

  case DOp::CCallRt:
    Charge();
    ln("NT_SPILL(); NT_FLUSH();");
    // Rt returns 1 when the service ended the run or transferred control
    // (a raise into a handler): exit through the trampoline. Either way
    // the interpreter resets the arg watermark after the service.
    ln(fmt("if (ctx->Rt(ctx, %d, %d)) {", I.Imm, (int)I.Rd));
    ln("  ctx->MaxW = -1; ctx->MaxF = -1;");
    ln("  goto nt_exit;");
    ln("}");
    ln("ctx->MaxW = -1; ctx->MaxF = -1; mw = -1; mf = -1;");
    ln("NT_RELOAD();");
    return;

  case DOp::HaltOp:
    Charge();
    ln("NT_SPILL(); NT_FLUSH(); ctx->MaxW = mw; ctx->MaxF = mf;");
    ln("ctx->Halt(ctx, NT_UNTAG(" + Rs1 + "));");
    ln("goto nt_exit;");
    return;
  case DOp::HaltExnOp:
    Charge();
    ln("NT_SPILL(); NT_FLUSH(); ctx->MaxW = mw; ctx->MaxF = mf;");
    ln("ctx->HaltExn(ctx);");
    ln("goto nt_exit;");
    return;

  case DOp::TrapEnd:
  case DOp::TrapInvalid:
    return; // refused by check()
  }
}

/// Heap::allocRaw's nursery test and bump, inline; VmRuntime's
/// allocObject descriptor (a Cell for a ref) and the interpreter's
/// AllocWords32 charge. Anything else resumes here from the slow path.
void FnEmitter::emitAllocStart(const DInsn &I) {
  const uint32_t NW = static_cast<uint32_t>(I.Rs1);
  const uint32_t NF = static_cast<uint32_t>(I.Rs2);
  const bool IsRef = static_cast<RecordKind>(I.Aux) == RecordKind::Ref;
  const uint64_t Need = 1 + std::max<uint64_t>(1, uint64_t(NW) + NF);
  const Word Desc = IsRef ? makeDesc(ObjKind::Cell, 0, 1)
                          : makeDesc(ObjKind::Record, NF, NW);
  const size_t Site = AllocSites.size();
  AllocSites.push_back(fmt("{%uu, %uu, %d}", NW, NF, IsRef ? 1 : 0));
  ln(fmt("NT_BUMP(%lluULL, 0x%llxULL, %lluULL, %zu);",
         (unsigned long long)Need, (unsigned long long)Desc,
         (unsigned long long)(1 + NW + 2ull * NF), Site));
  O += fmt("A%zu:;\n", Site);
}

/// The shared slow paths, after the body (which never falls through).
/// Each spills, flushes and calls the host. The failure exit persists
/// MaxW/MaxF into the context: the interpreter does not reset MaxWSeen
/// on a raise, and the handler's later calls stage MaxWSeen+1 arguments,
/// so the watermark must survive the transfer (for a trap, which ends
/// the run, keeping the mirror exact costs nothing). Every function has
/// a failure exit: its entry checks the cycle budget.
void FnEmitter::emitExits() {
  if (!AllocSites.empty()) {
    O += "nt_alloc: {\n";
    std::string Table = "static const uint32_t sz[][3] = {";
    for (size_t K = 0; K < AllocSites.size(); ++K)
      Table += (K ? ", " : "") + AllocSites[K];
    ln(Table + "};");
    ln("NT_SPILL(); NT_FLUSH();");
    ln("ctx->Alloc(ctx, sz[as][0], sz[as][1], (int32_t)sz[as][2]);");
    ln("NT_RELOAD();");
    ln("switch (as) {");
    for (size_t K = 0; K + 1 < AllocSites.size(); ++K)
      ln(fmt("case %zu: goto A%zu;", K, K));
    ln(fmt("default: goto A%zu;", AllocSites.size() - 1));
    ln("} }");
  }
  O += "nt_fail:\n";
  ln("NT_SPILL(); NT_FLUSH(); ctx->MaxW = mw; ctx->MaxF = mf;");
  ln("if (tm) ctx->Trap(ctx, tm); else ctx->Raise(ctx, tg);");
  ln("goto nt_exit;");
}

bool FnEmitter::check(std::string &Err) {
  // The decoder appends one TrapEnd pad; everything before it is real.
  const size_t PadIdx = F.Code.size() - 1;
  if (PadIdx == 0)
    return refuse(Err, 0, "empty function (reachable end-of-function pad)");

  IsTarget.assign(F.Code.size(), false);
  for (size_t Pc = 0; Pc < PadIdx; ++Pc) {
    const DInsn &I = F.Code[Pc];
    switch (I.Op) {
    case DOp::TrapInvalid:
      return refuse(Err, Pc, std::string("statically invalid instruction (") +
                                 dtrapMessage(I.Imm) + ")");
    case DOp::TrapEnd:
      return refuse(Err, Pc, "unexpected trap pad inside function body");
    case DOp::Br:
    case DOp::BrF:
    case DOp::BrBoxed:
    case DOp::Jmp:
      // Targets are decode-validated (clamped to the pad when out of
      // range); a pad target means the original target was invalid and
      // must keep trapping through the interpreter.
      if (static_cast<size_t>(I.Imm) >= PadIdx)
        return refuse(Err, Pc, "branch to end-of-function trap pad");
      IsTarget[I.Imm] = true;
      break;
    default:
      break;
    }
  }
  // The pad is also reachable by falling through the last instruction.
  const DOp LastOp = F.Code[PadIdx - 1].Op;
  if (LastOp != DOp::Jmp && LastOp != DOp::CallL && LastOp != DOp::CallR &&
      LastOp != DOp::HaltOp && LastOp != DOp::HaltExnOp)
    return refuse(Err, PadIdx - 1,
                  "function can fall through its last instruction");
  return true;
}

void FnEmitter::emit() {
  const size_t PadIdx = F.Code.size() - 1;
  emitSpillReloadMacros();
  emitPrologue();
  for (size_t Pc = 0; Pc < PadIdx; ++Pc) {
    if (IsTarget[Pc])
      O += fmt("L%zu:;\n", Pc);
    emitInsn(F.Code[Pc], Pc);
  }
  emitExits();
  O += "nt_exit:\n";
  ln("*ctx->Instructions += ni; *ctx->Cycles += cy;");
  // fr[0] (not the local) is W0's live value here: every path to
  // nt_exit spilled first, and GC may have moved what w0 pointed at.
  ln("ctx->W0 = fr[0];");
  ln("*ctx->FrameDepth -= 1;");
  ln("return ctx->NextFn;");
  O += "}\n#undef NT_SPILL\n#undef NT_RELOAD\n\n";
}

} // namespace

bool smltc::native::emitNativeC(const TmProgram &Program, bool UnalignedFloats,
                                std::string &Out, std::string &Err) {
  DecodedProgram DP = decodeProgram(Program, UnalignedFloats);
  if (DP.Funs.empty()) {
    Err = "native: empty program";
    return false;
  }
  const size_t NumFuns = DP.Funs.size();

  std::string O;
  std::vector<FnEmitter> Emitters;
  Emitters.reserve(NumFuns);
  for (size_t FI = 0; FI < NumFuns; ++FI) {
    Emitters.emplace_back(O, DP.Funs[FI], static_cast<int>(FI),
                          static_cast<int>(NumFuns));
    if (!Emitters.back().check(Err))
      return false;
  }

  O.reserve(1 << 16);
  O += "/* smltc native module (generated) */\n";
  O += "#include <stdint.h>\n#include <string.h>\n#include <math.h>\n";
  O += AbiDecls;
  O += Macros;
  O += "\n";
  for (size_t FI = 0; FI < NumFuns; ++FI)
    O += fmt("static int64_t nt_f%zu(NtCtx *ctx);\n", FI);
  O += "\n";

  for (FnEmitter &E : Emitters)
    E.emit();

  O += "static const NtFun nt_funs[] = {\n";
  for (size_t FI = 0; FI < NumFuns; ++FI)
    O += fmt("  nt_f%zu,\n", FI);
  O += "};\n";
  O += fmt("static const NtModule nt_module = { %d, %d, nt_funs };\n",
           NT_ABI_VERSION, (int)NumFuns);
  O += "const NtModule *smltc_native_entry_v1(void) { return &nt_module; }\n";

  Out = std::move(O);
  return true;
}
