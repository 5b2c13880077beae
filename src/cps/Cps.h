//===- cps/Cps.h - Continuation-passing-style IR with CTYs --------------------===//
///
/// \file
/// The CPS intermediate representation (paper Section 5). Every variable is
/// annotated at its binding occurrence with a CPS type (CTY):
///
///   CTY ::= INTt | FLTt | PTRt(known n | unknown) | FUNt | CNTt
///
/// Representation decisions have been taken by the time CPS exists: records
/// carry explicit per-field float/word layout (Figure 1's flat, mixed, and
/// reordered layouts), functions have explicit (possibly spread) argument
/// lists, and the coercion operators have been lowered to float boxing /
/// unboxing and plain moves.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_CPS_CPS_H
#define SMLTC_CPS_CPS_H

#include "support/Arena.h"
#include "support/StringInterner.h"

#include <cstdint>
#include <string>

namespace smltc {

using CVar = int32_t;

/// Most argument registers a spread or flattened call uses (Section 5.1,
/// footnote 6); a record argument with more fields is passed boxed.
constexpr int kMaxSpreadArgs = 10;

enum class CtyKind : uint8_t {
  Int,        ///< tagged integer (31-bit payload)
  Flt,        ///< raw float (lives in float registers)
  PtrKnown,   ///< pointer to a record of known length
  PtrUnknown, ///< pointer to a record of unknown length
  Fun,        ///< function closure
  Cnt,        ///< continuation
};

struct Cty {
  CtyKind K = CtyKind::PtrUnknown;
  int Len = 0; ///< PtrKnown: record length (logical fields)

  static Cty intTy() { return {CtyKind::Int, 0}; }
  static Cty fltTy() { return {CtyKind::Flt, 0}; }
  static Cty ptr(int Len) { return {CtyKind::PtrKnown, Len}; }
  static Cty ptrUnknown() { return {CtyKind::PtrUnknown, 0}; }
  static Cty funTy() { return {CtyKind::Fun, 0}; }
  static Cty cntTy() { return {CtyKind::Cnt, 0}; }

  bool isFloat() const { return K == CtyKind::Flt; }
};

/// A CPS value: a variable, an immediate constant, or (after closure
/// conversion) a code label.
struct CValue {
  enum class Kind : uint8_t { Var, Int, Real, String, Label };
  Kind K = Kind::Int;
  CVar V = 0;
  int64_t I = 0;
  double R = 0;
  Symbol S;

  static CValue var(CVar V) {
    CValue X;
    X.K = Kind::Var;
    X.V = V;
    return X;
  }
  static CValue label(int FnIndex) {
    CValue X;
    X.K = Kind::Label;
    X.I = FnIndex;
    return X;
  }
  /// An unused callee-save/padding slot: no move is emitted for it
  /// (callee-save registers cost nothing when they carry nothing).
  static CValue pad() {
    CValue X;
    X.K = Kind::Label;
    X.I = -1;
    return X;
  }
  /// A padding slot in a float register position.
  static CValue padF() {
    CValue X;
    X.K = Kind::Real;
    X.I = -1;
    return X;
  }
  bool isPad() const {
    return (K == Kind::Label || K == Kind::Real) && I < 0;
  }
  bool isFloatPad() const { return K == Kind::Real && I < 0; }
  static CValue intC(int64_t I) {
    CValue X;
    X.K = Kind::Int;
    X.I = I;
    return X;
  }
  static CValue realC(double R) {
    CValue X;
    X.K = Kind::Real;
    X.R = R;
    return X;
  }
  static CValue strC(Symbol S) {
    CValue X;
    X.K = Kind::String;
    X.S = S;
    return X;
  }
  bool isVar() const { return K == Kind::Var; }
};

/// A record field at its physical position.
struct CField {
  CValue V;
  bool IsFloat = false; ///< stored as a raw (2-word) float
};

/// What a Record allocates.
enum class RecordKind : uint8_t {
  Std,      ///< all one-word fields, plain descriptor
  Mixed,    ///< floats first, then words; (floatlen, wordlen) descriptor
  FloatBox, ///< a single raw float (the fwrap box)
  Ref,      ///< mutable one-word cell
  Closure,  ///< function/continuation closure record
  Spill,    ///< spill record introduced by the spill phase
};

/// Branch comparisons.
enum class BranchOp : uint8_t {
  Ieq, Ine, Ilt, Ile, Igt, Ige,
  Feq, Flt, Fle, Fgt, Fge,
  IsBoxed, ///< one arg: true if the value is a pointer (not a tagged int)
  Ult,     ///< unsigned compare (array bounds)
};

/// Non-branching operators.
enum class CpsOp : uint8_t {
  // Arith (Arith nodes; IDiv/IMod can trap).
  IAdd, ISub, IMul, IDiv, IMod, INeg, IAbs,
  FAdd, FSub, FMul, FDiv, FNeg, FAbs,
  Floor, RealFromInt,
  FSqrt, FSin, FCos, FAtan, FExp, FLn,
  // Pure moves.
  Copy,
  // Lookers.
  LoadCell,   ///< (ptr, index) -> word   (ref contents / array element)
  LoadByte,   ///< (string, index) -> int
  SizeOf,     ///< (ptr) -> length from descriptor (string bytes / array len)
  GetHandler, ///< () -> current exception handler
  // Setters.
  StoreCell,  ///< (ptr, index, word)
  SetHandler, ///< (handler)
  // Runtime calls (CCall nodes).
  RtPolyEq, RtStrEq, RtStrCmp, RtConcat, RtSubstring, RtChr,
  RtItos, RtRtos, RtPrint, RtMakeTag, RtArrayMake,
};

struct Cexp;

/// One function of a FIX bundle.
struct CFun {
  enum class Kind : uint8_t {
    Escape, ///< may be called from unknown sites (standard convention)
    Known,  ///< all call sites known (flexible convention)
    Cont,   ///< continuation
  };
  Kind K = Kind::Escape;
  CVar Name = 0;
  Span<CVar> Params;
  Span<Cty> ParamTys;
  Cexp *Body = nullptr;
};

struct CBranchArm; // forward

struct Cexp {
  enum class Kind : uint8_t {
    Record, ///< W := alloc RK [Fields]; Cont
    Select, ///< W := Fields? no: W := V[Idx] (IsFloat selects a raw float)
    App,    ///< call F (Args)
    Fix,    ///< define Funs; Cont
    Branch, ///< if BOp(Args) then A1 else A2
    Arith,  ///< W := Op(Args); Cont
    Pure,   ///< W := Op(Args); Cont (no effects, removable)
    Looker, ///< W := Op(Args); Cont (reads state, removable if unused)
    Setter, ///< Op(Args); Cont
    CCall,  ///< W := runtime Op(Args); Cont
    Halt,   ///< program result := Args[0]
  };
  Kind K;

  RecordKind RK = RecordKind::Std;
  Span<CField> Fields;   // Record
  int Idx = 0;           // Select (physical field index)
  bool IsFloat = false;  // Select: raw float field
  CValue F;              // App fun; Select base; Halt value (in F)
  Span<CValue> Args;     // App, Branch, Arith/Pure/Looker/Setter/CCall
  CVar W = 0;            // result binder
  Cty WTy;               // result cty
  Span<CFun *> Funs;     // Fix
  BranchOp BOp = BranchOp::Ieq;
  CpsOp Op = CpsOp::Copy;
  Cexp *C1 = nullptr;    // continuation / then
  Cexp *C2 = nullptr;    // else
};

/// Convenience constructors.
class CpsBuilder {
public:
  explicit CpsBuilder(Arena &A, CVar FirstVar = 1)
      : A(A), NextVar(FirstVar) {}

  Arena &arena() { return A; }
  CVar fresh() { return NextVar++; }
  CVar maxVar() const { return NextVar; }

  Cexp *record(RecordKind RK, const std::vector<CField> &Fields, CVar W,
               Cexp *Cont);
  Cexp *select(int Idx, bool IsFloat, CValue V, CVar W, Cty T, Cexp *Cont);
  Cexp *app(CValue F, const std::vector<CValue> &Args);
  Cexp *fix(const std::vector<CFun *> &Funs, Cexp *Cont);
  Cexp *branch(BranchOp Op, const std::vector<CValue> &Args, Cexp *Then,
               Cexp *Else);
  Cexp *arith(CpsOp Op, const std::vector<CValue> &Args, CVar W, Cty T,
              Cexp *Cont);
  Cexp *pure(CpsOp Op, const std::vector<CValue> &Args, CVar W, Cty T,
             Cexp *Cont);
  Cexp *looker(CpsOp Op, const std::vector<CValue> &Args, CVar W, Cty T,
               Cexp *Cont);
  Cexp *setter(CpsOp Op, const std::vector<CValue> &Args, Cexp *Cont);
  Cexp *ccall(CpsOp Op, const std::vector<CValue> &Args, CVar W, Cty T,
              Cexp *Cont);
  Cexp *halt(CValue V);
  CFun *fun(CFun::Kind K, CVar Name, const std::vector<CVar> &Params,
            const std::vector<Cty> &ParamTys, Cexp *Body);

private:
  Cexp *make(Cexp::Kind K) {
    Cexp *E = A.create<Cexp>();
    E->K = K;
    return E;
  }
  Arena &A;
  CVar NextVar;
};

/// Renders CPS as s-expressions.
std::string printCps(const Cexp *E);

/// Number of CPS nodes (compile-effort / code-size proxy before codegen).
size_t countCpsNodes(const Cexp *E);

} // namespace smltc

#endif // SMLTC_CPS_CPS_H
