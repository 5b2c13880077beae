//===- lexp/Translate.h - Absyn to LEXP translation --------------------------===//
///
/// \file
/// The Lambda Translator (paper Section 4): translates typed Absyn into the
/// typed lambda language LEXP, inserting representation coercions at every
/// use of a polymorphic variable or data constructor, at signature
/// matching, abstraction, and functor application; specializing polymorphic
/// primitives (notably equality) from their type instantiations; and
/// compiling pattern matches.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_LEXP_TRANSLATE_H
#define SMLTC_LEXP_TRANSLATE_H

#include "driver/Options.h"
#include "elab/Absyn.h"
#include "lexp/Coerce.h"
#include "lexp/Lexp.h"
#include "lexp/MatchComp.h"
#include "lty/Lty.h"
#include "lty/TypeToLty.h"
#include "support/Diagnostics.h"
#include "types/Type.h"

#include <functional>
#include <unordered_map>
#include <vector>

namespace smltc {

/// The builtin exceptions the translator needs to raise.
struct BuiltinExns {
  ExnInfo *Match = nullptr;
  ExnInfo *Bind = nullptr;
  ExnInfo *Div = nullptr;
  ExnInfo *Subscript = nullptr;
  ExnInfo *Size = nullptr;
  ExnInfo *Overflow = nullptr;
  ExnInfo *Chr = nullptr;

  std::vector<ExnInfo *> all() const {
    return {Match, Bind, Div, Subscript, Size, Overflow, Chr};
  }
};

class Translator {
public:
  Translator(Arena &A, TypeContext &Types, LtyContext &LC,
             const CompilerOptions &Opts, const BuiltinExns &Exns,
             DiagnosticEngine &Diags)
      : A(A), Types(Types), LC(LC), Opts(Opts), Exns(Exns), Diags(Diags),
        Low(LC, Types, Opts.Repr), B(A),
        C(LC, B, Opts.MemoCoercions),
        MC(B, Low, C, Types,
           [this](AExp *E) { return transExp(E); }) {}

  /// Translates a whole program into one LEXP expression (the program's
  /// int result). Top-level functions that neither the result nor a kept
  /// declaration names are not translated at all, so an unused prelude
  /// function never reaches LEXP; every other top-level declaration is
  /// kept for its effects and exception tags.
  Lexp *translate(const AProgram &P);

  LexpBuilder &builder() { return B; }
  TypeLowering &lowering() { return Low; }
  Coercer &coercer() { return C; }

private:
  Lexp *transExp(AExp *E);
  Lexp *transDecs(Span<ADec *> Decs, size_t I,
                  const std::function<Lexp *()> &Body);
  Lexp *transDec(ADec *D, const std::function<Lexp *()> &Body);
  Lexp *transStrExp(AStrExp *S);
  Lexp *transThinning(const Thinning *T, Lexp *SrcVal);

  Lexp *transFnExp(AExp *E);
  Lexp *transMatchFn(Span<ARule> Rules, Type *ArgTy, Type *ResTy,
                     ExnInfo *FailureExn, SourceLoc Loc);
  Lexp *transPrimApp(AExp *PrimExp, AExp *ArgExp, Type *ResTy);
  Lexp *primValue(AExp *PrimExp);
  Lexp *saturatePrim(PrimId P, Lexp *ArgVal, Type *ArgTy);
  Lexp *equalityExp(Type *Ty, Lexp *AVal, Lexp *BVal);
  Lexp *raiseExn(ExnInfo *X, const Lty *ResLty);
  Lexp *exnValue(Lexp *Tag, Type *Payload, Lexp *Arg);
  Lexp *boolConst(bool V);

  const Lty *ltyOf(Type *T) { return Low.lower(T); }

  LVar lvarOf(ValInfo *V);
  LVar lvarOfStr(StrInfo *S);
  LVar lvarOfExn(ExnInfo *X);
  LVar lvarOfFct(FctInfo *F);

  Arena &A;
  TypeContext &Types;
  LtyContext &LC;
  const CompilerOptions &Opts;
  BuiltinExns Exns;
  DiagnosticEngine &Diags;
  TypeLowering Low;
  LexpBuilder B;
  Coercer C;
  MatchCompiler MC;

  std::unordered_map<const ValInfo *, LVar> ValMap;
  std::unordered_map<const StrInfo *, LVar> StrMap;
  std::unordered_map<const ExnInfo *, LVar> ExnMap;
  std::unordered_map<const FctInfo *, LVar> FctMap;
};

} // namespace smltc

#endif // SMLTC_LEXP_TRANSLATE_H
