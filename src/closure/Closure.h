//===- closure/Closure.h - Closure conversion ------------------------------------===//
///
/// \file
/// Closure conversion (paper Section 5.2, after Shao & Appel's
/// space-efficient closure representations [23] and callee-save registers
/// [6]). Converts nested CPS into closed, top-level functions:
///
///   - Known functions (all call sites known): free variables are passed
///     as extra arguments — "in registers".
///   - Escaping functions: a flat closure record [code, fv1, ..., fvn];
///     calls to unknown functions fetch the code pointer from slot 0.
///   - Continuations use the callee-save convention: a continuation is a
///     bundle (code, cs1, cs2, cs3 [, fcs1..fcsK]) of values passed in
///     registers. Up to kGpCalleeSaves word free variables ride the cs
///     slots; overflow goes to one spill record. Float free variables ride
///     float callee-save registers when FloatCalleeSaves > 0 (sml.fp3);
///     otherwise each is boxed into the word slots (the float-boxing
///     traffic fp3 eliminates, at the cost of copying floats into every
///     continuation).
///   - First-class continuation values (callcc, exception handlers) are
///     packaged as ordinary escaping closures via a generated stub, so
///     `throw` is ordinary application.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_CLOSURE_CLOSURE_H
#define SMLTC_CLOSURE_CLOSURE_H

#include "cps/Cps.h"
#include "driver/Options.h"

#include <vector>

namespace smltc {

/// General-purpose callee-save registers of the continuation convention
/// (all variants use 3, after Appel & Shao [6]).
constexpr int kGpCalleeSaves = 3;

/// The closed program: Funs[i] is the code for label i; Funs[0] is the
/// program entry (no parameters).
struct ClosureResult {
  std::vector<CFun *> Funs;
  CVar MaxVar = 0;
  size_t ClosuresBuilt = 0;
  size_t ContSpills = 0;
  size_t ContFloatBoxes = 0;
};

/// \p Program must pass checkCps: its free-variable analysis relies on
/// every binder being unique, non-negative and bound before its uses.
ClosureResult closureConvert(Arena &A, const CompilerOptions &Opts,
                             Cexp *Program, CVar MaxVar);

} // namespace smltc

#endif // SMLTC_CLOSURE_CLOSURE_H
