//===- cps/CpsConvert.h - LEXP to CPS conversion -------------------------------===//
///
/// \file
/// Converts LEXP into CPS (paper Section 5.1). This phase takes the
/// representation decisions:
///   - record layouts: flat float records, mixed records with floats
///     reordered first (Figure 1b/1c), or standard boxed;
///   - argument-passing conventions: under typed spreading (every Repr
///     but Standard), any function whose argument LTY is RECORDty[t1..tn]
///     (n <= kMaxSpreadArgs) receives its components in registers, even
///     when it escapes;
///   - WRAP/UNWRAP lower to float boxing/unboxing or to nothing;
///   - constructor representations (constant / transparent / tagged box);
///   - exceptions lower to get/set-handler, callcc reifies continuations.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_CPS_CPSCONVERT_H
#define SMLTC_CPS_CPSCONVERT_H

#include "cps/Cps.h"
#include "driver/Options.h"
#include "lexp/Lexp.h"
#include "lty/Lty.h"

namespace smltc {

struct CpsConvertResult {
  Cexp *Program = nullptr;
  CVar MaxVar = 0;
};

/// Converts a whole LEXP program (as produced by the Translator) into CPS.
CpsConvertResult convertToCps(Arena &A, LtyContext &LC,
                              const CompilerOptions &Opts,
                              const Lexp *Program);

/// Physical layout of a record type: for each logical field, its physical
/// slot and whether it is stored as a raw float. Floats come first
/// (Figure 1c reordering), so the descriptor is (floatlen, wordlen).
struct RecordLayout {
  struct Slot {
    int Phys;
    bool IsFloat;
  };
  std::vector<Slot> Slots;
  int NumFloats = 0;
  int NumWords = 0;

  RecordKind kind() const {
    return NumFloats > 0 ? RecordKind::Mixed : RecordKind::Std;
  }
};

/// Computes the layout of a RECORD/SRECORD lty under the given mode
/// (Standard mode never has float fields because REAL lowers to RBOXED).
RecordLayout layoutOf(const Lty *RecordTy);

} // namespace smltc

#endif // SMLTC_CPS_CPSCONVERT_H
