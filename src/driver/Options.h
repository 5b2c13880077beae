//===- driver/Options.h - Compiler variant configuration --------------------===//
///
/// \file
/// Options selecting between the six measured compilers of the paper's
/// Section 6, plus the ablation switches of Sections 4.5 and 5.2.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_DRIVER_OPTIONS_H
#define SMLTC_DRIVER_OPTIONS_H

#include "lty/TypeToLty.h"

#include <cstdint>

namespace smltc {

/// How compiled TM programs are executed (--backend=).
enum class ExecBackend : uint8_t {
  Vm,     ///< one of the two interpreter loops (--vm-dispatch=)
  Native, ///< AOT TM -> C -> shared object (src/native/)
};

/// How the standard prelude reaches a compile job (--prelude=).
enum class PreludeMode : uint8_t {
  Snapshot, ///< layer on the process-wide pre-elaborated snapshot
  Inline,   ///< legacy: prepend the prelude source text to the job
};

/// Individually ablatable contraction rules of the CPS optimizer
/// (--cps-opt-disable=).
enum CpsOptRule : uint8_t {
  kCpsRuleEta = 1,        ///< eta reduction of forwarding functions/conts
  kCpsRuleWrapCancel = 4, ///< wrap/unwrap cancellation breadth (dedup)
  kCpsRuleAll = kCpsRuleEta | kCpsRuleWrapCancel,
};

struct CompilerOptions {
  const char *VariantName = "custom";

  /// Execution backend. `vm` interprets; `native` AOT-compiles the TM
  /// program to C, loads the shared object, and runs it over the same
  /// heap and runtime services with bit-identical observable results.
  ExecBackend Backend = ExecBackend::Vm;

  /// Prelude delivery. `snapshot` (default) elaborates the prelude once
  /// per process and layers jobs on the immutable result; `inline` is
  /// the legacy concatenation path, kept as a differential oracle — the
  /// two produce bit-identical programs. Ignored when compiling without
  /// a prelude.
  PreludeMode Prelude = PreludeMode::Snapshot;

  /// Representation mode for the LTY lowering (Figure 6).
  ReprMode Repr = ReprMode::Standard;
  /// Minimum typing derivations (Section 3.1).
  bool Mtd = false;
  /// Kranz-style argument flattening for known functions (sml.fag).
  bool KnownFnFlattening = false;
  /// Type-based argument spreading for *all* calls, from RECORDty argument
  /// types (Section 5.1) — requires Repr != Standard.
  bool TypedArgSpreading = false;
  /// Number of floating-point callee-save registers (sml.fp3 uses 3).
  int FloatCalleeSaves = 0;

  // --- ablation switches ---
  bool HashConsLty = true;      ///< Section 4.5 (global static hash-consing)
  bool MemoCoercions = true;    ///< Section 4.5 (memo-ized module coercions)
  /// Section 5.2's two *new* CPS optimizations, available only to the
  /// type-based compilers (the old compiler's implicit float boxing was
  /// not visible to its optimizer): wrap/unwrap pair cancellation and
  /// record-copy elimination.
  bool CpsWrapCancel = false;
  bool CpsRecordCopyElim = false;
  bool InlineSmallFns = true;   ///< CPS optimizer inline expansion
  /// Paper footnote 7: the 1.03z runtime does not align reals, so float
  /// memory traffic costs two single-word accesses.
  bool UnalignedFloats = true;

  /// Retain printable LEXP/CPS dumps in the CompileOutput (debugging).
  bool KeepDumps = false;

  /// Maximum argument registers for spread calls (Section 5.1 footnote 6).
  int MaxSpreadArgs = 10;
  /// General-purpose callee-save registers (all variants use 3, after
  /// Appel & Shao [6]).
  int GpCalleeSaves = 3;

  /// Bitmask of CpsOptRule values disabled for ablation
  /// (--cps-opt-disable=eta,wrapcancel).
  uint8_t CpsOptDisable = 0;

  static CompilerOptions nrp() {
    CompilerOptions O;
    O.VariantName = "sml.nrp";
    return O;
  }
  static CompilerOptions fag() {
    CompilerOptions O = nrp();
    O.VariantName = "sml.fag";
    O.KnownFnFlattening = true;
    return O;
  }
  static CompilerOptions rep() {
    CompilerOptions O = fag();
    O.VariantName = "sml.rep";
    O.Repr = ReprMode::RecordsOnly;
    O.TypedArgSpreading = true;
    O.CpsWrapCancel = true;
    O.CpsRecordCopyElim = true;
    return O;
  }
  static CompilerOptions mtd() {
    CompilerOptions O = rep();
    O.VariantName = "sml.mtd";
    O.Mtd = true;
    return O;
  }
  static CompilerOptions ffb() {
    CompilerOptions O = mtd();
    O.VariantName = "sml.ffb";
    O.Repr = ReprMode::FullFloat;
    return O;
  }
  static CompilerOptions fp3() {
    CompilerOptions O = ffb();
    O.VariantName = "sml.fp3";
    O.FloatCalleeSaves = 3;
    return O;
  }

  /// All six variants in the paper's order.
  static const CompilerOptions *allVariants(size_t &Count);
};

} // namespace smltc

#endif // SMLTC_DRIVER_OPTIONS_H
