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
#include <string>
#include <string_view>

namespace smltc {

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

/// Everything a compile depends on besides its source and whether the
/// prelude is layered on. How the program is then executed (VM or
/// native, dispatch loop, nursery) is the caller's business.
struct CompilerOptions {
  /// A label for reports; not part of the job (encodeOptions skips it).
  const char *VariantName = "custom";

  /// Prelude delivery. `snapshot` (default) elaborates the prelude once
  /// per process and layers jobs on the immutable result; `inline` is
  /// the legacy concatenation path, kept as a differential oracle — the
  /// two produce bit-identical programs. Ignored when compiling without
  /// a prelude.
  PreludeMode Prelude = PreludeMode::Snapshot;

  /// Representation mode for the LTY lowering (Figure 6). Every mode but
  /// Standard also spreads record arguments into registers on all calls,
  /// from their RECORDty argument types (Section 5.1).
  ReprMode Repr = ReprMode::Standard;
  /// Minimum typing derivations (Section 3.1).
  bool Mtd = false;
  /// Kranz-style argument flattening for known functions (sml.fag).
  bool KnownFnFlattening = false;
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

  /// Retain printable LEXP/CPS dumps in the CompileOutput (debugging).
  bool KeepDumps = false;

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

/// The version of encodeOptions' byte layout, written as its first byte.
/// Bump it when a field is added, removed or reordered: it is part of
/// every cache key's salt, and a wire request under another layout is
/// refused ("options schema mismatch").
constexpr uint8_t kOptionsSchemaVersion = 9;

/// The one byte encoding of a compile job's options, shared by the cache
/// key (driver/CompileCache.h) and the compile request on the wire
/// (server/Protocol.h): the schema byte, then every field but
/// VariantName, little-endian. Appends to \p Out.
void encodeOptions(std::string &Out, const CompilerOptions &O);

/// Reads back exactly what encodeOptions wrote. Fails with \p Err on
/// another schema version, a truncated or overlong encoding, unknown
/// CpsOptDisable bits, or a Prelude, Repr or FloatCalleeSaves out of
/// range. Leaves VariantName as it was.
bool decodeOptions(std::string_view Bytes, CompilerOptions &O,
                   std::string &Err);

} // namespace smltc

#endif // SMLTC_DRIVER_OPTIONS_H
