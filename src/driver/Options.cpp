//===- driver/Options.cpp - Compiler variants and their byte encoding -------===//

#include "driver/Options.h"

#include "vm/Runtime.h"

using namespace smltc;

namespace {

/// The length of encodeOptions' output: twelve one-byte values and the
/// four bytes of FloatCalleeSaves.
constexpr size_t kEncodedBytes = 16;

} // namespace

const CompilerOptions *CompilerOptions::allVariants(size_t &Count) {
  static const CompilerOptions Variants[6] = {nrp(), fag(), rep(),
                                              mtd(), ffb(), fp3()};
  Count = 6;
  return Variants;
}

void smltc::encodeOptions(std::string &Out, const CompilerOptions &O) {
  auto U8 = [&Out](unsigned V) { Out += static_cast<char>(V); };
  U8(kOptionsSchemaVersion);
  U8(static_cast<uint8_t>(O.Prelude));
  U8(static_cast<uint8_t>(O.Repr));
  U8(O.Mtd);
  U8(O.KnownFnFlattening);
  uint32_t Fcs = static_cast<uint32_t>(O.FloatCalleeSaves);
  for (int Shift = 0; Shift < 32; Shift += 8)
    U8((Fcs >> Shift) & 0xff);
  U8(O.HashConsLty);
  U8(O.MemoCoercions);
  U8(O.CpsWrapCancel);
  U8(O.CpsRecordCopyElim);
  U8(O.InlineSmallFns);
  U8(O.KeepDumps);
  U8(O.CpsOptDisable);
}

bool smltc::decodeOptions(std::string_view Bytes, CompilerOptions &O,
                          std::string &Err) {
  if (Bytes.empty()) {
    Err = "truncated options";
    return false;
  }
  size_t Pos = 0;
  auto U8 = [&] { return static_cast<uint8_t>(Bytes[Pos++]); };
  uint8_t Schema = U8();
  if (Schema != kOptionsSchemaVersion) {
    Err = "options schema mismatch (got " + std::to_string(Schema) +
          ", expected " + std::to_string(kOptionsSchemaVersion) + ")";
    return false;
  }
  if (Bytes.size() != kEncodedBytes) {
    Err = Bytes.size() < kEncodedBytes ? "truncated options"
                                       : "overlong options";
    return false;
  }
  uint8_t Prelude = U8();
  uint8_t Repr = U8();
  O.Mtd = U8() != 0;
  O.KnownFnFlattening = U8() != 0;
  uint32_t Fcs = 0;
  for (int Shift = 0; Shift < 32; Shift += 8)
    Fcs |= static_cast<uint32_t>(U8()) << Shift;
  O.HashConsLty = U8() != 0;
  O.MemoCoercions = U8() != 0;
  O.CpsWrapCancel = U8() != 0;
  O.CpsRecordCopyElim = U8() != 0;
  O.InlineSmallFns = U8() != 0;
  O.KeepDumps = U8() != 0;
  uint8_t Disable = U8();
  // Same rules the CLI accepts: reject rather than mask, so a misbehaving
  // client cannot smuggle an unknown ablation bit into the farm.
  if (Disable & ~kCpsRuleAll) {
    Err = "cps-opt-disable has unknown rule bits";
    return false;
  }
  O.CpsOptDisable = Disable;
  if (Prelude > static_cast<uint8_t>(PreludeMode::Inline)) {
    Err = "prelude mode out of range";
    return false;
  }
  O.Prelude = static_cast<PreludeMode>(Prelude);
  if (Repr > static_cast<uint8_t>(ReprMode::FullFloat)) {
    Err = "representation mode out of range";
    return false;
  }
  O.Repr = static_cast<ReprMode>(Repr);
  // Continuations pass their float callee-saves in argument slots, so a
  // larger count can only fail to compile; a negative one sized the
  // closure converter's tables from garbage and threw out of the compile.
  if (Fcs > static_cast<uint32_t>(vmdetail::MaxArgs)) {
    Err = "float callee-saves out of range";
    return false;
  }
  O.FloatCalleeSaves = static_cast<int>(Fcs);
  return true;
}
