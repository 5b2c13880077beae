//===- vm/Decode.h - Pre-decoded TM code for the dispatch loop ---------------------===//
///
/// \file
/// At load time each TmFunction is decoded into a dense internal form the
/// execution loops can dispatch on without per-step checks:
///
///  - the static part of the cost model (base cycles + 2 cycles for each
///    operand register beyond the fast file, which models a spill and
///    depends only on register numbers) is fused into a per-instruction
///    `Cost` constant;
///  - immediates are pre-resolved (MovI/LoadLabel store the already-tagged
///    word; LoadF's unaligned-float surcharge is baked in);
///  - every branch target is validated once: out-of-range targets are
///    clamped to the TrapEnd pad appended after each function, so the
///    per-step `Pc` bounds check disappears;
///  - statically invalid instructions (float unsigned compare, bad
///    string-pool index) decode to an explicit Trap instruction.
///
/// Cycle counts feed Figure 7. staticCost (Decode.cpp) is the cost
/// model's only definition of the static charges; tests/corpus_counts.tsv
/// pins every corpus row's cycles, instructions and heap words.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_VM_DECODE_H
#define SMLTC_VM_DECODE_H

#include "codegen/Machine.h"

#include <cstdint>
#include <vector>

namespace smltc {

/// Decoded opcodes. The first NumTmOps values mirror TmOp one-for-one
/// (same order — decode maps by static_cast); the trailing entries are
/// synthetic trap instructions produced only by the decoder.
enum class DOp : uint8_t {
  MovI, MovR, MovFI, MovFR, LoadLabel, LoadStr,
  Add, Sub, Mul, Div, Mod, Neg, Abs,
  FAdd, FSub, FMul, FDiv, FNeg, FAbs,
  FSqrt, FSin, FCos, FAtan, FExp, FLn,
  Floor, IToF,
  Br, BrF, BrBoxed, Jmp,
  Load, Store, LoadF, LoadIdx, StoreIdx, LoadByte, SizeOfOp,
  AllocStart, AllocWord, AllocFloat, AllocEnd,
  GetHdlr, SetHdlr,
  SetArg, SetArgF, CallL, CallR,
  CCallRt,
  HaltOp, HaltExnOp,
  TrapEnd,     ///< pad after the last instruction: "fell off the end"
  TrapInvalid, ///< statically invalid instruction; Imm selects the message
};

constexpr int NumDOps = static_cast<int>(DOp::TrapInvalid) + 1;

/// TrapInvalid message selectors (DInsn::Imm).
enum DTrapReason : int32_t {
  DTrapFloatUnsignedCompare = 0,
  DTrapBadStringIndex = 1,
};

const char *dopName(DOp Op);
const char *dtrapMessage(int32_t Reason);

/// One pre-decoded instruction: 24 bytes, operands resolved, static cost
/// fused. Aux carries TmCond for branches and RecordKind for AllocStart;
/// Imm carries the validated jump target / field offset / arg slot /
/// label / CpsOp runtime-service id.
struct DInsn {
  DOp Op = DOp::TrapEnd;
  uint8_t Aux = 0;
  uint16_t Cost = 0;
  Reg Rd = 0, Rs1 = 0, Rs2 = 0;
  int32_t Imm = 0;
  union {
    int64_t IVal;
    double FVal;
  };
  DInsn() : IVal(0) {}
};
static_assert(sizeof(DInsn) == 24, "DInsn should stay dense");

struct DecodedFunction {
  std::vector<DInsn> Code; ///< original code plus one TrapEnd pad
  int NumWordParams = 0;
  int NumFloatParams = 0;
  /// 1 + the largest word register the function mentions (and at least
  /// 1 + NumWordParams): the register-file watermark. On entry only
  /// registers below it need clearing, and the GC only scans that
  /// prefix — everything above would be a tagged zero after a full
  /// clear, so the live root set is identical.
  int NumRegsUsed = 1;
};

struct DecodedProgram {
  std::vector<DecodedFunction> Funs;
  size_t codeBytes() const {
    size_t N = 0;
    for (const DecodedFunction &F : Funs)
      N += F.Code.size() * sizeof(DInsn);
    return N;
  }
};

/// Decodes a whole program. UnalignedFloats selects the LoadF cost
/// (paper footnote 7), matching VmOptions::UnalignedFloats.
DecodedProgram decodeProgram(const TmProgram &P, bool UnalignedFloats);

/// Checks every register operand and argument-slot immediate against the
/// machine's register-file sizes. Returns nullptr when the program is
/// well-formed, else a trap message. Run once at load time by every
/// dispatch mode: the code generator allocates virtual registers without
/// an upper bound, and an out-of-range register must become a clean trap,
/// not an out-of-bounds write into a neighboring register file.
const char *validateRegisters(const TmProgram &P);

} // namespace smltc

#endif // SMLTC_VM_DECODE_H
