//===- vm/Interp.cpp - The pre-decoded dispatch loop (computed goto) ---------------===//
//
// The one execution loop over the pre-decoded form. Dispatch is computed
// goto (label addresses, a GCC/Clang extension every supported toolchain
// has): each opcode body in InterpLoop.inc jumps directly to the next
// handler, so the branch predictor sees one indirect branch per opcode
// site instead of a single shared dispatch branch.
//
// The loop charges the fused static cost at fetch time and resynchronizes
// its instruction pointer from Fn/Pc only after control transfers, so the
// hot path never touches the Pc member or bounds-checks it (branch
// targets were validated at decode time; running past the last
// instruction lands on the TrapEnd pad).
//
//===----------------------------------------------------------------------===//

#include "vm/VmInternal.h"

#include <cmath>
#include <cstring>
#include <string>

using namespace smltc;
using namespace smltc::vmdetail;

void Machine::runDecodedThreaded(const DecodedProgram &DP) {
  // One entry per DOp, in declaration order.
  static const void *const Labels[NumDOps] = {
      &&L_MovI, &&L_MovR, &&L_MovFI, &&L_MovFR, &&L_LoadLabel, &&L_LoadStr,
      &&L_Add, &&L_Sub, &&L_Mul, &&L_Div, &&L_Mod, &&L_Neg, &&L_Abs,
      &&L_FAdd, &&L_FSub, &&L_FMul, &&L_FDiv, &&L_FNeg, &&L_FAbs,
      &&L_FSqrt, &&L_FSin, &&L_FCos, &&L_FAtan, &&L_FExp, &&L_FLn,
      &&L_Floor, &&L_IToF,
      &&L_Br, &&L_BrF, &&L_BrBoxed, &&L_Jmp,
      &&L_Load, &&L_Store, &&L_LoadF, &&L_LoadIdx, &&L_StoreIdx,
      &&L_LoadByte, &&L_SizeOfOp,
      &&L_AllocStart, &&L_AllocWord, &&L_AllocFloat, &&L_AllocEnd,
      &&L_GetHdlr, &&L_SetHdlr,
      &&L_SetArg, &&L_SetArgF, &&L_CallL, &&L_CallR,
      &&L_CCallRt,
      &&L_HaltOp, &&L_HaltExnOp,
      &&L_TrapEnd, &&L_TrapInvalid,
  };
  const DInsn *CurCode = DP.Funs[static_cast<size_t>(Fn)].Code.data();
  const DInsn *IP = CurCode + Pc;
  const DInsn *I;

// The dispatch is replicated at the end of every opcode body: fetch,
// count, charge the fused cost, jump to the handler.
#define VM_CASE(op) L_##op:
#define VM_NEXT()                                                          \
  do {                                                                     \
    if (R.Cycles > Opts.MaxCycles)                                         \
      goto vm_budget;                                                      \
    I = IP++;                                                              \
    ++R.Instructions;                                                      \
    if (ProfileOps)                                                        \
      ++OpCounts[static_cast<int>(I->Op)];                                 \
    R.Cycles += I->Cost;                                                   \
    goto *Labels[static_cast<int>(I->Op)];                                 \
  } while (0)
#define VM_XFER()                                                          \
  do {                                                                     \
    if (Done)                                                              \
      goto vm_done;                                                        \
    CurCode = DP.Funs[static_cast<size_t>(Fn)].Code.data();                \
    IP = CurCode + Pc;                                                     \
  } while (0);                                                             \
  VM_NEXT()

  VM_NEXT(); // fetch the first instruction
#include "vm/InterpLoop.inc"
#undef VM_CASE
#undef VM_NEXT
#undef VM_XFER

vm_budget:
  R.Trapped = true;
  R.TrapMessage = "cycle budget exhausted";
  return;
vm_done:
  return;
}
