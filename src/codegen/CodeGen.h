//===- codegen/CodeGen.h - Closed CPS to TM code ----------------------------------===//
///
/// \file
/// The machine code generator: compiles closed (closure-converted) CPS
/// functions to TM code with a simple per-path register allocator.
/// Parameters arrive in consecutive word/float registers; temporaries are
/// allocated past them; both arms of a branch number their temporaries
/// from the same register, so register pressure tracks one control path,
/// and pressure above 32 models spilling (the VM charges for it).
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_CODEGEN_CODEGEN_H
#define SMLTC_CODEGEN_CODEGEN_H

#include "closure/Closure.h"
#include "codegen/Machine.h"
#include "cps/Cps.h"

namespace smltc {

struct CodeGenStats {
  int MaxWordRegs = 0;
  int MaxFloatRegs = 0;
};

TmProgram generateCode(const ClosureResult &Closed, CodeGenStats &Stats);

} // namespace smltc

#endif // SMLTC_CODEGEN_CODEGEN_H
