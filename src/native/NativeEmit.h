//===- native/NativeEmit.h - TM -> C source emission -------------------------------===//
///
/// \file
/// Translates a TM program (via the pre-decoded DInsn form, so operands
/// are resolved, branch targets validated, and the cost model's static
/// charges fused) into one C translation unit implementing the ABI in
/// NativeAbi.h. Emission is refused — never silently degraded — for
/// programs containing the decoder's synthetic trap instructions or a
/// reachable end-of-function pad: those must keep trapping through the
/// interpreters, and the differential tests assert the refusal.
///
/// Every TM function gets a C body; the CPS optimizer leaves only
/// functions reachable from the entry.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_NATIVE_NATIVEEMIT_H
#define SMLTC_NATIVE_NATIVEEMIT_H

#include "codegen/Machine.h"

#include <string>

namespace smltc {
namespace native {

/// Emits the C source for Program into Out. Returns true on success; on
/// refusal returns false with a diagnostic in Err (Out is left
/// unspecified). UnalignedFloats selects the LoadF cost, exactly as in
/// VmOptions.
bool emitNativeC(const TmProgram &Program, bool UnalignedFloats,
                 std::string &Out, std::string &Err);

} // namespace native
} // namespace smltc

#endif // SMLTC_NATIVE_NATIVEEMIT_H
