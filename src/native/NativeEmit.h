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
/// By default only the functions reachable from Funs[0] through CallL
/// targets and LoadLabel immediates get a C body; the rest get a null
/// slot in the module's table, which keeps one slot per TM function.
/// The refusal checks run on every function either way, so pruning
/// never changes which programs are accepted. The complete module (every
/// function emitted) is what the host builds when a forged label reaches
/// a null slot.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_NATIVE_NATIVEEMIT_H
#define SMLTC_NATIVE_NATIVEEMIT_H

#include "codegen/Machine.h"

#include <cstddef>
#include <string>

namespace smltc {
namespace native {

/// Which functions get a C body.
enum class EmitScope {
  Reachable, ///< those reachable from Funs[0]; null slots for the rest
  Complete,  ///< every function
};

/// Emits the C source for Program into Out. Returns true on success; on
/// refusal returns false with a diagnostic in Err (Out is left
/// unspecified). UnalignedFloats selects the LoadF cost, exactly as in
/// VmOptions. When FunsEmitted is non-null it receives the number of
/// functions given a body.
bool emitNativeC(const TmProgram &Program, bool UnalignedFloats,
                 std::string &Out, std::string &Err,
                 EmitScope Scope = EmitScope::Reachable,
                 size_t *FunsEmitted = nullptr);

} // namespace native
} // namespace smltc

#endif // SMLTC_NATIVE_NATIVEEMIT_H
