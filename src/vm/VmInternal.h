//===- vm/VmInternal.h - Machine state of the dispatch loop ------------------------===//
///
/// \file
/// The Machine layers the dispatch loop over the shared VmRuntime
/// services (vm/Runtime.h): it owns the word/float register files and
/// the loop. Vm.cpp implements function entry and run(); Interp.cpp
/// implements the pre-decoded computed-goto loop over the bodies in
/// InterpLoop.inc. The native backend (src/native/) derives its own host
/// from VmRuntime instead.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_VM_VMINTERNAL_H
#define SMLTC_VM_VMINTERNAL_H

#include "vm/Decode.h"
#include "vm/Runtime.h"
#include "vm/Vm.h"

#include <cstring>
#include <string>
#include <vector>

namespace smltc {
namespace vmdetail {

class Machine : public VmRuntime {
public:
  Machine(const TmProgram &P, const VmOptions &Opts);
  ExecResult run();

private:
  //===--------------------------------------------------------------------===//
  // Engine hooks for the shared runtime services
  //===--------------------------------------------------------------------===//

  Word &regOut(Reg Rd) override { return W[Rd]; }
  void enterFunction(int Label, int NW, int NF) override {
    jumpIntoDecoded(*Decoded, Label, NW, NF);
  }

  //===--------------------------------------------------------------------===//
  // Control (Vm.cpp)
  //===--------------------------------------------------------------------===//

  /// The one function entry: calls, the program entry, and a raise into
  /// a handler all stage arguments and clear up to the callee's
  /// register watermark.
  void jumpIntoDecoded(const DecodedProgram &DP, int Label, int NW, int NF);

  //===--------------------------------------------------------------------===//
  // Dispatch loop
  //===--------------------------------------------------------------------===//

  void runDecodedThreaded(const DecodedProgram &DP); // Interp.cpp

  //===--------------------------------------------------------------------===//
  // State
  //===--------------------------------------------------------------------===//

  Word W[NumWordRegs];
  double F[NumFloatRegs];

  /// The program run() decoded; set before the first entry.
  const DecodedProgram *Decoded = nullptr;
  int Fn = 0;
  size_t Pc = 0;
  /// GC scan watermark for W: registers at or above it are dead, and
  /// jumpIntoDecoded skips both their clear and their scan.
  size_t WLive = NumWordRegs;
  int MaxWSeen = -1;
  int MaxFSeen = -1;

  size_t PendingAt = 0;
  size_t PendingCursor = 0;
  uint32_t PendingWords = 0;
  uint32_t PendingFloats = 0;

  bool ProfileOps = false;
  uint64_t OpCounts[NumDOps] = {};
};

} // namespace vmdetail
} // namespace smltc

#endif // SMLTC_VM_VMINTERNAL_H
