//===- vm/Runtime.h - Runtime services shared by the interpreter and native code ---===//
///
/// \file
/// VmRuntime holds the execution state and services every engine needs —
/// the heap, argument registers, handler, builtin exception tags, interned
/// strings, and the CCallRt service dispatch — independent of how the word
/// register file is represented. The interpreter keeps its registers in
/// Machine's W array; the native backend keeps them in per-frame locals
/// published to the heap's shadow stack. The two engine-specific
/// operations the services need are virtual:
///
///   regOut(Rd)            — where a service result register lives;
///   enterFunction(L,n,n)  — transfer control to a function (the
///                           interpreter jumps, native code returns the
///                           target index to its trampoline).
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_VM_RUNTIME_H
#define SMLTC_VM_RUNTIME_H

#include "vm/Vm.h"

#include <string>
#include <vector>

namespace smltc {
namespace vmdetail {

// Virtual register files. The float file matches the word file: the
// code generator allocates fresh virtual registers per function and
// float-heavy programs exceed 64 (Nucleic under sml.nrp reaches f79 —
// with the old 64-entry file those writes silently landed in ArgW and
// became garbage "pointers" for the GC). The cost model is unaffected:
// registers past the fast-file sizes below already model spills.
constexpr int NumWordRegs = 256;
constexpr int NumFloatRegs = 256;
constexpr int FastWordRegs = 32;
constexpr int FastFloatRegs = 16;
constexpr int MaxArgs = 64;

/// Builtin exception tag indices (must match BuiltinExns::all() order in
/// the translator prologue: Match, Bind, Div, Subscript, Size, Overflow,
/// Chr; ids are 1-based).
enum BuiltinTag {
  TagMatch = 1,
  TagBind = 2,
  TagDiv = 3,
  TagSubscript = 4,
  TagSize = 5,
  TagOverflow = 6,
  TagChr = 7,
  NumBuiltinTags = 8,
};

/// Engine-independent runtime: heap, argument staging, exceptions, and
/// the CCallRt services, with identical costs under every engine.
class VmRuntime {
public:
  VmRuntime(const TmProgram &P, const VmOptions &Opts);
  virtual ~VmRuntime() = default;

protected:
  /// Lvalue of the destination register for a runtime-service result.
  virtual Word &regOut(Reg Rd) = 0;
  /// Transfers control to function Label with NW/NF staged arguments.
  /// The interpreter jumps immediately; the native host records the
  /// target for its trampoline. Must trap on an invalid label.
  virtual void enterFunction(int Label, int NW, int NF) = 0;

  /// Registers the GC roots and interns the string pool. Call from the
  /// derived constructor once register storage is initialized: WBase, if
  /// non-null, is registered first (scanned up to *WLiveCount), matching
  /// the interpreter's historical root order; the native host passes
  /// null and publishes frames through the heap shadow stack instead.
  void initRuntime(Word *WBase, const size_t *WLiveCount);

  void cost(uint64_t C) { R.Cycles += C; }

  //===--------------------------------------------------------------------===//
  // Heap helpers and runtime services (Runtime.cpp)
  //===--------------------------------------------------------------------===//

  size_t allocObject(ObjKind K, uint32_t Len1, uint32_t Len2,
                     size_t PayloadWords);
  Word allocBytes(const char *Data, size_t N);
  const char *bytesData(Word P, size_t &N);
  void internStrings();

  void trap(const std::string &Msg);
  void raiseBuiltin(int TagIdx);
  void invokeHandler(Word Exn);
  bool polyEq(Word A, Word B, uint64_t &Nodes);
  void runtimeCall(CpsOp Rt, Reg Rd);

  static bool condHolds(TmCond C, int64_t A, int64_t B);
  static bool condHoldsF(TmCond C, double A, double B);

  //===--------------------------------------------------------------------===//
  // Shared state
  //===--------------------------------------------------------------------===//

  const TmProgram &P;
  VmOptions Opts;
  Heap Hp;
  ExecResult R;

  Word ArgW[MaxArgs];
  double ArgF[MaxArgs];
  Word Handler;
  Word Tags[NumBuiltinTags];
  std::vector<Word> StrPtrs;

  bool Done = false;
  uint64_t AllocWords32 = 0;
};

} // namespace vmdetail
} // namespace smltc

#endif // SMLTC_VM_RUNTIME_H
