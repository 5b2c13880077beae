//===- vm/Vm.cpp - Machine set-up, function entry, and run() ----------------------===//
//
// Builds the Machine over the shared runtime services (vm/Runtime.cpp),
// enters functions, and runs a program: validate registers, decode, then
// hand the decoded code to one of the two dispatch loops in Interp.cpp.
//
//===----------------------------------------------------------------------===//

#include "vm/VmInternal.h"

#include "obs/Trace.h"

#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

using namespace smltc;
using namespace smltc::vmdetail;

Machine::Machine(const TmProgram &P, const VmOptions &Opts)
    : VmRuntime(P, Opts) {
  std::memset(W, 0, sizeof(W));
  std::memset(F, 0, sizeof(F));
  ProfileOps = Opts.ProfileOpcodes;
  // Register storage is zeroed; safe to register roots and intern now.
  initRuntime(W, &WLive);
}

//===----------------------------------------------------------------------===//
// Control
//===----------------------------------------------------------------------===//

void Machine::jumpInto(int Label, int NW, int NF) {
  if (Label < 0 || Label >= static_cast<int>(P.Funs.size())) {
    trap("jump to invalid label");
    return;
  }
  const TmFunction &Target = P.Funs[Label];
  // Stage arguments into the register file.
  for (int I = 0; I < Target.NumWordParams; ++I)
    W[1 + I] = I < NW ? ArgW[I] : tagInt(0);
  for (int I = 0; I < Target.NumFloatParams; ++I)
    F[1 + I] = I < NF ? ArgF[I] : 0.0;
  // Clear dead registers so the GC roots stay precise.
  for (int I = 1 + Target.NumWordParams; I < NumWordRegs; ++I)
    W[I] = tagInt(0);
  WLive = NumWordRegs;
  Fn = Label;
  Pc = 0;
}

void Machine::jumpIntoDecoded(const DecodedProgram &DP, int Label, int NW,
                              int NF) {
  if (Label < 0 || Label >= static_cast<int>(DP.Funs.size())) {
    trap("jump to invalid label");
    return;
  }
  const DecodedFunction &Target = DP.Funs[Label];
  for (int I = 0; I < Target.NumWordParams; ++I)
    W[1 + I] = I < NW ? ArgW[I] : tagInt(0);
  for (int I = 0; I < Target.NumFloatParams; ++I)
    F[1 + I] = I < NF ? ArgF[I] : 0.0;
  // Clear only up to the callee's watermark and shrink the GC scan to
  // it: the registers above would be tagged zeros under jumpInto's full
  // clear, so the visible root set is unchanged.
  for (int I = 1 + Target.NumWordParams; I < Target.NumRegsUsed; ++I)
    W[I] = tagInt(0);
  WLive = static_cast<size_t>(Target.NumRegsUsed);
  Fn = Label;
  Pc = 0;
}

//===----------------------------------------------------------------------===//
// Runtime services: allocation, exceptions, polyEq, and CCallRt moved to
// vm/Runtime.cpp (VmRuntime), shared with the native backend.
//===----------------------------------------------------------------------===//

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

ExecResult Machine::run() {
  using Clock = std::chrono::steady_clock;
  auto Sec = [](Clock::time_point A, Clock::time_point B) {
    return std::chrono::duration<double>(B - A).count();
  };

  obs::Span RunSpan("vm_run", "vm");

  VmDispatch Mode = Opts.Dispatch;
  if (Mode == VmDispatch::Threaded && !threadedDispatchAvailable())
    Mode = VmDispatch::Switch;
  R.Metrics.Dispatch = Mode == VmDispatch::Switch ? "switch" : "threaded";

  // Load-time structural check, identical in both loops: an out-of-range
  // register must trap, never index past a register file.
  if (const char *Err = validateRegisters(P)) {
    trap(Err);
  } else {
    auto T0 = Clock::now();
    DecodedProgram DP = decodeProgram(P, Opts.UnalignedFloats);
    R.Metrics.DecodeSec = Sec(T0, Clock::now());

    Fn = 0;
    Pc = 0;
    jumpInto(0, 0, 0);
    T0 = Clock::now();
    if (Mode == VmDispatch::Switch)
      runDecodedSwitch(DP);
    else
      runDecodedThreaded(DP);
    R.Metrics.ExecSec = Sec(T0, Clock::now());
  }

  R.Ok = !R.Trapped;
  R.AllocWords32 = AllocWords32;
  R.AllocObjects = Hp.allocatedObjects();
  R.GcCopiedWords = Hp.copiedWords();
  R.Collections = Hp.collections();

  const HeapStats &HS = Hp.stats();
  VmMetrics &M = R.Metrics;
  M.NurseryKb = Hp.nurseryWords() * sizeof(Word) / 1024;
  M.GcSec = HS.GcSec;
  M.Instructions = R.Instructions;
  M.Cycles = R.Cycles;
  M.AllocObjects = Hp.allocatedObjects();
  M.NurseryAllocObjects = HS.NurseryAllocObjects;
  M.AllocWords32 = AllocWords32;
  M.MinorCollections = HS.MinorCollections;
  M.MajorCollections = HS.MajorCollections;
  M.CopiedWords = Hp.copiedWords();
  M.PromotedWords = HS.PromotedWords;
  M.MajorCopiedWords = HS.MajorCopiedWords;
  M.MaxMinorPauseWords = HS.MaxMinorPauseWords;
  M.MaxMajorPauseWords = HS.MaxMajorPauseWords;
  M.BarrierStores = HS.BarrierStores;
  if (ProfileOps) {
    M.HasOpCounts = true;
    std::memcpy(M.OpCounts, OpCounts, sizeof(OpCounts));
  }
  RunSpan.arg("dispatch", std::string(M.Dispatch));
  RunSpan.arg("instructions", M.Instructions);
  return R;
}

ExecResult smltc::execute(const TmProgram &Program, const VmOptions &Opts) {
  Machine M(Program, Opts);
  return M.run();
}
