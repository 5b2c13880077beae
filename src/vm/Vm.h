//===- vm/Vm.h - The TM execution engine --------------------------------------------===//
///
/// \file
/// Executes TM programs with a DECstation-5000-flavoured cost model and
/// full metric accounting: cycles, heap allocation in 32-bit words
/// (floats = 2, descriptors = 1), instruction counts, and GC work.
/// The substitution for the paper's hardware measurements: absolute
/// numbers differ from a real MIPS, but the costs the six compiler
/// variants trade against each other (boxing, memory traffic, allocation,
/// GC) are modeled directly.
///
/// Two dispatch loops execute the same pre-decoded code and cost model
/// (vm/Decode.h) bit for bit:
///   threaded — computed-goto dispatch (GCC/Clang);
///   switch   — portable switch dispatch over the same opcode bodies,
///              and what `threaded` runs where computed goto is missing.
/// Determinism is an acceptance gate, not a nice-to-have: the cycle
/// counters feed Figure 7, so both loops (and the native backend) must
/// produce identical results and identical counters, and
/// tests/corpus_counts.tsv pins them per corpus row.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_VM_VM_H
#define SMLTC_VM_VM_H

#include "codegen/Machine.h"
#include "vm/Decode.h"
#include "vm/Heap.h"

#include <cstdint>
#include <string>

namespace smltc {

enum class VmDispatch : uint8_t {
  Threaded, ///< computed goto where available, else switch
  Switch,   ///< portable pre-decoded switch loop
};

struct VmOptions {
  bool UnalignedFloats = true; ///< float loads cost two word loads
  size_t HeapSemiWords = 1 << 20;
  /// Nursery size in KiB (8-byte words inside); 0 restores the plain
  /// two-space collector. Clamped to a quarter of the semispace.
  size_t NurseryKb = 256;
  uint64_t MaxCycles = 40ull * 1000 * 1000 * 1000;
  VmDispatch Dispatch = VmDispatch::Threaded;
  /// Count executions per opcode (reported in VmMetrics::OpCounts).
  bool ProfileOpcodes = false;
};

/// Runtime observability: where the cycles, allocations, and GC work
/// went. The JSON emitter mirrors BatchMetrics::toJson on the compile
/// side; `smltcc --vm-metrics-json` and bench/exec_throughput expose it.
struct VmMetrics {
  const char *Dispatch = "switch"; ///< effective engine that ran
  size_t NurseryKb = 0;            ///< effective nursery size
  double DecodeSec = 0;            ///< pre-decode time (load time)
  double ExecSec = 0;              ///< wall time in the dispatch loop
  double GcSec = 0;                ///< wall time inside collections

  uint64_t Instructions = 0;
  uint64_t Cycles = 0;
  uint64_t AllocObjects = 0;
  uint64_t NurseryAllocObjects = 0;
  uint64_t AllocWords32 = 0;

  uint64_t MinorCollections = 0;
  uint64_t MajorCollections = 0;
  uint64_t CopiedWords = 0;   ///< total GC copies (promotions + major)
  uint64_t PromotedWords = 0; ///< words surviving minor scavenges
  uint64_t MajorCopiedWords = 0;
  uint64_t MaxMinorPauseWords = 0; ///< worst single minor pause (words)
  uint64_t MaxMajorPauseWords = 0; ///< worst single major pause (words)
  uint64_t BarrierStores = 0;      ///< old-to-young stores recorded

  bool HasOpCounts = false; ///< OpCounts populated (ProfileOpcodes)
  uint64_t OpCounts[NumDOps] = {};

  double instructionsPerSec() const {
    return ExecSec > 0 ? static_cast<double>(Instructions) / ExecSec : 0;
  }
  /// Renders the metrics as a single JSON object (no trailing newline).
  std::string toJson() const;
};

struct ExecResult {
  bool Ok = false;
  bool UncaughtException = false;
  bool Trapped = false; ///< VM-level failure (cycle budget, internal)
  std::string TrapMessage;
  int64_t Result = 0;
  std::string Output; ///< everything `print`ed

  // Metrics (flat fields kept for existing callers; Metrics has the
  // full breakdown).
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t AllocWords32 = 0; ///< 32-bit words allocated (paper's metric)
  uint64_t AllocObjects = 0;
  uint64_t GcCopiedWords = 0;
  uint64_t Collections = 0;
  VmMetrics Metrics;
};

ExecResult execute(const TmProgram &Program, const VmOptions &Opts);

/// Whether computed-goto dispatch is compiled in (GCC/Clang); when
/// false, VmDispatch::Threaded silently runs the switch loop.
bool threadedDispatchAvailable();

} // namespace smltc

#endif // SMLTC_VM_VM_H
