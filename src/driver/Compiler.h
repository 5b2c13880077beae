//===- driver/Compiler.h - The full compiler pipeline ------------------------------===//
///
/// \file
/// Wires the phases of Figure 3 together: parse -> elaborate/type-check
/// [-> minimum typing derivations] -> translate to LEXP with coercions ->
/// CPS convert -> CPS optimize -> closure convert -> generate TM code.
/// Collects per-phase compile-time and size metrics (the paper's Figure 8
/// compile-time row and the Section 4.5 ablations).
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_DRIVER_COMPILER_H
#define SMLTC_DRIVER_COMPILER_H

#include "codegen/CodeGen.h"
#include "codegen/Machine.h"
#include "cps/CpsOpt.h"
#include "driver/Options.h"
#include "elab/Mtd.h"
#include "vm/Vm.h"

#include <memory>
#include <string>

namespace smltc {

struct CompileMetrics {
  double TotalSec = 0;
  double FrontSec = 0;     ///< parse + elaborate (+ MTD)
  double TranslateSec = 0; ///< Absyn -> LEXP
  double BackSec = 0;      ///< CPS convert + optimize + closure + codegen

  // Fine-grained phase seconds (the spans `--trace-json` records carry
  // the same names). FrontSec and BackSec above stay as the lumped
  // aggregates existing consumers read.
  double ParseSec = 0;
  double ElabSec = 0;
  double MtdSec = 0;        ///< 0 when the variant runs without MTD
  double CpsConvertSec = 0; ///< includes the post-convert CPS check
  double CpsOptSec = 0;     ///< includes the post-optimize CPS check
  double ClosureSec = 0;
  double CodegenSec = 0;

  size_t LexpNodes = 0;
  size_t CpsNodesBeforeOpt = 0;
  size_t CpsNodesAfterOpt = 0;
  size_t CodeSize = 0; ///< TM instructions (the paper's code-size metric)

  MtdStats Mtd;
  CpsOptStats Opt;
  CodeGenStats Codegen;
  size_t LtyInterned = 0;
  size_t LtyAllocated = 0;
  size_t CoerceMemoHits = 0;
  size_t CoerceMemoMisses = 0;
  size_t ClosuresBuilt = 0;

  // --- batch-engine accounting (driver/Batch.h) ---
  double QueueWaitSec = 0; ///< time the job sat queued before a worker
  int WorkerId = -1;       ///< batch worker that ran the job (-1: direct)
  bool CacheHit = false;   ///< output came from the CompileCache
  /// The hit was served by the persistent backing store (server disk
  /// cache) rather than the in-memory map. Implies CacheHit.
  bool CacheDiskHit = false;
  /// The calling thread's 1 GiB compile stack could not be mapped and
  /// compilation ran on the caller's own stack.
  bool BigStackUnavailable = false;

  // --- prelude snapshot (driver/PreludeSnapshot.h) ---
  /// This compile layered on the pre-elaborated prelude snapshot
  /// instead of re-parsing and re-elaborating the prelude source.
  bool PreludeSnapshotHit = false;
  /// Seconds this compile spent obtaining the snapshot: ~0 once built,
  /// the one-time construction cost for the compile that built it, and
  /// 0 under `--prelude=inline` or `--no-prelude`.
  double PreludeElabSec = 0;
};

struct CompileOutput {
  bool Ok = false;
  std::string Errors;
  TmProgram Program;
  CompileMetrics Metrics;
  /// Filled when CompilerOptions::KeepDumps is set: the typed lambda
  /// program and the optimized CPS program, rendered as s-expressions.
  std::string LexpDump;
  std::string CpsDump;
};

class Compiler {
public:
  /// The standard prelude (list utilities etc.), compiled with every
  /// program, written in MiniML itself.
  static const char *prelude();

  /// Compiles a MiniML source program under the given compiler variant.
  /// When \p WithPrelude, the prelude is layered on (via the process-wide
  /// pre-elaborated snapshot by default, or by prepending its source
  /// text under `CompilerOptions::Prelude == PreludeMode::Inline`; the
  /// two modes produce bit-identical programs).
  ///
  /// The compile runs on the calling thread, switched onto that thread's
  /// compile stack: a 1 GiB mapping made by the thread's first compile
  /// and kept until the thread exits, because the passes recurse over
  /// whole programs. Spans therefore nest under the caller's, on the
  /// caller's track. A compile called from inside a compile stays on the
  /// stack it is on; when the stack cannot be mapped, the compile runs
  /// on the caller's own stack and sets `BigStackUnavailable`.
  static CompileOutput compile(const std::string &Source,
                               const CompilerOptions &Opts,
                               bool WithPrelude = true);

  /// Convenience: compile and run on the VM.
  static ExecResult compileAndRun(const std::string &Source,
                                  const CompilerOptions &Opts,
                                  bool WithPrelude = true,
                                  VmOptions VmOpts = VmOptions());

private:
  static CompileOutput compileImpl(const std::string &Source,
                                   const CompilerOptions &Opts,
                                   bool WithPrelude);
};

} // namespace smltc

#endif // SMLTC_DRIVER_COMPILER_H
