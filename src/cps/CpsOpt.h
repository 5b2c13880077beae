//===- cps/CpsOpt.h - CPS optimizer ---------------------------------------------===//
///
/// \file
/// The CPS optimizer (paper Section 5.2 and Appel's book): contractions
/// (dead code, constant folding, select-from-known-record), beta reduction
/// of once-used functions, eta reduction of continuations, inline expansion
/// of small functions, and the two new type-enabled optimizations the paper
/// adds: cancellation of wrapper/unwrapper pairs and record-copy
/// elimination (possible because record sizes are now known from CTYs).
/// Also implements Kranz-style argument flattening for known functions
/// (the sml.fag configuration).
///
/// One up-front census over dense CVar-indexed tables is incrementally
/// maintained as each contraction fires, with the tree mutated in place
/// so unchanged subtrees are never re-cloned. Shrinking is linear in the
/// manner of Appel & Jim: a once-called body moves to its call site and
/// is contracted there, and dead value bindings cascade before the phase
/// ends. Each phase plans the non-shrinking passes (inline-small,
/// argument flattening) from the live counts, then applies all
/// reductions in one top-down sweep; phases repeat until one fires
/// nothing. Tests hold the result to a host evaluation of generated
/// programs and to every corpus row's pinned counts.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_CPS_CPSOPT_H
#define SMLTC_CPS_CPSOPT_H

#include "cps/Cps.h"
#include "driver/Options.h"

#include <atomic>
#include <cstdint>

namespace smltc {

namespace obs {
class Registry;
}

struct CpsOptStats {
  int Rounds = 0; ///< optimizer phases (plan + sweep), the last one idle
  size_t DeadRemoved = 0;
  size_t SelectsFolded = 0;
  size_t RecordsCopyEliminated = 0;
  size_t FloatBoxesReused = 0; ///< wrap/unwrap pairs cancelled
  size_t BranchesFolded = 0;
  size_t ConstantsFolded = 0;
  size_t InlinedOnce = 0;
  size_t InlinedSmall = 0;
  size_t EtaConts = 0;
  size_t KnownFnsFlattened = 0;
  // Ablatable rules (CpsOptRule):
  size_t EtaFuns = 0;          ///< generalized eta of forwarding functions
  size_t WrapCancelChains = 0; ///< non-adjacent wrap dedup / unwrap CSE
  /// The subset of WrapCancelChains that cancelled a per-iteration
  /// allocation or select inside a loop nest (fired through the
  /// loop-body gate rather than same-depth or last-use). These carry
  /// the dynamic-instruction wins; the bench gate keys on them.
  size_t WrapCancelLoopCarried = 0;
  /// Always 0: loop-invariant hoisting was removed (it never changed a
  /// generated corpus program). Kept for readers of older stats.
  size_t HoistedAllocs = 0;
  size_t ExpandPasses = 0; ///< phases that ran an inline/flatten plan
  /// Arena payload bytes before/after the optimizer ran; the difference is
  /// the allocation churn this compile's optimization cost.
  size_t ArenaBytesBefore = 0;
  size_t ArenaBytesAfter = 0;
  /// Audit mode (setCpsOptAudit): per-variable mismatches between the
  /// incrementally maintained census and a recount.
  size_t CensusAuditFailures = 0;
  /// The optimizer was still contracting when it reached the safety
  /// ceiling. The driver turns this into a compile error — contraction
  /// rules provably shrink, so this is a rule bug, not a program property.
  bool HitSafetyCeiling = false;
};

/// Optimizes a CPS program in place (functionally: returns the new root).
/// \p MaxVar is the exclusive upper bound of variable ids, updated as the
/// optimizer introduces fresh variables.
Cexp *optimizeCps(Arena &A, const CompilerOptions &Opts, Cexp *Program,
                  CVar &MaxVar, CpsOptStats &Stats);

/// Process-wide totals accumulated across every optimizeCps run, for the
/// observability metrics registry.
struct CpsOptTotals {
  std::atomic<uint64_t> Runs{0};
  std::atomic<uint64_t> DeadRemoved{0};
  std::atomic<uint64_t> SelectsFolded{0};
  std::atomic<uint64_t> RecordsCopyEliminated{0};
  std::atomic<uint64_t> FloatBoxesReused{0};
  std::atomic<uint64_t> BranchesFolded{0};
  std::atomic<uint64_t> ConstantsFolded{0};
  std::atomic<uint64_t> InlinedOnce{0};
  std::atomic<uint64_t> InlinedSmall{0};
  std::atomic<uint64_t> EtaConts{0};
  std::atomic<uint64_t> KnownFnsFlattened{0};
  std::atomic<uint64_t> EtaFuns{0};
  std::atomic<uint64_t> WrapCancelChains{0};
  std::atomic<uint64_t> WrapCancelLoopCarried{0};
  std::atomic<uint64_t> Rounds{0};
  std::atomic<uint64_t> ExpandPasses{0};
  std::atomic<uint64_t> ArenaBytes{0};
  std::atomic<uint64_t> SafetyCeilingHits{0};
};

CpsOptTotals &cpsOptTotals();

/// Registers smltcc_cps_opt_* counters over cpsOptTotals() in \p R.
void registerCpsOptMetrics(obs::Registry &R);

/// Test hook: when enabled, the optimizer recounts the census from
/// scratch after every sweep phase and records mismatches in
/// CpsOptStats::CensusAuditFailures. Off by default (it is quadratic).
void setCpsOptAudit(bool Enabled);

} // namespace smltc

#endif // SMLTC_CPS_CPSOPT_H
