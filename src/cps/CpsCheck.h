//===- cps/CpsCheck.h - CPS well-formedness checking ----------------------------===//
///
/// \file
/// Verifies CPS invariants between phases: every variable is used only in
/// the scope of its binder, binders are unique, and applications have
/// consistent shapes.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_CPS_CPSCHECK_H
#define SMLTC_CPS_CPSCHECK_H

#include "cps/Cps.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace smltc {

struct CpsCheckResult {
  bool Ok = true;
  std::string Error;
  size_t NodesChecked = 0;
};

CpsCheckResult checkCps(const Cexp *Program);

/// The census half of the checker: recounts every value occurrence and
/// App-head occurrence in \p Program and compares against the caller's
/// maintained per-variable tables. \p Resolve (optional) maps each
/// occurrence through the caller's pending substitution before counting,
/// so an incremental census that describes the virtual (substituted)
/// tree can be verified against the physical one. Variables at or above
/// the table sizes are ignored. Fails on the first mismatch.
CpsCheckResult
checkCpsCensus(const Cexp *Program, const std::vector<int32_t> &UseCounts,
               const std::vector<int32_t> &CallCounts,
               const std::function<CValue(CValue)> &Resolve = nullptr);

} // namespace smltc

#endif // SMLTC_CPS_CPSCHECK_H
