//===- ledger/workloads.h - The four benchmark workloads ---------------------===//
//
//   compile  one caller compiles the 72 (program, variant) jobs with
//            Compiler::compile, no cache
//   run      one caller runs the 72 compiled programs on the default VM
//   native   one caller runs the 12 sml.ffb programs through
//            native::executeNative with their modules loaded
//   farm     two callers send compile requests over loopback TCP through
//            a router to two in-process shards; ~80% repeat a warmed job
//
//===----------------------------------------------------------------------===//

#ifndef SMLTC_LEDGER_WORKLOADS_H
#define SMLTC_LEDGER_WORKLOADS_H

#include <cstdint>
#include <string>

namespace ledger {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir = ".";
};

bool knownWorkload(const std::string &Name);

/// Runs one workload and prints its report; the last stdout line is the
/// JSON result. Returns the process exit code.
int runWorkload(const RunOptions &O);

/// Child-process mode: performs one workload's set-up in this fresh
/// process and prints "probe <normalised seconds> <raw seconds>".
int probeSetup(const RunOptions &O);

/// Prints a digest of the job order and farm request stream for a seed.
int printPlan(uint64_t Seed);

/// Compiles all 72 jobs with Compiler::compile and the traced replica
/// and reports whether every program is byte-identical.
int checkReplica();

} // namespace ledger

#endif // SMLTC_LEDGER_WORKLOADS_H
