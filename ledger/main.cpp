//===- ledger/main.cpp - The layer-ledger benchmark entry point -------------===//
//
// Usage:
//   ledger --workload compile|run|native|farm --seed N --seconds S
//          --trace 0|1 [--out-dir DIR]
//   ledger --plan N          digest of the job order and farm stream
//   ledger --check-replica   traced replica vs Compiler::compile, 72 jobs
//
// `ledger/run.py` builds this binary and forwards its arguments.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <string>

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ledger --workload compile|run|native|farm --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n"
               "       ledger --plan N | --check-replica\n");
  return 64;
}

bool parseNumber(const char *S, double &Out) {
  char *End = nullptr;
  Out = std::strtod(S, &End);
  return End != S && *End == '\0';
}

} // namespace

int main(int Argc, char **Argv) {
  ledger::RunOptions O;
  std::string Probe;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--check-replica")
      return ledger::checkReplica();
    if (I + 1 >= Argc)
      return usage();
    const char *V = Argv[++I];
    double N = 0;
    if (A == "--workload") {
      O.Workload = V;
      HaveWorkload = true;
    } else if (A == "--probe") {
      Probe = V;
    } else if (A == "--out-dir") {
      O.OutDir = V;
    } else if (A == "--plan" && parseNumber(V, N) && N >= 0) {
      return ledger::printPlan(static_cast<uint64_t>(N));
    } else if (A == "--seed" && parseNumber(V, N) && N >= 0) {
      O.Seed = static_cast<uint64_t>(N);
    } else if (A == "--seconds" && parseNumber(V, N) && N > 0) {
      O.Seconds = N;
    } else if (A == "--trace" && (std::string(V) == "0" ||
                                  std::string(V) == "1")) {
      O.Trace = V[0] == '1';
    } else {
      return usage();
    }
  }
  if (!Probe.empty()) {
    O.Workload = Probe;
    return ledger::knownWorkload(Probe) ? ledger::probeSetup(O) : usage();
  }
  if (!HaveWorkload || !ledger::knownWorkload(O.Workload))
    return usage();
  return ledger::runWorkload(O);
}
