//===- examples/compare_variants.cpp - The paper's experiment in miniature --------===//
//
// Compiles one floating-point kernel under all six measured compilers and
// prints the execution-time / allocation comparison — the same experiment
// as the paper's Section 6, on a single program.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"

#include <cstdio>

using namespace smltc;

int main() {
  const char *Kernel = R"ML(
    (* Leapfrog integration of a 2-body orbit: float tuples flow through
       function arguments, records, and a list of trajectory samples. *)
    fun step ((px : real, py : real), (vx : real, vy : real), dt) =
      let val r2 = px * px + py * py
          val r = sqrt r2
          val ax = 0.0 - px / (r2 * r)
          val ay = 0.0 - py / (r2 * r)
          val vx2 = vx + dt * ax
          val vy2 = vy + dt * ay
      in ((px + dt * vx2, py + dt * vy2), (vx2, vy2)) end

    fun orbit (p, v, 0, samples) = (p, samples)
      | orbit (p, v, n, samples) =
          let val (p2, v2) = step (p, v, 0.01)
          in orbit (p2, v2, n - 1,
                    if n mod 100 = 0 then p2 :: samples else samples)
          end

    fun main () =
      let val ((x, y), samples) =
            orbit ((1.0, 0.0), (0.0, 1.0), 3000, nil)
          val spread = foldl (fn ((sx, sy), a : real) =>
                                a + sx * sx + sy * sy) 0.0 samples
      in floor (x * 100.0) + floor (y * 100.0) + floor spread end
  )ML";

  size_t N;
  const CompilerOptions *Vs = CompilerOptions::allVariants(N);
  std::printf("%-10s  %12s  %14s  %10s  %8s\n", "compiler", "cycles",
              "heap words", "code size", "result");
  uint64_t Base = 0;
  for (size_t I = 0; I < N; ++I) {
    CompileOutput C = Compiler::compile(Kernel, Vs[I]);
    if (!C.Ok) {
      std::fprintf(stderr, "%s failed: %s\n", Vs[I].VariantName,
                   C.Errors.c_str());
      return 1;
    }
    ExecResult R = execute(C.Program, VmOptions());
    if (!R.Ok) {
      std::fprintf(stderr, "%s trap: %s\n", Vs[I].VariantName,
                   R.TrapMessage.c_str());
      return 1;
    }
    if (I == 0)
      Base = R.Cycles;
    std::printf("%-10s  %12llu  %14llu  %10zu  %8lld   (%.2fx)\n",
                Vs[I].VariantName,
                static_cast<unsigned long long>(R.Cycles),
                static_cast<unsigned long long>(R.AllocWords32),
                C.Metrics.CodeSize, static_cast<long long>(R.Result),
                static_cast<double>(R.Cycles) / Base);
  }
  return 0;
}
