//===- bench/opt_throughput.cpp - CPS-optimizer fixpoint gate -------------------===//
//
// Gates the shrink engine's claim: linear shrinking to a true normal
// form (with eta and wrap/unwrap cancellation breadth) produces strictly
// better programs than the rounds engine, at compile-time cost that
// beats the census+rebuild rounds engine.
//
// Over the full Figure 7/8 compile matrix (12 benchmarks x 6 variants =
// 72 jobs), each job is compiled under the rounds oracle and the
// fixpoint shrink engine:
//
//   1. semantic identity: same result, same printed output, same trap
//      state, same store-barrier count. The shrink engine may reshape
//      the program, never its observables.
//   2. ratchet: per row, shrink's dynamic instruction count never
//      exceeds rounds'. No row regresses.
//   3. convergence: no row stops at a phase cap or the safety ceiling.
//   4. throughput: best-of-N cps_opt phase seconds per engine; the gate
//      is geomean(rounds / shrink) >= 1.5x.
//   5. instruction wins: geomean dynamic-instruction reduction >= 1% over
//      the affected rows (any nonzero delta) and >= 3% over the
//      materially affected rows (reduction >= 1%). The full-corpus
//      geomean is reported unfiltered for context — most rows were
//      already at normal form under the bounded cadence, so gating on
//      it would only reward noise.
//
// Each row also carries a per-rule ablation: two extra shrink compiles,
// one per --cps-opt-disable bit, recording how many dynamic instructions
// return when that rule is turned off.
//
// Results land in BENCH_opt.json.
//
// Usage: opt_throughput [--smoke] [--iters=N] [--out=PATH]
//   --smoke   2 timing iterations instead of 5 (CI); all gates still apply
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "obs/Json.h"

#include <cstring>

using namespace smltc;
using namespace smltc::bench;

namespace {

struct EngineRun {
  bool Ok = false;
  double BestOptSec = 0;
  uint64_t ArenaBytes = 0; ///< optimizer arena churn, last compile
  CpsOptStats Opt;
  Measurement M; ///< VM run of the last compile
};

EngineRun timeEngine(const BenchmarkProgram &P, CompilerOptions Opts,
                     CpsOptEngine Engine, int Iters) {
  Opts.CpsOpt = Engine;
  EngineRun R;
  for (int I = 0; I < Iters; ++I) {
    CompileOutput C = Compiler::compile(P.Source, Opts);
    if (!C.Ok) {
      std::fprintf(stderr, "compile failed (%s %s): %s\n", P.Name,
                   Opts.VariantName, C.Errors.c_str());
      return R;
    }
    double S = C.Metrics.CpsOptSec;
    if (R.BestOptSec == 0 || S < R.BestOptSec)
      R.BestOptSec = S;
    if (I + 1 == Iters) {
      R.ArenaBytes = C.Metrics.Opt.ArenaBytesAfter < C.Metrics.Opt.ArenaBytesBefore
                         ? 0
                         : C.Metrics.Opt.ArenaBytesAfter -
                               C.Metrics.Opt.ArenaBytesBefore;
      R.Opt = C.Metrics.Opt;
      R.M = runCompiled(C, Opts, P.Name);
      R.Ok = R.M.Ok;
    }
  }
  return R;
}

struct Ablation {
  const char *Name;
  uint8_t Bit;
};

constexpr Ablation kAblations[] = {
    {"eta", kCpsRuleEta},
    {"wrapcancel", kCpsRuleWrapCancel},
};
constexpr size_t kNumAblations = sizeof(kAblations) / sizeof(kAblations[0]);

/// Dynamic instruction count with one shrink rule disabled; 0 on failure.
uint64_t ablatedInstructions(const BenchmarkProgram &P, CompilerOptions Opts,
                             uint8_t DisableBit) {
  Opts.CpsOpt = CpsOptEngine::Shrink;
  Opts.CpsOptDisable = DisableBit;
  CompileOutput C = Compiler::compile(P.Source, Opts);
  if (!C.Ok)
    return 0;
  Measurement M = runCompiled(C, Opts, P.Name);
  return M.Ok ? M.Instructions : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  int Iters = 5;
  std::string OutPath = "BENCH_opt.json";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;
    else if (std::strncmp(Argv[I], "--iters=", 8) == 0)
      Iters = std::atoi(Argv[I] + 8);
    else if (std::strncmp(Argv[I], "--out=", 6) == 0)
      OutPath = Argv[I] + 6;
  }
  if (Smoke)
    Iters = 2;
  if (Iters < 1)
    Iters = 1;

  size_t NumVariants = 0;
  const CompilerOptions *Variants = CompilerOptions::allVariants(NumVariants);
  size_t NumJobs = benchmarkCorpus().size() * NumVariants;
  std::printf("opt_throughput: %zu jobs, best of %d compile%s per engine%s\n\n",
              NumJobs, Iters, Iters == 1 ? "" : "s", Smoke ? " [smoke]" : "");
  std::printf("%-10s %-8s %12s %12s %8s %9s  %s\n", "bench", "variant",
              "rounds(us)", "shrink(us)", "ratio", "instr-d%", "semantic");

  bool AllIdentical = true;
  bool AllOk = true;
  bool AnyRegressed = false;
  bool AnyCapped = false;
  std::vector<double> SpeedRatios;
  // Dynamic-instruction ratios rounds/shrink (>= 1 means shrink won).
  std::vector<double> InstrAll, InstrAffected, InstrMaterial;
  double RoundsTotal = 0, ShrinkTotal = 0;
  uint64_t RoundsArena = 0, ShrinkArena = 0;
  uint64_t RuleDeltaTotals[kNumAblations] = {};

  obs::JsonWriter W;
  W.beginObject();
  W.field("bench", "opt_throughput");
  W.field("iterations", Iters);
  W.field("smoke", Smoke);
  W.field("jobs", static_cast<uint64_t>(NumJobs));
  W.key("rows").beginArray();

  for (const BenchmarkProgram &P : benchmarkCorpus()) {
    for (size_t V = 0; V < NumVariants; ++V) {
      EngineRun RR = timeEngine(P, Variants[V], CpsOptEngine::Rounds, Iters);
      EngineRun SR = timeEngine(P, Variants[V], CpsOptEngine::Shrink, Iters);
      if (!RR.Ok || !SR.Ok) {
        AllOk = false;
        continue;
      }
      bool Identical = RR.M.Result == SR.M.Result &&
                       RR.M.Output == SR.M.Output &&
                       RR.M.Trapped == SR.M.Trapped &&
                       RR.M.BarrierStores == SR.M.BarrierStores &&
                       RR.M.Result == P.ExpectedResult;
      AllIdentical = AllIdentical && Identical;
      if (SR.M.Instructions > RR.M.Instructions)
        AnyRegressed = true;
      if (SR.Opt.HitRoundCap || SR.Opt.HitSafetyCeiling)
        AnyCapped = true;
      double Ratio = SR.BestOptSec > 0 ? RR.BestOptSec / SR.BestOptSec : 1.0;
      SpeedRatios.push_back(Ratio);
      double InstrRatio = SR.M.Instructions > 0
                              ? static_cast<double>(RR.M.Instructions) /
                                    static_cast<double>(SR.M.Instructions)
                              : 1.0;
      double ReductionPct = (1.0 - 1.0 / InstrRatio) * 100.0;
      InstrAll.push_back(InstrRatio);
      if (SR.M.Instructions != RR.M.Instructions)
        InstrAffected.push_back(InstrRatio);
      if (ReductionPct >= 1.0)
        InstrMaterial.push_back(InstrRatio);
      RoundsTotal += RR.BestOptSec;
      ShrinkTotal += SR.BestOptSec;
      RoundsArena += RR.ArenaBytes;
      ShrinkArena += SR.ArenaBytes;
      std::printf("%-10s %-8s %12.1f %12.1f %7.2fx %8.3f%%  %s\n", P.Name,
                  Variants[V].VariantName, RR.BestOptSec * 1e6,
                  SR.BestOptSec * 1e6, Ratio, ReductionPct,
                  Identical ? "yes" : "NO");
      W.beginObject();
      W.field("bench", P.Name);
      W.field("variant", Variants[V].VariantName);
      W.field("rounds_opt_us", RR.BestOptSec * 1e6, 2);
      W.field("shrink_opt_us", SR.BestOptSec * 1e6, 2);
      W.field("ratio", Ratio, 3);
      W.field("semantic_identical", Identical);
      W.field("rounds_instructions", RR.M.Instructions);
      W.field("shrink_instructions", SR.M.Instructions);
      W.field("instr_reduction_pct", ReductionPct, 4);
      W.field("barrier_stores", SR.M.BarrierStores);
      W.field("rounds_arena_bytes", RR.ArenaBytes);
      W.field("shrink_arena_bytes", SR.ArenaBytes);
      W.field("shrink_phases", static_cast<uint64_t>(SR.Opt.WorklistPasses));
      W.field("shrink_expand_phases",
              static_cast<uint64_t>(SR.Opt.ExpandPasses));
      W.field("rounds_rounds", static_cast<uint64_t>(RR.Opt.Rounds));
      W.field("eta_funs", static_cast<uint64_t>(SR.Opt.EtaFuns));
      W.field("wrap_cancel_chains",
              static_cast<uint64_t>(SR.Opt.WrapCancelChains));
      // Per-rule ablation: dynamic instructions that come back when each
      // shrink rule is disabled alone (0 delta = rule did not matter for
      // this row).
      W.key("ablation").beginObject();
      for (size_t A = 0; A < kNumAblations; ++A) {
        uint64_t AblInstr =
            ablatedInstructions(P, Variants[V], kAblations[A].Bit);
        uint64_t Delta =
            AblInstr > SR.M.Instructions ? AblInstr - SR.M.Instructions : 0;
        RuleDeltaTotals[A] += Delta;
        W.field(kAblations[A].Name, Delta);
      }
      W.endObject();
      W.endObject();
    }
  }
  W.endArray();

  double Geomean = geomean(SpeedRatios);
  double GeoAll = InstrAll.empty() ? 1.0 : geomean(InstrAll);
  double GeoAffected = InstrAffected.empty() ? 1.0 : geomean(InstrAffected);
  double GeoMaterial = InstrMaterial.empty() ? 1.0 : geomean(InstrMaterial);
  auto Pct = [](double G) { return (1.0 - 1.0 / G) * 100.0; };
  double ArenaRatio =
      ShrinkArena > 0 ? static_cast<double>(RoundsArena) / ShrinkArena : 0;
  std::printf("\ncps_opt totals:  rounds %.2f ms, shrink %.2f ms\n",
              RoundsTotal * 1e3, ShrinkTotal * 1e3);
  std::printf("arena churn:     rounds %.1f MiB, shrink %.1f MiB (%.1fx)\n",
              RoundsArena / 1048576.0, ShrinkArena / 1048576.0, ArenaRatio);
  std::printf("geomean speedup: %.2fx (gate: >= 1.5x)\n", Geomean);
  std::printf("instr reduction: %.3f%% full corpus, %.3f%% over %zu affected "
              "rows (gate: >= 1%%), %.3f%% over %zu materially affected rows "
              "(gate: >= 3%%)\n",
              Pct(GeoAll), Pct(GeoAffected), InstrAffected.size(),
              Pct(GeoMaterial), InstrMaterial.size());
  std::printf("rule ablation:   eta +%llu, wrapcancel +%llu instructions "
              "when disabled\n",
              (unsigned long long)RuleDeltaTotals[0],
              (unsigned long long)RuleDeltaTotals[1]);
  std::printf("semantic identity: %s;  per-row ratchet: %s;  convergence: "
              "%s\n\n",
              AllIdentical ? "ok" : "FAILED",
              AnyRegressed ? "FAILED" : "ok", AnyCapped ? "FAILED" : "ok");

  W.field("rounds_total_sec", RoundsTotal, 6);
  W.field("shrink_total_sec", ShrinkTotal, 6);
  W.field("rounds_arena_bytes_total", RoundsArena);
  W.field("shrink_arena_bytes_total", ShrinkArena);
  W.field("geomean_speedup", Geomean, 3);
  W.field("gate_speedup", 1.5, 1);
  W.field("instr_reduction_pct_full", Pct(GeoAll), 4);
  W.field("instr_reduction_pct_affected", Pct(GeoAffected), 4);
  W.field("instr_reduction_pct_material", Pct(GeoMaterial), 4);
  W.field("affected_rows", static_cast<uint64_t>(InstrAffected.size()));
  W.field("material_rows", static_cast<uint64_t>(InstrMaterial.size()));
  W.field("gate_reduction_affected_pct", 1.0, 1);
  W.field("gate_reduction_material_pct", 3.0, 1);
  W.key("ablation_totals").beginObject();
  for (size_t A = 0; A < kNumAblations; ++A)
    W.field(kAblations[A].Name, RuleDeltaTotals[A]);
  W.endObject();
  W.field("all_identical", AllIdentical);
  W.field("any_row_regressed", AnyRegressed);
  W.field("any_row_capped", AnyCapped);
  W.endObject();

  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  bool Wrote = false;
  if (Out) {
    std::fprintf(Out, "%s\n", W.str().c_str());
    std::fclose(Out);
    Wrote = true;
    std::printf("wrote %s\n", OutPath.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
  }

  bool Ok = Wrote && AllOk && !SpeedRatios.empty();
  if (!AllIdentical) {
    std::fprintf(stderr, "FAIL: engines disagree on VM observables\n");
    Ok = false;
  }
  if (AnyRegressed) {
    std::fprintf(stderr,
                 "FAIL: some row executes more instructions under shrink\n");
    Ok = false;
  }
  if (AnyCapped) {
    std::fprintf(stderr, "FAIL: some row hit a phase cap or the ceiling\n");
    Ok = false;
  }
  if (Geomean < 1.5) {
    std::fprintf(stderr, "FAIL: geomean cps_opt speedup %.2fx < 1.5x\n",
                 Geomean);
    Ok = false;
  }
  if (Pct(GeoAffected) < 1.0) {
    std::fprintf(stderr,
                 "FAIL: geomean reduction over affected rows %.3f%% < 1%%\n",
                 Pct(GeoAffected));
    Ok = false;
  }
  if (InstrMaterial.empty() || Pct(GeoMaterial) < 3.0) {
    std::fprintf(
        stderr,
        "FAIL: geomean reduction over materially affected rows %.3f%% < 3%%\n",
        Pct(GeoMaterial));
    Ok = false;
  }
  return Ok ? 0 : 1;
}
