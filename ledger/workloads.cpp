//===- ledger/workloads.cpp - The four benchmark workloads -------------------===//

#include "workloads.h"

#include "replica.h"
#include "support.h"

#include "corpus/Corpus.h"
#include "driver/CompileCache.h"
#include "driver/Compiler.h"
#include "driver/PreludeSnapshot.h"
#include "farm/Net.h"
#include "farm/Router.h"
#include "native/NativeBackend.h"
#include "native/NativeEmit.h"
#include "server/Client.h"
#include "server/Server.h"
#include "vm/Vm.h"

#include <atomic>
#include <algorithm>
#include <barrier>
#include <condition_variable>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>

using namespace smltc;

namespace ledger {
namespace {

/// Operations per caller between two reference slices.
constexpr size_t kSlice = 6;
/// Farm requests per caller between two reference slices: two blocks of
/// five, each with exactly one miss.
constexpr size_t kFarmSlice = 10;
constexpr size_t kMissEvery = 5;
constexpr int kFarmClients = 2;
/// The farm's resident set grows with every miss it caches, so it is
/// read when this many requests have completed, not at the window's end.
constexpr uint64_t kFarmRssOps = 1000;

//===----------------------------------------------------------------------===//
// Jobs, rows and the run context
//===----------------------------------------------------------------------===//

struct Job {
  const BenchmarkProgram *Prog;
  CompilerOptions Opts;
};

/// The 12 x 6 matrix in Figure 7 order, or only its 12 sml.ffb rows.
std::vector<Job> corpusJobs(bool FfbOnly) {
  size_t NV = 0;
  const CompilerOptions *V = CompilerOptions::allVariants(NV);
  std::vector<Job> Jobs;
  for (const BenchmarkProgram &B : benchmarkCorpus())
    for (size_t I = 0; I < NV; ++I)
      if (!FfbOnly || std::strcmp(V[I].VariantName, "sml.ffb") == 0)
        Jobs.push_back({&B, V[I]});
  return Jobs;
}

/// One (program, variant) row of the per-row report.
struct Row {
  std::string Program, Variant;
  uint64_t CodeWords = 0, Instructions = 0, Cycles = 0, HeapWords = 0;
  std::map<std::string, double> LayerMs;
};

struct Ctx {
  const RunOptions &O;
  Clock::time_point Epoch = Clock::now();
  Tracer T;
  uint64_t NextOp = 1;
  uint64_t Attempted = 0, Failed = 0;
  bool ChecksFailed = false;
  std::vector<Row> Rows;
  std::map<std::string, double> Layer; ///< per-layer values set directly

  explicit Ctx(const RunOptions &O) : O(O), T(O.Trace, Epoch) {}

  /// An operation of the timed window failed.
  void failOp(const std::string &Msg) {
    if (++Failed <= 5)
      std::fprintf(stderr, "ledger: %s\n", Msg.c_str());
  }
  /// A set-up or reference check failed: the run is not correct.
  void failCheck(const std::string &Msg) {
    ChecksFailed = true;
    std::fprintf(stderr, "ledger: check failed: %s\n", Msg.c_str());
  }
  Row &rowFor(const Job &J) {
    for (Row &R : Rows)
      if (R.Program == J.Prog->Name && R.Variant == J.Opts.VariantName)
        return R;
    Rows.push_back({J.Prog->Name, J.Opts.VariantName, 0, 0, 0, 0, {}});
    return Rows.back();
  }
};

std::string label(const Job &J) {
  return std::string(J.Prog->Name) + "/" + J.Opts.VariantName;
}

//===----------------------------------------------------------------------===//
// Timing
//===----------------------------------------------------------------------===//

/// The timed window's samples. Each operation belongs to a slice, and
/// each slice has the reference time measured just before it.
struct Window {
  std::vector<double> RawMs;
  std::vector<size_t> OpSlice;
  std::vector<double> RefMs;
  /// Wall time of each slice, for concurrent callers; a single caller's
  /// window is the sum of its operations.
  std::vector<double> SliceWallMs;
  size_t Passes = 0;
  RefKind Kind = RefKind::HashMap;

  std::vector<double> NormMs;
  double RawWindowMs = 0, NormWindowMs = 0;

  /// Scales each operation by nominal / (median of the five references
  /// centred on its slice): the median ignores one disturbed reference
  /// and still follows the host within a fraction of a second.
  void normalise(RefKind K) {
    Kind = K;
    std::vector<double> Factor(RefMs.size(), 1.0);
    for (size_t S = 0; S < RefMs.size(); ++S) {
      size_t Lo = S >= 2 ? S - 2 : 0, Hi = std::min(S + 3, RefMs.size());
      Factor[S] = nominalMs(K) / median(std::vector<double>(
                                     RefMs.begin() + static_cast<long>(Lo),
                                     RefMs.begin() + static_cast<long>(Hi)));
    }
    NormMs.clear();
    RawWindowMs = NormWindowMs = 0;
    for (size_t I = 0; I < RawMs.size(); ++I)
      NormMs.push_back(RawMs[I] * Factor[OpSlice[I]]);
    if (SliceWallMs.empty()) {
      for (size_t I = 0; I < RawMs.size(); ++I) {
        RawWindowMs += RawMs[I];
        NormWindowMs += NormMs[I];
      }
    } else {
      for (size_t S = 0; S < SliceWallMs.size(); ++S) {
        RawWindowMs += SliceWallMs[S];
        NormWindowMs += SliceWallMs[S] * Factor[S];
      }
    }
  }

};

/// One caller, closed loop: whole seeded passes over N items until the
/// window's seconds are spent (the pass under way finishes). \p Op runs
/// one operation and returns the wall ms of the measured call.
template <class OpFn>
Window closedLoop(Ctx &C, size_t N, RefKind K, OpFn Op) {
  Window W;
  Rng R(C.O.Seed);
  const auto Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(C.O.Seconds));
  size_t InSlice = kSlice;
  while (Clock::now() < Deadline) {
    for (size_t Item : permutation(N, R)) {
      if (InSlice == kSlice) {
        W.RefMs.push_back(referenceMs(K));
        InSlice = 0;
      }
      ++InSlice;
      C.T.setOp(C.NextOp++);
      ++C.Attempted;
      W.RawMs.push_back(Op(Item));
      W.OpSlice.push_back(W.RefMs.size() - 1);
    }
    ++W.Passes;
  }
  W.normalise(K);
  return W;
}

struct SetupTime {
  double RawS = 0, NormS = 0;
};

/// Times one set-up, scaled by the hash-map reference (set-ups compile,
/// or run cc) taken before, after, and every quarter second during it.
template <class Fn> SetupTime timeSetup(Fn Setup) {
  const RefKind K = RefKind::HashMap;
  std::vector<double> Refs;
  for (int I = 0; I < 3; ++I)
    Refs.push_back(referenceMs(K));
  std::mutex Mu;
  std::condition_variable Cv;
  bool Done = false; // guarded by Mu
  std::vector<double> During;
  std::thread Sampler([&] {
    std::unique_lock<std::mutex> Lock(Mu);
    while (!Cv.wait_for(Lock, std::chrono::milliseconds(250),
                        [&] { return Done; })) {
      Lock.unlock();
      double Ms = referenceMs(K);
      Lock.lock();
      During.push_back(Ms);
    }
  });
  auto T0 = Clock::now();
  Setup();
  double Raw = msSince(T0) / 1000.0;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Done = true;
  }
  Cv.notify_all();
  Sampler.join();
  Refs.insert(Refs.end(), During.begin(), During.end());
  for (int I = 0; I < 3; ++I)
    Refs.push_back(referenceMs(K));
  return {Raw, Raw * nominalMs(K) / median(Refs)};
}

//===----------------------------------------------------------------------===//
// Compiling and running, with their checks
//===----------------------------------------------------------------------===//

double snapshotMs() {
  auto T0 = Clock::now();
  (void)PreludeSnapshot::get();
  return msSince(T0);
}

/// Compiler::compile on every job; false on a compile error.
bool compileAll(const std::vector<Job> &Jobs, std::vector<CompileOutput> &Out,
                std::vector<double> &WallMs) {
  Out.clear();
  WallMs.clear();
  for (const Job &J : Jobs) {
    auto T0 = Clock::now();
    Out.push_back(Compiler::compile(J.Prog->Source, J.Opts));
    WallMs.push_back(msSince(T0));
    if (!Out.back().Ok) {
      std::fprintf(stderr, "ledger: %s does not compile: %s\n",
                   label(J).c_str(), Out.back().Errors.c_str());
      return false;
    }
  }
  return true;
}

/// The VM layers of one `execute` call that took \p WallMs.
void recordVmValues(Tracer &T, const VmMetrics &M, double WallMs) {
  T.value("vm.decode", M.DecodeSec * 1000);
  T.value("vm.vm_run", (M.ExecSec - M.GcSec) * 1000);
  T.value("vm.gc", M.GcSec * 1000);
  T.value("vm.heap_setup", WallMs - (M.DecodeSec + M.ExecSec) * 1000);
}

/// Runs one compiled program on the VM, checks its checksum, and fills
/// the row's execution counts. In traced runs the VM layers are recorded
/// and the pass's GC counts summed.
ExecResult runChecked(Ctx &C, const Job &J, const TmProgram &P) {
  C.T.setOp(C.NextOp++);
  auto T0 = Clock::now();
  ExecResult R;
  {
    SpanScope S(C.T, "vm.execute");
    R = execute(P, VmOptions());
  }
  double Ms = msSince(T0);
  if (!R.Ok || R.Result != J.Prog->ExpectedResult)
    C.failCheck(label(J) + " returned " + std::to_string(R.Result) +
                ", expected " + std::to_string(J.Prog->ExpectedResult));
  Row &Rw = C.rowFor(J);
  Rw.CodeWords = P.codeSize();
  Rw.Instructions = R.Instructions;
  Rw.Cycles = R.Cycles;
  Rw.HeapWords = R.AllocWords32;
  if (C.O.Trace) {
    recordVmValues(C.T, R.Metrics, Ms);
    C.Layer["vm.minor_gcs"] += static_cast<double>(R.Metrics.MinorCollections);
    C.Layer["vm.major_gcs"] += static_cast<double>(R.Metrics.MajorCollections);
    C.Layer["vm.copied_words"] += static_cast<double>(R.Metrics.CopiedWords);
    C.Layer["vm.barrier_stores"] +=
        static_cast<double>(R.Metrics.BarrierStores);
  }
  return R;
}

void fillRowPhases(Row &Rw, const CompileMetrics &M) {
  Rw.LayerMs = {{"ast.parse", M.ParseSec * 1000},
                {"elab.elaborate", M.ElabSec * 1000},
                {"elab.mtd", M.MtdSec * 1000},
                {"lexp.translate", M.TranslateSec * 1000},
                {"cps.cps_convert", M.CpsConvertSec * 1000},
                {"cps.cps_opt", M.CpsOptSec * 1000},
                {"closure.closure", M.ClosureSec * 1000},
                {"codegen.codegen", M.CodegenSec * 1000}};
}

size_t contractions(const CpsOptStats &S) {
  // CensusFlattened is also in KnownFnsFlattened and
  // WrapCancelLoopCarried is a subset of WrapCancelChains.
  return S.DeadRemoved + S.SelectsFolded + S.RecordsCopyEliminated +
         S.FloatBoxesReused + S.BranchesFolded + S.ConstantsFolded +
         S.InlinedOnce + S.InlinedSmall + S.EtaConts + S.KnownFnsFlattened +
         S.EtaFuns + S.WrapCancelChains + S.HoistedAllocs;
}

/// Compiles one job through the traced replica on the big-stack thread,
/// checks its bytes against \p Expected, and returns the time spent
/// inside the layer spans. \p CountPass adds the job's layer outputs to
/// the per-pass counts.
double traceCompile(Ctx &C, BigStackThread &Big, const Job &J,
                    const std::string &Expected, bool CountPass) {
  const size_t First = C.T.spans().size();
  CompileOutput Rep;
  Big.run([&] { Rep = compileTraced(J.Prog->Source, J.Opts, C.T); });
  if (!Rep.Ok || programBytes(Rep.Program) != Expected)
    C.failCheck(label(J) + ": replica differs from Compiler::compile");
  double LayerMs = 0;
  std::map<std::string, double> PerLayer;
  for (size_t I = First; I < C.T.spans().size(); ++I) {
    const SpanRec &S = C.T.spans()[I];
    if (std::strcmp(S.Name, "driver.compile") == 0)
      continue;
    LayerMs += S.EndMs - S.StartMs;
    PerLayer[S.Name] += S.EndMs - S.StartMs;
  }
  C.rowFor(J).LayerMs = PerLayer;
  if (CountPass) {
    const CompileMetrics &M = Rep.Metrics;
    C.Layer["lexp.nodes"] += static_cast<double>(M.LexpNodes);
    C.Layer["coerce_hits"] += static_cast<double>(M.CoerceMemoHits);
    C.Layer["coerce_misses"] += static_cast<double>(M.CoerceMemoMisses);
    C.Layer["cps.nodes_before_opt"] +=
        static_cast<double>(M.CpsNodesBeforeOpt);
    C.Layer["cps.nodes_after_opt"] += static_cast<double>(M.CpsNodesAfterOpt);
    C.Layer["cps.opt_phases"] += M.Opt.Rounds;
    C.Layer["cps.opt_contractions"] += static_cast<double>(contractions(M.Opt));
    C.Layer["cps.opt_arena_bytes"] +=
        static_cast<double>(M.Opt.ArenaBytesAfter - M.Opt.ArenaBytesBefore);
    C.Layer["closure.closures_built"] += static_cast<double>(M.ClosuresBuilt);
  }
  return LayerMs;
}

/// Traced runs of the run, native and farm workloads: every distinct job
/// once through the replica, with the driver layer's residual taken against
/// the Compiler::compile wall time measured for the same job.
void traceDistinctCompiles(Ctx &C, const std::vector<Job> &Jobs,
                           const std::vector<std::string> &Expected,
                           const std::vector<double> &CompileWallMs) {
  BigStackThread Big;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    C.T.setOp(C.NextOp++);
    double LayerMs = traceCompile(C, Big, Jobs[I], Expected[I], true);
    C.T.value("driver.compile_other", CompileWallMs[I] - LayerMs);
  }
}

//===----------------------------------------------------------------------===//
// The farm
//===----------------------------------------------------------------------===//

/// The router places each shard on its hash ring by the shard's address,
/// and how evenly the ring splits the keys depends on it: over ephemeral
/// ports the busier shard's share ranged from about half to over 90%.
/// Fixed ports give every run the same split (reported as
/// farm.busiest_shard_share); the ports were not chosen for their split.
constexpr const char *kShardAddrs[2] = {"127.0.0.1:47311", "127.0.0.1:47312"};

/// Two shards with one compile worker each behind one router, all on
/// loopback in this process, default options otherwise.
class Farm {
public:
  Farm() = default;
  ~Farm() { stop(); }
  Farm(const Farm &) = delete;
  Farm &operator=(const Farm &) = delete;

  bool start(std::string &Err) {
    std::vector<std::string> Backends;
    for (int I = 0; I < 2; ++I) {
      server::ServerOptions SO;
      SO.ListenAddr = kShardAddrs[I];
      SO.NumWorkers = 1;
      Shards.push_back(std::make_unique<server::CompileServer>(SO));
      if (!Shards.back()->start(Err)) {
        std::fprintf(stderr,
                     "ledger: %s unavailable (%s); using an ephemeral port, "
                     "so this run's ring split differs\n",
                     kShardAddrs[I], Err.c_str());
        SO.ListenAddr = "127.0.0.1:0";
        Shards.back() = std::make_unique<server::CompileServer>(SO);
        if (!Shards.back()->start(Err))
          return false;
      }
      server::CompileServer *S = Shards.back().get();
      Threads.emplace_back([S] { S->run(); });
      Backends.push_back(S->tcpAddr());
    }
    farm::RouterOptions RO;
    RO.ListenAddr = "127.0.0.1:0";
    RO.Backends = Backends;
    Router = std::make_unique<farm::FarmRouter>(RO);
    if (!Router->start(Err))
      return false;
    farm::FarmRouter *R = Router.get();
    Threads.emplace_back([R] { R->run(); });
    return true;
  }

  void stop() {
    if (Router)
      Router->requestStop();
    for (auto &S : Shards)
      S->requestStop();
    for (std::thread &T : Threads)
      T.join();
    Threads.clear();
  }

  std::string target() const {
    return std::string(farm::kTcpScheme) + Router->tcpAddr();
  }

  /// The busier shard's share of compile requests; read after stop().
  double busiestShare() const {
    double Max = 0, Sum = 0;
    for (const auto &S : Shards) {
      double N = static_cast<double>(S->metrics().CompileRequests);
      Max = std::max(Max, N);
      Sum += N;
    }
    return Sum > 0 ? Max / Sum : 0;
  }

  /// Deepest compile queue any shard saw; read after stop().
  size_t queuePeak() const {
    size_t Peak = 0;
    for (const auto &S : Shards)
      Peak = std::max(Peak, S->metrics().QueueDepthPeak);
    return Peak;
  }

private:
  std::vector<std::unique_ptr<server::CompileServer>> Shards;
  std::unique_ptr<farm::FarmRouter> Router;
  std::vector<std::thread> Threads; ///< joined by stop() before the above die
};

server::CompileRequest requestFor(const Job &J, const std::string &Source) {
  server::CompileRequest Req;
  Req.Source = Source;
  Req.Opts = J.Opts;
  Req.WithPrelude = true;
  return Req;
}

/// Sends every job once so the shards compile and cache it.
bool warmFarm(Farm &F, const std::vector<Job> &Jobs,
              std::vector<TmProgram> &Replies, std::string &Err) {
  server::Client Cl;
  if (!Cl.connect(F.target(), Err))
    return false;
  Replies.clear();
  for (const Job &J : Jobs) {
    server::CompileResponse Resp;
    if (!Cl.compile(requestFor(J, J.Prog->Source), Resp, Err))
      return false;
    if (Resp.St != server::Status::Ok) {
      Err = label(J) + ": farm refused the warm-up request";
      return false;
    }
    Replies.push_back(std::move(Resp.Program));
  }
  return true;
}

/// One caller's seeded request stream. Every block of five requests has
/// exactly one miss (made unique by a trailing comment) at a seeded
/// position; repeats and misses each walk seeded permutations of the
/// jobs, so every seed sends the same mix.
class FarmStream {
public:
  FarmStream(uint64_t Seed, int Client, size_t NumJobs)
      : R(Seed * 0x100000001B3ull + 0xFA53ull + static_cast<uint64_t>(Client)),
        Seed(Seed), Client(Client), NumJobs(NumJobs) {}

  struct Request {
    size_t Job;
    bool Miss;
    std::string Suffix; ///< empty for a repeat
  };

  Request next() {
    if (N % kMissEvery == 0)
      MissSlot = R.below(kMissEvery);
    bool Miss = N % kMissEvery == MissSlot;
    std::vector<size_t> &Order = Miss ? MissOrder : HitOrder;
    size_t &Pos = Miss ? MissPos : HitPos;
    if (Pos == Order.size()) {
      Order = permutation(NumJobs, R);
      Pos = 0;
    }
    Request Rq{Order[Pos++], Miss, ""};
    if (Miss)
      Rq.Suffix = "\n(* ledger miss " + std::to_string(Seed) + "." +
                  std::to_string(Client) + "." + std::to_string(N) + " *)\n";
    ++N;
    return Rq;
  }

private:
  Rng R;
  uint64_t Seed;
  int Client;
  size_t NumJobs;
  std::vector<size_t> HitOrder, MissOrder;
  size_t HitPos = 0, MissPos = 0, MissSlot = 0;
  uint64_t N = 0;
};

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct LayerDef {
  const char *Name;
  const char *Unit;
};

/// Every per-layer metric, in BENCHMARK.json order. A workload reports
/// 0 for a layer it never enters.
const LayerDef kLayerMetrics[] = {
    {"ast.parse_ms", "ms"},
    {"elab.elaborate_ms", "ms"},
    {"elab.mtd_ms", "ms"},
    {"lexp.translate_ms", "ms"},
    {"lexp.check_ms", "ms"},
    {"cps.cps_convert_ms", "ms"},
    {"cps.check_ms", "ms"},
    {"cps.cps_opt_ms", "ms"},
    {"closure.closure_ms", "ms"},
    {"codegen.codegen_ms", "ms"},
    {"driver.compile_other_ms", "ms"},
    {"driver.prelude_snapshot_ms", "ms"},
    {"lexp.nodes", "count"},
    {"lexp.coerce_memo_hit_ratio", "ratio"},
    {"cps.nodes_before_opt", "count"},
    {"cps.nodes_after_opt", "count"},
    {"cps.opt_phases", "count"},
    {"cps.opt_contractions", "count"},
    {"cps.opt_arena_bytes", "bytes"},
    {"closure.closures_built", "count"},
    {"vm.decode_ms", "ms"},
    {"vm.vm_run_ms", "ms"},
    {"vm.gc_ms", "ms"},
    {"vm.heap_setup_ms", "ms"},
    {"vm.minor_gcs", "count"},
    {"vm.major_gcs", "count"},
    {"vm.copied_words", "words"},
    {"vm.barrier_stores", "count"},
    {"native.emit_ms", "ms"},
    {"native.native_run_ms", "ms"},
    {"native.gc_ms", "ms"},
    {"native.host_ms", "ms"},
    {"native.module_hit_ratio", "ratio"},
    {"native.cc_builds", "count"},
    {"native.cc_s", "s"},
    {"farm.rpc_hit_ms", "ms"},
    {"farm.transport_ms", "ms"},
    {"farm.rpc_miss_ms", "ms"},
    {"server.compile_ms", "ms"},
    {"server.queue_peak", "count"},
    {"farm.hit_ratio", "ratio"},
    {"farm.failed", "count"},
    {"farm.busiest_shard_share", "ratio"},
};

std::vector<Metric> layerMetrics(Ctx &C,
                                 const std::vector<const Tracer *> &Tracers) {
  std::map<std::string, std::vector<double>> Samples = layerSamples(Tracers);
  std::map<std::string, double> &L = C.Layer;
  double Hits = L["coerce_hits"], Misses = L["coerce_misses"];
  if (Hits + Misses > 0)
    L["lexp.coerce_memo_hit_ratio"] = Hits / (Hits + Misses);
  std::printf("coercion memo over one pass: hits=%s misses=%s\n",
              num(Hits).c_str(), num(Misses).c_str());
  std::vector<Metric> Out;
  std::printf("per-layer samples:");
  for (const LayerDef &D : kLayerMetrics) {
    std::string Name = D.Name;
    double V = L.count(Name) ? L[Name] : 0;
    if (Name.size() > 3 && Name.compare(Name.size() - 3, 3, "_ms") == 0 &&
        !L.count(Name)) {
      const std::vector<double> &S = Samples[Name.substr(0, Name.size() - 3)];
      V = median(S);
      std::printf(" %s=%zu", D.Name, S.size());
    }
    bool Integer = std::strcmp(D.Unit, "ms") != 0 &&
                   std::strcmp(D.Unit, "ratio") != 0 &&
                   std::strcmp(D.Unit, "s") != 0;
    Out.push_back({Name, V, D.Unit, Integer});
  }
  std::printf("\n");
  return Out;
}

/// Prints the rows, the per-variant geomean ratios, and writes the rows
/// as JSON next to the trace.
void reportRows(const Ctx &C) {
  std::printf("%-8s %-8s %10s %12s %12s %11s  compile layers (ms)\n",
              "program", "variant", "code_words", "instructions", "cycles",
              "heap_words");
  for (const Row &R : C.Rows) {
    std::printf("%-8s %-8s %10llu %12llu %12llu %11llu ", R.Program.c_str(),
                R.Variant.c_str(), (unsigned long long)R.CodeWords,
                (unsigned long long)R.Instructions,
                (unsigned long long)R.Cycles,
                (unsigned long long)R.HeapWords);
    for (const auto &KV : R.LayerMs)
      std::printf(" %s=%.3f", KV.first.c_str(), KV.second);
    std::printf("\n");
  }
  // The paper's Figures 7-8 compare variants program by program; a
  // geomean of per-program ratios shows a shift between variants that
  // leaves the sums unchanged.
  std::map<std::string, const Row *> Base;
  for (const Row &R : C.Rows)
    if (R.Variant == "sml.nrp")
      Base[R.Program] = &R;
  std::map<std::string, std::vector<double>[3]> Logs;
  for (const Row &R : C.Rows) {
    auto It = Base.find(R.Program);
    if (It == Base.end() || R.Variant == "sml.nrp" || !R.Cycles)
      continue;
    const Row &B = *It->second;
    Logs[R.Variant][0].push_back(std::log(double(R.Cycles) / B.Cycles));
    Logs[R.Variant][1].push_back(std::log(double(R.HeapWords) / B.HeapWords));
    Logs[R.Variant][2].push_back(std::log(double(R.CodeWords) / B.CodeWords));
  }
  if (!Logs.empty()) {
    std::printf("geomean over programs, variant / sml.nrp:\n");
    for (auto &KV : Logs) {
      double G[3];
      for (int K = 0; K < 3; ++K) {
        double S = 0;
        for (double X : KV.second[K])
          S += X;
        G[K] = std::exp(S / static_cast<double>(KV.second[K].size()));
      }
      std::printf("  %-8s cycles %.4f  heap_words %.4f  code_words %.4f\n",
                  KV.first.c_str(), G[0], G[1], G[2]);
    }
  }
  std::string Path = C.O.OutDir + "/rows-" + C.O.Workload + "-seed" +
                     std::to_string(C.O.Seed) + "-trace" +
                     (C.O.Trace ? "1" : "0") + ".json";
  if (std::FILE *F = std::fopen(Path.c_str(), "w")) {
    std::fputs("[\n", F);
    for (size_t I = 0; I < C.Rows.size(); ++I) {
      const Row &R = C.Rows[I];
      std::fprintf(F,
                   "%s{\"program\":\"%s\",\"variant\":\"%s\","
                   "\"code_words\":%llu,\"vm_instructions\":%llu,"
                   "\"vm_cycles\":%llu,\"heap_words\":%llu,\"layers_ms\":{",
                   I ? ",\n" : "", R.Program.c_str(), R.Variant.c_str(),
                   (unsigned long long)R.CodeWords,
                   (unsigned long long)R.Instructions,
                   (unsigned long long)R.Cycles,
                   (unsigned long long)R.HeapWords);
      bool First = true;
      for (const auto &KV : R.LayerMs) {
        std::fprintf(F, "%s\"%s\":%s", First ? "" : ",", KV.first.c_str(),
                     num(KV.second).c_str());
        First = false;
      }
      std::fputs("}}", F);
    }
    std::fputs("\n]\n", F);
    std::fclose(F);
  }
}

/// Set-up samples from fresh processes that each perform the workload's
/// set-up once. They run before this process sets up, because the
/// farm's shards bind fixed ports.
std::vector<SetupTime> probeSetups(const Ctx &C, int N) {
  std::vector<SetupTime> Out;
  for (int I = 0; I < N; ++I) {
    std::string Line = runSelf({"--probe", C.O.Workload, "--out-dir",
                                C.O.OutDir, "--seed",
                                std::to_string(C.O.Seed)});
    SetupTime S;
    if (std::sscanf(Line.c_str(), "probe %lf %lf", &S.NormS, &S.RawS) == 2)
      Out.push_back(S);
    else
      std::fprintf(stderr, "ledger: set-up probe failed\n");
  }
  return Out;
}

/// Set-up seconds: the median over this process and the probes.
double setupSeconds(SetupTime Main, const std::vector<SetupTime> &Probes) {
  std::vector<double> Norm = {Main.NormS}, Raw = {Main.RawS};
  for (const SetupTime &S : Probes) {
    Norm.push_back(S.NormS);
    Raw.push_back(S.RawS);
  }
  std::printf("setup samples=%zu raw_s median=%s normalised_s median=%s\n",
              Norm.size(), num(median(Raw)).c_str(),
              num(median(Norm)).c_str());
  return median(Norm);
}

int finish(Ctx &C, const Window &W, double SetupS, double RssMb,
           const std::vector<const Tracer *> &Tracers) {
  uint64_t Code = 0, Instr = 0, Cycles = 0, Heap = 0;
  for (const Row &R : C.Rows) {
    Code += R.CodeWords;
    Instr += R.Instructions;
    Cycles += R.Cycles;
    Heap += R.HeapWords;
  }
  reportRows(C);
  double P50 = percentile(W.NormMs, 0.5), P95 = percentile(W.NormMs, 0.95);
  double Rps = W.NormWindowMs > 0
                   ? static_cast<double>(W.NormMs.size()) /
                         (W.NormWindowMs / 1000.0)
                   : 0;
  std::printf("window: samples=%zu passes=%zu slices=%zu reference=%s "
              "ref_ms p25=%s p50=%s p75=%s\n",
              W.NormMs.size(), W.Passes, W.RefMs.size(),
              refName(W.Kind),
              num(percentile(W.RefMs, 0.25)).c_str(),
              num(percentile(W.RefMs, 0.5)).c_str(),
              num(percentile(W.RefMs, 0.75)).c_str());
  std::printf("raw wall-clock: latency_ms_p50=%s latency_ms_p95=%s "
              "throughput_rps=%s\n",
              num(percentile(W.RawMs, 0.5)).c_str(),
              num(percentile(W.RawMs, 0.95)).c_str(),
              num(W.RawWindowMs > 0 ? static_cast<double>(W.RawMs.size()) /
                                          (W.RawWindowMs / 1000.0)
                                    : 0)
                  .c_str());
  std::printf("%s end-to-end: latency_ms_p50=%s latency_ms_p95=%s "
              "throughput_rps=%s\n",
              C.O.Trace ? "traced" : "untraced", num(P50).c_str(),
              num(P95).c_str(), num(Rps).c_str());

  std::vector<Metric> Metrics;
  if (C.O.Trace) {
    Metrics = layerMetrics(C, Tracers);
    std::string Path = C.O.OutDir + "/trace-" + C.O.Workload + "-seed" +
                       std::to_string(C.O.Seed) + ".json";
    size_t Spans = 0;
    for (const Tracer *T : Tracers)
      Spans += T->spans().size();
    if (writeTrace(Path, Tracers))
      std::printf("trace: %zu spans written to %s\n", Spans, Path.c_str());
  } else {
    Metrics = {{"setup_s", SetupS, "s"},
               {"latency_ms_p50", P50, "ms"},
               {"latency_ms_p95", P95, "ms"},
               {"throughput_rps", Rps, "1/s"},
               {"peak_rss_mb", RssMb, "MiB"},
               {"code_words", double(Code), "words", true},
               {"vm_instructions", double(Instr), "count", true},
               {"vm_cycles", double(Cycles), "cycles", true},
               {"heap_words", double(Heap), "words", true}};
  }
  bool Correct = !C.ChecksFailed && C.Failed == 0 && C.Attempted > 0;
  std::fflush(stderr);
  std::printf("%s\n", resultLine(Correct, C.Attempted, C.Failed, Metrics)
                          .c_str());
  std::fflush(stdout);
  return 0;
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

int runCompile(Ctx &C) {
  const RefKind K = RefKind::HashMap;
  std::vector<Job> Jobs = corpusJobs(false);
  std::vector<SetupTime> Probes = probeSetups(C, 6);
  double SnapMs = 0;
  SetupTime Main = timeSetup([&] { SnapMs = snapshotMs(); });
  C.Layer["driver.prelude_snapshot_ms"] = SnapMs;
  double SetupS = setupSeconds(Main, Probes);

  // Reference: each job's bytes, from a compile whose run matches the
  // corpus checksum.
  std::vector<CompileOutput> Ref;
  std::vector<double> WallMs;
  if (!compileAll(Jobs, Ref, WallMs))
    return 1;
  std::vector<std::string> Expected;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    Expected.push_back(programBytes(Ref[I].Program));
    runChecked(C, Jobs[I], Ref[I].Program);
    if (!C.O.Trace)
      fillRowPhases(C.rowFor(Jobs[I]), Ref[I].Metrics);
  }

  BigStackThread Big;
  std::vector<bool> Counted(Jobs.size(), false);
  Tracer Off(false, C.Epoch);
  std::vector<double> ReplicaTracedMs, ReplicaPlainMs;
  Window W = closedLoop(C, Jobs.size(), K, [&](size_t I) {
    const Job &J = Jobs[I];
    auto T0 = Clock::now();
    CompileOutput Out = Compiler::compile(J.Prog->Source, J.Opts);
    double Ms = msSince(T0);
    if (!Out.Ok || programBytes(Out.Program) != Expected[I])
      C.failOp(label(J) + ": compile output differs from the reference");
    if (C.O.Trace) {
      // The same replica with its tracer off states the overhead; the two
      // take turns going first, so neither gets the warmer caches.
      auto Plain = [&] {
        auto T2 = Clock::now();
        CompileOutput Out;
        Big.run([&] { Out = compileTraced(J.Prog->Source, J.Opts, Off); });
        ReplicaPlainMs.push_back(msSince(T2));
      };
      bool PlainFirst = C.T.op() % 2 == 0;
      if (PlainFirst)
        Plain();
      auto T1 = Clock::now();
      double LayerMs = traceCompile(C, Big, J, Expected[I], !Counted[I]);
      ReplicaTracedMs.push_back(msSince(T1));
      Counted[I] = true;
      C.T.value("driver.compile_other", Ms - LayerMs);
      if (!PlainFirst)
        Plain();
    }
    return Ms;
  });
  if (C.O.Trace)
    std::printf("tracing overhead: replica median %s ms traced vs %s ms "
                "untraced (%+.2f%%)\n",
                num(median(ReplicaTracedMs)).c_str(),
                num(median(ReplicaPlainMs)).c_str(),
                100.0 * (median(ReplicaTracedMs) / median(ReplicaPlainMs) -
                         1.0));
  return finish(C, W, SetupS, peakRssMb(), {&C.T});
}

int runRun(Ctx &C) {
  const RefKind K = RefKind::Memory;
  std::vector<Job> Jobs = corpusJobs(false);
  std::vector<CompileOutput> Progs;
  std::vector<double> WallMs;
  std::vector<SetupTime> Probes = probeSetups(C, 8);
  double SnapMs = 0;
  bool Ok = false;
  SetupTime Main = timeSetup([&] {
    SnapMs = snapshotMs();
    Ok = compileAll(Jobs, Progs, WallMs);
  });
  if (!Ok)
    return 1;
  C.Layer["driver.prelude_snapshot_ms"] = SnapMs;
  double SetupS = setupSeconds(Main, Probes);

  std::vector<std::string> Expected;
  std::vector<ExecResult> Ref;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    Expected.push_back(programBytes(Progs[I].Program));
    Ref.push_back(runChecked(C, Jobs[I], Progs[I].Program));
    if (!C.O.Trace)
      fillRowPhases(C.rowFor(Jobs[I]), Progs[I].Metrics);
  }
  if (C.O.Trace)
    traceDistinctCompiles(C, Jobs, Expected, WallMs);

  Window W = closedLoop(C, Jobs.size(), K, [&](size_t I) {
    auto T0 = Clock::now();
    ExecResult R;
    {
      SpanScope S(C.T, "vm.execute");
      R = execute(Progs[I].Program, VmOptions());
    }
    double Ms = msSince(T0);
    if (!R.Ok || R.Result != Jobs[I].Prog->ExpectedResult ||
        R.Instructions != Ref[I].Instructions || R.Cycles != Ref[I].Cycles ||
        R.AllocWords32 != Ref[I].AllocWords32)
      C.failOp(label(Jobs[I]) + ": run differs from its checked run");
    if (C.O.Trace)
      recordVmValues(C.T, R.Metrics, Ms);
    return Ms;
  });
  return finish(C, W, SetupS, peakRssMb(), {&C.T});
}

/// Native set-up after compiling: the first executeNative of each
/// program emits its C, runs cc and loads the module. Two threads.
bool buildNative(const std::vector<CompileOutput> &Progs,
                 std::vector<double> &BuildMs) {
  BuildMs.assign(Progs.size(), 0);
  std::atomic<bool> Ok{true};
  std::vector<std::thread> Ts;
  for (size_t T = 0; T < 2; ++T)
    Ts.emplace_back([&, T] {
      for (size_t I = T; I < Progs.size(); I += 2) {
        ExecResult R;
        std::string Err;
        auto T0 = Clock::now();
        if (!native::executeNative(Progs[I].Program, VmOptions(), R, Err)) {
          std::fprintf(stderr, "ledger: native build failed: %s\n",
                       Err.c_str());
          Ok = false;
        }
        BuildMs[I] = msSince(T0);
      }
    });
  for (std::thread &T : Ts)
    T.join();
  return Ok;
}

int runNative(Ctx &C) {
  const RefKind K = RefKind::Memory;
  if (!native::nativeAvailable()) {
    std::fprintf(stderr, "ledger: native workload needs a C compiler (cc)\n");
    return 1;
  }
  // A fresh artifact directory per run: set-up always builds.
  std::string Dir = std::filesystem::absolute(C.O.OutDir).string() +
                    "/native-" + std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  ::setenv("SMLTCC_NATIVE_CACHE", Dir.c_str(), 1);
  struct Cleanup {
    std::string Dir;
    ~Cleanup() {
      std::error_code Ec;
      std::filesystem::remove_all(Dir, Ec);
    }
  } RemoveDir{Dir};

  std::vector<Job> Jobs = corpusJobs(true);
  std::vector<CompileOutput> Progs;
  std::vector<double> WallMs, BuildMs;
  double SnapMs = 0;
  bool Ok = false;
  const uint64_t Builds0 = native::nativeTotals().Compiles.load();
  SetupTime Main = timeSetup([&] {
    SnapMs = snapshotMs();
    Ok = compileAll(Jobs, Progs, WallMs) && buildNative(Progs, BuildMs);
  });
  if (!Ok)
    return 1;
  C.Layer["driver.prelude_snapshot_ms"] = SnapMs;
  C.Layer["native.cc_builds"] =
      static_cast<double>(native::nativeTotals().Compiles.load() - Builds0);
  double CcS = 0;
  for (double Ms : BuildMs)
    CcS += Ms / 1000.0;
  C.Layer["native.cc_s"] = CcS;
  // One set-up costs tens of seconds of cc, so a run takes one sample.
  double SetupS = setupSeconds(Main, {});

  // The VM's observables are the reference for native's.
  std::vector<std::string> Expected;
  std::vector<ExecResult> Vm;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    Expected.push_back(programBytes(Progs[I].Program));
    Vm.push_back(runChecked(C, Jobs[I], Progs[I].Program));
    if (!C.O.Trace)
      fillRowPhases(C.rowFor(Jobs[I]), Progs[I].Metrics);
  }
  if (C.O.Trace)
    traceDistinctCompiles(C, Jobs, Expected, WallMs);

  native::NativeTotals &NT = native::nativeTotals();
  const uint64_t Hits0 = NT.MemHits.load(), Runs0 = NT.Runs.load();
  Window W = closedLoop(C, Jobs.size(), K, [&](size_t I) {
    const TmProgram &P = Progs[I].Program;
    double EmitMs = 0;
    if (C.O.Trace) {
      // executeNative re-emits the C source before its module lookup;
      // the same emission, timed on its own, is that share.
      SpanScope S(C.T, "native.emit");
      std::string Src, Err;
      auto T0 = Clock::now();
      native::emitNativeC(P, true, Src, Err);
      EmitMs = msSince(T0);
    }
    ExecResult R;
    std::string Err;
    auto T0 = Clock::now();
    bool Ran;
    {
      SpanScope S(C.T, "native.execute");
      Ran = native::executeNative(P, VmOptions(), R, Err);
    }
    double Ms = msSince(T0);
    const ExecResult &V = Vm[I];
    if (!Ran || !R.Ok || R.Result != Jobs[I].Prog->ExpectedResult ||
        R.Result != V.Result || R.Output != V.Output ||
        R.Instructions != V.Instructions || R.Cycles != V.Cycles ||
        R.AllocWords32 != V.AllocWords32)
      C.failOp(label(Jobs[I]) + ": native observables differ from the VM's");
    if (C.O.Trace) {
      const VmMetrics &M = R.Metrics;
      C.T.value("native.native_run", (M.ExecSec - M.GcSec) * 1000);
      C.T.value("native.gc", M.GcSec * 1000);
      C.T.value("native.host", Ms - EmitMs - M.ExecSec * 1000);
    }
    return Ms;
  });
  const uint64_t Runs = NT.Runs.load() - Runs0;
  const uint64_t Hits = NT.MemHits.load() - Hits0;
  C.Layer["native.module_hit_ratio"] =
      Runs ? static_cast<double>(Hits) / static_cast<double>(Runs) : 0;
  if (Hits != Runs)
    C.failCheck("native modules were rebuilt inside the timed window");
  return finish(C, W, SetupS, peakRssMb(), {&C.T});
}

int runFarm(Ctx &C) {
  const RefKind K = RefKind::HashMap;
  std::vector<Job> Jobs = corpusJobs(false);
  std::vector<SetupTime> Probes = probeSetups(C, 8);
  Farm F;
  std::vector<TmProgram> Warm;
  std::string Err;
  double SnapMs = 0;
  bool Ok = false;
  SetupTime Main = timeSetup([&] {
    SnapMs = snapshotMs();
    Ok = F.start(Err) && warmFarm(F, Jobs, Warm, Err);
  });
  if (!Ok) {
    std::fprintf(stderr, "ledger: farm set-up failed: %s\n", Err.c_str());
    return 1;
  }
  C.Layer["driver.prelude_snapshot_ms"] = SnapMs;
  double SetupS = setupSeconds(Main, Probes);

  // Replies must be byte-identical to a local compile, and run to the
  // corpus checksum.
  std::vector<CompileOutput> Local;
  std::vector<double> WallMs;
  if (!compileAll(Jobs, Local, WallMs))
    return 1;
  std::vector<std::string> Expected;
  for (size_t I = 0; I < Jobs.size(); ++I) {
    Expected.push_back(programBytes(Local[I].Program));
    if (programBytes(Warm[I]) != Expected[I])
      C.failCheck(label(Jobs[I]) + ": farm reply differs from local compile");
    runChecked(C, Jobs[I], Warm[I]);
    if (!C.O.Trace)
      fillRowPhases(C.rowFor(Jobs[I]), Local[I].Metrics);
  }
  if (C.O.Trace)
    traceDistinctCompiles(C, Jobs, Expected, WallMs);

  // Two closed-loop callers. At each slice boundary both wait while one
  // runs the reference, so it sees an idle farm.
  struct Caller {
    Tracer T;
    std::vector<double> RawMs;
    std::vector<size_t> OpSlice;
    uint64_t Attempted = 0, Hits = 0, Failed = 0;
  };
  std::vector<std::unique_ptr<Caller>> Callers;
  for (int I = 0; I < kFarmClients; ++I)
    Callers.push_back(std::make_unique<Caller>(
        Caller{Tracer(C.O.Trace, C.Epoch), {}, {}, 0, 0, 0}));
  Window W;
  const auto Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(C.O.Seconds));
  bool Stop = false;
  auto SliceStart = Clock::now();
  auto Boundary = [&]() noexcept {
    auto Now = Clock::now();
    if (!W.RefMs.empty())
      W.SliceWallMs.push_back(msBetween(SliceStart, Now));
    Stop = Now >= Deadline;
    if (!Stop)
      W.RefMs.push_back(referenceMs(K));
    SliceStart = Clock::now();
  };
  std::barrier Sync(kFarmClients, Boundary);
  std::atomic<uint64_t> Done{0};
  std::atomic<double> RssAtOps{0};
  std::vector<std::thread> Ts;
  for (int CI = 0; CI < kFarmClients; ++CI)
    Ts.emplace_back([&, CI] {
      Caller &Me = *Callers[static_cast<size_t>(CI)];
      FarmStream Stream(C.O.Seed, CI, Jobs.size());
      server::Client Cl;
      std::string E;
      bool Connected = Cl.connect(F.target(), E);
      uint64_t OpId = static_cast<uint64_t>(CI + 1) << 32;
      for (;;) {
        Sync.arrive_and_wait();
        if (Stop)
          break;
        const size_t Slice = W.RefMs.size() - 1;
        for (size_t K2 = 0; K2 < kFarmSlice; ++K2) {
          FarmStream::Request Rq = Stream.next();
          const Job &J = Jobs[Rq.Job];
          Me.T.setOp(++OpId);
          ++Me.Attempted;
          if (!Connected && !(Connected = Cl.connect(F.target(), E))) {
            ++Me.Failed;
            continue;
          }
          server::CompileResponse Resp;
          auto T0 = Clock::now();
          bool Sent;
          {
            SpanScope S(Me.T, "farm.rpc");
            Sent = Cl.compile(requestFor(J, J.Prog->Source + Rq.Suffix),
                              Resp, E);
          }
          double Ms = msSince(T0);
          if (Done.fetch_add(1) + 1 == kFarmRssOps)
            RssAtOps = peakRssMb();
          if (!Sent) {
            ++Me.Failed;
            Connected = false;
            continue;
          }
          if (Resp.St != server::Status::Ok ||
              programBytes(Resp.Program) != Expected[Rq.Job]) {
            ++Me.Failed;
            continue;
          }
          bool Hit = Resp.Tier != server::WireTier::Miss;
          Me.Hits += Hit;
          Me.RawMs.push_back(Ms);
          Me.OpSlice.push_back(Slice);
          if (C.O.Trace) {
            double CompileMs = Resp.CompileSec * 1000;
            Me.T.value(Hit ? "farm.rpc_hit" : "farm.rpc_miss", Ms);
            Me.T.value("farm.transport", Ms - CompileMs);
            if (!Hit)
              Me.T.value("server.compile", CompileMs);
          }
        }
      }
    });
  for (std::thread &T : Ts)
    T.join();
  F.stop();

  uint64_t Hits = 0;
  std::vector<const Tracer *> Tracers = {&C.T};
  for (const auto &Cl : Callers) {
    W.RawMs.insert(W.RawMs.end(), Cl->RawMs.begin(), Cl->RawMs.end());
    W.OpSlice.insert(W.OpSlice.end(), Cl->OpSlice.begin(), Cl->OpSlice.end());
    C.Attempted += Cl->Attempted;
    C.Failed += Cl->Failed;
    Hits += Cl->Hits;
    Tracers.push_back(&Cl->T);
  }
  W.normalise(K);
  C.Layer["server.queue_peak"] = static_cast<double>(F.queuePeak());
  C.Layer["farm.busiest_shard_share"] = F.busiestShare();
  C.Layer["farm.failed"] = static_cast<double>(C.Failed);
  C.Layer["farm.hit_ratio"] =
      C.Attempted ? static_cast<double>(Hits) / C.Attempted : 0;
  std::printf("farm: requests=%llu hits=%llu failed=%llu busiest shard "
              "share=%.3f\n",
              (unsigned long long)C.Attempted, (unsigned long long)Hits,
              (unsigned long long)C.Failed, F.busiestShare());
  double Rss = RssAtOps.load();
  if (Rss == 0) {
    std::fprintf(stderr, "ledger: fewer than %llu farm requests completed\n",
                 (unsigned long long)kFarmRssOps);
    C.failCheck("farm window too short for the resident-set reading");
    Rss = peakRssMb();
  }
  return finish(C, W, SetupS, Rss, Tracers);
}

} // namespace

bool knownWorkload(const std::string &Name) {
  return Name == "compile" || Name == "run" || Name == "native" ||
         Name == "farm";
}

int runWorkload(const RunOptions &O) {
  Ctx C(O);
  std::printf("ledger workload=%s seed=%llu seconds=%s trace=%d\n",
              O.Workload.c_str(), (unsigned long long)O.Seed,
              num(O.Seconds).c_str(), O.Trace ? 1 : 0);
  if (O.Workload == "compile")
    return runCompile(C);
  if (O.Workload == "run")
    return runRun(C);
  if (O.Workload == "native")
    return runNative(C);
  return runFarm(C);
}

int probeSetup(const RunOptions &O) {
  std::vector<Job> Jobs = corpusJobs(false);
  std::vector<CompileOutput> Progs;
  std::vector<double> WallMs;
  bool Ok = true;
  SetupTime S;
  if (O.Workload == "compile") {
    S = timeSetup([&] { snapshotMs(); });
  } else if (O.Workload == "run") {
    S = timeSetup([&] {
      snapshotMs();
      Ok = compileAll(Jobs, Progs, WallMs);
    });
  } else if (O.Workload == "farm") {
    Farm F;
    std::vector<TmProgram> Warm;
    std::string Err;
    S = timeSetup([&] {
      snapshotMs();
      Ok = F.start(Err) && warmFarm(F, Jobs, Warm, Err);
    });
  } else {
    return 64;
  }
  if (!Ok)
    return 1;
  std::printf("probe %s %s\n", num(S.NormS).c_str(), num(S.RawS).c_str());
  return 0;
}

int printPlan(uint64_t Seed) {
  // The digest covers exactly what the workloads draw from the seed:
  // the pass orders of closedLoop and both farm callers' streams.
  uint64_t H = 0xcbf29ce484222325ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 0x100000001b3ull;
  };
  for (size_t N : {size_t(72), size_t(12)}) {
    Rng R(Seed);
    for (int Pass = 0; Pass < 4; ++Pass)
      for (size_t I : permutation(N, R))
        Mix(I);
  }
  for (int CI = 0; CI < kFarmClients; ++CI) {
    FarmStream S(Seed, CI, 72);
    for (int I = 0; I < 500; ++I) {
      FarmStream::Request Rq = S.next();
      Mix(Rq.Job * 2 + Rq.Miss);
      for (char Ch : Rq.Suffix)
        Mix(static_cast<unsigned char>(Ch));
    }
  }
  std::printf("plan seed=%llu digest=%016llx\n", (unsigned long long)Seed,
              (unsigned long long)H);
  return 0;
}

int checkReplica() {
  std::vector<Job> Jobs = corpusJobs(false);
  BigStackThread Big;
  Tracer T(true, Clock::now());
  size_t Same = 0;
  for (const Job &J : Jobs) {
    CompileOutput Ref = Compiler::compile(J.Prog->Source, J.Opts);
    CompileOutput Rep;
    Big.run([&] { Rep = compileTraced(J.Prog->Source, J.Opts, T); });
    bool Eq = Ref.Ok && Rep.Ok &&
              programBytes(Ref.Program) == programBytes(Rep.Program);
    Same += Eq;
    if (!Eq)
      std::printf("replica differs: %s\n", label(J).c_str());
  }
  std::printf("replica identical on %zu of %zu jobs\n", Same, Jobs.size());
  return Same == Jobs.size() ? 0 : 1;
}

} // namespace ledger
