//===- driver/Batch.cpp - Parallel batch-compilation engine ------------------===//

#include "driver/Batch.h"

#include "obs/Json.h"
#include "obs/Trace.h"

#include <system_error>
#include <thread>

using namespace smltc;

std::string BatchMetrics::toJson() const {
  obs::JsonWriter W;
  W.beginObject()
      .field("jobs", Jobs)
      .field("succeeded", Succeeded)
      .field("failed", Failed)
      .field("threads", Threads)
      .field("wall_sec", WallSec)
      .field("total_compile_sec", TotalCompileSec)
      .field("front_sec", FrontSec)
      .field("translate_sec", TranslateSec)
      .field("back_sec", BackSec)
      .field("queue_wait_sec", QueueWaitSec)
      .field("programs_per_sec", programsPerSec(), 2)
      .field("speedup_vs_serial", speedupVsSerial(), 2)
      .endObject();
  return W.take();
}

std::string smltc::compileMetricsJson(const CompileMetrics &M) {
  obs::JsonWriter W;
  W.beginObject()
      .field("total_sec", M.TotalSec)
      .field("front_sec", M.FrontSec)
      .field("translate_sec", M.TranslateSec)
      .field("back_sec", M.BackSec)
      .field("parse_sec", M.ParseSec)
      .field("elab_sec", M.ElabSec)
      .field("mtd_sec", M.MtdSec)
      .field("cps_convert_sec", M.CpsConvertSec)
      .field("cps_opt_sec", M.CpsOptSec)
      .field("closure_sec", M.ClosureSec)
      .field("codegen_sec", M.CodegenSec)
      .field("queue_wait_sec", M.QueueWaitSec)
      .field("worker_id", M.WorkerId)
      .field("cache_hit", M.CacheHit)
      .field("cache_disk_hit", M.CacheDiskHit)
      .field("big_stack_unavailable", M.BigStackUnavailable)
      .field("prelude_snapshot_hit", M.PreludeSnapshotHit)
      .field("prelude_elab_sec", M.PreludeElabSec)
      .field("lexp_nodes", M.LexpNodes)
      .field("cps_nodes_before_opt", M.CpsNodesBeforeOpt)
      .field("cps_nodes_after_opt", M.CpsNodesAfterOpt)
      .field("code_size", M.CodeSize)
      .field("lty_interned", M.LtyInterned)
      .field("lty_allocated", M.LtyAllocated)
      .field("closures_built", M.ClosuresBuilt)
      .key("cps_opt")
      .beginObject()
      .field("rounds", static_cast<uint64_t>(M.Opt.Rounds))
      .field("expand_passes", static_cast<uint64_t>(M.Opt.ExpandPasses))
      .field("dead_removed", static_cast<uint64_t>(M.Opt.DeadRemoved))
      .field("selects_folded", static_cast<uint64_t>(M.Opt.SelectsFolded))
      .field("records_copy_eliminated",
             static_cast<uint64_t>(M.Opt.RecordsCopyEliminated))
      .field("float_boxes_reused",
             static_cast<uint64_t>(M.Opt.FloatBoxesReused))
      .field("branches_folded", static_cast<uint64_t>(M.Opt.BranchesFolded))
      .field("constants_folded",
             static_cast<uint64_t>(M.Opt.ConstantsFolded))
      .field("inlined_once", static_cast<uint64_t>(M.Opt.InlinedOnce))
      .field("inlined_small", static_cast<uint64_t>(M.Opt.InlinedSmall))
      .field("eta_conts", static_cast<uint64_t>(M.Opt.EtaConts))
      .field("known_fns_flattened",
             static_cast<uint64_t>(M.Opt.KnownFnsFlattened))
      .field("arena_bytes",
             static_cast<uint64_t>(M.Opt.ArenaBytesAfter -
                                   M.Opt.ArenaBytesBefore))
      .endObject()
      .endObject();
  return W.take();
}

BatchCompiler::BatchCompiler(BatchOptions Options) {
  NThreads = Options.NumThreads;
  if (NThreads == 0) {
    NThreads = std::thread::hardware_concurrency();
    if (NThreads == 0)
      NThreads = 1;
  }
  Workers.reserve(NThreads);
  for (size_t I = 0; I < NThreads; ++I) {
    try {
      Workers.emplace_back([this, I] { workerLoop(I); });
    } catch (const std::system_error &) {
      break;
    }
  }
  // The effective pool is whatever actually started; if not even one
  // worker could be created, compileAll compiles inline on the caller.
  NThreads = Workers.size();
}

BatchCompiler::~BatchCompiler() {
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    ShuttingDown = true;
  }
  WorkReady.notify_all();
  // Workers drain the queue before exiting, so every accepted async
  // job's Done callback fires even through a shutdown.
  for (std::thread &T : Workers)
    T.join();
}

void BatchCompiler::runItem(WorkItem &Item, int WorkerId) {
  auto Now = std::chrono::steady_clock::now();
  double QueueWait =
      std::chrono::duration<double>(Now - Item.Enqueued).count();
  const CompileJob &Job = Item.Job;

  // Install the request's propagated context (if any) for the job's
  // scope: the compile_job span and all phase spans under it then
  // parent into the originating client's trace.
  obs::TraceContext WireCtx{Job.TraceIdHi, Job.TraceIdLo,
                            Job.ParentSpanId};
  obs::ScopedTraceContext CtxScope(WireCtx.valid()
                                       ? WireCtx
                                       : obs::Tracer::currentContext());
  if (obs::Tracer::enabled()) {
    // The span for the time the job sat queued, recorded retroactively on
    // the worker that picked it up (the enqueuing thread has moved on).
    obs::Tracer &T = obs::Tracer::instance();
    T.emitComplete("queue_wait", "batch", T.toUs(Item.Enqueued),
                   static_cast<uint64_t>(QueueWait * 1e6),
                   std::string(), WireCtx, 0, WireCtx.SpanId);
  }
  obs::Span JobSpan("compile_job", "batch");
  JobSpan.arg("variant", Job.Opts.VariantName);
  JobSpan.arg("worker_id", static_cast<int64_t>(WorkerId));
  if (Job.TraceRequestId)
    JobSpan.arg("request_id", Job.TraceRequestId);

  CompileOutput Out = Compiler::compile(Job.Source, Job.Opts, Job.WithPrelude);
  Out.Metrics.WorkerId = WorkerId;
  Out.Metrics.QueueWaitSec = QueueWait;
  Item.Done(std::move(Out));
}

void BatchCompiler::workerLoop(size_t WorkerId) {
  obs::Tracer::setThreadName("worker-" + std::to_string(WorkerId));
  for (;;) {
    WorkItem Item;
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      WorkReady.wait(Lock, [&] { return ShuttingDown || !Queue.empty(); });
      if (Queue.empty())
        return; // shutting down and fully drained
      Item = std::move(Queue.front());
      Queue.pop_front();
    }
    runItem(Item, static_cast<int>(WorkerId));
  }
}

SubmitStatus BatchCompiler::submitJob(CompileJob Job, CompileDoneFn Done) {
  WorkItem W;
  W.Job = std::move(Job);
  W.Done = std::move(Done);
  W.Enqueued = std::chrono::steady_clock::now();
  if (Workers.empty()) {
    // Degenerate 0-worker pool: run synchronously on the caller.
    runItem(W, /*WorkerId=*/-1);
    return SubmitStatus::Accepted;
  }
  {
    std::lock_guard<std::mutex> Lock(QueueMutex);
    if (ShuttingDown)
      return SubmitStatus::ShuttingDown;
    Queue.push_back(std::move(W));
  }
  WorkReady.notify_one();
  return SubmitStatus::Accepted;
}

size_t BatchCompiler::pendingJobs() const {
  std::lock_guard<std::mutex> Lock(QueueMutex);
  return Queue.size();
}

std::vector<CompileOutput>
BatchCompiler::compileAll(const std::vector<CompileJob> &Jobs) {
  std::vector<CompileOutput> Results(Jobs.size());
  auto T0 = std::chrono::steady_clock::now();

  if (Jobs.empty()) {
    Last = BatchMetrics();
    Last.Threads = NThreads;
    return Results;
  }

  if (Workers.empty()) {
    // Degenerate fallback: no worker threads — compile inline.
    for (size_t I = 0; I < Jobs.size(); ++I)
      Results[I] =
          Compiler::compile(Jobs[I].Source, Jobs[I].Opts, Jobs[I].WithPrelude);
  } else {
    {
      std::lock_guard<std::mutex> Lock(QueueMutex);
      BatchRemaining = Jobs.size();
      for (size_t I = 0; I < Jobs.size(); ++I) {
        WorkItem W;
        W.Job = Jobs[I];
        W.Enqueued = T0;
        W.Done = [this, &Results, I](CompileOutput Out) {
          Results[I] = std::move(Out);
          bool AllDone;
          {
            std::lock_guard<std::mutex> L(QueueMutex);
            AllDone = --BatchRemaining == 0;
          }
          if (AllDone)
            BatchDone.notify_all();
        };
        Queue.push_back(std::move(W));
      }
    }
    WorkReady.notify_all();
    {
      std::unique_lock<std::mutex> Lock(QueueMutex);
      BatchDone.wait(Lock, [&] { return BatchRemaining == 0; });
    }
  }

  BatchMetrics M;
  M.Jobs = Jobs.size();
  M.Threads = NThreads ? NThreads : 1;
  M.WallSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  for (const CompileOutput &Out : Results) {
    if (Out.Ok)
      ++M.Succeeded;
    else
      ++M.Failed;
    M.QueueWaitSec += Out.Metrics.QueueWaitSec;
    M.TotalCompileSec += Out.Metrics.TotalSec;
    M.FrontSec += Out.Metrics.FrontSec;
    M.TranslateSec += Out.Metrics.TranslateSec;
    M.BackSec += Out.Metrics.BackSec;
  }
  Last = M;
  return Results;
}
