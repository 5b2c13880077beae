//===- driver/Batch.h - Parallel batch-compilation engine --------------------===//
///
/// \file
/// A fixed pool of persistent worker threads pulling `CompileJob`s off a
/// shared queue and producing `CompileOutput`s in deterministic input
/// order. Workers compile through `Compiler::compile` like every other
/// caller, so each job runs on its worker's own compile stack. Each
/// compile is shared-nothing (its own Arena, StringInterner, TypeContext,
/// LtyContext), so jobs parallelize without any compiler-side locking;
/// the only shared state is the work queue. The pool only compiles: the
/// compile server keeps its cache itself (server/Server.h).
///
/// This is the substrate for everything batch-shaped in the repo: the
/// Figure 7/8 benches compile their 12-benchmark x 6-variant matrix
/// through it, `smltcc --all --jobs N` fans the six variants out over it,
/// the compile server's workers are its threads, and
/// `bench/compile_throughput` measures its scaling.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_DRIVER_BATCH_H
#define SMLTC_DRIVER_BATCH_H

#include "driver/Compiler.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace smltc {

/// One unit of batch work: a source program compiled under one variant.
struct CompileJob {
  std::string Source;
  CompilerOptions Opts;
  bool WithPrelude = true;
  /// Client-assigned request id (compile-server jobs); 0 when the job
  /// has no originating request. Carried into the job's trace span so a
  /// server-side trace can be joined against client logs.
  uint64_t TraceRequestId = 0;
  /// Distributed trace context the originating request carried
  /// (protocol v4): the worker installs it for the job's scope so the
  /// compile_job span and every phase span under it parent into the
  /// remote caller's trace. All-zero = no context.
  uint64_t TraceIdHi = 0;
  uint64_t TraceIdLo = 0;
  uint64_t ParentSpanId = 0;
};

/// Invoked on a worker thread with the output of an async job
/// (`submitJob`). Must not block for long (it occupies a compile worker)
/// and must not re-enter the BatchCompiler.
using CompileDoneFn = std::function<void(CompileOutput)>;

enum class SubmitStatus : uint8_t {
  Accepted = 0,
  ShuttingDown, ///< the pool is being destroyed
};

/// Aggregate metrics for one `compileAll` batch — the phase-level
/// throughput numbers the driver reports (programs/sec, where the wall
/// time went, and the implied speedup over a serial run).
struct BatchMetrics {
  size_t Jobs = 0;
  size_t Succeeded = 0;
  size_t Failed = 0;
  size_t Threads = 0;

  double WallSec = 0; ///< batch wall-clock time
  /// Phase seconds summed over the jobs.
  double TotalCompileSec = 0;
  double FrontSec = 0;
  double TranslateSec = 0;
  double BackSec = 0;
  double QueueWaitSec = 0; ///< total time jobs sat queued before a worker

  double programsPerSec() const {
    return WallSec > 0 ? static_cast<double>(Jobs) / WallSec : 0;
  }
  /// CPU seconds of compilation retired per wall second — the effective
  /// parallel speedup versus running the same compiles back-to-back on
  /// one thread.
  double speedupVsSerial() const {
    return WallSec > 0 ? TotalCompileSec / WallSec : 0;
  }

  /// Renders the aggregate as a single JSON object (no trailing newline).
  std::string toJson() const;
};

/// Renders one job's CompileMetrics as a single JSON object — the
/// per-program companion to BatchMetrics::toJson.
std::string compileMetricsJson(const CompileMetrics &M);

struct BatchOptions {
  /// Worker count; 0 means std::thread::hardware_concurrency().
  size_t NumThreads = 0;
};

class BatchCompiler {
public:
  explicit BatchCompiler(BatchOptions Options = BatchOptions());
  ~BatchCompiler();
  BatchCompiler(const BatchCompiler &) = delete;
  BatchCompiler &operator=(const BatchCompiler &) = delete;

  /// Compiles every job, in parallel, returning outputs in input order
  /// (Results[i] corresponds to Jobs[i] regardless of completion order).
  /// Not reentrant: one compileAll at a time per BatchCompiler. Async
  /// jobs (`submitJob`) may be in flight concurrently; they share the
  /// same workers and queue.
  std::vector<CompileOutput> compileAll(const std::vector<CompileJob> &Jobs);

  /// Asynchronous single-job submission — the compile-server path.
  /// `Done` is invoked exactly once, on a worker thread, when the job
  /// completes; a job runs to completion once submitted (the compile
  /// server decides deadlines). The queue is unbounded: callers (the
  /// compile server's fair-share scheduler) do their own admission.
  /// On ShuttingDown, `Done` is never called.
  /// With no worker threads available the job runs synchronously on the
  /// caller before submitJob returns.
  SubmitStatus submitJob(CompileJob Job, CompileDoneFn Done);

  /// Jobs sitting in the queue, not yet picked up by a worker.
  size_t pendingJobs() const;

  /// Metrics for the most recent compileAll.
  const BatchMetrics &lastBatch() const { return Last; }

  size_t numThreads() const { return NThreads; }

private:
  /// One queued unit of work; both compileAll and submitJob enqueue
  /// these. `Done` receives the finished output on the worker thread.
  struct WorkItem {
    CompileJob Job;
    CompileDoneFn Done;
    std::chrono::steady_clock::time_point Enqueued;
  };

  void workerLoop(size_t WorkerId);
  /// Runs one item to completion on the current thread (compile,
  /// bookkeeping, Done callback).
  void runItem(WorkItem &Item, int WorkerId);

  size_t NThreads = 0;

  // Queue state (guarded by QueueMutex).
  mutable std::mutex QueueMutex;
  std::condition_variable WorkReady;  ///< workers wait for items / shutdown
  std::condition_variable BatchDone;  ///< compileAll waits for completion
  std::deque<WorkItem> Queue;
  size_t BatchRemaining = 0; ///< outstanding jobs of the current compileAll
  bool ShuttingDown = false;

  BatchMetrics Last;

  /// Declared last: the workers use every member above.
  std::vector<std::thread> Workers;
};

} // namespace smltc

#endif // SMLTC_DRIVER_BATCH_H
