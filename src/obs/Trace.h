//===- obs/Trace.h - Low-overhead span tracer ---------------------------------===//
///
/// \file
/// Compiler-wide tracing: every pipeline phase, batch job, server
/// request, and GC pause can be recorded as a span and exported as
/// Chrome trace-event JSON (load the file in Perfetto or
/// chrome://tracing). Instrumentation is left compiled in everywhere;
/// the disabled fast path is a single relaxed atomic load per span, so
/// production binaries pay effectively nothing until `--trace-json` (or
/// Tracer::enable) turns collection on. bench/obs_overhead gates that
/// claim at <= 2% on the full 72-job compile matrix.
///
/// Distributed tracing: spans carry a 128-bit trace id plus 64-bit
/// span/parent ids. A `TraceContext` names "the span new work should
/// nest under" on the current thread; `Span` inherits it, mints its own
/// span id, and installs itself for the duration, so nesting falls out
/// of scoping with no plumbing. Contexts cross process boundaries
/// through protocol-v4 compile frames (client -> router -> shard ->
/// batch worker), and `tools/merge_traces` stitches the per-node
/// `--trace-json` files into one causally linked trace.
///
/// Concurrency: spans append to a per-thread buffer guarded by that
/// buffer's own mutex — uncontended on the hot path (only the owning
/// thread takes it per event; the exporter takes it once per snapshot),
/// so worker pools trace without a global lock. Thread ids are small
/// sequential integers assigned on first use; `setThreadName` labels
/// them in the export (Perfetto shows the names on the track headers).
///
/// Timestamps are microseconds on the monotonic clock, measured from a
/// process-wide epoch, matching the `ts`/`dur` convention of the Chrome
/// trace-event format ("ph":"X" complete events). The export also
/// records the epoch's wall-clock time so merge_traces can align
/// different processes onto one timeline.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_OBS_TRACE_H
#define SMLTC_OBS_TRACE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace smltc {
namespace obs {

/// A propagated trace context: which 128-bit trace the current work
/// belongs to, and the span id new child spans should parent under.
/// Zero trace id = "no context" (spans still record, without ids).
struct TraceContext {
  uint64_t TraceIdHi = 0;
  uint64_t TraceIdLo = 0;
  uint64_t SpanId = 0;
  bool valid() const { return (TraceIdHi | TraceIdLo) != 0; }
};

/// Mints a fresh random 128-bit trace id (SpanId left 0 — the caller's
/// root span supplies it). Thread-safe, never returns an invalid id.
TraceContext mintTraceContext();
/// Mints a fresh nonzero 64-bit span id. Thread-safe.
uint64_t mintSpanId();
/// Lowercase-hex renderings (32 / 16 chars, zero-padded).
std::string traceIdHex(uint64_t Hi, uint64_t Lo);
std::string spanIdHex(uint64_t Id);

/// One recorded span ("ph":"X" complete event).
struct TraceEvent {
  const char *Name = "";   ///< static string (phase/section name)
  const char *Cat = "";    ///< static category ("compile", "batch", ...)
  uint64_t TsUs = 0;       ///< start, microseconds since the trace epoch
  uint64_t DurUs = 0;
  uint32_t Tid = 0;
  uint64_t TraceIdHi = 0;  ///< distributed trace id (0 = none)
  uint64_t TraceIdLo = 0;
  uint64_t SpanId = 0;     ///< this span's id (0 = none)
  uint64_t ParentSpanId = 0;
  std::string Args;        ///< pre-rendered JSON object body ("" = none)
};

/// A span that was begun but not yet ended — what /tracez shows and
/// what flushActive() force-records during a graceful drain.
struct ActiveSpan {
  const char *Name = "";
  const char *Cat = "";
  uint64_t StartUs = 0;
  uint64_t SpanId = 0;
  uint32_t Tid = 0;
};

class Tracer {
public:
  static Tracer &instance();

  /// The per-span fast-path check; a relaxed load, nothing else.
  static bool enabled() { return Enabled.load(std::memory_order_relaxed); }

  void enable();
  /// Stops collection; already-recorded events stay until clear().
  void disable();
  /// Drops every recorded event (collection state unchanged).
  void clear();

  /// The calling thread's installed trace context (what the next Span
  /// will parent under), and its setter. Plain thread-local reads and
  /// writes — safe whether or not tracing is enabled.
  static TraceContext currentContext();
  static void setCurrentContext(const TraceContext &Ctx);

  /// Microseconds since the trace epoch, and the conversion for
  /// externally captured steady_clock points (queue-wait spans measure
  /// from their enqueue timestamp).
  uint64_t nowUs() const;
  uint64_t toUs(std::chrono::steady_clock::time_point T) const;

  /// Records a completed span with explicit timing — the path for
  /// async/request spans whose start predates the recording thread's
  /// involvement. `Name`/`Cat` must be static strings; `Args` is a
  /// pre-rendered JSON object body (use JsonWriter, strip the braces)
  /// or empty. `Ctx` supplies the trace id, `SpanId`/`ParentSpanId` the
  /// causal links (all optional — zeros render without ids).
  void emitComplete(const char *Name, const char *Cat, uint64_t TsUs,
                    uint64_t DurUs, std::string Args = std::string(),
                    const TraceContext &Ctx = TraceContext(),
                    uint64_t SpanId = 0, uint64_t ParentSpanId = 0);

  /// Labels the calling thread in the export (Chrome "thread_name"
  /// metadata). Safe to call whether or not tracing is enabled.
  static void setThreadName(const std::string &Name);

  /// Snapshot of everything recorded so far, in per-thread buffer order.
  std::vector<TraceEvent> snapshot() const;
  size_t eventCount() const;

  /// Spans currently open on any thread (begin seen, end not yet).
  std::vector<ActiveSpan> activeSpans() const;
  /// Force-records every still-open span with its duration so far (arg
  /// "flushed":true) and forgets it, so a drained server's trace file
  /// is never missing the spans that were in flight at SIGTERM. A
  /// span's normal end() after a flush is a silent no-op. Returns the
  /// number of spans flushed.
  size_t flushActive();

  /// Renders the Chrome trace-event JSON document
  /// ({"traceEvents":[...]}).
  std::string renderJson() const;
  /// renderJson straight to a file; false + Err on I/O failure.
  bool writeFile(const std::string &Path, std::string &Err) const;

private:
  friend class Span;

  struct ThreadBuf {
    mutable std::mutex M;
    std::vector<TraceEvent> Events;
    std::vector<ActiveSpan> Active;
    uint32_t Tid = 0;
    std::string Name;
  };

  Tracer() = default;
  /// The calling thread's buffer, created and registered on first use.
  ThreadBuf &threadBuf();
  void append(TraceEvent E);
  /// Registers a just-begun span on the calling thread's active list.
  void beginSpan(const char *Name, const char *Cat, uint64_t StartUs,
                 uint64_t SpanId);
  /// Records a span end: drops the active entry and appends the event.
  /// No-op when flushActive() already recorded (and removed) the span.
  void endSpan(TraceEvent E);

  static std::atomic<bool> Enabled;

  mutable std::mutex RegistryMutex;
  std::vector<std::shared_ptr<ThreadBuf>> Buffers;
  uint32_t NextTid = 1;
  std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  /// Wall-clock time of `Epoch`, microseconds since the Unix epoch —
  /// exported so merge_traces can align traces from different processes.
  uint64_t EpochWallUs =
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                std::chrono::system_clock::now()
                                    .time_since_epoch())
                                .count());
};

/// Installs a trace context on the current thread for a scope — how a
/// batch worker adopts the context a compile frame carried in, so the
/// job's spans parent under the remote client's. Restores the previous
/// context on destruction. Cheap enough to use unconditionally.
class ScopedTraceContext {
public:
  explicit ScopedTraceContext(const TraceContext &Ctx)
      : Prev(Tracer::currentContext()) {
    Tracer::setCurrentContext(Ctx);
  }
  ~ScopedTraceContext() { Tracer::setCurrentContext(Prev); }
  ScopedTraceContext(const ScopedTraceContext &) = delete;
  ScopedTraceContext &operator=(const ScopedTraceContext &) = delete;

private:
  TraceContext Prev;
};

/// RAII span: records [construction, destruction) on the current thread.
/// When tracing is disabled at construction the span is inert — no
/// clock read, no allocation — and stays inert even if tracing turns on
/// mid-flight (half-measured spans would lie). Active spans inherit the
/// thread's TraceContext as parent, mint their own span id, and install
/// themselves as the context for their scope.
class Span {
public:
  explicit Span(const char *Name, const char *Cat = "compile") {
    if (Tracer::enabled())
      begin(Name, Cat);
  }
  ~Span() {
    if (Active)
      end();
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attaches a key/value argument (shown in the Perfetto side panel).
  /// No-ops on inert spans, so callers never guard these.
  void arg(const char *Key, const std::string &Val);
  void arg(const char *Key, uint64_t Val);
  void arg(const char *Key, int64_t Val);

  /// Re-parents the span under an externally propagated context (the
  /// trace id + parent span id a protocol-v4 frame carried in). Also
  /// updates the installed thread context so child spans follow. No-op
  /// on inert spans or invalid contexts.
  void adopt(const TraceContext &Parent);

  /// This span's ids — what a forwarder stamps into the downstream
  /// frame so remote spans parent under this one. Zero when inert.
  uint64_t spanId() const { return Active ? Ctx.SpanId : 0; }
  TraceContext context() const { return Active ? Ctx : TraceContext(); }

private:
  void begin(const char *Name, const char *Cat);
  void end();

  const char *Name = "";
  const char *Cat = "";
  uint64_t StartUs = 0;
  std::string Args;
  TraceContext Ctx;  ///< trace id + this span's own id
  TraceContext Prev; ///< restored on end()
  uint64_t ParentId = 0;
  bool Active = false;
};

#define SMLTC_OBS_CONCAT_IMPL(A, B) A##B
#define SMLTC_OBS_CONCAT(A, B) SMLTC_OBS_CONCAT_IMPL(A, B)
/// Scope-level span with no handle (no args attached).
#define SMLTC_SPAN(NameLit, CatLit)                                          \
  ::smltc::obs::Span SMLTC_OBS_CONCAT(ObsSpan_, __LINE__)(NameLit, CatLit)

/// One completed request as /tracez reports it: identity, total
/// latency, and an optional pre-rendered per-phase breakdown.
struct RequestSample {
  uint64_t RequestId = 0;
  uint64_t TraceIdHi = 0;
  uint64_t TraceIdLo = 0;
  uint64_t TsUs = 0; ///< arrival, tracer-epoch microseconds
  double Sec = 0;    ///< total latency
  std::string Kind;  ///< "memory"/"disk"/"miss" on shards, "forward" on routers
  std::string Tenant;
  std::string PhasesJson; ///< pre-rendered JSON object body ("" = none)
};

/// A ring of recent completed requests; /tracez renders the slowest of
/// them with their per-phase breakdown. Each farm node owns one. Always
/// on (one mutex + small copy per request — noise next to a compile), so
/// the status surface works without --trace-json.
class RequestLog {
public:
  void record(RequestSample S);
  /// The retained samples, slowest first, at most `MaxN` (0 = all).
  std::vector<RequestSample> slowest(size_t MaxN = 0) const;
  uint64_t totalRecorded() const;

  /// Completed requests retained (a recency window; /tracez sorts it).
  static constexpr size_t kCapacity = 128;

private:
  mutable std::mutex M;
  std::vector<RequestSample> Ring; ///< circular, oldest at Next
  size_t Next = 0;
  uint64_t Total = 0;
};

/// Renders the /tracez JSON document both farm node types serve:
/// currently-active spans (name, category, age, span id, thread) plus
/// the slowest `MaxSlowest` recent requests from the node's `Log` with
/// their per-phase breakdowns. Works with tracing disabled (the active
/// list is empty then; the request ring always records).
std::string renderTracezJson(const RequestLog &Log, size_t MaxSlowest = 32);

} // namespace obs
} // namespace smltc

#endif // SMLTC_OBS_TRACE_H
