//===- ledger/support.h - Clocks, references, spans and output --------------===//
//
// The benchmark's own machinery, shared by every workload: a seeded
// generator, the reference slices that take the host's speed out of the
// timings, the in-memory span recorder of traced runs, percentiles, and
// the result line.
//
//===----------------------------------------------------------------------===//

#ifndef SMLTC_LEDGER_SUPPORT_H
#define SMLTC_LEDGER_SUPPORT_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <pthread.h>
#include <string>
#include <vector>

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double msSince(Clock::time_point A) {
  return msBetween(A, Clock::now());
}

/// splitmix64: the same seed gives the same stream on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  /// Uniform in [0, N).
  size_t below(size_t N) { return static_cast<size_t>(next() % N); }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

private:
  uint64_t S;
};

/// A seeded Fisher-Yates permutation of 0..N-1.
std::vector<size_t> permutation(size_t N, Rng &R);

//===----------------------------------------------------------------------===//
// Reference slices
//===----------------------------------------------------------------------===//

/// A fixed slice of the benchmark's own work, timed just before a slice
/// of measured operations. Dividing the operations' time by it removes
/// most of the slowdown a busy shared host imposes on both alike.
enum class RefKind {
  HashMap, ///< build and walk an 8k-entry hash map (allocation, pointers)
  Memory,  ///< zero-fill and stride-read a fresh 8 MiB buffer
};

const char *refName(RefKind K);

/// Runs the reference once and returns its wall time in ms.
double referenceMs(RefKind K);

/// The reference's typical time on the development host. Scaled timings
/// are reported in "ms at nominal speed": raw ms * nominalMs / measured
/// ref.
double nominalMs(RefKind K);

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolated percentile (P in [0,1]); 0 for an empty sample.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 0.5);
}

/// Peak resident set of this process so far (VmHWM), in MiB.
double peakRssMb();

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

struct SpanRec {
  const char *Name;
  double StartMs, EndMs; ///< since the tracer's epoch
  int Parent;            ///< index into the same tracer, -1 for a root
  uint64_t Op;           ///< operation id the span belongs to
};

/// A per-operation layer value the program reports itself (VmMetrics
/// seconds, a server's compile seconds) rather than a span.
struct ValueRec {
  uint64_t Op;
  std::string Name;
  double Value;
};

/// In-memory span recorder for one thread. Spans nest through a parent
/// stack; nothing is written until the run ends. When off, begin/end cost
/// one branch.
class Tracer {
public:
  Tracer(bool On, Clock::time_point Epoch) : On(On), Epoch(Epoch) {}

  bool on() const { return On; }
  void setOp(uint64_t Id) { Op = Id; }
  uint64_t op() const { return Op; }

  int begin(const char *Name);
  void end(int Id);

  void value(const std::string &Name, double V);

  const std::vector<SpanRec> &spans() const { return Spans; }
  const std::vector<ValueRec> &values() const { return Values; }

private:
  bool On;
  Clock::time_point Epoch;
  uint64_t Op = 0;
  std::vector<SpanRec> Spans;
  std::vector<int> Stack;
  std::vector<ValueRec> Values;
};

class SpanScope {
public:
  SpanScope(Tracer &T, const char *Name)
      : T(T), Id(T.on() ? T.begin(Name) : -1) {}
  ~SpanScope() {
    if (Id >= 0)
      T.end(Id);
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer &T;
  int Id;
};

/// Per layer name, one self time (span minus its children) per operation
/// that entered the layer, merged with the tracers' reported values.
std::map<std::string, std::vector<double>>
layerSamples(const std::vector<const Tracer *> &Tracers);

/// Writes every span as Chrome trace-event JSON.
bool writeTrace(const std::string &Path,
                const std::vector<const Tracer *> &Tracers);

//===----------------------------------------------------------------------===//
// Threads and processes
//===----------------------------------------------------------------------===//

/// One persistent thread with a 1 GiB stack that runs submitted work, as
/// the batch engine's workers do; compiles need the deep stack.
class BigStackThread {
public:
  BigStackThread();
  ~BigStackThread();
  BigStackThread(const BigStackThread &) = delete;
  BigStackThread &operator=(const BigStackThread &) = delete;

  /// Runs \p Fn on the big-stack thread and waits for it.
  void run(const std::function<void()> &Fn);

private:
  static void *entry(void *Self);

  std::mutex Mu;
  std::condition_variable Cv;
  const std::function<void()> *Work = nullptr; // guarded by Mu
  bool Done = false;                           // guarded by Mu
  bool Quit = false;                           // guarded by Mu
  bool Started = false;
  pthread_t Tid{};
};

/// Runs this executable again with \p Args and returns the last line it
/// printed; empty on failure. Waits for the child to exit.
std::string runSelf(const std::vector<std::string> &Args);

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
  bool Integer = false;
};

/// The benchmark's last line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":..,"unit":..}}}.
std::string resultLine(bool Correct, uint64_t Attempted, uint64_t Failed,
                       const std::vector<Metric> &Metrics);

/// A double with every digit it has.
std::string num(double V);

} // namespace ledger

#endif // SMLTC_LEDGER_SUPPORT_H
