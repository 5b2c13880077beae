//===- ledger/support.cpp - Clocks, references, spans and output ------------===//

#include "support.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <spawn.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>
#include <unordered_map>

extern char **environ;

namespace ledger {

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
  return Z ^ (Z >> 31);
}

std::vector<size_t> permutation(size_t N, Rng &R) {
  std::vector<size_t> P(N);
  for (size_t I = 0; I < N; ++I)
    P[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[R.below(I)]);
  return P;
}

//===----------------------------------------------------------------------===//
// Reference slices
//===----------------------------------------------------------------------===//

namespace {

volatile uint64_t Sink = 0;

/// Builds and walks an 8k-entry hash map. Compiles allocate and chase
/// pointers the same way, and a host that slows one slows the other.
uint64_t hashMapSlice() {
  constexpr uint64_t Entries = 8192;
  std::unordered_map<uint64_t, uint64_t> M;
  uint64_t X = 0x2545F4914F6CDD1Dull, Sum = 0;
  for (uint64_t I = 0; I < Entries; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    M.emplace(X, I);
  }
  for (const auto &KV : M)
    Sum += KV.second;
  X = 0x2545F4914F6CDD1Dull;
  for (uint64_t I = 0; I < Entries; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    Sum += M.find(X)->second;
  }
  return Sum;
}

/// A fresh mapping every time, so every page faults in as it would for
/// a new VM heap (malloc could hand back recycled pages instead).
uint64_t memorySlice() {
  constexpr size_t Bytes = 8u << 20;
  void *Map = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Map == MAP_FAILED)
    return 0;
  auto *P = static_cast<volatile unsigned char *>(Map);
  for (size_t I = 0; I < Bytes; I += 8)
    *reinterpret_cast<volatile uint64_t *>(P + I) = 0;
  uint64_t Sum = 0;
  for (size_t Off = 0; Off < 256; Off += 64)
    for (size_t I = Off; I < Bytes; I += 256)
      Sum += P[I] + I;
  ::munmap(Map, Bytes);
  return Sum;
}

} // namespace

const char *refName(RefKind K) {
  return K == RefKind::HashMap ? "hashmap" : "memory";
}

double referenceMs(RefKind K) {
  auto T0 = Clock::now();
  Sink = Sink + (K == RefKind::HashMap ? hashMapSlice() : memorySlice());
  return msSince(T0);
}

double nominalMs(RefKind K) {
  // Typical medians of each slice on the 4-core x86-64 development host
  // with the default build. Changing them rescales every scaled timing.
  return K == RefKind::HashMap ? 0.8 : 3.6;
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double peakRssMb() {
  std::ifstream Is("/proc/self/status");
  std::string Line;
  while (std::getline(Is, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

int Tracer::begin(const char *Name) {
  int Id = static_cast<int>(Spans.size());
  Spans.push_back({Name, msSince(Epoch), 0, Stack.empty() ? -1 : Stack.back(),
                   Op});
  Stack.push_back(Id);
  return Id;
}

void Tracer::end(int Id) {
  Spans[static_cast<size_t>(Id)].EndMs = msSince(Epoch);
  if (!Stack.empty() && Stack.back() == Id)
    Stack.pop_back();
}

void Tracer::value(const std::string &Name, double V) {
  if (On)
    Values.push_back({Op, Name, V});
}

std::map<std::string, std::vector<double>>
layerSamples(const std::vector<const Tracer *> &Tracers) {
  // Sum per (operation, layer) first: a layer entered twice in one
  // operation (both CPS checks) is one sample.
  std::map<std::pair<uint64_t, std::string>, double> PerOp;
  for (size_t TI = 0; TI < Tracers.size(); ++TI) {
    const std::vector<SpanRec> &S = Tracers[TI]->spans();
    std::vector<double> ChildMs(S.size(), 0.0);
    for (const SpanRec &R : S)
      if (R.Parent >= 0)
        ChildMs[static_cast<size_t>(R.Parent)] += R.EndMs - R.StartMs;
    for (size_t I = 0; I < S.size(); ++I)
      PerOp[{(TI << 48) | S[I].Op, S[I].Name}] +=
          S[I].EndMs - S[I].StartMs - ChildMs[I];
    for (const ValueRec &V : Tracers[TI]->values())
      PerOp[{(TI << 48) | V.Op, V.Name}] += V.Value;
  }
  std::map<std::string, std::vector<double>> Out;
  for (const auto &KV : PerOp)
    Out[KV.first.second].push_back(KV.second);
  return Out;
}

bool writeTrace(const std::string &Path,
                const std::vector<const Tracer *> &Tracers) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fputs("{\"traceEvents\":[\n", F);
  bool First = true;
  for (size_t TI = 0; TI < Tracers.size(); ++TI)
    for (const SpanRec &R : Tracers[TI]->spans()) {
      std::fprintf(F,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,"
                   "\"parent\":%d}}",
                   First ? "" : ",\n", R.Name, TI, R.StartMs * 1000.0,
                   (R.EndMs - R.StartMs) * 1000.0,
                   static_cast<unsigned long long>(R.Op), R.Parent);
      First = false;
    }
  std::fputs("\n]}\n", F);
  return std::fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// Threads and processes
//===----------------------------------------------------------------------===//

BigStackThread::BigStackThread() {
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, 1ull << 30);
  Started = pthread_create(&Tid, &Attr, &BigStackThread::entry, this) == 0;
  pthread_attr_destroy(&Attr);
}

BigStackThread::~BigStackThread() {
  if (!Started)
    return;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Quit = true;
  }
  Cv.notify_all();
  pthread_join(Tid, nullptr);
}

void *BigStackThread::entry(void *P) {
  auto *Self = static_cast<BigStackThread *>(P);
  std::unique_lock<std::mutex> Lock(Self->Mu);
  for (;;) {
    Self->Cv.wait(Lock, [Self] { return Self->Quit || Self->Work; });
    if (!Self->Work)
      return nullptr;
    const std::function<void()> *Fn = Self->Work;
    Lock.unlock();
    (*Fn)();
    Lock.lock();
    Self->Work = nullptr;
    Self->Done = true;
    Self->Cv.notify_all();
  }
}

void BigStackThread::run(const std::function<void()> &Fn) {
  if (!Started) { // as Compiler::compile does when the thread cannot start
    Fn();
    return;
  }
  std::unique_lock<std::mutex> Lock(Mu);
  Work = &Fn;
  Done = false;
  Cv.notify_all();
  Cv.wait(Lock, [this] { return Done; });
}

std::string runSelf(const std::vector<std::string> &Args) {
  int Pipe[2];
  if (::pipe(Pipe) != 0)
    return "";
  posix_spawn_file_actions_t Fa;
  posix_spawn_file_actions_init(&Fa);
  posix_spawn_file_actions_adddup2(&Fa, Pipe[1], 1);
  posix_spawn_file_actions_addclose(&Fa, Pipe[0]);
  posix_spawn_file_actions_addclose(&Fa, Pipe[1]);
  std::vector<std::string> All = {"/proc/self/exe"};
  All.insert(All.end(), Args.begin(), Args.end());
  std::vector<char *> Argv;
  for (std::string &A : All)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  pid_t Pid = -1;
  int Rc = posix_spawn(&Pid, "/proc/self/exe", &Fa, nullptr, Argv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&Fa);
  ::close(Pipe[1]);
  std::string Out;
  if (Rc == 0) {
    char Buf[4096];
    ssize_t N;
    while ((N = ::read(Pipe[0], Buf, sizeof(Buf))) > 0)
      Out.append(Buf, static_cast<size_t>(N));
  }
  ::close(Pipe[0]);
  int Status = 0;
  if (Rc != 0 || ::waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0)
    return "";
  while (!Out.empty() && Out.back() == '\n')
    Out.pop_back();
  size_t Nl = Out.rfind('\n');
  return Nl == std::string::npos ? Out : Out.substr(Nl + 1);
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string num(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string resultLine(bool Correct, uint64_t Attempted, uint64_t Failed,
                       const std::vector<Metric> &Metrics) {
  std::string S = std::string("{\"correct\": ") +
                  (Correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(Attempted) +
                  ", \"failed\": " + std::to_string(Failed) +
                  ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    S += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " +
         (M.Integer ? std::to_string(static_cast<uint64_t>(M.Value))
                    : num(M.Value)) +
         ", \"unit\": \"" + M.Unit + "\"}";
  }
  return S + "}}";
}

} // namespace ledger
