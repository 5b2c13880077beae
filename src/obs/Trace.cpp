//===- obs/Trace.cpp - Low-overhead span tracer -------------------------------===//

#include "obs/Trace.h"

#include "obs/Json.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>

using namespace smltc;
using namespace smltc::obs;

std::atomic<bool> Tracer::Enabled{false};

namespace {

thread_local TraceContext CurrentCtx;

/// Per-thread splitmix64 stream for span/trace ids: seeded once from
/// random_device + clock + thread id, then pure arithmetic — no lock,
/// no syscall per id.
uint64_t nextRandom64() {
  thread_local uint64_t State = [] {
    std::random_device RD;
    uint64_t S = (static_cast<uint64_t>(RD()) << 32) ^ RD();
    S ^= static_cast<uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    S ^= std::hash<std::thread::id>()(std::this_thread::get_id()) *
         0x9e3779b97f4a7c15ull;
    return S;
  }();
  State += 0x9e3779b97f4a7c15ull;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

std::string hex16(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

} // namespace

TraceContext smltc::obs::mintTraceContext() {
  TraceContext Ctx;
  do {
    Ctx.TraceIdHi = nextRandom64();
    Ctx.TraceIdLo = nextRandom64();
  } while (!Ctx.valid());
  return Ctx;
}

uint64_t smltc::obs::mintSpanId() {
  uint64_t Id;
  do
    Id = nextRandom64();
  while (Id == 0);
  return Id;
}

std::string smltc::obs::traceIdHex(uint64_t Hi, uint64_t Lo) {
  return hex16(Hi) + hex16(Lo);
}

std::string smltc::obs::spanIdHex(uint64_t Id) { return hex16(Id); }

Tracer &Tracer::instance() {
  static Tracer T;
  return T;
}

void Tracer::enable() { Enabled.store(true, std::memory_order_relaxed); }

void Tracer::disable() { Enabled.store(false, std::memory_order_relaxed); }

void Tracer::clear() {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  for (auto &B : Buffers) {
    std::lock_guard<std::mutex> BL(B->M);
    B->Events.clear();
    B->Active.clear();
  }
}

TraceContext Tracer::currentContext() { return CurrentCtx; }

void Tracer::setCurrentContext(const TraceContext &Ctx) { CurrentCtx = Ctx; }

uint64_t Tracer::nowUs() const {
  return toUs(std::chrono::steady_clock::now());
}

uint64_t Tracer::toUs(std::chrono::steady_clock::time_point T) const {
  if (T <= Epoch)
    return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(T - Epoch)
          .count());
}

Tracer::ThreadBuf &Tracer::threadBuf() {
  // The shared_ptr keeps the buffer alive in the registry after the
  // thread exits, so late snapshots still see its events.
  thread_local std::shared_ptr<ThreadBuf> Mine;
  if (!Mine) {
    Mine = std::make_shared<ThreadBuf>();
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    Mine->Tid = NextTid++;
    Buffers.push_back(Mine);
  }
  return *Mine;
}

void Tracer::append(TraceEvent E) {
  ThreadBuf &B = threadBuf();
  std::lock_guard<std::mutex> Lock(B.M);
  E.Tid = B.Tid;
  B.Events.push_back(std::move(E));
}

void Tracer::beginSpan(const char *Name, const char *Cat, uint64_t StartUs,
                       uint64_t SpanId) {
  ThreadBuf &B = threadBuf();
  std::lock_guard<std::mutex> Lock(B.M);
  ActiveSpan A;
  A.Name = Name;
  A.Cat = Cat;
  A.StartUs = StartUs;
  A.SpanId = SpanId;
  A.Tid = B.Tid;
  B.Active.push_back(A);
}

void Tracer::endSpan(TraceEvent E) {
  ThreadBuf &B = threadBuf();
  std::lock_guard<std::mutex> Lock(B.M);
  // Spans end LIFO on their own thread, so the entry is almost always
  // last; if flushActive() already recorded it, skip the duplicate.
  for (size_t I = B.Active.size(); I-- > 0;) {
    if (B.Active[I].SpanId != E.SpanId)
      continue;
    B.Active.erase(B.Active.begin() + static_cast<ptrdiff_t>(I));
    E.Tid = B.Tid;
    B.Events.push_back(std::move(E));
    return;
  }
}

void Tracer::emitComplete(const char *Name, const char *Cat, uint64_t TsUs,
                          uint64_t DurUs, std::string Args,
                          const TraceContext &Ctx, uint64_t SpanId,
                          uint64_t ParentSpanId) {
  if (!enabled())
    return;
  TraceEvent E;
  E.Name = Name;
  E.Cat = Cat;
  E.TsUs = TsUs;
  E.DurUs = DurUs;
  E.TraceIdHi = Ctx.TraceIdHi;
  E.TraceIdLo = Ctx.TraceIdLo;
  E.SpanId = SpanId;
  E.ParentSpanId = ParentSpanId;
  E.Args = std::move(Args);
  append(std::move(E));
}

void Tracer::setThreadName(const std::string &Name) {
  Tracer &T = instance();
  ThreadBuf &B = T.threadBuf();
  std::lock_guard<std::mutex> Lock(B.M);
  B.Name = Name;
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::vector<TraceEvent> Out;
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  for (const auto &B : Buffers) {
    std::lock_guard<std::mutex> BL(B->M);
    Out.insert(Out.end(), B->Events.begin(), B->Events.end());
  }
  return Out;
}

size_t Tracer::eventCount() const {
  size_t N = 0;
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  for (const auto &B : Buffers) {
    std::lock_guard<std::mutex> BL(B->M);
    N += B->Events.size();
  }
  return N;
}

std::vector<ActiveSpan> Tracer::activeSpans() const {
  std::vector<ActiveSpan> Out;
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  for (const auto &B : Buffers) {
    std::lock_guard<std::mutex> BL(B->M);
    Out.insert(Out.end(), B->Active.begin(), B->Active.end());
  }
  return Out;
}

size_t Tracer::flushActive() {
  uint64_t Now = nowUs();
  size_t Flushed = 0;
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  for (auto &B : Buffers) {
    std::lock_guard<std::mutex> BL(B->M);
    for (const ActiveSpan &A : B->Active) {
      TraceEvent E;
      E.Name = A.Name;
      E.Cat = A.Cat;
      E.TsUs = A.StartUs;
      E.DurUs = Now > A.StartUs ? Now - A.StartUs : 0;
      E.Tid = B->Tid;
      E.SpanId = A.SpanId;
      E.Args = "\"flushed\":true";
      B->Events.push_back(std::move(E));
      ++Flushed;
    }
    B->Active.clear();
  }
  return Flushed;
}

std::string Tracer::renderJson() const {
  // Snapshot thread names + events under the locks, render outside.
  std::vector<std::pair<uint32_t, std::string>> Names;
  std::vector<TraceEvent> Events;
  {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    for (const auto &B : Buffers) {
      std::lock_guard<std::mutex> BL(B->M);
      if (!B->Name.empty())
        Names.emplace_back(B->Tid, B->Name);
      Events.insert(Events.end(), B->Events.begin(), B->Events.end());
    }
  }

  JsonWriter W;
  W.beginObject().key("traceEvents").beginArray();
  for (const auto &NM : Names) {
    // Chrome metadata event labelling the thread track.
    W.beginObject()
        .field("name", "thread_name")
        .field("ph", "M")
        .field("pid", 1)
        .field("tid", static_cast<uint64_t>(NM.first))
        .key("args")
        .beginObject()
        .field("name", NM.second)
        .endObject()
        .endObject();
  }
  for (const TraceEvent &E : Events) {
    W.beginObject()
        .field("name", E.Name)
        .field("cat", E.Cat)
        .field("ph", "X")
        .field("ts", E.TsUs)
        .field("dur", E.DurUs)
        .field("pid", 1)
        .field("tid", static_cast<uint64_t>(E.Tid));
    bool HasIds = (E.TraceIdHi | E.TraceIdLo | E.SpanId) != 0;
    if (!E.Args.empty() || HasIds) {
      std::string Body = E.Args;
      auto AddField = [&Body](const char *K, const std::string &V) {
        if (!Body.empty())
          Body += ',';
        Body += '"';
        Body += K;
        Body += "\":\"";
        Body += V;
        Body += '"';
      };
      if ((E.TraceIdHi | E.TraceIdLo) != 0)
        AddField("trace_id", traceIdHex(E.TraceIdHi, E.TraceIdLo));
      if (E.SpanId != 0)
        AddField("span_id", spanIdHex(E.SpanId));
      if (E.ParentSpanId != 0)
        AddField("parent_span_id", spanIdHex(E.ParentSpanId));
      W.fieldRaw("args", "{" + Body + "}");
    }
    W.endObject();
  }
  W.endArray()
      .field("displayTimeUnit", "ms")
      .field("epochWallUs", EpochWallUs)
      .endObject();
  return W.take();
}

bool Tracer::writeFile(const std::string &Path, std::string &Err) const {
  std::string Json = renderJson();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    Err = "cannot open '" + Path + "' for writing";
    return false;
  }
  size_t N = std::fwrite(Json.data(), 1, Json.size(), F);
  bool Ok = N == Json.size() && std::fputc('\n', F) != EOF;
  if (std::fclose(F) != 0)
    Ok = false;
  if (!Ok)
    Err = "short write to '" + Path + "'";
  return Ok;
}

void Span::begin(const char *N, const char *C) {
  Name = N;
  Cat = C;
  Tracer &T = Tracer::instance();
  StartUs = T.nowUs();
  Prev = CurrentCtx;
  Ctx.TraceIdHi = Prev.TraceIdHi;
  Ctx.TraceIdLo = Prev.TraceIdLo;
  Ctx.SpanId = mintSpanId();
  ParentId = Prev.SpanId;
  CurrentCtx = Ctx;
  T.beginSpan(Name, Cat, StartUs, Ctx.SpanId);
  Active = true;
}

void Span::end() {
  Tracer &T = Tracer::instance();
  TraceEvent E;
  E.Name = Name;
  E.Cat = Cat;
  E.TsUs = StartUs;
  uint64_t Now = T.nowUs();
  E.DurUs = Now > StartUs ? Now - StartUs : 0;
  E.TraceIdHi = Ctx.TraceIdHi;
  E.TraceIdLo = Ctx.TraceIdLo;
  E.SpanId = Ctx.SpanId;
  E.ParentSpanId = ParentId;
  E.Args = std::move(Args);
  T.endSpan(std::move(E));
  CurrentCtx = Prev;
  Active = false;
}

void Span::adopt(const TraceContext &Parent) {
  if (!Active || !Parent.valid())
    return;
  Ctx.TraceIdHi = Parent.TraceIdHi;
  Ctx.TraceIdLo = Parent.TraceIdLo;
  ParentId = Parent.SpanId;
  CurrentCtx = Ctx;
}

void Span::arg(const char *Key, const std::string &Val) {
  if (!Active)
    return;
  if (!Args.empty())
    Args += ',';
  Args += '"';
  Args += jsonEscape(Key);
  Args += "\":\"";
  Args += jsonEscape(Val);
  Args += '"';
}

void Span::arg(const char *Key, uint64_t Val) {
  if (!Active)
    return;
  if (!Args.empty())
    Args += ',';
  Args += '"';
  Args += jsonEscape(Key);
  Args += "\":";
  Args += std::to_string(Val);
}

void Span::arg(const char *Key, int64_t Val) {
  if (!Active)
    return;
  if (!Args.empty())
    Args += ',';
  Args += '"';
  Args += jsonEscape(Key);
  Args += "\":";
  Args += std::to_string(Val);
}

void RequestLog::record(RequestSample S) {
  std::lock_guard<std::mutex> Lock(M);
  ++Total;
  if (Ring.size() < kCapacity) {
    Ring.push_back(std::move(S));
    return;
  }
  Ring[Next] = std::move(S);
  Next = (Next + 1) % kCapacity;
}

std::vector<RequestSample> RequestLog::slowest(size_t MaxN) const {
  std::vector<RequestSample> Out;
  {
    std::lock_guard<std::mutex> Lock(M);
    Out = Ring;
  }
  std::sort(Out.begin(), Out.end(),
            [](const RequestSample &A, const RequestSample &B) {
              return A.Sec > B.Sec;
            });
  if (MaxN && Out.size() > MaxN)
    Out.resize(MaxN);
  return Out;
}

uint64_t RequestLog::totalRecorded() const {
  std::lock_guard<std::mutex> Lock(M);
  return Total;
}

std::string obs::renderTracezJson(const RequestLog &Log, size_t MaxSlowest) {
  Tracer &T = Tracer::instance();
  uint64_t NowUs = T.nowUs();
  JsonWriter W;
  W.beginObject();
  W.field("tracing_enabled", Tracer::enabled());
  W.key("active_spans").beginArray();
  for (const ActiveSpan &A : T.activeSpans()) {
    uint64_t Age = NowUs > A.StartUs ? NowUs - A.StartUs : 0;
    W.beginObject()
        .field("name", A.Name)
        .field("cat", A.Cat)
        .field("age_us", Age)
        .field("span_id", spanIdHex(A.SpanId))
        .field("tid", static_cast<uint64_t>(A.Tid))
        .endObject();
  }
  W.endArray();
  W.field("requests_recorded", Log.totalRecorded());
  W.key("slowest_requests").beginArray();
  for (const RequestSample &S : Log.slowest(MaxSlowest)) {
    W.beginObject()
        .field("request_id", S.RequestId)
        .field("sec", S.Sec)
        .field("kind", S.Kind)
        .field("tenant", S.Tenant)
        .field("ts_us", S.TsUs);
    if (S.TraceIdHi | S.TraceIdLo)
      W.field("trace_id", traceIdHex(S.TraceIdHi, S.TraceIdLo));
    if (!S.PhasesJson.empty())
      W.fieldRaw("phases", "{" + S.PhasesJson + "}");
    W.endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}
