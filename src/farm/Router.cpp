//===- farm/Router.cpp - Shard-aware front door for the build farm -----------===//

#include "farm/Router.h"

#include "driver/CompileCache.h"
#include "farm/Net.h"
#include "obs/Json.h"
#include "obs/Log.h"

#include <algorithm>

using namespace smltc;
using namespace smltc::farm;
using namespace smltc::server;

namespace {

const NodeRole kRouterRole = {"router", "router", "smltcc-router",
                              "compile_forwards"};

/// Distinct backends a compile may try before it is unroutable.
constexpr size_t kMaxAttempts = 3;
/// Unhealthy backends are re-probed at this interval.
constexpr std::chrono::milliseconds kHealthProbeInterval{500};

/// A backend spec as typed on the command line, normalized to a connect
/// target: Unix paths pass through, bare HOST:PORT gains the tcp://
/// scheme.
std::string normalizeBackend(const std::string &Spec) {
  if (isTcpTarget(Spec) || Spec.find('/') != std::string::npos)
    return Spec;
  return std::string(kTcpScheme) + Spec;
}

/// splitmix64 finalizer. Client-supplied cache-key hashes are only
/// required to be *distinct*, not well mixed — FNV of a short source
/// clusters in the high bits, which is exactly where the ring looks.
/// Finalizing here keeps placement uniform whatever the client sends.
uint64_t mix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

/// What a new backend connection sends first: Hello, then TenantAuth
/// when there is a token to present.
std::string openingFrames(const std::string &Token) {
  HelloMsg H;
  H.ClientName = "smltcc";
  std::string Bytes = encodeFrame(MsgType::Hello, encodeHello(H));
  if (!Token.empty()) {
    TenantAuthMsg M;
    M.Token = Token;
    Bytes += encodeFrame(MsgType::TenantAuth, encodeTenantAuth(M));
  }
  return Bytes;
}

} // namespace

FarmRouter::FarmRouter(RouterOptions Options)
    : Node(kRouterRole, Options.SocketPath, Options.ListenAddr),
      Opts(std::move(Options)) {}

bool FarmRouter::prepare(std::string &Err) {
  if (Opts.Backends.empty()) {
    Err = "router needs at least one backend";
    return false;
  }
  for (const std::string &Spec : Opts.Backends) {
    std::string Norm = normalizeBackend(Spec);
    if (isTcpTarget(Norm)) {
      std::string Host, Port;
      if (!splitHostPort(stripTcpScheme(Norm), Host, Port, Err)) {
        Err = "backend '" + Spec + "': " + Err;
        return false;
      }
    }
    Backends.emplace_back();
    Backends.back().Addr = std::move(Norm);
  }

  // Consistent-hash ring: VirtualNodes points per backend, placed by
  // hashing "addr#i". Keys land on the first point clockwise; removing
  // a backend reassigns only its own points.
  int VNodes = std::max(1, Opts.VirtualNodes);
  for (size_t I = 0; I < Backends.size(); ++I)
    for (int V = 0; V < VNodes; ++V)
      Ring.emplace_back(fnv1a64(Backends[I].Addr + "#" + std::to_string(V)),
                        I);
  std::sort(Ring.begin(), Ring.end());

  auto C = [this](const char *Name, const uint64_t &Field,
                  const char *Help) {
    Reg.counterFn(Name, [&Field] { return Field; }, Help);
  };
  C("smltcc_router_compile_forwards_total", CompileForwards,
    "Compile requests forwarded to a backend");
  C("smltcc_router_retries_total", Retries,
    "Transport-failure retries against another backend");
  C("smltcc_router_unroutable_total", Unroutable,
    "Compile requests that exhausted every backend candidate");
  // Per-backend families, each loop contiguous so the renderer emits
  // one header per family. `Backends` no longer grows.
  for (const Backend &B : Backends)
    Reg.counterFn(
        "smltcc_router_backend_forwards_total",
        [BP = &B] { return BP->Forwarded; }, "Requests forwarded per backend",
        "backend", B.Addr);
  for (const Backend &B : Backends)
    Reg.counterFn(
        "smltcc_router_backend_failures_total",
        [BP = &B] { return BP->Failures; }, "Transport failures per backend",
        "backend", B.Addr);
  for (const Backend &B : Backends)
    Reg.gaugeFn(
        "smltcc_router_backend_healthy",
        [BP = &B] { return BP->Healthy ? 1.0 : 0.0; },
        "1 when the backend accepted its last probe or request", "backend",
        B.Addr);
  return true;
}

std::vector<size_t> FarmRouter::candidatesFor(uint64_t KeyHash) const {
  std::vector<size_t> Out;
  if (Ring.empty())
    return Out;
  auto It = std::lower_bound(
      Ring.begin(), Ring.end(),
      std::make_pair(mix64(KeyHash), static_cast<size_t>(0)));
  for (size_t Step = 0; Step < Ring.size() && Out.size() < Backends.size();
       ++Step) {
    if (It == Ring.end())
      It = Ring.begin();
    size_t Idx = It->second;
    if (std::find(Out.begin(), Out.end(), Idx) == Out.end())
      Out.push_back(Idx);
    ++It;
  }
  return Out;
}

std::unique_ptr<Node::Conn> FarmRouter::newConn() {
  auto C = std::make_unique<ClientConn>();
  C->Links.assign(Backends.size(), 0);
  return C;
}

void FarmRouter::onFrame(Conn &C, Frame &F) {
  if (C.Outbound)
    return onBackendFrame(static_cast<LinkConn &>(C), F);
  ClientConn &CC = static_cast<ClientConn &>(C);
  if (F.Type == MsgType::TenantAuth)
    startAuth(CC, F);
  else
    startCompile(CC, F);
}

void FarmRouter::startCompile(ClientConn &C, const Frame &F) {
  CompileRequest Req;
  std::string DecodeErr;
  if (!decodeCompileRequest(F.Payload, Req, DecodeErr)) {
    ++Counters.ProtocolErrors;
    sendError(C, Status::BadFrame, DecodeErr);
    return;
  }
  if (draining()) {
    sendCompileStatus(C, Status::Draining, "router is draining",
                      Req.RequestId);
    return;
  }
  uint64_t KeyHash = Req.CacheKeyHash;
  if (KeyHash == 0)
    KeyHash =
        fnv1a64(canonicalJobKey(Req.Source, Req.Opts, Req.WithPrelude));

  ++CompileForwards;
  auto Fw = std::make_unique<Forward>();
  Fw->Arrival = Clock::now();
  Fw->RequestId = Req.RequestId;
  Fw->Ctx = obs::TraceContext{Req.TraceIdHi, Req.TraceIdLo, Req.ParentSpanId};
  // The router's span in the distributed trace: parented under the
  // client's rpc span via the wire context and, when this router
  // records, stamped into the forwarded frame as the new parent, so
  // shard spans nest under the hop that routed them.
  if (obs::Tracer::enabled())
    Fw->SpanId = obs::mintSpanId();
  if (Fw->SpanId && Fw->Ctx.valid()) {
    Req.ParentSpanId = Fw->SpanId;
    Fw->Request = encodeFrame(MsgType::CompileReq, encodeCompileRequest(Req));
  } else {
    Fw->Request = encodeFrame(MsgType::CompileReq, F.Payload);
  }
  Fw->Candidates = candidatesFor(KeyHash);
  // Healthy candidates first, in ring order; unhealthy ones still get a
  // last-resort attempt so a fully-down marking can self-correct.
  std::stable_partition(Fw->Candidates.begin(), Fw->Candidates.end(),
                        [this](size_t I) { return Backends[I].Healthy; });
  if (Fw->Candidates.size() > kMaxAttempts)
    Fw->Candidates.resize(kMaxAttempts);
  C.Fw = std::move(Fw);
  C.Paused = true;
  attempt(C);
}

void FarmRouter::startAuth(ClientConn &C, const Frame &F) {
  TenantAuthMsg M;
  if (!decodeTenantAuth(F.Payload, M)) {
    ++Counters.ProtocolErrors;
    sendError(C, Status::BadFrame, "malformed tenant auth");
    C.Closing = true;
    return;
  }
  // The token is checked by a live backend, so the client gets a real
  // verdict. The connection that checks it stays; the others carry the
  // old token.
  for (uint64_t &Id : C.Links) {
    if (Conn *L = find(Id))
      drop(*L);
    Id = 0;
  }
  auto Fw = std::make_unique<Forward>();
  Fw->Auth = true;
  Fw->Token = std::move(M.Token);
  Fw->Candidates = candidatesFor(fnv1a64(Fw->Token));
  C.Fw = std::move(Fw);
  C.Paused = true;
  attempt(C);
}

FarmRouter::LinkConn *FarmRouter::link(ClientConn &C, size_t Idx,
                                       const std::string &Token) {
  Conn *Open = find(C.Links[Idx]);
  if (Open && !Open->Closing)
    return static_cast<LinkConn *>(Open);
  auto L = std::make_unique<LinkConn>();
  L->Owner = C.Id;
  L->Backend = Idx;
  L->AwaitAuth = !Token.empty();
  Conn *Opened =
      connectTo(Backends[Idx].Addr, std::move(L), openingFrames(Token));
  C.Links[Idx] = Opened ? Opened->Id : 0;
  return static_cast<LinkConn *>(Opened);
}

void FarmRouter::attempt(ClientConn &C) {
  Forward &Fw = *C.Fw;
  if (Fw.Attempt >= Fw.Candidates.size()) {
    if (Fw.Auth) {
      sendError(C, Status::Internal, "no reachable backend to verify token");
      C.Closing = true; // a failed auth closes, like the daemon
      C.Fw.reset();
      return;
    }
    ++Unroutable;
    SMLTC_LOG(obs::LogLevel::Error, "router", "unroutable",
              obs::LogFields()
                  .add("request_id", Fw.RequestId)
                  .add("candidates",
                       static_cast<uint64_t>(Fw.Candidates.size()))
                  .take());
    ErrorMsg E;
    E.St = Status::Internal;
    E.Message = "no reachable backend for this request";
    Frame Reply;
    Reply.Type = MsgType::Error;
    Reply.Payload = encodeError(E);
    finish(C, Reply);
    return;
  }
  const std::string &Token = Fw.Auth              ? Fw.Token
                             : !C.Token.empty() ? C.Token
                                                : Opts.Token;
  LinkConn *L = link(C, Fw.Candidates[Fw.Attempt], Token);
  if (!L)
    return failAttempt(C, /*MarkUnhealthy=*/true);
  Fw.Link = L->Id;
  if (!Fw.Auth)
    queue(*L, Fw.Request);
}

void FarmRouter::failAttempt(ClientConn &C, bool MarkUnhealthy) {
  Forward &Fw = *C.Fw;
  Fw.Link = 0;
  Backend &B = Backends[Fw.Candidates[Fw.Attempt++]];
  // A token check moves on to the next backend at once and counts
  // nothing against the one that did not answer.
  if (Fw.Auth)
    return attempt(C);
  ++B.Failures;
  if (MarkUnhealthy && B.Healthy) {
    B.Healthy = false;
    B.NextProbe = Clock::now() + kHealthProbeInterval;
  }
  SMLTC_LOG(obs::LogLevel::Warn, "router", "backend_failed",
            obs::LogFields()
                .add("backend", B.Addr)
                .add("request_id", Fw.RequestId)
                .take());
  if (Fw.Attempt >= Fw.Candidates.size())
    return attempt(C); // answers: nothing left to try
  ++Retries;
  Fw.RetryAt = Clock::now() + std::chrono::milliseconds(Opts.RetryBaseMs)
                                  * (1 << (Fw.Attempt - 1));
}

void FarmRouter::onBackendFrame(LinkConn &L, const Frame &F) {
  if (L.AwaitHello) {
    L.AwaitHello = false;
    if (F.Type != MsgType::HelloOk)
      drop(L);
    return;
  }
  Backend &B = Backends[L.Backend];
  if (L.Owner == 0) { // a health probe: Pong is the answer it waits for
    if (F.Type == MsgType::Pong)
      B.Healthy = true;
    drop(L);
    return;
  }
  Conn *Owner = find(L.Owner);
  ClientConn *C = static_cast<ClientConn *>(Owner);
  bool Carrying = C && C->Fw && C->Fw->Link == L.Id;
  if (L.AwaitAuth) {
    L.AwaitAuth = false;
    if (F.Type == MsgType::AuthOk) {
      if (Carrying && C->Fw->Auth) {
        C->Token = C->Fw->Token;
        finish(*C, F);
      }
      return;
    }
    // The backend refused the token. That refusal is the answer to the
    // client's request, and says nothing about the backend's health.
    drop(L);
    if (Carrying) {
      bool Auth = C->Fw->Auth;
      finish(*C, F);
      if (Auth)
        C->Closing = true; // a rejected auth closes, like the daemon
    }
    return;
  }
  if (!Carrying ||
      (F.Type != MsgType::CompileResp && F.Type != MsgType::Error)) {
    // A reply nobody asked for: this connection is out of step.
    if (Carrying)
      failAttempt(*C, /*MarkUnhealthy=*/false);
    drop(L);
    return;
  }
  B.Healthy = true;
  ++B.Forwarded;
  finish(*C, F);
}

void FarmRouter::finish(ClientConn &C, const Frame &Reply) {
  std::unique_ptr<Forward> Fw = std::move(C.Fw);
  resume(C);
  if (Fw->Auth) {
    send(C, Reply.Type, Reply.Payload);
    return;
  }
  std::string BackendAddr;
  if (Fw->Attempt < Fw->Candidates.size())
    BackendAddr = Backends[Fw->Candidates[Fw->Attempt]].Addr;
  respond(C, recordForward(*Fw, BackendAddr), Reply.Type, Reply.Payload);
}

obs::RequestSample FarmRouter::recordForward(const Forward &Fw,
                                             const std::string &BackendAddr) {
  obs::Tracer &T = obs::Tracer::instance();
  double Sec = std::chrono::duration<double>(Clock::now() - Fw.Arrival).count();
  if (Fw.SpanId) {
    std::string Args = "\"request_id\":" + std::to_string(Fw.RequestId);
    if (!BackendAddr.empty())
      Args += ",\"backend\":\"" + obs::jsonEscape(BackendAddr) + "\"";
    T.emitComplete("router_forward", "router", T.toUs(Fw.Arrival),
                   static_cast<uint64_t>(Sec * 1e6), std::move(Args), Fw.Ctx,
                   Fw.SpanId, Fw.Ctx.SpanId);
  }
  obs::RequestSample S;
  S.RequestId = Fw.RequestId;
  S.TraceIdHi = Fw.Ctx.TraceIdHi;
  S.TraceIdLo = Fw.Ctx.TraceIdLo;
  S.TsUs = T.toUs(Fw.Arrival);
  S.Sec = Sec;
  S.Kind = "forward";
  return S;
}

void FarmRouter::onClose(Conn &C) {
  if (!C.Outbound) {
    // The client left: its backend connections, and any forward on
    // them, go with it.
    for (uint64_t Id : static_cast<ClientConn &>(C).Links)
      if (Conn *L = find(Id))
        drop(*L);
    return;
  }
  LinkConn &L = static_cast<LinkConn &>(C);
  if (L.Owner == 0) {
    Backends[L.Backend].ProbeLink = 0;
    return;
  }
  Conn *Owner = find(L.Owner);
  if (!Owner)
    return;
  ClientConn &CC = static_cast<ClientConn &>(*Owner);
  if (CC.Links[L.Backend] == L.Id)
    CC.Links[L.Backend] = 0;
  if (CC.Fw && CC.Fw->Link == L.Id)
    failAttempt(CC, /*MarkUnhealthy=*/true);
}

void FarmRouter::probe(Backend &B, size_t Idx) {
  B.NextProbe = Clock::now() + kHealthProbeInterval;
  auto L = std::make_unique<LinkConn>();
  L->Backend = Idx;
  Conn *P = connectTo(B.Addr, std::move(L),
                      openingFrames(std::string()) +
                          encodeFrame(MsgType::Ping, "hb"));
  B.ProbeLink = P ? P->Id : 0;
}

bool FarmRouter::busy() const {
  for (const auto &KV : Conns)
    if (!KV.second->Outbound &&
        static_cast<const ClientConn &>(*KV.second).Fw)
      return true;
  return false;
}

Node::Clock::time_point FarmRouter::nextTimer() const {
  Clock::time_point Due = Clock::time_point::max();
  for (const auto &KV : Conns) {
    if (KV.second->Outbound)
      continue;
    const Forward *Fw = static_cast<const ClientConn &>(*KV.second).Fw.get();
    if (Fw && Fw->Link == 0)
      Due = std::min(Due, Fw->RetryAt);
  }
  for (const Backend &B : Backends)
    if (!B.Healthy && !B.ProbeLink)
      Due = std::min(Due, B.NextProbe);
  return Due;
}

void FarmRouter::onTick() {
  Clock::time_point Now = Clock::now();
  // attempt() may open connections, so collect before acting.
  std::vector<uint64_t> Retry;
  for (const auto &KV : Conns) {
    if (KV.second->Outbound)
      continue;
    const Forward *Fw = static_cast<const ClientConn &>(*KV.second).Fw.get();
    if (Fw && Fw->Link == 0 && Fw->RetryAt <= Now)
      Retry.push_back(KV.first);
  }
  for (uint64_t Id : Retry)
    attempt(static_cast<ClientConn &>(*find(Id)));
  for (size_t I = 0; I < Backends.size(); ++I)
    if (!Backends[I].Healthy && !Backends[I].ProbeLink &&
        Backends[I].NextProbe <= Now)
      probe(Backends[I], I);
}

std::string FarmRouter::statsJson() const {
  uint64_t Healthy = 0;
  for (const Backend &B : Backends)
    Healthy += B.Healthy ? 1 : 0;
  obs::JsonWriter W;
  W.beginObject()
      .field("requests", Counters.Requests)
      .field("compile_forwards", CompileForwards)
      .field("retries", Retries)
      .field("unroutable", Unroutable)
      .field("protocol_errors", Counters.ProtocolErrors)
      .field("connections", Counters.Connections)
      .field("backends", static_cast<uint64_t>(Backends.size()))
      .field("backends_healthy", Healthy)
      .endObject();
  return W.take();
}

std::string FarmRouter::humanStats() const {
  return "smltcc farm router\n" + statsJson() + "\n";
}

void FarmRouter::statusFields(obs::JsonWriter &W) const {
  W.field("live_connections", static_cast<uint64_t>(clientCount()));
  W.field("compile_forwards", CompileForwards);
  W.field("retries", Retries);
  W.field("unroutable", Unroutable);
  W.key("backends").beginArray();
  for (const Backend &B : Backends)
    W.beginObject()
        .field("addr", B.Addr)
        .field("healthy", B.Healthy)
        .field("forwarded", B.Forwarded)
        .field("failures", B.Failures)
        .endObject();
  W.endArray();
}
