//===- farm/Router.cpp - Shard-aware front door for the build farm -----------===//

#include "farm/Router.h"

#include "driver/CompileCache.h"
#include "farm/Http.h"
#include "farm/Net.h"
#include "obs/Json.h"
#include "obs/Log.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace smltc;
using namespace smltc::farm;
using namespace smltc::server;

namespace {

/// A backend spec as typed on the command line, normalized to what
/// Client::connect expects: Unix paths pass through, bare HOST:PORT
/// gains the tcp:// scheme.
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

void setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

} // namespace

FarmRouter::FarmRouter(RouterOptions Options) : Opts(std::move(Options)) {}

FarmRouter::~FarmRouter() {
  requestStop();
  if (Prober.joinable())
    Prober.join();
  // Detached connection threads notice StopRequested at their next
  // receive timeout; wait for the count to hit zero before freeing
  // the state they reference.
  while (LiveConns.load(std::memory_order_acquire) > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (TcpListenFd >= 0)
    ::close(TcpListenFd);
  if (UnixListenFd >= 0)
    ::close(UnixListenFd);
  for (int I = 0; I < 2; ++I)
    if (StopPipe[I] >= 0)
      ::close(StopPipe[I]);
  if (!Opts.SocketPath.empty())
    ::unlink(Opts.SocketPath.c_str());
}

bool FarmRouter::start(std::string &Err) {
  if (Opts.Backends.empty()) {
    Err = "router needs at least one backend";
    return false;
  }
  if (Opts.ListenAddr.empty() && Opts.SocketPath.empty()) {
    Err = "router needs a TCP listen address or a Unix socket path";
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
    auto B = std::make_unique<Backend>();
    B->Addr = std::move(Norm);
    Backends.push_back(std::move(B));
  }

  // Consistent-hash ring: VirtualNodes points per backend, placed by
  // hashing "addr#i". Keys land on the first point clockwise; removing
  // a backend reassigns only its own points.
  int VNodes = std::max(1, Opts.VirtualNodes);
  for (size_t I = 0; I < Backends.size(); ++I)
    for (int V = 0; V < VNodes; ++V)
      Ring.emplace_back(
          fnv1a64(Backends[I]->Addr + "#" + std::to_string(V)), I);
  std::sort(Ring.begin(), Ring.end());

  if (::pipe(StopPipe) != 0) {
    Err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }

  if (!Opts.ListenAddr.empty()) {
    TcpListenFd = listenTcp(Opts.ListenAddr, Err);
    if (TcpListenFd < 0)
      return false;
    // Non-blocking so the accept loop can drain a burst and stop at
    // EAGAIN instead of parking the poll thread inside accept(2).
    setNonBlocking(TcpListenFd);
    BoundTcpAddr = localAddr(TcpListenFd);
  }
  if (!Opts.SocketPath.empty()) {
    sockaddr_un Addr;
    if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
      Err = "socket path too long";
      return false;
    }
    UnixListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (UnixListenFd < 0) {
      Err = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    ::unlink(Opts.SocketPath.c_str());
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    if (::bind(UnixListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) != 0 ||
        ::listen(UnixListenFd, 64) != 0) {
      Err = "bind/listen '" + Opts.SocketPath +
            "': " + std::strerror(errno);
      return false;
    }
    setNonBlocking(UnixListenFd);
  }

  registerMetrics();
  Prober = std::thread([this] { probeLoop(); });
  Started = true;
  return true;
}

std::string FarmRouter::renderStatusz() const {
  double Uptime = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - StartTime)
                      .count();
  obs::JsonWriter W;
  W.beginObject();
  W.field("role", "router");
  W.key("build")
      .beginObject()
      .field("version", compilerVersion())
      .field("cache_schema", optionsSchemaVersion())
      .field("protocol", static_cast<int>(server::kProtocolVersion))
      .endObject();
  W.field("uptime_sec", Uptime, 1);
  W.field("draining", StopRequested.load(std::memory_order_acquire));
  W.field("live_connections",
          static_cast<uint64_t>(LiveConns.load(std::memory_order_relaxed)));
  W.field("compile_forwards",
          CompileForwards.load(std::memory_order_relaxed));
  W.field("retries", Retries.load(std::memory_order_relaxed));
  W.field("unroutable", Unroutable.load(std::memory_order_relaxed));
  W.key("backends").beginArray();
  for (const auto &B : Backends) {
    W.beginObject()
        .field("addr", B->Addr)
        .field("healthy", B->Healthy.load(std::memory_order_relaxed))
        .field("forwarded", B->Forwarded.load(std::memory_order_relaxed))
        .field("failures", B->Failures.load(std::memory_order_relaxed))
        .endObject();
  }
  W.endArray();
  W.endObject();
  return W.take();
}

void FarmRouter::registerMetrics() {
  obs::registerProcessInfo(Reg, compilerVersion(),
                           std::to_string(optionsSchemaVersion()),
                           server::kProtocolVersion);
  auto C = [this](const char *Name, const std::atomic<uint64_t> &Field,
                  const char *Help) {
    Reg.counterFn(
        Name,
        [&Field] { return Field.load(std::memory_order_relaxed); }, Help);
  };
  C("smltcc_router_requests_total", Requests,
    "Frames handled by the router, all message types");
  C("smltcc_router_compile_forwards_total", CompileForwards,
    "Compile requests forwarded to a backend");
  C("smltcc_router_retries_total", Retries,
    "Transport-failure retries against another backend");
  C("smltcc_router_unroutable_total", Unroutable,
    "Compile requests that exhausted every backend candidate");
  C("smltcc_router_protocol_errors_total", ProtocolErrors,
    "Malformed or out-of-order client frames");
  C("smltcc_router_scrape_requests_total", ScrapeRequests,
    "HTTP GET/HEAD /metrics scrapes served");
  C("smltcc_router_connections_total", ConnsAccepted,
    "Client connections accepted");
  C("smltcc_router_connections_rejected_total", ConnsRejected,
    "Connections refused at the MaxConnections cap");
  // Per-backend families, each loop contiguous so the renderer emits
  // one header per family.
  for (auto &B : Backends)
    Reg.counterFn(
        "smltcc_router_backend_forwards_total",
        [BP = B.get()] {
          return BP->Forwarded.load(std::memory_order_relaxed);
        },
        "Requests forwarded per backend", "backend", B->Addr);
  for (auto &B : Backends)
    Reg.counterFn(
        "smltcc_router_backend_failures_total",
        [BP = B.get()] {
          return BP->Failures.load(std::memory_order_relaxed);
        },
        "Transport failures per backend", "backend", B->Addr);
  for (auto &B : Backends)
    Reg.gaugeFn(
        "smltcc_router_backend_healthy",
        [BP = B.get()] {
          return BP->Healthy.load(std::memory_order_relaxed) ? 1.0 : 0.0;
        },
        "1 when the backend accepted its last probe or request",
        "backend", B->Addr);
}

void FarmRouter::requestStop() {
  StopRequested.store(true, std::memory_order_release);
  if (StopPipe[1] >= 0) {
    char B = 's';
    (void)!::write(StopPipe[1], &B, 1);
  }
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

void FarmRouter::probeLoop() {
  while (!StopRequested.load(std::memory_order_acquire)) {
    for (auto &B : Backends) {
      if (StopRequested.load(std::memory_order_acquire))
        return;
      if (B->Healthy.load(std::memory_order_relaxed))
        continue;
      Client Probe;
      std::string Err;
      ConnectPolicy Once;
      Once.Attempts = 1;
      if (Probe.connect(B->Addr, Err, Once) && Probe.ping("hb", Err))
        B->Healthy.store(true, std::memory_order_relaxed);
    }
    // Sleep in small slices so stop requests are honored promptly.
    int Left = std::max(50, Opts.HealthProbeIntervalMs);
    while (Left > 0 && !StopRequested.load(std::memory_order_acquire)) {
      int Slice = std::min(Left, 50);
      std::this_thread::sleep_for(std::chrono::milliseconds(Slice));
      Left -= Slice;
    }
  }
}

uint64_t FarmRouter::run() {
  std::vector<pollfd> Fds;
  while (!StopRequested.load(std::memory_order_acquire)) {
    Fds.clear();
    Fds.push_back(pollfd{StopPipe[0], POLLIN, 0});
    if (TcpListenFd >= 0)
      Fds.push_back(pollfd{TcpListenFd, POLLIN, 0});
    if (UnixListenFd >= 0)
      Fds.push_back(pollfd{UnixListenFd, POLLIN, 0});
    int PR = ::poll(Fds.data(), Fds.size(), 200);
    if (PR < 0 && errno != EINTR)
      break;
    for (size_t I = 1; I < Fds.size(); ++I) {
      if (!(Fds[I].revents & POLLIN))
        continue;
      for (;;) {
        int Fd = ::accept(Fds[I].fd, nullptr, nullptr);
        if (Fd < 0)
          break;
        if (LiveConns.load(std::memory_order_relaxed) >=
            Opts.MaxConnections) {
          ++ConnsRejected;
          ::close(Fd);
          continue;
        }
        ++ConnsAccepted;
        ++LiveConns;
        std::thread([this, Fd] {
          handleConn(Fd);
          LiveConns.fetch_sub(1, std::memory_order_release);
        }).detach();
      }
    }
  }
  // Stop requested: flush any span still open on a connection thread so
  // a --trace-json written after run() returns is complete, and say
  // goodbye in the structured log.
  obs::Tracer::instance().flushActive();
  SMLTC_LOG(obs::LogLevel::Info, "router", "drain_complete",
            obs::LogFields()
                .add("compile_forwards",
                     CompileForwards.load(std::memory_order_relaxed))
                .take());
  return CompileForwards.load(std::memory_order_relaxed);
}

bool FarmRouter::sendAll(int Fd, const std::string &Bytes) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

std::string FarmRouter::statsJson() const {
  obs::JsonWriter W;
  W.beginObject()
      .field("requests", Requests.load(std::memory_order_relaxed))
      .field("compile_forwards",
             CompileForwards.load(std::memory_order_relaxed))
      .field("retries", Retries.load(std::memory_order_relaxed))
      .field("unroutable", Unroutable.load(std::memory_order_relaxed))
      .field("protocol_errors",
             ProtocolErrors.load(std::memory_order_relaxed))
      .field("connections", ConnsAccepted.load(std::memory_order_relaxed))
      .field("backends", static_cast<uint64_t>(Backends.size()));
  uint64_t Healthy = 0;
  for (const auto &B : Backends)
    if (B->Healthy.load(std::memory_order_relaxed))
      ++Healthy;
  W.field("backends_healthy", Healthy);
  W.endObject();
  return W.take();
}

server::Client *FarmRouter::backendClient(
    size_t Idx, const std::string &ConnToken,
    std::vector<std::unique_ptr<server::Client>> &Pool) {
  if (Pool.size() < Backends.size())
    Pool.resize(Backends.size());
  if (Pool[Idx] && Pool[Idx]->connected())
    return Pool[Idx].get();
  auto C = std::make_unique<Client>();
  std::string Err;
  ConnectPolicy Once;
  Once.Attempts = 1; // ring fallback is the retry mechanism here
  if (!C->connect(Backends[Idx]->Addr, Err, Once))
    return nullptr;
  const std::string &Token =
      !ConnToken.empty() ? ConnToken : Opts.Token;
  if (!Token.empty()) {
    AuthOkMsg Ok;
    if (!C->authenticate(Token, Ok, Err))
      return nullptr;
  }
  Pool[Idx] = std::move(C);
  return Pool[Idx].get();
}

void FarmRouter::forwardCompile(
    int Fd, const server::Frame &F, std::string &ConnToken,
    std::vector<std::unique_ptr<server::Client>> &Pool) {
  CompileRequest Req;
  std::string DecodeErr;
  if (!decodeCompileRequest(F.Payload, Req, DecodeErr)) {
    ++ProtocolErrors;
    ErrorMsg E;
    E.St = Status::BadFrame;
    E.Message = DecodeErr;
    sendAll(Fd, encodeFrame(MsgType::Error, encodeError(E)));
    return;
  }
  uint64_t KeyHash = Req.CacheKeyHash;
  if (KeyHash == 0)
    KeyHash =
        fnv1a64(canonicalJobKey(Req.Source, Req.Opts, Req.WithPrelude));

  ++CompileForwards;
  auto Arrival = std::chrono::steady_clock::now();
  // The router's span in the distributed trace: adopted under the
  // client's rpc span via the wire context, and — when this router is
  // recording — stamped into the forwarded frame as the new parent, so
  // shard spans nest under the hop that routed them.
  obs::TraceContext WireCtx{Req.TraceIdHi, Req.TraceIdLo,
                            Req.ParentSpanId};
  obs::Span Fwd("router_forward", "router");
  Fwd.adopt(WireCtx);
  Fwd.arg("request_id", Req.RequestId);
  std::string ForwardPayload = F.Payload;
  if (Fwd.spanId() != 0 && WireCtx.valid()) {
    CompileRequest Rewritten = Req;
    Rewritten.ParentSpanId = Fwd.spanId();
    ForwardPayload = encodeCompileRequest(Rewritten);
  }
  std::vector<size_t> Candidates = candidatesFor(KeyHash);
  // Healthy candidates first, in ring order; unhealthy ones still get a
  // last-resort attempt so a fully-down marking can self-correct.
  std::stable_partition(Candidates.begin(), Candidates.end(), [this](size_t I) {
    return Backends[I]->Healthy.load(std::memory_order_relaxed);
  });

  int Attempts = std::max(1, Opts.MaxAttempts);
  for (int A = 0; A < Attempts && A < static_cast<int>(Candidates.size());
       ++A) {
    size_t Idx = Candidates[static_cast<size_t>(A)];
    Backend &B = *Backends[Idx];
    if (A > 0) {
      ++Retries;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(Opts.RetryBaseMs << (A - 1)));
    }
    Client *C = backendClient(Idx, ConnToken, Pool);
    if (!C) {
      ++B.Failures;
      B.Healthy.store(false, std::memory_order_relaxed);
      continue;
    }
    // Relay the request payload (re-encoded only to restamp the trace
    // parent when this router records spans) and the response payload
    // untouched: responses are byte-transparent end to end.
    std::string Err;
    Frame Resp;
    bool Ok =
        C->sendRaw(encodeFrame(MsgType::CompileReq, ForwardPayload), Err) &&
        C->recvFrame(Resp, Err);
    if (!Ok) {
      ++B.Failures;
      B.Healthy.store(false, std::memory_order_relaxed);
      Pool[Idx].reset(); // the cached connection is broken
      SMLTC_LOG(obs::LogLevel::Warn, "router", "backend_failed",
                obs::LogFields()
                    .add("backend", B.Addr)
                    .add("request_id", Req.RequestId)
                    .add("error", Err)
                    .take());
      continue;
    }
    if (Resp.Type != MsgType::CompileResp &&
        Resp.Type != MsgType::Error) {
      ++B.Failures;
      Pool[Idx].reset();
      continue;
    }
    B.Healthy.store(true, std::memory_order_relaxed);
    ++B.Forwarded;
    Fwd.arg("backend", B.Addr);
    // Record before replying: a client that reads /tracez right after
    // its reply must find the sample.
    recordForward(Arrival, Req.RequestId, WireCtx);
    sendAll(Fd, encodeFrame(Resp.Type, Resp.Payload));
    return;
  }
  ++Unroutable;
  SMLTC_LOG(obs::LogLevel::Error, "router", "unroutable",
            obs::LogFields()
                .add("request_id", Req.RequestId)
                .add("candidates",
                     static_cast<uint64_t>(Candidates.size()))
                .take());
  ErrorMsg E;
  E.St = Status::Internal;
  E.Message = "no reachable backend for this request";
  recordForward(Arrival, Req.RequestId, WireCtx);
  sendAll(Fd, encodeFrame(MsgType::Error, encodeError(E)));
}

void FarmRouter::recordForward(std::chrono::steady_clock::time_point Arrival,
                               uint64_t RequestId,
                               const obs::TraceContext &Ctx) {
  obs::Tracer &T = obs::Tracer::instance();
  obs::RequestSample S;
  S.RequestId = RequestId;
  S.TraceIdHi = Ctx.TraceIdHi;
  S.TraceIdLo = Ctx.TraceIdLo;
  S.TsUs = T.toUs(Arrival);
  S.Sec = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        Arrival)
              .count();
  S.Kind = "forward";
  obs::RequestLog::instance().record(std::move(S));
}

void FarmRouter::handleHttpConn(int Fd, std::string In) {
  // Finish reading the request head, answer once, close.
  char Buf[4096];
  for (;;) {
    std::string Method, Path;
    HttpParse R = parseHttpRequest(In, Method, Path);
    if (R == HttpParse::NeedMore) {
      ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      if (N <= 0)
        return;
      In.append(Buf, static_cast<size_t>(N));
      continue;
    }
    std::string Resp;
    if (R == HttpParse::Bad) {
      Resp = httpResponse(400, "text/plain; charset=utf-8",
                          "bad request\n");
    } else if (Method != "GET" && Method != "HEAD") {
      Resp = httpResponse(405, "text/plain; charset=utf-8",
                          "method not allowed\n");
    } else if (Path == "/metrics") {
      ++ScrapeRequests;
      Resp = httpResponse(200, kPromContentType, Reg.renderPrometheus(),
                          Method == "HEAD");
    } else if (Path == "/healthz") {
      bool Stopping = StopRequested.load(std::memory_order_acquire);
      Resp = Stopping
                 ? httpResponse(503, "text/plain; charset=utf-8",
                                "draining\n", Method == "HEAD")
                 : httpResponse(200, "text/plain; charset=utf-8", "ok\n",
                                Method == "HEAD");
    } else if (Path == "/statusz") {
      Resp = httpResponse(200, "application/json; charset=utf-8",
                          renderStatusz(), Method == "HEAD");
    } else if (Path == "/tracez") {
      Resp = httpResponse(200, "application/json; charset=utf-8",
                          obs::renderTracezJson(), Method == "HEAD");
    } else {
      Resp = httpResponse(
          404, "text/plain; charset=utf-8",
          "not found; try /metrics, /healthz, /statusz, /tracez\n");
    }
    sendAll(Fd, Resp);
    return;
  }
}

void FarmRouter::handleConn(int Fd) {
  // A bounded receive timeout turns the blocking read loop into a
  // periodic StopRequested check, so router shutdown never waits on an
  // idle client.
  timeval TV;
  TV.tv_sec = 0;
  TV.tv_usec = 250 * 1000;
  (void)::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));

  std::string In;
  std::string ConnToken;
  std::vector<std::unique_ptr<Client>> Pool;
  bool GotHello = false;
  char Buf[65536];

  auto SendError = [&](Status St, const std::string &Msg) {
    ErrorMsg E;
    E.St = St;
    E.Message = Msg;
    sendAll(Fd, encodeFrame(MsgType::Error, encodeError(E)));
  };

  for (;;) {
    // Scrape sniff must run before the frame parser: "GET " is a
    // complete (bad) magic to parseFrame, not a short read.
    if (!GotHello && looksLikeHttp(In)) {
      handleHttpConn(Fd, std::move(In));
      break;
    }
    Frame F;
    size_t Consumed = 0;
    Status Err;
    std::string ErrMsg;
    ParseResult R =
        parseFrame(In.data(), In.size(), F, Consumed, Err, ErrMsg);
    if (R == ParseResult::Bad) {
      ++ProtocolErrors;
      SendError(Err, ErrMsg);
      break;
    }
    if (R == ParseResult::NeedMore) {
      ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR)) {
        if (StopRequested.load(std::memory_order_acquire))
          break;
        continue;
      }
      if (N <= 0)
        break;
      In.append(Buf, static_cast<size_t>(N));
      continue;
    }
    In.erase(0, Consumed);
    ++Requests;

    if (!GotHello && F.Type != MsgType::Hello) {
      ++ProtocolErrors;
      SendError(Status::BadFrame, "expected hello handshake first");
      break;
    }
    switch (F.Type) {
    case MsgType::Hello: {
      HelloMsg H;
      if (!decodeHello(F.Payload, H)) {
        ++ProtocolErrors;
        SendError(Status::BadFrame, "malformed hello");
        goto done;
      }
      if (kProtocolVersion < H.MinVersion ||
          kProtocolVersion > H.MaxVersion) {
        ++ProtocolErrors;
        SendError(Status::BadVersion,
                  "router speaks protocol version " +
                      std::to_string(kProtocolVersion));
        goto done;
      }
      GotHello = true;
      HelloOkMsg Ok;
      Ok.ServerName = "smltcc-router";
      sendAll(Fd, encodeFrame(MsgType::HelloOk, encodeHelloOk(Ok)));
      break;
    }
    case MsgType::TenantAuth: {
      // Validate against a live backend so the client gets a real
      // verdict, then remember the token for every later forward.
      TenantAuthMsg M;
      if (!decodeTenantAuth(F.Payload, M)) {
        ++ProtocolErrors;
        SendError(Status::BadFrame, "malformed tenant auth");
        goto done;
      }
      std::vector<size_t> Cands = candidatesFor(fnv1a64(M.Token));
      bool Answered = false;
      for (size_t Idx : Cands) {
        Client Probe;
        std::string CErr;
        ConnectPolicy Once;
        Once.Attempts = 1;
        if (!Probe.connect(Backends[Idx]->Addr, CErr, Once))
          continue;
        AuthOkMsg Ok;
        if (Probe.authenticate(M.Token, Ok, CErr)) {
          ConnToken = M.Token;
          sendAll(Fd, encodeFrame(MsgType::AuthOk, encodeAuthOk(Ok)));
        } else {
          SendError(Probe.lastErrorStatus() == Status::Ok
                        ? Status::Internal
                        : Probe.lastErrorStatus(),
                    CErr);
        }
        Answered = true;
        break;
      }
      if (!Answered)
        SendError(Status::Internal, "no reachable backend to verify token");
      if (!Answered || ConnToken.empty())
        goto done; // reject closes, like the daemon
      break;
    }
    case MsgType::Ping:
      if (F.Payload.size() > kMaxPingPayload) {
        ++ProtocolErrors;
        SendError(Status::BadFrame, "ping payload too large");
        goto done;
      }
      sendAll(Fd, encodeFrame(MsgType::Pong, F.Payload));
      break;
    case MsgType::CompileReq:
      forwardCompile(Fd, F, ConnToken, Pool);
      break;
    case MsgType::StatsReq: {
      WireWriter W;
      W.str(statsJson());
      sendAll(Fd, encodeFrame(MsgType::StatsResp, W.take()));
      break;
    }
    case MsgType::StatsTextReq: {
      StatsTextRequest SReq;
      if (!decodeStatsTextRequest(F.Payload, SReq)) {
        ++ProtocolErrors;
        SendError(Status::BadFrame, "malformed stats-text request");
        goto done;
      }
      StatsTextResponse SResp;
      SResp.Format = SReq.Format;
      SResp.Text = SReq.Format == StatsFormat::Prometheus
                       ? Reg.renderPrometheus()
                       : ("smltcc farm router\n" + statsJson() + "\n");
      sendAll(Fd,
              encodeFrame(MsgType::StatsTextResp,
                          encodeStatsTextResponse(SResp)));
      break;
    }
    case MsgType::ShutdownReq:
      sendAll(Fd, encodeFrame(MsgType::ShutdownOk, std::string()));
      requestStop();
      goto done;
    default:
      ++ProtocolErrors;
      SendError(Status::UnknownType,
                "unknown message type " +
                    std::to_string(static_cast<unsigned>(F.Type)));
      goto done;
    }
  }
done:
  ::close(Fd);
}
