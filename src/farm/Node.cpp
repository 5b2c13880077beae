//===- farm/Node.cpp - The poll-loop core of a shard or a router -------------===//

#include "farm/Node.h"

#include "driver/CompileCache.h"
#include "farm/Http.h"
#include "farm/Net.h"
#include "obs/Json.h"
#include "obs/Log.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace smltc;
using namespace smltc::farm;
using namespace smltc::server;

namespace {

/// Signal-handler target (process-global; installSignalHandlers).
Node *volatile GSignalNode = nullptr;

void onStopSignal(int) {
  if (Node *N = GSignalNode)
    N->requestStop();
}

void closeFd(int &Fd) {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
}

} // namespace

Node::Node(const NodeRole &R, std::string Socket, std::string Listen)
    : Role(R), SocketPath(std::move(Socket)), ListenAddr(std::move(Listen)) {}

Node::~Node() {
  for (auto &KV : Conns)
    ::close(KV.second->Fd);
  closeFd(UnixListenFd);
  closeFd(TcpListenFd);
  closeFd(WakePipe[0]);
  closeFd(WakePipe[1]);
  if (Started && !SocketPath.empty())
    ::unlink(SocketPath.c_str());
}

bool Node::start(std::string &Err) {
  if (SocketPath.empty() && ListenAddr.empty()) {
    Err = std::string(Role.Component) +
          " needs a Unix socket path or a TCP listen address";
    return false;
  }
  StartTime = Clock::now();
  obs::registerProcessInfo(Reg, compilerVersion(),
                           std::to_string(optionsSchemaVersion()),
                           kProtocolVersion);
  NodeCounters &M = counters();
  auto Counter = [&](const char *Suffix, const uint64_t &Field,
                     const char *Help) {
    Reg.counterFn("smltcc_" + std::string(Role.Component) + Suffix,
                  [&Field] { return Field; }, Help);
  };
  Counter("_connections_total", M.Connections, "Client connections accepted");
  Counter("_connections_rejected_total", M.ConnectionsRejected,
          "Connections refused at the connection cap");
  Counter("_requests_total", M.Requests,
          "Frames and HTTP requests handled, all types");
  Counter("_protocol_errors_total", M.ProtocolErrors,
          "Malformed or out-of-order frames");
  Counter("_scrape_requests_total", M.ScrapeRequests,
          "HTTP GET/HEAD /metrics scrapes served");
  if (!prepare(Err))
    return false;

  if (::pipe(WakePipe) != 0) {
    Err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  setNonBlocking(WakePipe[0]);
  setNonBlocking(WakePipe[1]);
  if (!SocketPath.empty()) {
    UnixListenFd = listenUnix(SocketPath, Err);
    if (UnixListenFd < 0)
      return false;
    setNonBlocking(UnixListenFd);
  }
  if (!ListenAddr.empty()) {
    TcpListenFd = listenTcp(ListenAddr, Err);
    if (TcpListenFd < 0)
      return false;
    setNonBlocking(TcpListenFd);
    BoundTcpAddr = localAddr(TcpListenFd);
  }
  Started = true;
  return true;
}

void Node::requestStop() {
  StopRequested.store(true, std::memory_order_release);
  wake();
}

void Node::wake() {
  if (WakePipe[1] >= 0) {
    char B = 'w';
    // Best effort: if the pipe is full the loop is waking up anyway.
    (void)!::write(WakePipe[1], &B, 1);
  }
}

void Node::installSignalHandlers(Node *N) {
  GSignalNode = N;
  struct sigaction Sa;
  std::memset(&Sa, 0, sizeof(Sa));
  Sa.sa_handler = onStopSignal;
  ::sigaction(SIGTERM, &Sa, nullptr);
  ::sigaction(SIGINT, &Sa, nullptr);
}

double Node::uptimeSec() const {
  return std::chrono::duration<double>(Clock::now() - StartTime).count();
}

Node::Conn *Node::find(uint64_t Id) {
  auto It = Conns.find(Id);
  return It == Conns.end() ? nullptr : It->second.get();
}

void Node::queue(Conn &C, std::string Bytes) {
  if (!C.Outbound)
    counters().BytesOut += Bytes.size();
  if (C.Out.empty())
    C.Out = std::move(Bytes); // a reply is one frame: take it, don't copy
  else
    C.Out.append(Bytes);
  if (!C.Connecting)
    flush(C);
}

void Node::send(Conn &C, MsgType Type, const std::string &Payload) {
  queue(C, encodeFrame(Type, Payload));
}

void Node::sendError(Conn &C, Status St, const std::string &Msg) {
  ErrorMsg E;
  E.St = St;
  E.Message = Msg;
  send(C, MsgType::Error, encodeError(E));
}

void Node::sendCompileStatus(Conn &C, Status St, const std::string &Msg,
                             uint64_t RequestId) {
  CompileResponse Resp;
  Resp.St = St;
  Resp.RequestId = RequestId;
  Resp.Errors = Msg;
  send(C, MsgType::CompileResp, encodeCompileResponse(Resp));
}

void Node::respond(Conn &C, obs::RequestSample S, MsgType Type,
                   const std::string &Payload) {
  Log.record(std::move(S));
  send(C, Type, Payload);
}

void Node::drop(Conn &C) {
  C.Closing = true;
  C.Out.clear();
  C.OutPos = 0;
}

void Node::resume(Conn &C) {
  C.Paused = false;
  Resumed.push_back(C.Id);
}

Node::Conn *Node::connectTo(const std::string &Target,
                            std::unique_ptr<Conn> C,
                            const std::string &Bytes) {
  std::string Err;
  int Fd = connectTarget(Target, Err, /*NonBlocking=*/true);
  if (Fd < 0)
    return nullptr;
  C->Fd = Fd;
  C->Id = NextConnId++;
  C->Outbound = true;
  C->Connecting = true; // confirmed by the first POLLOUT (finishConnect)
  C->Out = Bytes;
  Conn &Ref = *C;
  Conns.emplace(Ref.Id, std::move(C));
  return &Ref;
}

void Node::finishConnect(Conn &C) {
  int SoErr = 0;
  socklen_t Len = sizeof(SoErr);
  if (::getsockopt(C.Fd, SOL_SOCKET, SO_ERROR, &SoErr, &Len) != 0 ||
      SoErr != 0) {
    drop(C);
    return;
  }
  C.Connecting = false;
  flush(C);
}

void Node::acceptFrom(int ListenFd) {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      return; // EAGAIN or transient error: poll again
    if (Clients >= kMaxConnections) {
      ++counters().ConnectionsRejected;
      ::close(Fd);
      continue;
    }
    setNonBlocking(Fd);
    if (ListenFd == TcpListenFd) {
      // Replies are one write each; don't let Nagle sit on them.
      int One = 1;
      (void)::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    }
    std::unique_ptr<Conn> C = newConn();
    C->Fd = Fd;
    C->Id = NextConnId++;
    ++counters().Connections;
    ++Clients;
    Conns.emplace(C->Id, std::move(C));
  }
}

void Node::readConn(Conn &C) {
  char Buf[65536];
  bool Eof = false;
  for (;;) {
    ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      if (!C.Outbound)
        counters().BytesIn += static_cast<uint64_t>(N);
      C.In.append(Buf, static_cast<size_t>(N));
      if (N < static_cast<ssize_t>(sizeof(Buf)))
        break;
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
      break;
    Eof = true; // peer closed, or a hard error
    break;
  }
  // A backend's last reply may arrive together with its close; a
  // client that left can no longer be answered.
  if (Eof && !C.Outbound) {
    drop(C);
    return;
  }

  // The TCP listener doubles as the HTTP status surface: bytes that
  // start like an HTTP request line go to the HTTP handler instead of
  // the frame parser (the frame magic can never collide with a method
  // name).
  if (!C.Outbound && !C.Http && !C.GotHello && looksLikeHttp(C.In))
    C.Http = true;
  if (C.Http)
    handleHttp(C);
  else
    parseFrames(C);
  if (Eof)
    drop(C);
}

void Node::parseFrames(Conn &C) {
  while (!C.Closing && !C.Paused && !C.In.empty()) {
    Frame F;
    size_t Consumed = 0;
    Status Err;
    std::string ErrMsg;
    ParseResult R =
        parseFrame(C.In.data(), C.In.size(), F, Consumed, Err, ErrMsg);
    if (R == ParseResult::NeedMore)
      return;
    if (R == ParseResult::Bad) {
      if (C.Outbound) {
        drop(C);
        return;
      }
      ++counters().ProtocolErrors;
      sendError(C, Err, ErrMsg);
      C.Closing = true;
      return;
    }
    C.In.erase(0, Consumed);
    if (C.Outbound)
      onFrame(C, F);
    else
      handleFrame(C, F);
  }
}

void Node::handleFrame(Conn &C, Frame &F) {
  NodeCounters &M = counters();
  ++M.Requests;
  auto Reject = [&](Status St, const std::string &Msg) {
    ++M.ProtocolErrors;
    sendError(C, St, Msg);
    C.Closing = true;
  };
  if (!C.GotHello && F.Type != MsgType::Hello)
    return Reject(Status::BadFrame, "expected hello handshake first");
  switch (F.Type) {
  case MsgType::Hello: {
    HelloMsg H;
    if (!decodeHello(F.Payload, H))
      return Reject(Status::BadFrame, "malformed hello");
    if (kProtocolVersion < H.MinVersion || kProtocolVersion > H.MaxVersion)
      return Reject(Status::BadVersion,
                    std::string(Role.Component) +
                        " speaks protocol version " +
                        std::to_string(kProtocolVersion));
    C.GotHello = true;
    HelloOkMsg Ok;
    Ok.ServerName = Role.HelloName;
    send(C, MsgType::HelloOk, encodeHelloOk(Ok));
    return;
  }
  case MsgType::Ping:
    ++M.PingRequests;
    if (F.Payload.size() > kMaxPingPayload)
      return Reject(Status::BadFrame, "ping payload too large");
    send(C, MsgType::Pong, F.Payload);
    return;
  case MsgType::StatsReq: {
    ++M.StatsRequests;
    WireWriter W;
    W.str(statsJson());
    send(C, MsgType::StatsResp, W.take());
    return;
  }
  case MsgType::StatsTextReq: {
    ++M.StatsRequests;
    StatsTextRequest Req;
    if (!decodeStatsTextRequest(F.Payload, Req))
      return Reject(Status::BadFrame, "malformed stats-text request");
    StatsTextResponse Resp;
    Resp.Format = Req.Format;
    Resp.Text = Req.Format == StatsFormat::Prometheus ? Reg.renderPrometheus()
                                                      : humanStats();
    send(C, MsgType::StatsTextResp, encodeStatsTextResponse(Resp));
    return;
  }
  case MsgType::ShutdownReq:
    if (!mayShutdown(C))
      return;
    ++M.ShutdownRequests;
    send(C, MsgType::ShutdownOk, std::string());
    C.Closing = true;
    beginDrain();
    return;
  case MsgType::CompileReq:
  case MsgType::TenantAuth:
    onFrame(C, F);
    return;
  default:
    return Reject(Status::UnknownType,
                  "unknown message type " +
                      std::to_string(static_cast<unsigned>(F.Type)));
  }
}

void Node::handleHttp(Conn &C) {
  std::string Method, Path;
  HttpParse R = parseHttpRequest(C.In, Method, Path);
  if (R == HttpParse::NeedMore)
    return;
  NodeCounters &M = counters();
  ++M.Requests;
  const char *Text = "text/plain; charset=utf-8";
  const char *Json = "application/json; charset=utf-8";
  bool Head = Method == "HEAD";
  std::string Resp;
  if (R == HttpParse::Bad) {
    ++M.ProtocolErrors;
    Resp = httpResponse(400, Text, "bad request\n");
  } else if (Method != "GET" && !Head) {
    Resp = httpResponse(405, Text, "method not allowed\n");
  } else if (Path == "/metrics") {
    ++M.ScrapeRequests;
    Resp = httpResponse(200, kPromContentType, Reg.renderPrometheus(), Head);
  } else if (Path == "/healthz") {
    // Readiness: a draining node answers 503 so a front door stops
    // routing to it before its sockets close.
    Resp = Draining ? httpResponse(503, Text, "draining\n", Head)
                    : httpResponse(200, Text, "ok\n", Head);
  } else if (Path == "/statusz") {
    Resp = httpResponse(200, Json, renderStatusz(), Head);
  } else if (Path == "/tracez") {
    Resp = httpResponse(200, Json, obs::renderTracezJson(Log), Head);
  } else {
    Resp = httpResponse(
        404, Text, "not found; try /metrics, /healthz, /statusz, /tracez\n");
  }
  C.In.clear();
  queue(C, std::move(Resp));
  C.Closing = true; // one request per connection
}

std::string Node::renderStatusz() const {
  obs::JsonWriter W;
  W.beginObject();
  W.field("role", Role.Name);
  W.key("build")
      .beginObject()
      .field("version", compilerVersion())
      .field("cache_schema", optionsSchemaVersion())
      .field("protocol", static_cast<int>(kProtocolVersion))
      .endObject();
  W.field("uptime_sec", uptimeSec(), 1);
  W.field("draining", Draining);
  statusFields(W);
  W.endObject();
  return W.take();
}

void Node::flush(Conn &C) {
  while (C.OutPos < C.Out.size()) {
    ssize_t N = ::send(C.Fd, C.Out.data() + C.OutPos, C.Out.size() - C.OutPos,
                       MSG_NOSIGNAL);
    if (N > 0) {
      C.OutPos += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
      return; // poll for POLLOUT
    drop(C); // the peer is gone
    return;
  }
  C.Out.clear();
  C.OutPos = 0;
}

void Node::beginDrain() {
  if (Draining)
    return;
  Draining = true;
  closeFd(UnixListenFd);
  closeFd(TcpListenFd);
  onDrain();
}

bool Node::drained() const {
  if (busy())
    return false;
  for (const auto &KV : Conns)
    if (!KV.second->Outbound && KV.second->OutPos < KV.second->Out.size())
      return false;
  return true;
}

void Node::closeFinished() {
  // onClose may drop more connections; close until none is left.
  std::vector<uint64_t> Done;
  do {
    Done.clear();
    for (const auto &KV : Conns)
      if (KV.second->Closing && KV.second->OutPos >= KV.second->Out.size())
        Done.push_back(KV.first);
    for (uint64_t Id : Done) {
      auto It = Conns.find(Id);
      std::unique_ptr<Conn> C = std::move(It->second);
      Conns.erase(It);
      if (!C->Outbound)
        --Clients;
      onClose(*C);
      ::close(C->Fd);
    }
  } while (!Done.empty());
}

uint64_t Node::run() {
  obs::Tracer::setThreadName(std::string(Role.Component) + "-poll");
  std::vector<pollfd> Fds;
  std::vector<uint64_t> Ids;
  for (;;) {
    if (StopRequested.load(std::memory_order_acquire))
      beginDrain();
    if (Draining && drained())
      break;

    Fds.clear();
    Ids.clear();
    Fds.push_back(pollfd{WakePipe[0], POLLIN, 0});
    for (int L : {UnixListenFd, TcpListenFd})
      if (L >= 0)
        Fds.push_back(pollfd{L, POLLIN, 0});
    size_t ConnBase = Fds.size();
    for (const auto &KV : Conns) {
      const Conn &C = *KV.second;
      short Ev = C.Paused || C.Closing ? 0 : POLLIN;
      if (C.Connecting || C.OutPos < C.Out.size())
        Ev |= POLLOUT;
      Fds.push_back(pollfd{C.Fd, Ev, 0});
      Ids.push_back(KV.first);
    }
    int Timeout = Resumed.empty() ? -1 : 0;
    Clock::time_point Due = nextTimer();
    if (Timeout < 0 && Due != Clock::time_point::max()) {
      auto Ms = std::chrono::ceil<std::chrono::milliseconds>(Due - Clock::now())
                    .count();
      Timeout = static_cast<int>(std::clamp<long long>(Ms, 0, INT_MAX));
    }
    int PR = ::poll(Fds.data(), Fds.size(), Timeout);
    if (PR < 0 && errno != EINTR)
      break; // fatal

    if (Fds[0].revents & POLLIN) {
      char Sink[256];
      while (::read(WakePipe[0], Sink, sizeof(Sink)) > 0) {
      }
    }
    if (StopRequested.load(std::memory_order_acquire))
      beginDrain();
    onTick();
    for (size_t I = 1; I < ConnBase; ++I)
      if ((Fds[I].revents & POLLIN) &&
          (Fds[I].fd == UnixListenFd || Fds[I].fd == TcpListenFd))
        acceptFrom(Fds[I].fd);
    for (size_t I = 0; I < Ids.size(); ++I) {
      Conn *C = find(Ids[I]);
      short Rev = Fds[ConnBase + I].revents;
      if (!C || !Rev)
        continue;
      if (C->Connecting)
        finishConnect(*C);
      if (!C->Closing && (Rev & (POLLIN | POLLHUP | POLLERR)))
        readConn(*C);
      flush(*C); // a closing connection still owes its last reply
    }
    std::vector<uint64_t> Again;
    Again.swap(Resumed);
    for (uint64_t Id : Again)
      if (Conn *C = find(Id))
        parseFrames(*C);
    closeFinished();
  }

  // Drained: everything answered and flushed; drop the remaining links.
  for (auto &KV : Conns)
    ::close(KV.second->Fd);
  Conns.clear();
  Clients = 0;
  // Force-record any span still open on any thread (workers parked
  // mid-span, a job the drain abandoned): the --trace-json file written
  // after run() returns must never be missing in-flight work.
  obs::Tracer::instance().flushActive();
  uint64_t Served = served();
  SMLTC_LOG(obs::LogLevel::Info, Role.Component, "drain_complete",
            obs::LogFields().add(Role.ServedKey, Served).take());
  return Served;
}
