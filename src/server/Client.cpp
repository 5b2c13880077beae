//===- server/Client.cpp - Blocking compile-server client --------------------===//

#include "server/Client.h"

#include "driver/CompileCache.h"
#include "farm/Net.h"
#include "obs/Log.h"
#include "obs/Trace.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace smltc;
using namespace smltc::server;

Client::~Client() { close(); }

Client::Client(Client &&Other) noexcept
    : Fd(Other.Fd), In(std::move(Other.In)) {
  Other.Fd = -1;
}

Client &Client::operator=(Client &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = Other.Fd;
    In = std::move(Other.In);
    Other.Fd = -1;
  }
  return *this;
}

void Client::close() {
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
  In.clear();
}

namespace {

/// Connect errors worth retrying: the daemon may simply not have bound
/// its socket yet, or is briefly over its accept backlog.
bool transientConnectErrno(int E) {
  return E == ECONNREFUSED || E == ENOENT || E == EAGAIN ||
         E == ETIMEDOUT || E == ECONNRESET;
}

} // namespace

bool Client::connectOnce(const std::string &Target, std::string &Err,
                         int &ErrnoOut) {
  Fd = farm::connectTarget(Target, Err);
  ErrnoOut = Fd < 0 ? errno : 0;
  return Fd >= 0;
}

bool Client::connect(const std::string &Target, std::string &Err,
                     const ConnectPolicy &Policy) {
  close();
  int Attempts = std::max(1, Policy.Attempts);
  // Cheap deterministic-enough jitter: decorrelates a burst of clients
  // all retrying after the same failure, no PRNG state to carry.
  uint64_t JitterSeed =
      static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count()) ^
      (static_cast<uint64_t>(::getpid()) << 32);
  for (int A = 0;; ++A) {
    int E = 0;
    if (connectOnce(Target, Err, E))
      break;
    if (A + 1 >= Attempts || !transientConnectErrno(E))
      return false;
    int Delay = Policy.BaseDelayMs << A;
    if (Policy.Jitter && Policy.BaseDelayMs > 1) {
      JitterSeed = JitterSeed * 6364136223846793005ull + 1442695040888963407ull;
      Delay += static_cast<int>((JitterSeed >> 33) %
                                (static_cast<uint64_t>(Policy.BaseDelayMs) / 2 +
                                 1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(Delay));
  }

  HelloMsg H;
  H.ClientName = "smltcc";
  Frame Resp;
  if (!roundTrip(MsgType::Hello, encodeHello(H), MsgType::HelloOk, Resp,
                 Err)) {
    close();
    return false;
  }
  HelloOkMsg Ok;
  if (!decodeHelloOk(Resp.Payload, Ok)) {
    Err = "malformed hello-ok from server";
    close();
    return false;
  }
  return true;
}

bool Client::authenticate(const std::string &Token, AuthOkMsg &Ok,
                          std::string &Err) {
  TenantAuthMsg M;
  M.Token = Token;
  Frame F;
  if (!roundTrip(MsgType::TenantAuth, encodeTenantAuth(M), MsgType::AuthOk,
                 F, Err))
    return false;
  if (!decodeAuthOk(F.Payload, Ok)) {
    Err = "malformed auth-ok from server";
    return false;
  }
  return true;
}

bool Client::sendRaw(const std::string &Bytes, std::string &Err) {
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = ::send(Fd, Bytes.data() + Off, Bytes.size() - Off,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = std::string("send: ") + std::strerror(errno);
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool Client::sendFrame(MsgType Type, const std::string &Payload,
                       std::string &Err) {
  if (Fd < 0) {
    Err = "not connected";
    return false;
  }
  return sendRaw(encodeFrame(Type, Payload), Err);
}

bool Client::readFrame(Frame &F, std::string &Err, int TimeoutMs) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(TimeoutMs);
  char Buf[65536];
  for (;;) {
    size_t Consumed = 0;
    Status St;
    std::string Msg;
    ParseResult R = parseFrame(In.data(), In.size(), F, Consumed, St, Msg);
    if (R == ParseResult::Ok) {
      In.erase(0, Consumed);
      return true;
    }
    if (R == ParseResult::Bad) {
      Err = "protocol error from server: " + Msg;
      return false;
    }
    if (TimeoutMs > 0) {
      auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Deadline - Clock::now())
                      .count();
      pollfd P{Fd, POLLIN, 0};
      int Ready = Left > 0 ? ::poll(&P, 1, static_cast<int>(Left)) : 0;
      if (Ready < 0 && errno == EINTR)
        continue;
      if (Ready == 0) {
        // The reply may still arrive; the stream is out of step now.
        close();
        Err = "no reply from server within " + std::to_string(TimeoutMs) +
              " ms (timed out)";
        return false;
      }
    }
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      In.append(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N < 0 && errno == EINTR)
      continue;
    Err = N == 0 ? "server closed the connection"
                 : std::string("recv: ") + std::strerror(errno);
    return false;
  }
}

bool Client::roundTrip(MsgType ReqType, const std::string &Payload,
                       MsgType Expect, Frame &Resp, std::string &Err,
                       int TimeoutMs) {
  LastErrorStatus = Status::Ok;
  if (!sendFrame(ReqType, Payload, Err))
    return false;
  for (;;) {
    if (!readFrame(Resp, Err, TimeoutMs))
      return false;
    if (Resp.Type == Expect)
      return true;
    if (Resp.Type == MsgType::Error) {
      ErrorMsg E;
      if (decodeError(Resp.Payload, E)) {
        LastErrorStatus = E.St;
        Err = std::string("server error (") + statusName(E.St) +
              "): " + E.Message;
      } else {
        Err = "malformed error frame from server";
      }
      return false;
    }
    // Any other frame type here is a protocol violation: the client
    // sends one request at a time, so responses cannot interleave.
    Err = "unexpected frame type " +
          std::to_string(static_cast<unsigned>(Resp.Type));
    return false;
  }
}

bool Client::compile(const CompileRequest &Req, CompileResponse &Resp,
                     std::string &Err) {
  // Process-wide id sequence so concurrent clients in one process (the
  // server bench, test fixtures) never collide.
  static std::atomic<uint64_t> NextRequestId{1};
  CompileRequest Sent = Req;
  if (Sent.RequestId == 0)
    Sent.RequestId = NextRequestId.fetch_add(1, std::memory_order_relaxed);
  // The routing hint lets a farm router shard without re-hashing the
  // (possibly megabytes of) source; daemons still derive their own key.
  if (Sent.CacheKeyHash == 0)
    Sent.CacheKeyHash = fnv1a64(
        canonicalJobKey(Sent.Source, Sent.Opts, Sent.WithPrelude));
  // Distributed trace context (v4). The rpc span records locally when
  // tracing is on; the wire fields are filled either way — minted here
  // if no context is installed — so router and shard spans downstream
  // still share one trace id even when the client itself records
  // nothing.
  obs::Span Rpc("rpc_compile", "client");
  Rpc.arg("request_id", Sent.RequestId);
  if ((Sent.TraceIdHi | Sent.TraceIdLo) == 0) {
    obs::TraceContext Ctx = Rpc.context(); // valid when inside a trace
    if (!Ctx.valid()) {
      // This rpc is the trace root: mint the 128-bit id and re-parent
      // the rpc span under it so its own record carries the id too.
      obs::TraceContext Minted = obs::mintTraceContext();
      Rpc.adopt(obs::TraceContext{Minted.TraceIdHi, Minted.TraceIdLo, 0});
      Ctx = Rpc.context();
      if (!Ctx.valid()) // tracing off: the wire still gets the mint
        Ctx = Minted;
    }
    Sent.TraceIdHi = Ctx.TraceIdHi;
    Sent.TraceIdLo = Ctx.TraceIdLo;
    Sent.ParentSpanId = Ctx.SpanId;
  }
  // The server answers a compile with a deadline by then at the latest;
  // one without a deadline takes as long as it takes.
  const int TimeoutMs =
      Sent.DeadlineMs ? static_cast<int>(std::min<uint64_t>(
                            uint64_t(Sent.DeadlineMs) + kReplyTimeoutMs,
                            INT32_MAX))
                      : 0;
  Frame F;
  if (!roundTrip(MsgType::CompileReq, encodeCompileRequest(Sent),
                 MsgType::CompileResp, F, Err, TimeoutMs)) {
    SMLTC_LOG(obs::LogLevel::Warn, "client", "compile_rpc_failed",
              obs::LogFields()
                  .add("request_id", Sent.RequestId)
                  .add("error", Err)
                  .take());
    return false;
  }
  std::string DecodeErr;
  if (!decodeCompileResponse(F.Payload, Resp, DecodeErr)) {
    Err = "malformed compile response: " + DecodeErr;
    return false;
  }
  return true;
}

bool Client::stats(std::string &Json, std::string &Err) {
  Frame F;
  if (!roundTrip(MsgType::StatsReq, std::string(), MsgType::StatsResp, F,
                 Err))
    return false;
  WireReader R(F.Payload);
  Json = R.str();
  if (!R.atEndOk()) {
    Err = "malformed stats response";
    return false;
  }
  return true;
}

bool Client::statsText(StatsFormat Format, std::string &Text,
                       std::string &Err) {
  StatsTextRequest Req;
  Req.Format = Format;
  Frame F;
  if (!roundTrip(MsgType::StatsTextReq, encodeStatsTextRequest(Req),
                 MsgType::StatsTextResp, F, Err))
    return false;
  StatsTextResponse Resp;
  if (!decodeStatsTextResponse(F.Payload, Resp)) {
    Err = "malformed stats-text response";
    return false;
  }
  Text = Resp.Text;
  return true;
}

bool Client::ping(const std::string &Payload, std::string &Err) {
  Frame F;
  if (!roundTrip(MsgType::Ping, Payload, MsgType::Pong, F, Err))
    return false;
  if (F.Payload != Payload) {
    Err = "pong payload mismatch";
    return false;
  }
  return true;
}

bool Client::shutdownServer(std::string &Err) {
  Frame F;
  return roundTrip(MsgType::ShutdownReq, std::string(), MsgType::ShutdownOk,
                   F, Err);
}
