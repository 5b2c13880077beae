//===- server/Client.h - Blocking compile-server client ----------------------===//
///
/// \file
/// The client half of the compile-server protocol: a blocking
/// request/response connection over the daemon's Unix-domain socket or,
/// with a `tcp://HOST:PORT` target, over TCP to a farm daemon/router.
/// `connect()` performs the Hello/HelloOk version handshake and retries
/// transient connect failures (ECONNREFUSED while the daemon is still
/// binding, a not-yet-created socket file) with bounded, jittered
/// exponential backoff; after that, each call sends one frame and reads
/// frames until the matching response arrives. A peer that accepts and
/// never answers cannot hold a caller forever: the handshake and every
/// control round trip (auth, ping, stats, shutdown) wait at most
/// kReplyTimeoutMs for their reply, and a compile with a deadline waits
/// at most its DeadlineMs plus kReplyTimeoutMs; a compile without one
/// waits as long as the compile takes. A timeout is a transport error
/// and closes the connection. Used by `smltcc --connect`, the benches,
/// the benchmark ledger and the tests.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_SERVER_CLIENT_H
#define SMLTC_SERVER_CLIENT_H

#include "server/Protocol.h"

#include <string>

namespace smltc {
namespace server {

/// How long the client waits for the reply to a control frame, and the
/// slack a compile with a deadline gets past it. A live node answers
/// control frames from its poll loop at once and a late compile with
/// DeadlineExceeded at its deadline, so only a peer that never answers
/// reaches it.
constexpr int kReplyTimeoutMs = 5000;

/// Bounded retry policy for `Client::connect`. Only *transient* connect
/// errors (refused / missing socket file / timeout) are retried; real
/// failures (bad address, permission) surface immediately.
struct ConnectPolicy {
  int Attempts = 3;     ///< total tries, >= 1
  int BaseDelayMs = 40; ///< first retry delay; doubles per attempt
  bool Jitter = true;   ///< add up to BaseDelayMs/2 of random skew
};

class Client {
public:
  Client() = default;
  ~Client();
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;
  Client(Client &&Other) noexcept;
  Client &operator=(Client &&Other) noexcept;

  /// Connects to `Target` — a Unix socket path, or "tcp://HOST:PORT" —
  /// and runs the version handshake, retrying transient connect
  /// failures per `Policy`.
  bool connect(const std::string &Target, std::string &Err,
               const ConnectPolicy &Policy = ConnectPolicy());
  bool connected() const { return Fd >= 0; }
  void close();

  /// Presents a tenant token (TenantAuth/AuthOk). Required before
  /// compiling when the daemon runs with --token-file; harmless (the
  /// implicit default tenant answers) when it does not.
  bool authenticate(const std::string &Token, AuthOkMsg &Ok,
                    std::string &Err);

  /// The Status carried by the last Error frame a round trip saw
  /// (Status::Ok when the last call succeeded or failed below the
  /// protocol level). Lets callers map e.g. Unauthorized to a distinct
  /// exit code without string-matching `Err`.
  Status lastErrorStatus() const { return LastErrorStatus; }

  /// One compile round trip. Returns false only on transport/protocol
  /// failure; compile-level outcomes (QueueFull, DeadlineExceeded,
  /// CompileFailed, Draining) come back as `Resp.St`. When
  /// `Req.RequestId` is 0 the client assigns one (unique within this
  /// process) before sending, so every request is traceable; the id
  /// actually sent is echoed back in `Resp.RequestId` either way.
  bool compile(const CompileRequest &Req, CompileResponse &Resp,
               std::string &Err);

  /// Fetches the server's metrics JSON.
  bool stats(std::string &Json, std::string &Err);

  /// Fetches the rendered stats page: Prometheus text exposition or the
  /// human-readable summary (protocol v2).
  bool statsText(StatsFormat Format, std::string &Text, std::string &Err);

  /// Round-trips an opaque payload; true when the echo matches.
  bool ping(const std::string &Payload, std::string &Err);

  /// Asks the daemon to drain and exit. Returns once ShutdownOk arrives.
  bool shutdownServer(std::string &Err);

  /// Transport-level escape hatch for protocol tests: sends raw bytes
  /// as-is (no framing) and reads one response frame.
  bool sendRaw(const std::string &Bytes, std::string &Err);
  bool recvFrame(Frame &F, std::string &Err) { return readFrame(F, Err, 0); }

private:
  bool sendFrame(MsgType Type, const std::string &Payload, std::string &Err);
  /// Reads one frame, giving up after TimeoutMs when it is positive.
  bool readFrame(Frame &F, std::string &Err, int TimeoutMs);
  /// Sends a request and reads frames until one of `Expect` or Error
  /// arrives, for at most TimeoutMs in all when it is positive.
  bool roundTrip(MsgType ReqType, const std::string &Payload,
                 MsgType Expect, Frame &Resp, std::string &Err,
                 int TimeoutMs = kReplyTimeoutMs);

  /// One raw connect attempt; on failure fills Err and the errno seen.
  bool connectOnce(const std::string &Target, std::string &Err,
                   int &ErrnoOut);

  int Fd = -1;
  std::string In; ///< received bytes not yet parsed into frames
  Status LastErrorStatus = Status::Ok;
};

} // namespace server
} // namespace smltc

#endif // SMLTC_SERVER_CLIENT_H
