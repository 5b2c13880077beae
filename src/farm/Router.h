//===- farm/Router.h - Shard-aware front door for the build farm -------------===//
///
/// \file
/// The farm's front door: a router that speaks the same frame protocol
/// as the compile daemons and forwards each CompileReq to one of N
/// backend daemons chosen by consistent-hashing the request's
/// content-addressed cache-key hash. The same source therefore always
/// lands on the same shard (its memory/disk cache stays hot), adding a
/// backend remaps only ~1/N of the key space, and capacity scales by
/// pointing more daemons at the ring.
///
/// Responses are relayed byte-for-byte: the router never re-encodes a
/// backend's CompileResp payload, so programs coming through the router
/// are bit-identical to direct compiles. In-band rejections (QueueFull,
/// Draining, CompileFailed...) pass through untouched, and so does a
/// backend's refusal of the tenant token. Only *transport* failures
/// (backend unreachable, connection broken mid-request) are retried:
/// up to 3 distinct backends in ring order, healthy ones first, after a
/// backoff of RetryBaseMs that doubles per retry. The failed backend is
/// marked unhealthy and re-probed with a Ping every 500 ms until it
/// answers. Ping/Stats are answered locally, ShutdownReq stops the
/// router only, and the HTTP status surface reports the router's own
/// registry (per-backend forward/failure/health series) and requests.
///
/// The router is a role on the farm node core (farm/Node.h): one poll
/// loop holds the clients and, in the same poll set, each client's own
/// non-blocking backend connections. A client has at most one request
/// outstanding: its further frames wait until the reply is relayed. A
/// backend connection is opened with Hello, an optional TenantAuth and
/// the first request in one write. Retry backoff and health probes are
/// loop timers, so the router runs no thread of its own. During the
/// drain, new compiles are answered with `Status::Draining` while the
/// forwards already under way finish.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_FARM_ROUTER_H
#define SMLTC_FARM_ROUTER_H

#include "farm/Node.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace smltc {
namespace farm {

struct RouterOptions {
  /// TCP listen address "HOST:PORT" (port 0 = ephemeral; see tcpAddr()).
  std::string ListenAddr;
  /// Optional Unix socket to listen on as well.
  std::string SocketPath;
  /// Backend daemon addresses: "HOST:PORT", "tcp://HOST:PORT", or a
  /// Unix socket path (anything containing '/').
  std::vector<std::string> Backends;
  /// Tenant token forwarded to backends that require authentication.
  /// Clients may also present their own TenantAuth, which wins.
  std::string Token;
  /// Backoff before the first retry; doubles per retry.
  int RetryBaseMs = 25;
  /// Ring points per backend; more points = smoother key spread.
  int VirtualNodes = 64;
};

class FarmRouter : public Node {
public:
  explicit FarmRouter(RouterOptions Options);

  /// Ring lookup, exposed for tests: candidate backend indices for a
  /// key hash, primary first, each backend at most once.
  std::vector<size_t> candidatesFor(uint64_t KeyHash) const;

private:
  struct Backend {
    std::string Addr; ///< normalized connect target
    bool Healthy = true;
    uint64_t Forwarded = 0;
    uint64_t Failures = 0;
    uint64_t ProbeLink = 0; ///< open health probe, 0 = none
    Clock::time_point NextProbe{};
  };

  /// A client's one outstanding request: a compile to relay, or a token
  /// to verify against a backend.
  struct Forward {
    bool Auth = false;
    std::string Token;   ///< the token a TenantAuth presents
    std::string Request; ///< the CompileReq frame to relay
    uint64_t RequestId = 0;
    obs::TraceContext Ctx; ///< trace context the client sent
    uint64_t SpanId = 0;   ///< this router's router_forward span
    Clock::time_point Arrival{};
    std::vector<size_t> Candidates;
    size_t Attempt = 0;
    uint64_t Link = 0; ///< connection carrying the attempt; 0 = backing off
    Clock::time_point RetryAt{};
  };

  struct ClientConn : Conn {
    std::string Token;           ///< verified TenantAuth token
    std::vector<uint64_t> Links; ///< per backend; 0 = none
    std::unique_ptr<Forward> Fw;
  };

  /// A backend connection: one client's, or a health probe (Owner 0).
  struct LinkConn : Conn {
    uint64_t Owner = 0;
    size_t Backend = 0;
    bool AwaitHello = true;
    bool AwaitAuth = false;
  };

  // farm::Node
  bool prepare(std::string &Err) override;
  std::unique_ptr<Conn> newConn() override;
  void onFrame(Conn &C, server::Frame &F) override;
  void onClose(Conn &C) override;
  bool busy() const override;
  Clock::time_point nextTimer() const override;
  void onTick() override;
  std::string statsJson() const override;
  std::string humanStats() const override;
  void statusFields(obs::JsonWriter &W) const override;
  uint64_t served() const override { return CompileForwards; }
  NodeCounters &counters() override { return Counters; }

  void startCompile(ClientConn &C, const server::Frame &F);
  void startAuth(ClientConn &C, const server::Frame &F);
  /// Sends the outstanding request to its current candidate, or answers
  /// the client when no candidate is left.
  void attempt(ClientConn &C);
  /// The current attempt failed at the transport level.
  void failAttempt(ClientConn &C, bool MarkUnhealthy);
  void onBackendFrame(LinkConn &L, const server::Frame &F);
  /// Relays a backend's reply to the request outstanding on `C`.
  void finish(ClientConn &C, const server::Frame &Reply);
  /// The /tracez sample and router_forward span of a compile forward.
  obs::RequestSample recordForward(const Forward &Fw,
                                   const std::string &BackendAddr);
  /// The client's connection to backend `Idx`, opened (with `Token`)
  /// when there is none; null when the connect failed at once.
  LinkConn *link(ClientConn &C, size_t Idx, const std::string &Token);
  void probe(Backend &B, size_t Idx);

  RouterOptions Opts;
  std::vector<Backend> Backends;
  /// Consistent-hash ring: (point, backend index), sorted by point.
  std::vector<std::pair<uint64_t, size_t>> Ring;

  NodeCounters Counters;
  uint64_t CompileForwards = 0;
  uint64_t Retries = 0;
  uint64_t Unroutable = 0;
};

} // namespace farm
} // namespace smltc

#endif // SMLTC_FARM_ROUTER_H
