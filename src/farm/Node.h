//===- farm/Node.h - The poll-loop core of a shard or a router ---------------===//
///
/// \file
/// One farm node: its Unix and TCP listeners, one non-blocking poll(2)
/// loop over every socket it owns, per-connection frame buffers, loop
/// timers, the HTTP status surface (`/metrics`, `/healthz`, `/statusz`,
/// `/tracez`), the frames every node answers itself (Hello, Ping,
/// StatsReq, StatsTextReq, ShutdownReq), SIGTERM/SIGINT wiring and the
/// drain. Each node owns its request log and metrics registry, so a
/// shard and a router in one process never list each other's requests.
///
/// A role derives from Node and answers CompileReq and TenantAuth: the
/// compile shard (server/Server.h) compiles them, the router
/// (farm/Router.h) relays them over outbound connections that live in
/// the same poll set as its clients.
///
/// Everything runs on the thread that calls run(). `requestStop` and
/// `wake` are the only members another thread or a signal handler may
/// call.
///
/// The drain (a ShutdownReq or requestStop) closes the listeners; the
/// role answers new compiles with `Status::Draining`; run() returns once
/// the role has no work in flight and every reply is flushed.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_FARM_NODE_H
#define SMLTC_FARM_NODE_H

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "server/Protocol.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace smltc {
namespace obs {
class JsonWriter;
} // namespace obs

namespace farm {

/// Client connections a node holds at once; more are closed on accept.
constexpr size_t kMaxConnections = 128;

/// Counters every node keeps, owned by the loop thread.
struct NodeCounters {
  uint64_t Connections = 0;
  uint64_t ConnectionsRejected = 0;
  uint64_t Requests = 0; ///< frames and HTTP requests from clients
  uint64_t PingRequests = 0;
  uint64_t StatsRequests = 0;
  uint64_t ShutdownRequests = 0;
  uint64_t ProtocolErrors = 0;
  uint64_t BytesIn = 0;  ///< from clients
  uint64_t BytesOut = 0; ///< to clients
  uint64_t ScrapeRequests = 0;
};

/// The names by which the outside world tells the roles apart.
struct NodeRole {
  const char *Name;      ///< `/statusz` "role"
  /// Log component; also names the poll thread ("<Component>-poll") and
  /// the node's own counters ("smltcc_<Component>_...").
  const char *Component;
  const char *HelloName; ///< HelloOk server name
  const char *ServedKey; ///< drain_complete field for served()
};

class Node {
public:
  virtual ~Node();
  Node(const Node &) = delete;
  Node &operator=(const Node &) = delete;

  /// Sets the role up and binds the listeners. On failure returns false
  /// with a reason; run() must not be called.
  bool start(std::string &Err);
  /// Serves until the drain completes (see the file comment). Returns
  /// the role's served() count.
  uint64_t run();
  /// Begins the drain. Lock-free (an atomic flag and a pipe write), so
  /// safe from any thread and from signal handlers.
  void requestStop();
  /// Routes SIGTERM/SIGINT to `N->requestStop()` (process-global).
  static void installSignalHandlers(Node *N);

  const std::string &socketPath() const { return SocketPath; }
  /// The TCP address actually bound ("HOST:PORT", numeric), so a
  /// kernel-assigned port shows its real number; "" without TCP.
  const std::string &tcpAddr() const { return BoundTcpAddr; }
  /// The node's recent answered requests, as `/tracez` lists them.
  const obs::RequestLog &requestLog() const { return Log; }

protected:
  using Clock = std::chrono::steady_clock;

  /// One socket of the loop: an accepted client, or an outbound
  /// connection a role opened with connectTo(). Roles derive from it to
  /// keep their per-connection state.
  struct Conn {
    virtual ~Conn() = default;
    int Fd = -1;
    uint64_t Id = 0;
    std::string In;  ///< bytes received, not yet parsed
    std::string Out; ///< bytes queued to send
    size_t OutPos = 0;
    bool Outbound = false;   ///< opened by connectTo(), not accepted
    bool Connecting = false; ///< outbound connect not yet confirmed
    bool GotHello = false;
    bool Http = false;    ///< first bytes looked like HTTP, not frames
    bool Paused = false;  ///< frames stay buffered until resume()
    bool Closing = false; ///< close once Out is flushed
  };

  Node(const NodeRole &Role, std::string SocketPath, std::string ListenAddr);

  /// Queues bytes (or a frame) on a connection and tries to send them.
  void queue(Conn &C, std::string Bytes);
  void send(Conn &C, server::MsgType Type, const std::string &Payload);
  void sendError(Conn &C, server::Status St, const std::string &Msg);
  /// A CompileResp carrying only a status and a message.
  void sendCompileStatus(Conn &C, server::Status St, const std::string &Msg,
                         uint64_t RequestId);
  /// Answers a request: records `S` in this node's request log, then
  /// queues the reply, so a client that has its reply finds the sample.
  void respond(Conn &C, obs::RequestSample S, server::MsgType Type,
               const std::string &Payload);
  /// Closes the connection at the end of this loop turn, unsent output
  /// discarded. onClose() runs first.
  void drop(Conn &C);
  /// Lets a Paused connection's buffered frames be handled again.
  void resume(Conn &C);
  /// Opens a non-blocking connection to a Unix path or "tcp://HOST:PORT"
  /// and queues `Bytes`, sent in one write once the connect completes.
  /// Returns the connection, or null when the connect failed at once.
  /// A connect that fails later closes the connection (onClose).
  Conn *connectTo(const std::string &Target, std::unique_ptr<Conn> C,
                  const std::string &Bytes);
  Conn *find(uint64_t Id);
  /// Wakes the loop (it then calls onTick); safe from any thread.
  void wake();
  bool draining() const { return Draining; }
  /// Accepted connections currently open.
  size_t clientCount() const { return Clients; }
  double uptimeSec() const;

  /// Every open connection. Roles may walk it; only the core inserts and
  /// erases.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> Conns;
  obs::Registry Reg;

  // The role.
  /// Sets up the role's state and metrics, before the listeners bind.
  virtual bool prepare(std::string &Err) = 0;
  /// A new accepted connection.
  virtual std::unique_ptr<Conn> newConn() { return std::make_unique<Conn>(); }
  /// A CompileReq or TenantAuth from a client, or any frame arriving on
  /// an outbound connection.
  virtual void onFrame(Conn &C, server::Frame &F) = 0;
  /// A connection is about to close, for whatever reason.
  virtual void onClose(Conn &) {}
  /// Whether a client's ShutdownReq may stop the node; a role that says
  /// no has answered the client already.
  virtual bool mayShutdown(Conn &) { return true; }
  /// The drain began; the listeners are closed.
  virtual void onDrain() {}
  /// Work still in flight that the drain must wait for.
  virtual bool busy() const = 0;
  /// The earliest time at which onTick has work to do (max() = none).
  virtual Clock::time_point nextTimer() const { return Clock::time_point::max(); }
  /// Runs once per loop turn, after every wake-up.
  virtual void onTick() {}
  /// StatsReq's JSON, StatsTextReq's human page, and the role's own
  /// `/statusz` fields.
  virtual std::string statsJson() const = 0;
  virtual std::string humanStats() const = 0;
  virtual void statusFields(obs::JsonWriter &W) const = 0;
  /// The count run() returns.
  virtual uint64_t served() const = 0;
  virtual NodeCounters &counters() = 0;

private:
  void acceptFrom(int ListenFd);
  void readConn(Conn &C);
  void parseFrames(Conn &C);
  void handleFrame(Conn &C, server::Frame &F);
  void handleHttp(Conn &C);
  void finishConnect(Conn &C);
  void flush(Conn &C);
  void closeFinished();
  void beginDrain();
  bool drained() const;
  std::string renderStatusz() const;

  NodeRole Role;
  std::string SocketPath;
  std::string ListenAddr;
  std::string BoundTcpAddr;
  obs::RequestLog Log;
  Clock::time_point StartTime{};
  int UnixListenFd = -1;
  int TcpListenFd = -1;
  int WakePipe[2] = {-1, -1};
  bool Started = false;
  bool Draining = false;
  std::atomic<bool> StopRequested{false};
  uint64_t NextConnId = 1;
  size_t Clients = 0;
  /// Connections resume() released, parsed again at the end of the turn.
  std::vector<uint64_t> Resumed;
};

} // namespace farm
} // namespace smltc

#endif // SMLTC_FARM_NODE_H
