//===- farm/Net.h - TCP listen/connect helpers for the build farm ------------===//
///
/// \file
/// Thin wrappers over getaddrinfo/socket for the farm's endpoints, shared
/// by every node's listeners (farm/Node.h), the client's `--connect`
/// path, and the router's backend connections. TCP addresses are
/// "HOST:PORT" strings; IPv6 literals use the bracketed "[::1]:PORT"
/// form. Port 0 asks the kernel for an ephemeral port — `localAddr`
/// reports what was actually bound, which the tests and benches use to
/// run farms on loopback without port coordination. A connect target is
/// "tcp://HOST:PORT" or a Unix socket path.
///
//===----------------------------------------------------------------------===//

#ifndef SMLTC_FARM_NET_H
#define SMLTC_FARM_NET_H

#include <string>

namespace smltc {
namespace farm {

/// Address scheme prefix understood by `--connect` and `--backends`.
constexpr const char *kTcpScheme = "tcp://";

/// True when `Target` names a TCP endpoint ("tcp://HOST:PORT") rather
/// than a Unix socket path.
bool isTcpTarget(const std::string &Target);

/// Strips the "tcp://" prefix if present.
std::string stripTcpScheme(const std::string &Target);

/// Splits "HOST:PORT" / "[V6]:PORT" into its parts. Returns false (and
/// fills `Err`) when there is no port separator, the host is empty, or
/// the port is not a number in [0, 65535] — callers reject such
/// addresses at option-parsing time, before any socket work.
bool splitHostPort(const std::string &Addr, std::string &Host,
                   std::string &Port, std::string &Err);

/// Binds and listens on a TCP address ("HOST:PORT"). Returns the
/// listening fd, or -1 with `Err` set. SO_REUSEADDR is set so a
/// restarted daemon does not trip over TIME_WAIT.
int listenTcp(const std::string &Addr, std::string &Err);

/// Binds and listens on a Unix socket path, replacing a stale socket
/// file a crashed process left behind. Returns the listening fd, or -1
/// with `Err` set.
int listenUnix(const std::string &Path, std::string &Err);

/// Blocking TCP connect to "HOST:PORT" (scheme already stripped).
/// Returns the connected fd, or -1 with `Err` set and `errno`
/// preserved from the last attempt for transient-failure detection.
int connectTcp(const std::string &Addr, std::string &Err);

/// Connects to a target ("tcp://HOST:PORT" or a Unix socket path), with
/// connectTcp's result and errno conventions. With `NonBlocking` the
/// socket is non-blocking and the connect may still be in progress on
/// return: poll for POLLOUT, then read SO_ERROR.
int connectTarget(const std::string &Target, std::string &Err,
                  bool NonBlocking = false);

bool setNonBlocking(int Fd);

/// The locally bound "HOST:PORT" of a socket (numeric form), or ""
/// on error. Resolves kernel-assigned ephemeral ports.
std::string localAddr(int Fd);

} // namespace farm
} // namespace smltc

#endif // SMLTC_FARM_NET_H
