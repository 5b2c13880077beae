//===- farm/Net.cpp - TCP listen/connect helpers for the build farm ----------===//

#include "farm/Net.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

using namespace smltc;
using namespace smltc::farm;

bool smltc::farm::isTcpTarget(const std::string &Target) {
  return Target.rfind(kTcpScheme, 0) == 0;
}

std::string smltc::farm::stripTcpScheme(const std::string &Target) {
  return isTcpTarget(Target) ? Target.substr(std::strlen(kTcpScheme))
                             : Target;
}

bool smltc::farm::splitHostPort(const std::string &Addr, std::string &Host,
                                std::string &Port, std::string &Err) {
  std::string A = stripTcpScheme(Addr);
  size_t Colon;
  if (!A.empty() && A[0] == '[') {
    size_t Close = A.find(']');
    if (Close == std::string::npos || Close + 1 >= A.size() ||
        A[Close + 1] != ':') {
      Err = "malformed IPv6 address '" + Addr + "' (want [HOST]:PORT)";
      return false;
    }
    Host = A.substr(1, Close - 1);
    Colon = Close + 1;
  } else {
    Colon = A.rfind(':');
    if (Colon == std::string::npos) {
      Err = "malformed address '" + Addr + "' (want HOST:PORT)";
      return false;
    }
    Host = A.substr(0, Colon);
  }
  Port = A.substr(Colon + 1);
  if (Host.empty() || Port.empty()) {
    Err = "malformed address '" + Addr + "' (empty host or port)";
    return false;
  }
  for (char C : Port)
    if (C < '0' || C > '9') {
      Err = "malformed port in '" + Addr + "'";
      return false;
    }
  if (Port.size() > 5 || std::stoul(Port) > 65535) {
    Err = "port out of range in '" + Addr + "'";
    return false;
  }
  return true;
}

namespace {

struct AddrInfoHolder {
  addrinfo *AI = nullptr;
  ~AddrInfoHolder() {
    if (AI)
      ::freeaddrinfo(AI);
  }
};

bool resolve(const std::string &Addr, bool Passive, AddrInfoHolder &Out,
             std::string &Err) {
  std::string Host, Port;
  if (!splitHostPort(Addr, Host, Port, Err))
    return false;
  addrinfo Hints;
  std::memset(&Hints, 0, sizeof(Hints));
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  Hints.ai_flags = Passive ? (AI_PASSIVE | AI_NUMERICSERV) : AI_NUMERICSERV;
  int Rc = ::getaddrinfo(Host.c_str(), Port.c_str(), &Hints, &Out.AI);
  if (Rc != 0) {
    Err = "cannot resolve '" + Addr + "': " + ::gai_strerror(Rc);
    return false;
  }
  return true;
}

int connectTcpAddr(const std::string &Addr, std::string &Err,
                   bool NonBlocking) {
  AddrInfoHolder Res;
  if (!resolve(Addr, /*Passive=*/false, Res, Err))
    return -1;
  int LastErrno = 0;
  for (addrinfo *AI = Res.AI; AI; AI = AI->ai_next) {
    int Fd = ::socket(AI->ai_family, AI->ai_socktype, AI->ai_protocol);
    if (Fd < 0) {
      LastErrno = errno;
      continue;
    }
    // Compile frames are request/response sized, not a byte stream of
    // tiny writes; disable Nagle so a request is not held for an ACK.
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    if (NonBlocking)
      setNonBlocking(Fd);
    if (::connect(Fd, AI->ai_addr, AI->ai_addrlen) == 0 ||
        (NonBlocking && errno == EINPROGRESS))
      return Fd;
    LastErrno = errno;
    ::close(Fd);
  }
  errno = LastErrno;
  Err = "cannot connect to '" + Addr +
        "': " + std::strerror(LastErrno ? LastErrno : EINVAL);
  return -1;
}

bool unixAddr(const std::string &Path, sockaddr_un &Addr, std::string &Err) {
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    Err = Path.empty() ? "bad socket path"
                       : "socket path too long (max " +
                             std::to_string(sizeof(Addr.sun_path) - 1) +
                             " bytes)";
    return false;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  return true;
}

} // namespace

int smltc::farm::listenTcp(const std::string &Addr, std::string &Err) {
  AddrInfoHolder Res;
  if (!resolve(Addr, /*Passive=*/true, Res, Err))
    return -1;
  int LastErrno = 0;
  for (addrinfo *AI = Res.AI; AI; AI = AI->ai_next) {
    int Fd = ::socket(AI->ai_family, AI->ai_socktype, AI->ai_protocol);
    if (Fd < 0) {
      LastErrno = errno;
      continue;
    }
    int One = 1;
    ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    if (::bind(Fd, AI->ai_addr, AI->ai_addrlen) == 0 &&
        ::listen(Fd, SOMAXCONN) == 0)
      return Fd;
    LastErrno = errno;
    ::close(Fd);
  }
  Err = "cannot listen on '" + Addr +
        "': " + std::strerror(LastErrno ? LastErrno : EINVAL);
  return -1;
}

int smltc::farm::listenUnix(const std::string &Path, std::string &Err) {
  sockaddr_un Addr;
  if (!unixAddr(Path, Addr, Err))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  // A crashed process leaves its socket file behind; binding over it
  // needs the unlink. A live node on the same path is the operator's
  // error — the last bind wins.
  ::unlink(Path.c_str());
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::listen(Fd, 64) != 0) {
    Err = "bind '" + Path + "': " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int smltc::farm::connectTcp(const std::string &Addr, std::string &Err) {
  return connectTcpAddr(Addr, Err, /*NonBlocking=*/false);
}

int smltc::farm::connectTarget(const std::string &Target, std::string &Err,
                               bool NonBlocking) {
  if (isTcpTarget(Target))
    return connectTcpAddr(stripTcpScheme(Target), Err, NonBlocking);
  sockaddr_un Addr;
  if (!unixAddr(Target, Addr, Err)) {
    errno = EINVAL;
    return -1;
  }
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (NonBlocking)
    setNonBlocking(Fd);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    int E = errno;
    Err = "connect '" + Target + "': " + std::strerror(E);
    ::close(Fd);
    errno = E;
    return -1;
  }
  return Fd;
}

bool smltc::farm::setNonBlocking(int Fd) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

std::string smltc::farm::localAddr(int Fd) {
  sockaddr_storage SS;
  socklen_t Len = sizeof(SS);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&SS), &Len) != 0)
    return std::string();
  char Host[NI_MAXHOST], Port[NI_MAXSERV];
  if (::getnameinfo(reinterpret_cast<sockaddr *>(&SS), Len, Host,
                    sizeof(Host), Port, sizeof(Port),
                    NI_NUMERICHOST | NI_NUMERICSERV) != 0)
    return std::string();
  std::string H(Host);
  if (H.find(':') != std::string::npos)
    H = "[" + H + "]";
  return H + ":" + Port;
}
