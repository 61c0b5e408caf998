#include "net/socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace coic::net {
namespace {

Status ErrnoStatus(StatusCode code, const std::string& what) {
  return Status(code, what + ": " + std::strerror(errno));
}

Result<sockaddr_in> ParseAddress(const SocketAddress& addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(addr.port);
  if (inet_pton(AF_INET, addr.host.c_str(), &sa.sin_addr) != 1) {
    return Status(StatusCode::kInvalidArgument,
                  "bad IPv4 address: " + addr.host);
  }
  return sa;
}

}  // namespace

void FdHandle::Reset() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Result<TcpStream> TcpStream::Connect(const SocketAddress& addr) {
  auto sa = ParseAddress(addr);
  if (!sa.ok()) return sa.status();

  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus(StatusCode::kInternal, "socket");

  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&sa.value()),
                sizeof(sockaddr_in)) != 0) {
    return ErrnoStatus(StatusCode::kUnavailable,
                       "connect to " + addr.ToString());
  }
  const int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpStream(std::move(fd));
}

Status TcpStream::WriteAll(std::span<const std::uint8_t> data) {
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::send(fd_.get(), data.data() + written,
                             data.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus(StatusCode::kUnavailable, "send");
    }
    written += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status TcpStream::ReadExact(std::span<std::uint8_t> data) {
  std::size_t got = 0;
  while (got < data.size()) {
    const ssize_t n = ::recv(fd_.get(), data.data() + got, data.size() - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus(StatusCode::kUnavailable, "recv");
    }
    if (n == 0) {
      return got == 0 ? Status(StatusCode::kUnavailable, "peer closed")
                      : Status(StatusCode::kDataLoss, "peer closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

void TcpStream::ShutdownWrite() noexcept {
  if (fd_.valid()) (void)::shutdown(fd_.get(), SHUT_WR);
}

void TcpStream::ShutdownBoth() noexcept {
  if (fd_.valid()) (void)::shutdown(fd_.get(), SHUT_RDWR);
}

Result<TcpListener> TcpListener::Bind(const SocketAddress& addr) {
  auto sa = ParseAddress(addr);
  if (!sa.ok()) return sa.status();

  FdHandle fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus(StatusCode::kInternal, "socket");

  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&sa.value()),
             sizeof(sockaddr_in)) != 0) {
    return ErrnoStatus(StatusCode::kUnavailable, "bind " + addr.ToString());
  }
  if (::listen(fd.get(), 16) != 0) {
    return ErrnoStatus(StatusCode::kInternal, "listen");
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return ErrnoStatus(StatusCode::kInternal, "getsockname");
  }
  return TcpListener(std::move(fd), ntohs(bound.sin_port));
}

void TcpListener::Close() noexcept {
  // shutdown() only: it wakes a thread blocked in accept() and stops
  // the socket listening without touching fd_, which that thread is
  // still reading. The descriptor closes with the listener.
  if (fd_.valid()) (void)::shutdown(fd_.get(), SHUT_RDWR);
}

Result<TcpStream> TcpListener::Accept() {
  if (!fd_.valid()) {
    return Status(StatusCode::kUnavailable, "listener closed");
  }
  for (;;) {
    const int client = ::accept(fd_.get(), nullptr, nullptr);
    if (client >= 0) {
      const int one = 1;
      (void)::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return TcpStream(FdHandle(client));
    }
    if (errno == EINTR) continue;
    return ErrnoStatus(StatusCode::kUnavailable, "accept");
  }
}

}  // namespace coic::net
