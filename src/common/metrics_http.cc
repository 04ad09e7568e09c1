#include "common/metrics_http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "common/metrics_registry.h"

namespace albic {

namespace {

/// How long a connection may stay silent before it is dropped unanswered.
constexpr int kRequestWaitMs = 1000;

void WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) return;  // peer went away; nothing to salvage
    off += static_cast<size_t>(n);
  }
}

std::string HttpResponse(const char* status, const char* content_type,
                         const std::string& body) {
  std::string out = "HTTP/1.0 ";
  out += status;
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

Status MetricsHttpServer::Start(MetricsRegistry* registry, int port) {
  if (running()) return Status::InvalidArgument("server already running");
  if (registry == nullptr) return Status::InvalidArgument("null registry");
  if (port < 0 || port > 65535) {
    return Status::InvalidArgument("port out of range");
  }
  if (::pipe(wake_fd_) != 0) {
    return Status::Internal("pipe() failed");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    ::close(wake_fd_[0]);
    ::close(wake_fd_[1]);
    wake_fd_[0] = wake_fd_[1] = -1;
    return Status::Internal("socket() failed");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, /*backlog=*/4) != 0) {
    ::close(fd);
    ::close(wake_fd_[0]);
    ::close(wake_fd_[1]);
    wake_fd_[0] = wake_fd_[1] = -1;
    return Status::Internal("bind/listen failed");
  }
  sockaddr_in bound;
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = static_cast<int>(ntohs(bound.sin_port));
  }
  registry_ = registry;
  listen_fd_ = fd;
  thread_ = std::thread([this] { Serve(); });
  return Status::OK();
}

void MetricsHttpServer::Stop() {
  if (!running()) return;
  // Wake the accept poll, then join before closing fds the thread reads.
  const char byte = 'x';
  (void)!::write(wake_fd_[1], &byte, 1);
  thread_.join();
  ::close(listen_fd_);
  ::close(wake_fd_[0]);
  ::close(wake_fd_[1]);
  listen_fd_ = -1;
  wake_fd_[0] = wake_fd_[1] = -1;
  port_ = 0;
  registry_ = nullptr;
}

void MetricsHttpServer::Serve() {
  for (;;) {
    pollfd fds[2];
    fds[0].fd = listen_fd_;
    fds[0].events = POLLIN;
    fds[1].fd = wake_fd_[0];
    fds[1].events = POLLIN;
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // Stop() rang the wake pipe
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;
    // One request, one response, close — HTTP/1.0 semantics keep the
    // server a single loop with no connection state. The request is
    // awaited together with the wake pipe and for a bounded time, so a
    // client that connects and sends nothing can neither wedge the loop
    // nor keep Stop() from returning.
    fds[0].fd = conn;
    const int ready = ::poll(fds, 2, kRequestWaitMs);
    if (fds[1].revents != 0) {
      ::close(conn);
      return;
    }
    char buf[1024];
    const ssize_t n = ready > 0 ? ::read(conn, buf, sizeof(buf) - 1) : 0;
    if (n > 0) {
      buf[n] = '\0';
      const std::string req(buf);
      if (req.rfind("GET /metrics.json", 0) == 0) {
        WriteAll(conn, HttpResponse("200 OK", "application/json",
                                    registry_->JsonSnapshot()));
      } else if (req.rfind("GET /metrics", 0) == 0) {
        WriteAll(conn,
                 HttpResponse("200 OK", "text/plain; version=0.0.4",
                              registry_->TextExposition()));
      } else {
        WriteAll(conn,
                 HttpResponse("404 Not Found", "text/plain", "not found\n"));
      }
    }
    ::close(conn);
  }
}

}  // namespace albic
