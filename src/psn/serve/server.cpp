#include "psn/serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace psn::serve {

namespace {

bool is_blank(const std::string& line) {
  return std::all_of(line.begin(), line.end(), [](unsigned char c) {
    return c == ' ' || c == '\t' || c == '\r';
  });
}

std::string error_line(const std::string& id, const std::string& error) {
  Json response;
  if (!id.empty()) response["id"] = id;
  response["ok"] = false;
  response["error"] = error;
  return response.dump();
}

}  // namespace

bool process_line(SweepService& service, const std::string& line,
                  std::function<void(const std::string&)> write_line) {
  if (is_blank(line)) return false;

  Json json;
  try {
    json = Json::parse(line);
  } catch (const JsonError& e) {
    write_line(error_line("", e.what()));
    return false;
  }

  Request request;
  try {
    request = parse_request(json);
  } catch (const RequestError& e) {
    const Json& id = json.is_object() ? json.at("id") : json;
    write_line(error_line(id.is_string() ? id.as_string() : "", e.what()));
    return false;
  }

  const bool shutdown = request.family == Family::kAdmin &&
                        request.admin.command == AdminCommand::kShutdown;
  service.enqueue(std::move(request),
                  [write_line = std::move(write_line)](const Json& response) {
                    write_line(response.dump());
                  });
  return shutdown;
}

int run_stdio_server(SweepService& service, std::istream& in,
                     std::ostream& out) {
  // One writer mutex: responses come from the service's runner and
  // dispatcher threads while errors are written inline from this one.
  auto write_mu = std::make_shared<util::Mutex>();
  const auto write_line = [&out, write_mu](const std::string& text) {
    util::LockGuard lock(*write_mu);
    out << text << '\n' << std::flush;
  };

  // Stop reading at EOF or once a shutdown is admitted: waiting for the
  // next line would block for as long as the client keeps stdin open.
  std::string line;
  while (std::getline(in, line))
    if (process_line(service, line, write_line)) break;

  // Answer everything already admitted, the shutdown included.
  service.drain();
  return 0;
}

namespace {

/// Reads one connection's request lines until the peer closes or the
/// service shuts down. Responses for this connection's requests are
/// written back on it, serialized by a per-connection mutex (they arrive
/// on the service's runner and dispatcher threads). MSG_NOSIGNAL: a
/// client that disconnects with responses in flight costs an EPIPE, not
/// the process.
void serve_connection(SweepService& service, int fd) {
  auto write_mu = std::make_shared<util::Mutex>();
  const auto write_line = [fd, write_mu](const std::string& text) {
    util::LockGuard lock(*write_mu);
    std::string payload = text;
    payload.push_back('\n');
    std::size_t sent = 0;
    while (sent < payload.size()) {
      const ssize_t n = ::send(fd, payload.data() + sent,
                               payload.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;  // peer gone; drop the rest.
      sent += static_cast<std::size_t>(n);
    }
  };

  std::string buffer;
  char chunk[4096];
  while (!service.shutdown_requested()) {
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t newline;
    while ((newline = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      process_line(service, line, write_line);
    }
  }
  // Flush responses still in flight for this connection before the
  // descriptor goes away (the accept loop owns and closes it).
  service.drain();
}

}  // namespace

int run_socket_server(SweepService& service, const std::string& path) {
  sockaddr_un address{};
  if (path.size() >= sizeof(address.sun_path)) {
    std::cerr << "psn_serve: socket path too long: " << path << '\n';
    return 1;
  }

  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::cerr << "psn_serve: socket: " << std::strerror(errno) << '\n';
    return 1;
  }
  ::unlink(path.c_str());  // stale socket from a previous run.
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listener, 16) != 0) {
    std::cerr << "psn_serve: bind/listen " << path << ": "
              << std::strerror(errno) << '\n';
    ::close(listener);
    return 1;
  }

  // The accept loop owns every connection descriptor: it can then unblock
  // readers still parked in ::read at shutdown (SHUT_RDWR) and close the
  // descriptors only after their threads joined — no close/reuse race.
  std::vector<std::thread> connections;
  std::vector<int> fds;
  while (!service.shutdown_requested()) {
    // Poll with a timeout so the accept loop notices shutdown requests
    // that arrived on another connection.
    pollfd poll_fd{listener, POLLIN, 0};
    const int ready = ::poll(&poll_fd, 1, 200);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0 || (poll_fd.revents & POLLIN) == 0) continue;
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) continue;
    fds.push_back(fd);
    connections.emplace_back(
        [&service, fd] { serve_connection(service, fd); });
  }

  ::close(listener);
  ::unlink(path.c_str());
  for (const int fd : fds) ::shutdown(fd, SHUT_RDWR);
  for (std::thread& connection : connections) connection.join();
  for (const int fd : fds) ::close(fd);
  service.drain();
  return 0;
}

}  // namespace psn::serve
