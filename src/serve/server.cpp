#include "serve/server.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/logging.h"
#include "core/signal.h"
#include "core/watchdog.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "serve/protocol.h"
#include "serve/query.h"

namespace bblab::serve {

namespace {

obs::Counter& requests_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("serve.requests");
  return c;
}
obs::Counter& disconnects_counter() {
  static obs::Counter& c =
      obs::Registry::instance().counter("serve.disconnects");
  return c;
}
obs::Counter& bytes_in_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("serve.bytes_in");
  return c;
}
obs::Counter& bytes_out_counter() {
  static obs::Counter& c = obs::Registry::instance().counter("serve.bytes_out");
  return c;
}
obs::Gauge& connections_gauge() {
  static obs::Gauge& g = obs::Registry::instance().gauge("serve.connections");
  return g;
}
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::Registry::instance().gauge("serve.queue_depth");
  return g;
}
obs::Histogram& latency_histogram() {
  static obs::Histogram& h =
      obs::Registry::instance().histogram("serve.latency_ms");
  return h;
}

}  // namespace

/// One client connection. Owned (created, polled, destroyed) by the
/// event-loop thread; while `busy`, the pool worker running its request
/// has exclusive use of `sock` and may set `dead` — the completion queue
/// mutex orders those writes before the loop reads them.
struct Server::Conn {
  std::uint64_t id{0};
  core::Socket sock;
  FrameAssembler frames{kMaxRequestBytes};
  bool busy{false};
  bool dead{false};
};

Server::Server(ServerOptions options)
    : options_{std::move(options)},
      lru_{options_.max_open_bytes},
      pool_{options_.threads} {}

Server::~Server() {
  if (wake_read_fd_ >= 0) {
    core::set_shutdown_wake_fd(-1);
    ::close(wake_read_fd_);
    ::close(wake_write_fd_);
    wake_read_fd_ = wake_write_fd_ = -1;
  }
}

void Server::bind() {
  if (listener_.valid()) return;
  listener_ = core::UnixListener::bind(options_.socket);
  if (wake_read_fd_ < 0) {
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0) {
      throw IoError{std::string{"serve: pipe: "} + std::strerror(errno)};
    }
    for (const int fd : fds) {
      ::fcntl(fd, F_SETFL, O_NONBLOCK);
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    }
    wake_read_fd_ = fds[0];
    wake_write_fd_ = fds[1];
  }
  core::set_shutdown_wake_fd(wake_write_fd_);
  if (options_.install_signals) core::install_shutdown_signals();
}

void Server::run() {
  bind();
  log_info("serve: listening on ", options_.socket.string(), " (",
           pool_.size(), " workers, lru ", options_.max_open_bytes, " bytes)");
  event_loop();
  drain_and_close();
}

void Server::stop() { core::request_shutdown(); }

std::uint64_t Server::requests_served() const {
  const std::lock_guard<std::mutex> lock{served_mutex_};
  return served_;
}

void Server::event_loop() {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> poll_ids;  // conn id per fds entry (0 = none)
  while (!core::shutdown_requested()) {
    fds.clear();
    poll_ids.clear();
    fds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
    poll_ids.push_back(0);
    fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
    poll_ids.push_back(0);
    for (const auto& conn : conns_) {
      if (conn->busy || conn->dead) continue;
      fds.push_back(pollfd{conn->sock.fd(), POLLIN, 0});
      poll_ids.push_back(conn->id);
    }

    // 100 ms cap: a safety net under the wake pipe, so a lost wakeup
    // degrades to latency, never to a hang.
    const int rc = ::poll(fds.data(), fds.size(), 100);
    if (rc < 0 && errno != EINTR) {
      throw IoError{std::string{"serve: poll: "} + std::strerror(errno)};
    }

    if ((fds[0].revents & POLLIN) != 0) {
      char buf[64];
      while (::read(wake_read_fd_, buf, sizeof buf) > 0) {
      }
    }
    process_completions();
    if (core::shutdown_requested()) break;
    if ((fds[1].revents & (POLLIN | POLLERR)) != 0) accept_pending();
    for (std::size_t i = 2; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn* conn = nullptr;
      for (const auto& c : conns_) {
        if (c->id == poll_ids[i]) {
          conn = c.get();
          break;
        }
      }
      // The conn may have been closed by an earlier iteration (e.g. a
      // bad frame on another fd triggered nothing here, but stay safe).
      if (conn == nullptr || conn->busy || conn->dead) continue;
      read_ready(*conn);
    }
  }
}

void Server::accept_pending() {
  while (auto sock = listener_.accept()) {
    sock->set_nonblocking(true);
    auto conn = std::make_unique<Conn>();
    conn->id = next_conn_id_++;
    conn->sock = std::move(*sock);
    conns_.push_back(std::move(conn));
  }
  connections_gauge().set(static_cast<double>(conns_.size()));
}

void Server::read_ready(Conn& conn) {
  char buf[65536];
  for (;;) {
    const auto n = conn.sock.recv_some(buf, sizeof buf);
    if (!n) break;  // would block: drained everything available
    if (*n == 0) {  // orderly EOF from an idle client
      close_conn(conn.id);
      return;
    }
    bytes_in_counter().add(*n);
    try {
      conn.frames.feed(buf, *n);
    } catch (const ProtocolError& e) {
      // Oversized or garbage length prefix: answer, then drop the
      // connection — its stream can no longer be framed.
      try {
        conn.sock.send_all(
            encode_response(Response{Status::kBadRequest, e.what()}));
      } catch (const std::exception&) {
        disconnects_counter().add();
      }
      close_conn(conn.id);
      return;
    }
  }
  dispatch(conn);
}

void Server::dispatch(Conn& conn) {
  if (conn.busy || conn.dead) return;
  auto payload = conn.frames.next();
  if (!payload) return;
  conn.busy = true;
  queue_depth_gauge().set(queue_depth_gauge().value() + 1.0);
  // Armed at dispatch, not at execution: time a request spends queued
  // behind other queries counts against its budget.
  const core::Deadline deadline = options_.deadline_s > 0
                                      ? core::Deadline{options_.deadline_s}
                                      : core::Deadline{};
  Conn* conn_ptr = &conn;
  pool_.submit([this, conn_ptr, payload = std::move(*payload), deadline]() {
    const obs::ScopedTimer timer{latency_histogram()};
    OBS_SPAN("serve.query");
    Response response;
    try {
      const Request request = decode_request(payload);
      response = execute(request, lru_, deadline);
    } catch (const ProtocolError& e) {
      response = Response{Status::kBadRequest, e.what()};
      conn_ptr->dead = true;  // framing is suspect; close after replying
    }
    const std::string frame = encode_response(response);
    // Counted before the reply goes out, so any reply a client has seen
    // is already reflected in requests_served().
    requests_counter().add();
    {
      const std::lock_guard<std::mutex> lock{served_mutex_};
      ++served_;
    }
    try {
      conn_ptr->sock.send_all(frame);
      bytes_out_counter().add(frame.size());
    } catch (const std::exception&) {
      // Client went away mid-query: one wasted render, nothing else.
      disconnects_counter().add();
      conn_ptr->dead = true;
    }
    {
      const std::lock_guard<std::mutex> lock{done_mutex_};
      done_.push_back(conn_ptr->id);
    }
    const char byte = 1;
    [[maybe_unused]] const ssize_t rc = ::write(wake_write_fd_, &byte, 1);
  });
}

void Server::process_completions() {
  std::vector<std::uint64_t> done;
  {
    const std::lock_guard<std::mutex> lock{done_mutex_};
    done.swap(done_);
  }
  for (const std::uint64_t id : done) {
    queue_depth_gauge().set(queue_depth_gauge().value() - 1.0);
    Conn* conn = nullptr;
    for (const auto& c : conns_) {
      if (c->id == id) {
        conn = c.get();
        break;
      }
    }
    if (conn == nullptr) continue;
    conn->busy = false;
    if (conn->dead) {
      close_conn(id);
      continue;
    }
    // A pipelining client may already have the next frame buffered.
    dispatch(*conn);
  }
}

void Server::close_conn(std::uint64_t id) {
  for (auto it = conns_.begin(); it != conns_.end(); ++it) {
    if ((*it)->id == id) {
      conns_.erase(it);
      break;
    }
  }
  connections_gauge().set(static_cast<double>(conns_.size()));
}

void Server::drain_and_close() {
  // Stop accepting first (and free the socket path for a successor)...
  listener_.close();
  // ...then let every in-flight query finish and flush its response —
  // shutdown() drains the queues and joins the workers.
  pool_.shutdown();
  process_completions();
  // Requests that were fully received but never dispatched get an
  // honest kShuttingDown instead of silence.
  for (const auto& conn : conns_) {
    if (conn->dead) continue;
    while (auto payload = conn->frames.next()) {
      try {
        conn->sock.send_all(encode_response(
            Response{Status::kShuttingDown, "daemon is draining"}));
      } catch (const std::exception&) {
        break;
      }
    }
  }
  conns_.clear();
  connections_gauge().set(0.0);
  log_info("serve: drained after ", requests_served(), " requests");
}

}  // namespace bblab::serve
