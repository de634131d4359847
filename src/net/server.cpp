#include "xaon/net/server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <thread>
#include <vector>

#include "xaon/http/message.hpp"
#include "xaon/net/socket.hpp"
#include "xaon/util/assert.hpp"
#include "xaon/util/backoff.hpp"
#include "xaon/util/spsc_queue.hpp"
#include "xaon/util/str.hpp"

/// Concurrency contract (same audit discipline as aon/server.cpp):
///
///   acceptor thread                      worker w (event loop)
///   ---------------                      ---------------------
///   handoff[w].try_push(fd)              eventfd readable:
///   write(eventfd[w], 1)                   handoff.try_pop() -> fd ...
///   ...
///   stopping.store(true, release)        stop[w].load(acquire)
///
/// * fd handoff: each worker's handoff ring is a strict SPSC pair —
///   the acceptor is the only producer, the owning event loop the only
///   consumer. SpscQueue's release/acquire on head_ publishes the fd;
///   the eventfd write is only a wakeup, not a synchronization edge.
/// * Shutdown: `stop()` joins the acceptor BEFORE setting the workers'
///   stop flags, so no handoff push can race a worker's final drain;
///   the release store / acquire load pairing makes every earlier push
///   visible to a worker that observes stop==true.
/// * Worker stats (each worker's aon::GatewayWorker) are written by
///   exactly one event-loop thread while it runs and read by stop()
///   only after join() — the join provides the happens-before edge, so
///   the fields carry no locks (TSan tier covers this file).

namespace xaon::net {

namespace {

constexpr std::size_t kHandoffCapacity = 256;  ///< acceptor->worker fd ring
/// Per-read buffer; also the largest chunk the parser sees at once.
constexpr std::size_t kReadChunk = 64 * 1024;
/// Per-message HTTP body cap: a larger Content-Length gets 400 + close.
constexpr std::size_t kMaxBody = 16 * 1024 * 1024;

// Decimal append without std::to_string (alloc-free into the reused
// response buffer).
void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  std::size_t n = 0;
  do {
    buf[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) out += buf[--n];
}

// Serializes `response` into `out` (appending — the connection may
// already hold earlier pipelined responses). `status` may override the
// pipeline's status when the forward budget degraded this message to
// 502/503; the override replaces reason and body with the standard
// phrase so the client sees a coherent error. Steady-state
// allocation-free once `out` has grown to working capacity.
void append_response(const http::Response& response, int status, bool close,
                     std::string& out) {
  const bool overridden = status != response.status;
  out += response.version;
  out += ' ';
  append_u64(out, static_cast<std::uint64_t>(status));
  out += ' ';
  const std::string_view phrase = http::reason_phrase(status);
  if (overridden || response.reason.empty()) {
    out += phrase;
  } else {
    out += response.reason;
  }
  out += "\r\n";
  for (const auto& e : response.headers.entries()) {
    // Framing headers are owned by the transport, not the pipeline.
    if (util::iequals(e.name, "Content-Length") ||
        util::iequals(e.name, "Transfer-Encoding") ||
        util::iequals(e.name, "Connection")) {
      continue;
    }
    out += e.name;
    out += ": ";
    out += e.value;
    out += "\r\n";
  }
  if (close) out += "Connection: close\r\n";
  const std::string_view body = overridden ? phrase : response.body;
  out += "Content-Length: ";
  append_u64(out, body.size());
  out += "\r\n\r\n";
  out += body;
}

// Transport-level rejection for bytes that never became a request.
void append_bad_request(std::string& out) {
  out +=
      "HTTP/1.1 400 Bad Request\r\n"
      "Connection: close\r\n"
      "Content-Length: 11\r\n\r\n"
      "Bad Request";
}

/// One client connection's state. The parser accumulates across
/// arbitrary read chunks (kReading); completed messages append their
/// response to `out`, which drains to the socket as the kernel accepts
/// it (kDraining when EPOLLOUT is armed). `close_after_flush` is the
/// terminal marker: set on parse errors and `Connection: close`.
/// Recycled through the worker's free list, buffers retained — a
/// steady-state connection churn does not touch the allocator.
struct Connection {
  int fd = -1;
  http::RequestParser parser;
  std::string out;           ///< pending response bytes
  std::size_t out_pos = 0;   ///< drain cursor into `out`
  std::uint64_t parse_ns = 0;      ///< parse time of the in-flight message
  std::uint64_t msg_start_ns = 0;  ///< first byte seen -> response queued
  bool close_after_flush = false;
  bool want_write = false;   ///< EPOLLOUT armed
};

}  // namespace

/// One event-loop thread: epoll over its connections plus the handoff
/// eventfd. Owns an aon::GatewayWorker whose ProcessScratch (arena,
/// parser pools, route cache) is shared by every connection it serves —
/// per-message state lives in the scratch, per-connection framing state
/// in the Connection.
class Worker {
 public:
  Worker(const ServerConfig& config, const aon::Pipeline& pipeline)
      : handoff(kHandoffCapacity), gateway(config), pipeline_(pipeline) {}

  ~Worker() {
    XAON_CHECK(!thread.joinable());
  }

  bool start(std::string* error) {
    epoll_fd_.reset(::epoll_create1(EPOLL_CLOEXEC));
    if (!epoll_fd_.valid()) {
      if (error != nullptr) error->assign("epoll_create1 failed");
      return false;
    }
    event_fd_.reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
    if (!event_fd_.valid()) {
      if (error != nullptr) error->assign("eventfd failed");
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = nullptr;  // nullptr marks the eventfd
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, event_fd_.get(), &ev) !=
        0) {
      if (error != nullptr) error->assign("epoll_ctl(eventfd) failed");
      return false;
    }
    thread = std::thread([this] { run(); });
    return true;
  }

  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(event_fd_.get(), &one, sizeof(one));
  }

  util::SpscQueue<int> handoff;  ///< acceptor -> this worker (SPSC)
  std::atomic<bool> stop{false};
  std::thread thread;

  // Single-writer while the loop runs; read by stop() after join().
  aon::GatewayWorker gateway;

 private:
  void run() {
    // Scan-kernel counters are thread-local to this event loop; start
    // the window at zero so the drain-time copy below is exact.
    util::scan::reset_thread_counters();
    epoll_event events[64];
    for (;;) {
      const int n = ::epoll_wait(epoll_fd_.get(), events, 64, -1);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // epoll fd gone — tear down
      }
      for (int i = 0; i < n; ++i) {
        void* ptr = events[i].data.ptr;
        if (ptr == nullptr) {
          drain_eventfd();
          while (auto fd = handoff.try_pop()) add_connection(*fd);
          continue;
        }
        Connection* c = static_cast<Connection*>(ptr);
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
          close_connection(c);
          continue;
        }
        if ((events[i].events & EPOLLIN) != 0) handle_readable(c);
        // handle_readable may have closed (fd == -1); the Connection
        // object itself is pooled, never freed, so the check is safe.
        if (c->fd >= 0 && (events[i].events & EPOLLOUT) != 0) flush(c);
      }
      if (stop.load(std::memory_order_acquire)) {
        // The acceptor is already joined: drain the last handed-off
        // fds (count both edges so accepted == closed reconciles),
        // then drop every live connection.
        while (auto fd = handoff.try_pop()) {
          ::close(*fd);
          ++gateway.metrics.net().accepted;
          ++gateway.metrics.net().closed;
        }
        for (auto& c : conns_) {
          if (c->fd >= 0) close_connection(c.get());
        }
        break;
      }
    }
    gateway.drain();
  }

  void drain_eventfd() {
    std::uint64_t count = 0;
    [[maybe_unused]] const ssize_t n =
        ::read(event_fd_.get(), &count, sizeof(count));
  }

  void add_connection(int fd) {
    Connection* c;
    if (!free_.empty()) {
      c = free_.back();
      free_.pop_back();
    } else {
      conns_.push_back(std::make_unique<Connection>());
      c = conns_.back().get();
      c->parser.set_max_body(kMaxBody);
    }
    c->fd = fd;
    c->parser.reset();
    c->out.clear();
    c->out_pos = 0;
    c->parse_ns = 0;
    c->msg_start_ns = 0;
    c->close_after_flush = false;
    c->want_write = false;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = c;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      c->fd = -1;
      free_.push_back(c);
      return;
    }
    ++gateway.metrics.net().accepted;
  }

  void close_connection(Connection* c) {
    if (c->fd < 0) return;
    ::close(c->fd);  // the kernel deregisters it from epoll
    c->fd = -1;
    ++gateway.metrics.net().closed;
    free_.push_back(c);
  }

  void arm_write(Connection* c, bool on) {
    epoll_event ev{};
    ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
    ev.data.ptr = c;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, c->fd, &ev) == 0) {
      c->want_write = on;
    }
  }

  /// kReading: pull bytes until EAGAIN/EOF, feeding the parser as they
  /// arrive. Never reads past a framing error (the hostile stream gets
  /// its 400 and the close flag; reading on would just burn cycles).
  void handle_readable(Connection* c) {
    util::NetCounters& net = gateway.metrics.net();
    for (;;) {
      const ssize_t n = ::read(c->fd, read_buf_.data(), read_buf_.size());
      if (n > 0) {
        net.bytes_in += static_cast<std::uint64_t>(n);
        consume(c, std::string_view(read_buf_.data(),
                                    static_cast<std::size_t>(n)));
        if (c->close_after_flush) break;
        continue;
      }
      if (n == 0) {  // peer closed; best-effort flush, then drop
        flush(c);
        if (c->fd >= 0) close_connection(c);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        ++net.read_eagain;
        break;
      }
      if (errno == EINTR) continue;
      close_connection(c);
      return;
    }
    flush(c);
  }

  /// Feeds one read chunk through the incremental parser; a chunk may
  /// complete zero, one, or many pipelined messages. Parse spans
  /// accumulate across chunks and are recorded when the message
  /// completes (or dies), so per-stage metrics mean the same thing
  /// they mean in host mode.
  void consume(Connection* c, std::string_view data) {
    while (!data.empty()) {
      if (c->msg_start_ns == 0) c->msg_start_ns = util::metrics_now_ns();
      const std::uint64_t t0 = util::metrics_now_ns();
      const std::size_t used = c->parser.feed(data);
      c->parse_ns += util::metrics_now_ns() - t0;
      data.remove_prefix(used);
      if (!c->parser.done() && !c->parser.failed()) {
        XAON_CHECK(data.empty());  // feed() consumes all or completes
        return;
      }
      gateway.metrics.record_stage(util::Stage::kParse, c->parse_ns);
      c->parse_ns = 0;
      if (c->parser.failed()) {
        // Bytes that never framed a request: 400, close, count it.
        append_bad_request(c->out);
        c->close_after_flush = true;
        gateway.reject_unframed(c->msg_start_ns);
        c->msg_start_ns = 0;
        return;
      }
      handle_message(c);
      c->parser.reset();
    }
  }

  /// One complete request: pipeline, then the gateway step host mode
  /// runs too (bounded-retry forward, accounting), with the response
  /// appended to the connection's drain buffer.
  void handle_message(Connection* c) {
    const http::Request& request = c->parser.request();
    const bool close = request.wants_close();
    const aon::Pipeline::Outcome& outcome =
        pipeline_.process(request, gateway.scratch);
    const int status = gateway.forward(outcome);
    append_response(outcome.response, status, close, c->out);
    if (close) c->close_after_flush = true;
    gateway.finish(status, c->msg_start_ns);
    c->msg_start_ns = 0;
  }

  /// kDraining: write until the buffer empties or the kernel pushes
  /// back. Pushback arms EPOLLOUT; a drained buffer disarms it and
  /// resolves `close_after_flush`.
  void flush(Connection* c) {
    if (c->fd < 0) return;
    util::NetCounters& net = gateway.metrics.net();
    while (c->out_pos < c->out.size()) {
      const std::size_t want = c->out.size() - c->out_pos;
      const ssize_t n =
          ::send(c->fd, c->out.data() + c->out_pos, want, MSG_NOSIGNAL);
      if (n > 0) {
        net.bytes_out += static_cast<std::uint64_t>(n);
        c->out_pos += static_cast<std::size_t>(n);
        if (static_cast<std::size_t>(n) < want) ++net.short_writes;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        if (!c->want_write) arm_write(c, true);
        return;
      }
      if (n < 0 && errno == EINTR) continue;
      close_connection(c);
      return;
    }
    c->out.clear();
    c->out_pos = 0;
    if (c->want_write) arm_write(c, false);
    if (c->close_after_flush) close_connection(c);
  }

  const aon::Pipeline& pipeline_;
  Fd epoll_fd_;
  Fd event_fd_;
  std::vector<std::unique_ptr<Connection>> conns_;  ///< owns every Connection
  std::vector<Connection*> free_;                   ///< recycling list
  std::array<char, kReadChunk> read_buf_;
};

struct Server::Impl {
  explicit Impl(const ServerConfig& c) : config(c), pipeline(c.use_case) {}

  void accept_loop();

  ServerConfig config;
  aon::Pipeline pipeline;
  Fd listen_fd;
  Fd stop_event;
  std::uint16_t port = 0;
  std::atomic<bool> stopping{false};
  std::vector<std::unique_ptr<Worker>> workers;
  std::thread acceptor;
  ServerStats stats;
  bool running = false;
};

/// Acceptor: accept on the loopback listener, hand each fd to the next
/// worker round-robin. A full handoff ring is waited out with bounded
/// backoff (stop-aware) — connection acceptance applies backpressure
/// instead of dropping, mirroring the bounded queues of host mode.
void Server::Impl::accept_loop() {
  Impl& impl = *this;
  std::size_t next = 0;
  pollfd fds[2] = {{impl.listen_fd.get(), POLLIN, 0},
                   {impl.stop_event.get(), POLLIN, 0}};
  for (;;) {
    fds[0].revents = 0;
    fds[1].revents = 0;
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if ((fds[1].revents & POLLIN) != 0) break;  // stop requested
    if ((fds[0].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    for (;;) {
      const int fd = ::accept4(impl.listen_fd.get(), nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        break;  // EAGAIN: drained; anything else: poll again
      }
      set_nodelay(fd);
      Worker& w = *impl.workers[next];
      next = (next + 1) % impl.workers.size();
      util::Backoff backoff;
      bool queued = false;
      while (!impl.stopping.load(std::memory_order_acquire)) {
        if (w.handoff.try_push(fd)) {
          queued = true;
          break;
        }
        backoff.pause();
      }
      if (!queued) {
        ::close(fd);
        continue;
      }
      w.wake();
    }
  }
}

Server::Server(const ServerConfig& config)
    : impl_(std::make_unique<Impl>(config)) {
  config.check();
}

Server::~Server() { stop(); }

bool Server::start(std::string* error) {
  Impl& im = *impl_;
  XAON_CHECK(!im.running);
  im.listen_fd = listen_tcp(im.config.port, &im.port, error);
  if (!im.listen_fd.valid()) return false;
  im.stop_event.reset(::eventfd(0, EFD_CLOEXEC));
  if (!im.stop_event.valid()) {
    if (error != nullptr) error->assign("eventfd failed");
    im.listen_fd.reset();
    return false;
  }
  im.workers.reserve(im.config.workers);
  for (std::size_t w = 0; w < im.config.workers; ++w) {
    im.workers.push_back(std::make_unique<Worker>(im.config, im.pipeline));
  }
  for (auto& w : im.workers) {
    if (!w->start(error)) {
      // Unwind the ones already running.
      for (auto& started : im.workers) {
        if (started->thread.joinable()) {
          started->stop.store(true, std::memory_order_release);
          started->wake();
          started->thread.join();
        }
      }
      im.workers.clear();
      im.listen_fd.reset();
      im.stop_event.reset();
      return false;
    }
  }
  im.acceptor = std::thread([this] { impl_->accept_loop(); });
  im.running = true;
  return true;
}

std::uint16_t Server::port() const { return impl_->port; }

bool Server::running() const { return impl_->running; }

const ServerStats& Server::stop() {
  Impl& im = *impl_;
  if (!im.running) return im.stats;
  // Acceptor first: after this join no handoff producer exists, so the
  // workers' final drain is race-free (see the file-top contract).
  im.stopping.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n =
      ::write(im.stop_event.get(), &one, sizeof(one));
  im.acceptor.join();
  im.listen_fd.reset();
  for (auto& w : im.workers) {
    w->stop.store(true, std::memory_order_release);
    w->wake();
  }
  for (auto& w : im.workers) w->thread.join();

  for (auto& w : im.workers) w->gateway.merge_into(im.stats);
  im.stats.metrics.capture_probe_sites();
  im.workers.clear();
  im.stop_event.reset();
  im.running = false;
  return im.stats;
}

const ServerStats& Server::stats() const { return impl_->stats; }

const ServerConfig& Server::config() const { return impl_->config; }

}  // namespace xaon::net
