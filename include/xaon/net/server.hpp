#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "xaon/aon/server.hpp"

/// \file server.hpp
/// Real-network AON server: an epoll-based nonblocking TCP transport
/// terminating the HTTP connections the paper's appliance terminates
/// (its Fig. 2 / Table 3 numbers are socket-level). One acceptor thread
/// accepts on the loopback listener and hands fds round-robin to
/// per-worker event loops; each worker drives the incremental
/// `http::MessageParser` over whatever read chunks the kernel delivers,
/// supports HTTP/1.1 keep-alive pipelining, and reuses one arena-backed
/// `Pipeline::ProcessScratch` across every message it handles — the
/// parse → route → serialize path stays allocation-free at steady
/// state, same contract as the host-mode server (DESIGN.md §5b).
///
/// The forward path is host mode's: each worker runs the same
/// `aon::GatewayWorker` step, forwarding to an optional
/// `aon::Downstream` (see `net::SocketDownstream` for the real-socket
/// one) under the bounded `ForwardPolicy` retry budget; an exhausted
/// budget degrades the one message to 502/503 and the event loop moves
/// on. DESIGN.md §"Transport" documents the connection state machine and the
/// timeout → shed mapping.

namespace xaon::net {

struct ServerConfig : aon::GatewayConfig {
  /// Loopback port to bind; 0 = kernel-assigned (read it back via
  /// `Server::port()` once started).
  std::uint16_t port = 0;
};

/// Merged results, valid after `stop()`: the same type as the host
/// server's counters (`aon::LoadResult` extends it with timing), so
/// benches emit the same JSON-line schema; the transport-level counters
/// (accepted/closed/EAGAIN/short-writes, bytes in/out) ride inside
/// `metrics` as `util::NetCounters`.
using ServerStats = aon::GatewayStats;

/// The transport server. start() binds and spawns the threads; stop()
/// tears everything down and merges per-worker state into stats().
class Server {
 public:
  explicit Server(const ServerConfig& config);
  ~Server();  ///< stops if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1 and starts acceptor + worker threads. False (with
  /// `*error`) on bind/listen/epoll failure.
  bool start(std::string* error = nullptr);

  /// The bound loopback port (valid after start()).
  std::uint16_t port() const;

  bool running() const;

  /// Stops accepting, closes every connection, joins all threads and
  /// merges worker state. Idempotent; returns the merged stats.
  const ServerStats& stop();

  /// Merged stats (meaningful after stop()).
  const ServerStats& stats() const;

  const ServerConfig& config() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace xaon::net
