#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "xaon/aon/pipeline.hpp"
#include "xaon/util/assert.hpp"
#include "xaon/util/backoff.hpp"
#include "xaon/util/metrics.hpp"

/// \file server.hpp
/// Host-mode AON server: the paper's "XML server application" threading
/// model — POSIX threads, one worker per (logical) CPU, each draining a
/// message queue. Runs natively (no simulation) for functional
/// integration tests, the examples and real-throughput measurements.
///
/// The forward path degrades gracefully: an optional `Downstream`
/// accepts each processed message's outbound wire, and a bounded
/// retry-with-backoff budget (`ForwardPolicy`) plus the bounded worker
/// queues guarantee a faulty downstream turns into 502/503 responses —
/// never unbounded queuing or a lost message. That step after the
/// pipeline — forward, status accounting, per-worker stats — is
/// `GatewayWorker`, which `net::Server` runs too.

namespace xaon::aon {

/// Verdict from one downstream send attempt.
enum class SendStatus : std::uint8_t {
  kAck,   ///< accepted
  kBusy,  ///< transient overload — retry may succeed, shed as 503
  kFail,  ///< hard failure — retried, then reported as 502
};

/// The next hop a processed message is forwarded to. Host mode uses
/// in-process doubles (healthy, flaky, slow, dead); the real-socket
/// implementation is `net::SocketDownstream`, which maps connect/write
/// deadlines onto the same verdicts (xaon/net/downstream.hpp). `send`
/// is called concurrently from every worker and must be thread-safe.
class Downstream {
 public:
  virtual ~Downstream() = default;
  virtual SendStatus send(std::string_view wire) = 0;
};

/// Per-message forward budget. The attempt bound is the host-mode
/// analogue of a wall-clock forward timeout: a worker spends at most
/// `max_attempts` sends plus `backoff_pauses` escalating pauses between
/// them on one message, then sheds it and moves on.
struct ForwardPolicy {
  std::size_t max_attempts = 3;
  std::uint32_t backoff_pauses = 64;  ///< Backoff::pause() calls per retry
};

/// Settings both gateway servers share: the host-mode `Server` here
/// and the socket-level `net::Server`, which each extend it.
struct GatewayConfig {
  UseCase use_case = UseCase::kForwardRequest;
  std::size_t workers = 2;  ///< kept equal to CPUs, per the paper
  Downstream* downstream = nullptr;  ///< optional next hop (not owned)
  ForwardPolicy forward;
  /// Per-worker structural routing cache capacity (CBR); 0 disables the
  /// cache so every message takes the full-evaluation path — the knob
  /// the cache differential tests flip.
  std::size_t route_cache_capacity = kDefaultRouteCacheCapacity;

  /// Aborts on a setting no server can run with: no worker (run_load
  /// divides by the worker count) or a forward budget of zero sends
  /// (the forward loop sends before it tests the bound).
  void check() const {
    XAON_CHECK(workers >= 1);
    XAON_CHECK(forward.max_attempts >= 1);
  }
};

struct ServerConfig : GatewayConfig {
  std::size_t queue_capacity = 512;
};

/// Explicit response-class buckets. `add` classifies by HTTP status
/// range — every status lands in exactly one bucket, so the per-class
/// sums always reconcile against the message count (`total()`); a 1xx
/// or 3xx can never silently inflate the 4xx column.
struct StatusBuckets {
  std::uint64_t s1xx = 0;
  std::uint64_t s2xx = 0;
  std::uint64_t s3xx = 0;
  std::uint64_t s4xx = 0;
  std::uint64_t s5xx = 0;
  std::uint64_t other = 0;  ///< outside 100-599 (a pipeline bug if ever hit)

  void add(int status) {
    if (status >= 200 && status < 300) {
      ++s2xx;
    } else if (status >= 400 && status < 500) {
      ++s4xx;
    } else if (status >= 500 && status < 600) {
      ++s5xx;
    } else if (status >= 300) {
      ++s3xx;
    } else if (status >= 100) {
      ++s1xx;
    } else {
      ++other;
    }
  }

  std::uint64_t total() const {
    return s1xx + s2xx + s3xx + s4xx + s5xx + other;
  }

  void merge(const StatusBuckets& o) {
    s1xx += o.s1xx;
    s2xx += o.s2xx;
    s3xx += o.s3xx;
    s4xx += o.s4xx;
    s5xx += o.s5xx;
    other += o.other;
  }
};

/// Merged gateway counters of one run, valid after every worker joined.
/// `net::ServerStats` is this type; `LoadResult` adds host-mode timing.
struct GatewayStats {
  std::uint64_t messages = 0;
  std::uint64_t routed_primary = 0;
  std::uint64_t routed_error = 0;
  std::uint64_t failed = 0;  ///< HTTP/XML-level rejections

  /// Response-class buckets: every accepted message lands in exactly
  /// one. The built-in pipeline only emits 2xx/4xx/5xx (4xx: pipeline
  /// rejections, 5xx: downstream degradation), so s2xx + s4xx + s5xx ==
  /// messages there; the merge asserts the all-bucket reconciliation
  /// unconditionally.
  StatusBuckets status;
  std::uint64_t forward_retries = 0;   ///< extra send attempts
  std::uint64_t forward_failures = 0;  ///< budgets exhausted on kFail (502)
  std::uint64_t forward_shed = 0;      ///< budgets exhausted on kBusy (503)

  /// Merged per-worker / per-stage telemetry: parse / route / serialize
  /// / forward latency tracks (p50/p90/p99/max), per-worker message and
  /// busy-time accounting, the imbalance ratio, and the probe-site
  /// registry — one JSON dump via `metrics.to_json()`.
  util::MetricsSnapshot metrics;
};

struct LoadResult : GatewayStats {
  /// Dispatch-to-drain window: first push to the moment the *last*
  /// worker drained its queue. Excludes thread creation and join
  /// teardown, so short runs no longer under-report throughput.
  /// `messages_per_second()` divides by this window — it answers "how
  /// fast did the gateway process the stream", not "how long did the
  /// harness take".
  double seconds = 0;
  /// Full harness span (thread creation through join) — the old
  /// `seconds` semantics, kept for end-to-end accounting.
  double wall_seconds = 0;

  /// Throughput over the dispatch-to-drain window (see `seconds`).
  double messages_per_second() const {
    return seconds > 0 ? static_cast<double>(messages) / seconds : 0.0;
  }
};

/// One worker's gateway state and the per-message step after
/// `Pipeline::process*` that both servers run. Written by exactly one
/// worker thread while it runs and merged only after that thread is
/// joined. Allocation-free at steady state.
class GatewayWorker {
 public:
  explicit GatewayWorker(const GatewayConfig& config);
  // `scratch` points at `metrics`.
  GatewayWorker(const GatewayWorker&) = delete;
  GatewayWorker& operator=(const GatewayWorker&) = delete;

  /// Counts the outcome's route, then forwards a handled message under
  /// the `ForwardPolicy` budget. Returns the response status: the
  /// pipeline's own, or 502/503 when the budget ran out on kFail/kBusy.
  int forward(const Pipeline::Outcome& outcome);
  /// Closes one message: its status bucket, its latency since
  /// `start_ns` and the arena gauge (the arena still holds its DOM).
  void finish(int status, std::uint64_t start_ns);
  /// Counts a 400 for bytes that never formed a request.
  void reject_unframed(std::uint64_t start_ns);
  /// Publishes the route-cache and scan-kernel counters, once, on the
  /// worker thread when it stops taking messages.
  void drain();
  /// Adds this worker to `stats` and checks that every message merged
  /// so far landed in exactly one status bucket.
  void merge_into(GatewayStats& stats) const;

  util::WorkerMetrics metrics;
  Pipeline::ProcessScratch scratch;  ///< reused by every message

 private:
  GatewayConfig config_;
  util::Backoff retry_backoff_;
  std::uint64_t messages_ = 0;
  std::uint64_t primary_ = 0;
  std::uint64_t error_ = 0;
  std::uint64_t failed_ = 0;
  StatusBuckets status_;
  std::uint64_t retries_ = 0;
  std::uint64_t fwd_failures_ = 0;
  std::uint64_t fwd_shed_ = 0;
};

class Server {
 public:
  explicit Server(const ServerConfig& config);

  /// Processes `total_messages`, cycling through `wires` (pre-built
  /// request bytes), distributed round-robin across workers. The wire
  /// cursor is decoupled from the worker cursor (its phase rotates by
  /// one each full pass), so every worker sees every wire class even
  /// when the worker count and wire count share a common factor —
  /// per-worker cost stays representative for mixed workloads. Blocks
  /// until done.
  LoadResult run_load(const std::vector<std::string>& wires,
                      std::uint64_t total_messages);

  const ServerConfig& config() const { return config_; }

 private:
  ServerConfig config_;
  Pipeline pipeline_;
};

}  // namespace xaon::aon
