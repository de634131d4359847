#include "xaon/aon/server.hpp"

#include <atomic>
#include <chrono>
#include <thread>

#include "xaon/util/annotations.hpp"
#include "xaon/util/assert.hpp"
#include "xaon/util/metrics.hpp"
#include "xaon/util/spsc_queue.hpp"

/// Concurrency contract of run_load (audited for the TSan tier; the
/// orderings below are load-bearing — each comment states the invariant
/// the order preserves):
///
///   acceptor thread                     worker w
///   ---------------                     --------
///   queue[w].push_wait(msg)  ... n×     pop_wait(stop) -> msg ... n×
///   done.store(true, release)           stop(): done.load(acquire)
///
/// * Queue hand-off: SpscQueue's release store of head_ (producer) /
///   acquire load of head_ (consumer) publishes the message pointer —
///   see spsc_queue.hpp.
/// * Shutdown: `done` is written with **release** after the final
///   push_wait returns, and read with **acquire** in the worker's stop
///   predicate. A worker that observes done==true therefore also
///   observes every head_ store sequenced before it, so pop_wait's
///   `stop() && empty()` exit test can never miss a message: either
///   empty() sees the push (and the worker pops it), or done was not
///   yet visible (and the worker keeps waiting). relaxed/relaxed here
///   would be a genuine lost-wakeup bug, not just a TSan artifact.
/// * Worker stats: each WorkerState is written by exactly one worker
///   thread while it runs; the acceptor reads them only after join(),
///   which provides the happens-before edge. No locks needed — that
///   single-owner phase discipline is why the fields carry no
///   XAON_GUARDED_BY (there is no capability; the model checker and
///   TSan tier cover this file instead).

namespace xaon::aon {

GatewayWorker::GatewayWorker(const GatewayConfig& config) : config_(config) {
  scratch.metrics = &metrics;  // parse/route/serialize spans
  if (scratch.route_cache.capacity() != config.route_cache_capacity) {
    scratch.route_cache.set_capacity(config.route_cache_capacity);
  }
}

int GatewayWorker::forward(const Pipeline::Outcome& outcome) {
  ++messages_;
  if (!outcome.ok) {
    ++failed_;
    return outcome.response.status;
  }
  if (outcome.routed_primary) {
    ++primary_;
  } else {
    ++error_;
  }
  if (config_.downstream == nullptr) return outcome.response.status;

  // Bounded retry budget: an exhausted budget degrades this one message
  // to 502/503 and the worker moves on — a dead downstream never wedges
  // the queue or the event loop.
  const std::uint64_t fwd_start = util::metrics_now_ns();
  SendStatus verdict = SendStatus::kAck;
  retry_backoff_.reset();
  for (std::size_t attempt = 0;; ++attempt) {
    verdict = config_.downstream->send(outcome.forwarded_wire);
    if (verdict == SendStatus::kAck) break;
    if (attempt + 1 >= config_.forward.max_attempts) break;
    ++retries_;
    for (std::uint32_t p = 0; p < config_.forward.backoff_pauses; ++p) {
      retry_backoff_.pause();
    }
  }
  int status = outcome.response.status;
  if (verdict == SendStatus::kBusy) {
    status = 503;  // transient overload: shed
    ++fwd_shed_;
  } else if (verdict == SendStatus::kFail) {
    status = 502;  // hard downstream failure
    ++fwd_failures_;
  }
  metrics.record_stage(util::Stage::kForward,
                       util::metrics_now_ns() - fwd_start);
  return status;
}

void GatewayWorker::finish(int status, std::uint64_t start_ns) {
  // Explicit classification: a 1xx/3xx (or out-of-range) status lands
  // in its own bucket, never silently in 4xx.
  status_.add(status);
  metrics.record_message(util::metrics_now_ns() - start_ns);
  // The arena still holds this message's DOM (it resets at the START of
  // the next message), so its footprint right here IS the message's
  // arena cost. Two gauge stores, allocation-free.
  metrics.record_arena(scratch.arena.bytes_allocated(),
                       scratch.arena.bytes_retained());
}

void GatewayWorker::reject_unframed(std::uint64_t start_ns) {
  ++messages_;
  ++failed_;
  status_.add(400);
  metrics.record_message(util::metrics_now_ns() - start_ns);
}

void GatewayWorker::drain() {
  // Off the message path: one struct copy each.
  metrics.record_route_cache(scratch.route_cache.stats());
  metrics.record_scan(util::scan::thread_counters());
}

void GatewayWorker::merge_into(GatewayStats& stats) const {
  stats.messages += messages_;
  stats.routed_primary += primary_;
  stats.routed_error += error_;
  stats.failed += failed_;
  stats.status.merge(status_);
  stats.forward_retries += retries_;
  stats.forward_failures += fwd_failures_;
  stats.forward_shed += fwd_shed_;
  stats.metrics.add_worker(metrics);
  // Every message lands in exactly one status bucket by construction;
  // the check guards against a future bucket being added but not merged.
  XAON_CHECK(stats.status.total() == stats.messages);
}

Server::Server(const ServerConfig& config)
    : config_(config), pipeline_(config.use_case) {
  config.check();
}

LoadResult Server::run_load(const std::vector<std::string>& wires,
                            std::uint64_t total_messages) {
  XAON_CHECK_MSG(!wires.empty(), "need at least one message");
  const std::size_t n_workers = config_.workers;

  struct WorkerState {
    explicit WorkerState(const ServerConfig& config)
        : queue(config.queue_capacity), gateway(config) {}
    util::SpscQueue<const std::string*> queue;
    GatewayWorker gateway;
    /// When this worker drained its queue and exited — read after
    /// join(); max over workers closes the dispatch-to-drain window.
    std::uint64_t finish_ns = 0;
  };

  std::vector<std::unique_ptr<WorkerState>> states;
  states.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    states.push_back(std::make_unique<WorkerState>(config_));
  }

  std::atomic<bool> done{false};
  std::vector<std::thread> workers;
  workers.reserve(n_workers);
  const auto start = std::chrono::steady_clock::now();

  for (std::size_t w = 0; w < n_workers; ++w) {
    workers.emplace_back([this, &done, state = states[w].get()] {
      // Scan-kernel counters are thread-local; start this worker's
      // window at zero so the drain-time copy is exact.
      util::scan::reset_thread_counters();
      // acquire: pairs with the acceptor's release store below — done
      // observed true implies every earlier push is visible (see the
      // file-top contract).
      const auto stop = [&done] {
        return done.load(std::memory_order_acquire);
      };
      while (auto item = state->queue.pop_wait(stop)) {
        const std::uint64_t msg_start = util::metrics_now_ns();
        const Pipeline::Outcome& outcome =
            pipeline_.process_wire(**item, state->gateway.scratch);
        state->gateway.finish(state->gateway.forward(outcome), msg_start);
      }
      state->gateway.drain();
      state->finish_ns = util::metrics_now_ns();
    });
  }
  // Dispatch round-robin (the acceptor thread role); push_wait spins
  // with bounded pause-backoff when a worker's queue is full.
  //
  // The wire cursor is deliberately NOT derived from the message index:
  // with `wires[i % wires.size()]` and `states[i % n_workers]`, any
  // common factor of the two counts locks each worker onto a fixed
  // subset of wires (worker w only ever sees indices ≡ w modulo the
  // gcd), skewing per-worker cost for mixed workloads. Instead the
  // cursor walks every wire once per pass and the pass phase rotates by
  // one each wraparound, so the worker/wire alignment drifts through
  // every residue — each worker observes every wire class while each
  // pass still covers each wire exactly once (uniform mix).
  const std::uint64_t dispatch_start = util::metrics_now_ns();
  std::size_t wire_pos = 0;    // position within the current pass
  std::size_t wire_phase = 0;  // rotation applied to this pass
  for (std::uint64_t i = 0; i < total_messages; ++i) {
    WorkerState& target = *states[i % n_workers];
    std::size_t wire_idx = wire_pos + wire_phase;
    if (wire_idx >= wires.size()) wire_idx -= wires.size();
    target.queue.push_wait(&wires[wire_idx]);
    if (++wire_pos == wires.size()) {
      wire_pos = 0;
      if (++wire_phase == wires.size()) wire_phase = 0;
    }
  }
  // release: sequenced after the last push_wait, so workers acquiring
  // done==true cannot observe an emptier queue than the final state —
  // the `stop() && empty()` exit in pop_wait stays lossless.
  done.store(true, std::memory_order_release);
  for (auto& t : workers) t.join();
  const auto end = std::chrono::steady_clock::now();

  LoadResult result;
  std::uint64_t last_drain = dispatch_start;
  for (const auto& s : states) {
    s->gateway.merge_into(result);
    if (s->finish_ns > last_drain) last_drain = s->finish_ns;
  }
  result.metrics.capture_probe_sites();
  // Dispatch-to-drain window (throughput denominator) vs. full harness
  // span: see LoadResult. finish_ns is written by each worker before
  // join(), which provides the happens-before edge for reading it here.
  result.seconds =
      static_cast<double>(last_drain - dispatch_start) * 1e-9;
  result.wall_seconds = std::chrono::duration<double>(end - start).count();
  return result;
}

}  // namespace xaon::aon
