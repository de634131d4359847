#pragma once

#include <atomic>
#include <cstddef>
#include <optional>
#include <vector>

#include "xaon/util/assert.hpp"
#include "xaon/util/backoff.hpp"

/// \file spsc_queue.hpp
/// Bounded single-producer/single-consumer ring buffer.
///
/// Used as the per-worker message queue in the host-mode AON server: the
/// acceptor thread produces parsed messages, one worker per (logical)
/// CPU consumes them. Lock-free with acquire/release ordering only; head
/// and tail live on separate cache lines to avoid false sharing between
/// the producer and consumer cores.
///
/// Memory-order contract (each order states the invariant it preserves):
///  * `head_` store is **release** (producer) / load **acquire**
///    (consumer): a consumer that observes the new head also observes
///    the slot write sequenced before it — the element hand-off edge.
///  * `tail_` store is **release** (consumer) / load **acquire**
///    (producer): a producer that observes the new tail also observes
///    the consumer's move-out of the slot, so overwriting it is safe.
///  * Same-side loads (`head_` in the producer, `tail_` in the
///    consumer) are **relaxed**: each index has a single writer — its
///    own side — so the thread reads back its own last store.
/// The `tests/model` interleaving checker exhausts every schedule of
/// these operations (via the XAON_MODEL_POINT hooks below) and the TSan
/// tier watches real executions; see DESIGN.md §"Static analysis &
/// concurrency contracts".

/// Model-checker yield hook: a no-op in production builds. The
/// deterministic interleaving checker (tests/model/sched.hpp) defines
/// this to hand control to its scheduler, so every window between two
/// atomic accesses becomes a schedulable context-switch point in the
/// *real* queue code, not a re-implementation of it.
#ifndef XAON_MODEL_POINT
#define XAON_MODEL_POINT() ((void)0)
#endif

namespace xaon::util {

inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class SpscQueue {
 public:
  /// Capacity is rounded up to a power of two; usable slots = capacity.
  explicit SpscQueue(std::size_t capacity) {
    std::size_t cap = 1;
    while (cap < capacity + 1) cap <<= 1;  // one slot kept empty
    buffer_.resize(cap);
    mask_ = cap - 1;
  }

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side. Returns false when full.
  bool try_push(T value) {
    XAON_MODEL_POINT();
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = (head + 1) & mask_;
    XAON_MODEL_POINT();
    if (next == tail_.load(std::memory_order_acquire)) return false;
    XAON_MODEL_POINT();
    buffer_[head] = std::move(value);
    XAON_MODEL_POINT();
    head_.store(next, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns nullopt when empty.
  std::optional<T> try_pop() {
    XAON_MODEL_POINT();
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    XAON_MODEL_POINT();
    if (tail == head_.load(std::memory_order_acquire)) return std::nullopt;
    XAON_MODEL_POINT();
    std::optional<T> out(std::move(buffer_[tail]));
    XAON_MODEL_POINT();
    tail_.store((tail + 1) & mask_, std::memory_order_release);
    return out;
  }

  /// Blocking push: spins with bounded backoff (PAUSE burst, then
  /// yield) until the consumer frees a slot. Written against the ring
  /// directly — retrying try_push would re-move a moved-from value.
  void push_wait(T value) {
    Backoff backoff;
    const std::size_t head = head_.load(std::memory_order_relaxed);
    const std::size_t next = (head + 1) & mask_;
    for (;;) {
      XAON_MODEL_POINT();
      if (next != tail_.load(std::memory_order_acquire)) break;
      backoff.pause();
    }
    XAON_MODEL_POINT();
    buffer_[head] = std::move(value);
    XAON_MODEL_POINT();
    head_.store(next, std::memory_order_release);
  }

  /// Blocking pop: spins with bounded backoff until an item arrives or
  /// `stop()` returns true with the queue drained (then nullopt).
  ///
  /// The exit test order matters: `stop()` is sampled *before* the
  /// emptiness re-check, so when the producer's protocol is
  /// "push everything, then publish stop with release" (Server::
  /// run_load), observing stop==true implies all pushes are visible and
  /// a true `empty()` really is the final state — no message is lost.
  template <typename Stop>
  std::optional<T> pop_wait(Stop&& stop) {
    Backoff backoff;
    for (;;) {
      if (std::optional<T> item = try_pop()) return item;
      XAON_MODEL_POINT();
      if (stop() && empty()) return std::nullopt;
      backoff.pause();
    }
  }

  bool empty() const {
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_acquire);
  }

  std::size_t capacity() const { return mask_; }

  /// Raw ring indices, for tests and the model checker's invariant
  /// probes (head/tail monotonicity, occupancy bounds). Not
  /// synchronization points — don't build protocols on them.
  std::size_t debug_head() const {
    return head_.load(std::memory_order_relaxed);
  }
  std::size_t debug_tail() const {
    return tail_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<T> buffer_;
  std::size_t mask_ = 0;
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};
};

}  // namespace xaon::util
