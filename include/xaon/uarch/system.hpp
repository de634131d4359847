#pragma once

#include <memory>
#include <vector>

#include "xaon/uarch/cache.hpp"
#include "xaon/uarch/counters.hpp"
#include "xaon/uarch/platform.hpp"
#include "xaon/uarch/predictor.hpp"
#include "xaon/uarch/prefetch.hpp"
#include "xaon/uarch/trace.hpp"

/// \file system.hpp
/// The simulated machine: cores (L1I/L1D/predictor/prefetcher per
/// core), chips (L2 per chip, shared by its cores), one front-side bus,
/// and a coherence directory. Execution is a deterministic interleaving
/// of per-thread traces ordered by simulated time, with a
/// stall-accounting core model:
///
///   op cost = issue-slot occupancy (charged to the CORE — SMT threads
///             compete for it) + exposed memory stalls + branch
///             mispredict penalty + bus arbitration wait (charged to the
///             THREAD).
///
/// This split is what makes the paper's dual-processing effects fall
/// out structurally: Hyper-Threading overlaps thread-private stalls but
/// serializes issue occupancy; shared L2s thrash under streaming
/// workloads; separate packages pay FSB coherence for producer/consumer
/// sharing.

namespace xaon::uarch {

struct RunResult {
  double wall_ns = 0;                ///< simulated wall-clock time
  Counters total;                    ///< summed over hardware threads
  std::vector<Counters> per_thread;

  /// Work throughput helper: units of work per second given the number
  /// of work items the traces represented.
  double items_per_second(double items) const {
    return wall_ns <= 0 ? 0.0 : items / (wall_ns * 1e-9);
  }
};

class System {
 public:
  /// Checks that L1I, L1D and L2 share one line size (coherence maps
  /// L2 lines back to L1 addresses) and that there are at most 32 cores
  /// (the directory's core mask is 32 bits).
  explicit System(const PlatformConfig& config);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Runs one trace per hardware thread (fewer traces than threads
  /// leaves the remaining units idle; nullptr entries are idle too).
  /// Microarchitectural state (caches, predictors) persists across
  /// calls, so "run once to warm, run again to measure" gives
  /// steady-state numbers.
  RunResult run(const std::vector<const Trace*>& traces);

  const PlatformConfig& config() const { return config_; }

  /// Clears caches, predictors, directory and the bus clock (cold
  /// start) by rebuilding the cores and chips; the constructor builds
  /// them the same way. Does not touch configuration.
  void reset();

 private:
  struct Core;
  struct Chip;
  struct ThreadState;

  /// Cost of one memory reference, split into the thread-private
  /// exposed stall and the core-shared cache-port occupancy.
  struct MemCost {
    double stall_ns = 0;  ///< private (overlappable by the SMT sibling)
    double port_ns = 0;   ///< occupies the core's cache port (shared)
  };
  MemCost memory_access(ThreadState& thread, Core& core, Chip& chip,
                        std::uint64_t addr, bool is_write, bool is_ifetch,
                        double now_ns);

  /// Reserves the FSB at `now`; returns wait time in ns.
  double bus_acquire(double now_ns, Counters& counters);

  /// Write-invalidation + dirty-intervention bookkeeping. Returns extra
  /// latency in ns.
  double coherence(ThreadState& thread, std::uint64_t line, bool is_write,
                   double now_ns);

  PlatformConfig config_;
  std::vector<std::unique_ptr<Core>> cores_;
  std::vector<std::unique_ptr<Chip>> chips_;

  struct DirEntry {
    std::uint32_t core_mask = 0;  ///< cores that may cache the line (L1)
    std::uint32_t chip_mask = 0;  ///< chips that may cache it (L2)
    std::int32_t dirty_core = -1; ///< last writer, -1 = clean
  };

  /// Line -> DirEntry, open-addressed with linear probing over a
  /// power-of-two table kept at most half full. operator[]
  /// default-inserts a missing line.
  class Directory {
   public:
    DirEntry& operator[](std::uint64_t line);
    void clear();

   private:
    struct Slot {
      std::uint64_t key = 0;  ///< line + 1; 0 = empty
      DirEntry entry;
    };
    std::size_t home(std::uint64_t key) const;
    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    int shift_ = 64;  ///< 64 - log2(slots_.size())
  };
  Directory directory_;

  double bus_free_ns_ = 0;
  std::vector<std::uint64_t> prefetch_buf_;
};

}  // namespace xaon::uarch
