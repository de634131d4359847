#include "xaon/uarch/system.hpp"

#include <algorithm>
#include <bit>

#include "xaon/util/assert.hpp"

namespace xaon::uarch {

struct System::Core {
  Core(const CoreArch& arch)
      : l1i(arch.l1i), l1d(arch.l1d), predictor(arch.predictor),
        prefetcher(arch.prefetch) {}
  Cache l1i;
  Cache l1d;
  BranchPredictor predictor;
  StreamPrefetcher prefetcher;
  double issue_free_ns = 0;  ///< issue slots, shared by SMT threads
  double port_free_ns = 0;   ///< cache/L2 port, shared by SMT threads
  int chip = 0;
};

struct System::Chip {
  explicit Chip(const CacheConfig& l2_config) : l2(l2_config) {}
  Cache l2;
};

struct System::ThreadState {
  const Trace* trace = nullptr;
  std::size_t next = 0;
  double time_ns = 0;
  Counters counters;
  int core = 0;
  int chip = 0;
  int smt_slot = 0;

  bool active() const { return trace != nullptr && next < trace->size(); }
};

System::System(const PlatformConfig& config) : config_(config) {
  XAON_CHECK(config.chips >= 1 && config.cores_per_chip >= 1);
  XAON_CHECK_MSG(config.arch.l1i.line_bytes == config.l2.line_bytes &&
                     config.arch.l1d.line_bytes == config.l2.line_bytes,
                 "L1I, L1D and L2 must have equal line sizes");
  XAON_CHECK_MSG(config.cores() <= 32, "at most 32 cores");
  reset();
}

System::~System() = default;

void System::reset() {
  cores_.clear();
  chips_.clear();
  directory_.clear();
  bus_free_ns_ = 0;
  for (int ch = 0; ch < config_.chips; ++ch) {
    chips_.push_back(std::make_unique<Chip>(config_.l2));
    for (int co = 0; co < config_.cores_per_chip; ++co) {
      auto core = std::make_unique<Core>(config_.arch);
      core->chip = ch;
      cores_.push_back(std::move(core));
    }
  }
}

std::size_t System::Directory::home(std::uint64_t key) const {
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
}

System::DirEntry& System::Directory::operator[](std::uint64_t line) {
  const std::uint64_t key = line + 1;
  if (slots_.empty()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.key == key) return slot.entry;
    if (slot.key == 0) {
      if (2 * (size_ + 1) > slots_.size()) {
        grow();
        return (*this)[line];
      }
      ++size_;
      slot.key = key;
      return slot.entry;
    }
  }
}

void System::Directory::clear() {
  slots_ = {};
  size_ = 0;
}

void System::Directory::grow() {
  std::vector<Slot> old = std::move(slots_);
  const std::size_t capacity = old.empty() ? 1024 : 2 * old.size();
  slots_.assign(capacity, Slot{});
  shift_ = 64 - std::countr_zero(capacity);
  const std::size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.key == 0) continue;
    std::size_t i = home(slot.key);
    while (slots_[i].key != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

double System::bus_acquire(double now_ns, Counters& counters) {
  const double wait = std::max(0.0, bus_free_ns_ - now_ns);
  bus_free_ns_ = std::max(bus_free_ns_, now_ns) + config_.bus_occupancy_ns();
  ++counters.bus_transactions;
  return wait;
}

double System::coherence(ThreadState& thread, std::uint64_t line,
                         bool is_write, double now_ns) {
  DirEntry& entry = directory_[line];
  const std::uint32_t core_bit = 1u << thread.core;
  const std::uint32_t chip_bit = 1u << thread.chip;
  double extra_ns = 0;

  // Ownership transfer: another core last wrote this line; reading or
  // re-writing it costs a modified-intervention (cache-to-cache through
  // the shared L2 within a package, over the FSB between packages).
  if (entry.dirty_core >= 0 && entry.dirty_core != thread.core) {
    Core& owner = *cores_[static_cast<std::size_t>(entry.dirty_core)];
    const bool other_chip = owner.chip != thread.chip;
    if (other_chip) {
      extra_ns += config_.cross_chip_snoop_ns;
      extra_ns += bus_acquire(now_ns, thread.counters);
    } else {
      extra_ns += config_.same_chip_snoop_ns;
    }
    owner.l1d.invalidate(line * config_.arch.l1d.line_bytes);
    // Ownership moves to the reader/writer (read-for-ownership keeps
    // the model simple and errs toward the paper's observed costs).
    entry.dirty_core = thread.core;
  } else if (is_write) {
    entry.dirty_core = thread.core;
  }

  if (is_write) {
    // Invalidate every other core's L1 copy...
    std::uint32_t others = entry.core_mask & ~core_bit;
    for (int c = 0; others != 0; ++c, others >>= 1) {
      if ((others & 1u) == 0) continue;
      Core& victim = *cores_[static_cast<std::size_t>(c)];
      if (victim.l1d.invalidate(line * config_.arch.l1d.line_bytes)) {
        // dirty elsewhere: modeled as intervention above
      }
      ++thread.counters.coherence_invalidations;
      if (victim.chip != thread.chip) {
        // Cross-package invalidation goes over the FSB.
        bus_free_ns_ =
            std::max(bus_free_ns_, now_ns) + config_.bus_occupancy_ns();
        ++thread.counters.bus_transactions;
      }
    }
    // ...and other chips' L2 copies.
    std::uint32_t other_chips = entry.chip_mask & ~chip_bit;
    for (int ch = 0; other_chips != 0; ++ch, other_chips >>= 1) {
      if ((other_chips & 1u) == 0) continue;
      chips_[static_cast<std::size_t>(ch)]->l2.invalidate(
          line * config_.l2.line_bytes);
    }
    entry.core_mask = core_bit;
    entry.chip_mask = chip_bit;
  } else {
    entry.core_mask |= core_bit;
    entry.chip_mask |= chip_bit;
  }
  return extra_ns;
}

System::MemCost System::memory_access(ThreadState& thread, Core& core,
                                      Chip& chip, std::uint64_t addr,
                                      bool is_write, bool is_ifetch,
                                      double now_ns) {
  const CoreArch& arch = config_.arch;
  const double cyc_ns = 1.0 / arch.freq_ghz;
  Counters& c = thread.counters;
  MemCost cost;

  Cache& l1 = is_ifetch ? core.l1i : core.l1d;
  if (is_ifetch) {
    ++c.l1i_accesses;
  } else {
    ++c.l1d_accesses;
  }
  const AccessResult r1 = l1.access(addr, is_write && !is_ifetch);
  const std::uint64_t line = chip.l2.line_of(addr);

  double stall_ns = 0;
  if (!r1.hit) {
    if (is_ifetch) {
      ++c.l1i_misses;
    } else {
      ++c.l1d_misses;
    }
    // L1 writeback of the victim goes to L2 (no bus unless L2 evicts).
    if (r1.writeback) {
      chip.l2.fill(r1.victim_line * config_.arch.l1d.line_bytes);
    }

    ++c.l2_accesses;
    const AccessResult r2 = chip.l2.access(addr, is_write);
    // The L2 access occupies the core's cache port (a bandwidth
    // resource the SMT siblings share); the remaining hit latency is a
    // private, overlappable stall.
    cost.port_ns += arch.l2_port_cycles * cyc_ns;
    stall_ns +=
        std::max(0.0, arch.l2_latency_cycles - arch.l2_port_cycles) * cyc_ns;
    // The prefetcher trains on the L2-side *load* stream (L1 load
    // misses): like the real hardware it does not chase store streams,
    // so the receive-copy path of a network workload still exposes its
    // misses.
    if (!is_ifetch && !is_write) {
      prefetch_buf_.clear();
      core.prefetcher.observe(line, &prefetch_buf_);
      for (std::uint64_t pf_line : prefetch_buf_) {
        const AccessResult pf = chip.l2.fill(pf_line * config_.l2.line_bytes);
        if (!pf.hit) {
          // A prefetch fill consumes a bus transaction but does not
          // stall the thread.
          bus_free_ns_ =
              std::max(bus_free_ns_, now_ns) + config_.bus_occupancy_ns();
          ++c.bus_transactions;
          ++c.prefetch_fills;
          if (pf.writeback) {
            bus_free_ns_ =
                std::max(bus_free_ns_, now_ns) + config_.bus_occupancy_ns();
            ++c.bus_transactions;
          }
        }
      }
    }
    if (!r2.hit) {
      ++c.l2_misses;
      // Line fill from memory over the FSB.
      const double bus_wait = bus_acquire(now_ns, c);
      c.bus_wait_cycles +=
          static_cast<std::uint64_t>(bus_wait * arch.freq_ghz);
      stall_ns += bus_wait + arch.memory_latency_ns;
      if (r2.writeback) {
        // Dirty L2 eviction: another transaction, not on the critical
        // path.
        bus_free_ns_ =
            std::max(bus_free_ns_, now_ns) + config_.bus_occupancy_ns();
        ++c.bus_transactions;
      }
    }
  }

  // Coherence (data only; shared code never invalidates). With one core
  // the call is a no-op, so it is skipped: thread.core is always 0, so
  // dirty_core is only ever -1 or 0 (no intervention) and both masks
  // only ever hold bit 0 (no other core or chip to invalidate), and it
  // returns 0 ns without touching a counter.
  if (!is_ifetch && cores_.size() > 1) {
    stall_ns += coherence(thread, line, is_write, now_ns);
  }

  const double exposure = is_ifetch  ? arch.ifetch_stall_exposure
                          : is_write ? arch.store_stall_exposure
                                     : arch.load_stall_exposure;
  cost.stall_ns = stall_ns * exposure;
  return cost;
}

RunResult System::run(const std::vector<const Trace*>& traces) {
  const CoreArch& arch = config_.arch;
  const double cyc_ns = 1.0 / arch.freq_ghz;
  const int n_threads = config_.hardware_threads();
  XAON_CHECK_MSG(static_cast<int>(traces.size()) <= n_threads,
                 "more traces than hardware threads");

  // Map hardware threads onto cores: SMT slots share a core.
  std::vector<ThreadState> threads(static_cast<std::size_t>(n_threads));
  {
    int t = 0;
    const int per_core = config_.smt ? 2 : 1;
    for (std::size_t co = 0; co < cores_.size(); ++co) {
      for (int s = 0; s < per_core; ++s, ++t) {
        threads[static_cast<std::size_t>(t)].core = static_cast<int>(co);
        threads[static_cast<std::size_t>(t)].chip = cores_[co]->chip;
        threads[static_cast<std::size_t>(t)].smt_slot = s;
      }
    }
  }
  for (std::size_t i = 0; i < traces.size(); ++i) {
    threads[i].trace = traces[i];
  }
  for (auto& core : cores_) {
    core->issue_free_ns = 0;
    core->port_free_ns = 0;
  }
  // Simulated time is relative to the start of each run; only cache,
  // predictor and directory state persists across runs.
  bus_free_ns_ = 0;

  // Deterministic interleaving: always advance the thread with the
  // smallest local clock.
  for (;;) {
    ThreadState* next_thread = nullptr;
    for (ThreadState& t : threads) {
      if (!t.active()) continue;
      if (next_thread == nullptr || t.time_ns < next_thread->time_ns) {
        next_thread = &t;
      }
    }
    if (next_thread == nullptr) break;

    ThreadState& thread = *next_thread;
    Core& core = *cores_[static_cast<std::size_t>(thread.core)];
    Chip& chip = *chips_[static_cast<std::size_t>(thread.chip)];
    const Op& op = (*thread.trace)[thread.next++];
    Counters& c = thread.counters;

    // Issue: occupies the core's (shared) issue pipeline.
    const double start = std::max(thread.time_ns, core.issue_free_ns);
    const double issue_ns = arch.issue_cycles_per_op * cyc_ns;
    core.issue_free_ns = start + issue_ns;
    double t = start + issue_ns;

    // Charges a memory access: port occupancy serializes on the core's
    // shared cache port, private stall adds to the thread only.
    auto charge = [&](std::uint64_t addr, bool is_write, bool is_ifetch) {
      const MemCost cost =
          memory_access(thread, core, chip, addr, is_write, is_ifetch, t);
      if (cost.port_ns > 0) {
        const double port_start = std::max(t, core.port_free_ns);
        core.port_free_ns = port_start + cost.port_ns;
        t = port_start + cost.port_ns;
      }
      t += cost.stall_ns;
    };

    // Instruction fetch.
    charge(op.pc, /*is_write=*/false, /*is_ifetch=*/true);

    switch (op.kind) {
      case OpKind::kAlu:
        break;
      case OpKind::kLoad:
        charge(op.addr, false, false);
        break;
      case OpKind::kStore:
        charge(op.addr, true, false);
        break;
      case OpKind::kBranch: {
        ++c.branch_retired;
        const bool miss = core.predictor.predict_and_update(
            static_cast<std::uint32_t>(thread.smt_slot), op.pc, op.taken);
        if (miss) {
          ++c.branch_mispredicted;
          t += arch.mispredict_penalty * cyc_ns;
        }
        break;
      }
    }
    thread.time_ns = t;
    ++c.ops;
  }

  // Finalize counters.
  RunResult result;
  for (const ThreadState& t : threads) {
    result.wall_ns = std::max(result.wall_ns, t.time_ns);
  }
  result.per_thread.resize(threads.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    Counters c = threads[i].counters;
    c.busy_cycles =
        static_cast<std::uint64_t>(threads[i].time_ns * arch.freq_ghz);
    // Every hardware thread's cycle counter runs for the whole wall
    // time (VTune samples system-wide; an idle second CPU still burns
    // clockticks — the paper leans on this for its netperf CPI).
    c.clockticks =
        static_cast<std::uint64_t>(result.wall_ns * arch.freq_ghz);
    c.inst_retired = static_cast<std::uint64_t>(
        static_cast<double>(c.ops) * arch.uop_expansion);
    result.per_thread[i] = c;
    result.total += c;
  }
  return result;
}

}  // namespace xaon::uarch
