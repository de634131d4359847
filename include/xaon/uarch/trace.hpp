#pragma once

#include <cstdint>
#include <vector>

/// \file trace.hpp
/// Instruction traces consumed by the microarchitecture simulator.
///
/// One Op is one (pre-decode) x86-level instruction; the per-arch uop
/// expansion factor maps ops to the "instructions retired" the paper's
/// counters report. Every op carries the code address it was fetched
/// from (drives the I-side cache hierarchy) and, for memory ops, the
/// data address.
///
/// The simulated address space is 32 bits wide: no modeled platform
/// needs more, and a 12-byte op halves the memory a captured stream
/// takes. Every producer checks (`fits_address_space`) that the regions
/// it emits into lie below 4 GiB, so an address is never truncated.

namespace xaon::uarch {

enum class OpKind : std::uint8_t {
  kAlu,     ///< non-memory compute
  kLoad,
  kStore,
  kBranch,  ///< conditional branch; `taken` holds the outcome
};

struct Op {
  std::uint32_t pc = 0;     ///< code address
  std::uint32_t addr = 0;   ///< data address (loads/stores)
  OpKind kind = OpKind::kAlu;
  std::uint8_t size = 4;    ///< access size in bytes
  bool taken = false;       ///< branch outcome
};
static_assert(sizeof(Op) == 12, "Op is the unit of trace memory");

/// Size of the simulated address space (code and data alike).
inline constexpr std::uint64_t kAddressSpaceBytes = 1ull << 32;

/// True when the region [base, base + bytes) lies inside the simulated
/// address space.
constexpr bool fits_address_space(std::uint64_t base, std::uint64_t bytes) {
  return base <= kAddressSpaceBytes && bytes <= kAddressSpaceBytes - base;
}

using Trace = std::vector<Op>;

/// Aggregate shape of a trace (used by tests and workload reports).
struct TraceStats {
  std::uint64_t total = 0;
  std::uint64_t alu = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t branches = 0;
  std::uint64_t taken_branches = 0;

  double branch_fraction() const {
    return total == 0 ? 0.0
                      : static_cast<double>(branches) /
                            static_cast<double>(total);
  }
  double memory_fraction() const {
    return total == 0 ? 0.0
                      : static_cast<double>(loads + stores) /
                            static_cast<double>(total);
  }
};

TraceStats compute_stats(const Trace& trace);

}  // namespace xaon::uarch
