#include "xaon/wload/synth.hpp"

#include <algorithm>
#include <cmath>

#include "xaon/util/assert.hpp"
#include "xaon/util/rng.hpp"

namespace xaon::wload {

uarch::Trace make_synthetic_trace(const SynthConfig& config) {
  XAON_CHECK_MSG(
      uarch::fits_address_space(config.data_base, config.working_set_bytes),
      "synthetic working set ends above 4 GiB");
  XAON_CHECK_MSG(uarch::fits_address_space(config.code_base,
                                           config.code_footprint_bytes),
                 "synthetic code region ends above 4 GiB");
  util::Xoshiro256ss rng(config.seed);
  uarch::Trace trace;
  trace.reserve(config.ops);

  std::uint64_t seq_cursor = 0;
  std::uint64_t pc = config.code_base;
  const std::uint64_t code_end =
      config.code_base + config.code_footprint_bytes;
  const std::uint64_t lines =
      std::max<std::uint64_t>(1, config.working_set_bytes / 64);

  auto next_pc = [&] {
    pc += 4;
    if (pc >= code_end) pc = config.code_base;
    return pc;
  };

  auto data_address = [&]() -> std::uint64_t {
    switch (config.pattern) {
      case AddressPattern::kSequential: {
        const std::uint64_t a =
            config.data_base + (seq_cursor % config.working_set_bytes);
        seq_cursor += config.stride_bytes;
        return a;
      }
      case AddressPattern::kRandom:
        return config.data_base + rng.next_below(lines) * 64;
      case AddressPattern::kZipf: {
        // 80% of accesses in 20% of the set, applied recursively twice.
        std::uint64_t span = lines;
        std::uint64_t base = 0;
        for (int level = 0; level < 2; ++level) {
          if (rng.next_bool(0.8)) {
            span = std::max<std::uint64_t>(1, span / 5);
          } else {
            base += span / 5;
            span = span - span / 5;
          }
        }
        return config.data_base + (base + rng.next_below(span)) * 64;
      }
    }
    return config.data_base;
  };

  // Deterministic per-site loop periods make low-entropy branches
  // predictable in a pattern (not constant) way.
  for (std::uint64_t i = 0; i < config.ops; ++i) {
    uarch::Op op;
    const double r = rng.next_double();
    if (r < config.branch_fraction) {
      op.kind = uarch::OpKind::kBranch;
      const std::uint32_t site =
          static_cast<std::uint32_t>(rng.next_below(config.branch_sites));
      op.pc = static_cast<std::uint32_t>(
          config.code_base + (site * 64) % config.code_footprint_bytes);
      if (rng.next_bool(config.branch_entropy)) {
        op.taken = rng.next_bool(config.branch_taken_bias);
      } else {
        // Loop-like: taken except every (site+3)rd execution.
        op.taken = (i % (site + 3)) != 0;
      }
      pc = op.taken ? op.pc + 4 : next_pc();
    } else if (r < config.branch_fraction + config.memory_fraction) {
      op.kind = rng.next_bool(config.store_fraction)
                    ? uarch::OpKind::kStore
                    : uarch::OpKind::kLoad;
      op.addr = static_cast<std::uint32_t>(data_address());
      op.pc = static_cast<std::uint32_t>(next_pc());
    } else {
      op.kind = uarch::OpKind::kAlu;
      op.pc = static_cast<std::uint32_t>(next_pc());
    }
    trace.push_back(op);
  }
  return trace;
}

}  // namespace xaon::wload
