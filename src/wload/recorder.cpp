#include "xaon/wload/recorder.hpp"

#include <algorithm>

#include "xaon/util/assert.hpp"

namespace xaon::wload {

namespace {

constexpr std::uint64_t kPageBytes = 4096;
constexpr std::uint64_t kPageMask = kPageBytes - 1;

/// Expansion hot table: per-recorder, this far above `data_base`.
constexpr std::uint64_t kHotOffset = 0x0800'0000;
/// Expansion warm set: process-global, at a fixed address.
constexpr std::uint64_t kWarmBase = 0x7000'0000;

/// Mixes a site id into a stable pseudo-address (splitmix-style).
std::uint64_t mix(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

TraceRecorder::TraceRecorder(const RecorderConfig& config)
    : config_(config), pc_(config.code_base) {
  XAON_CHECK_MSG(uarch::fits_address_space(config.code_base,
                                           config.code_footprint_bytes),
                 "code region ends above 4 GiB");
  if (config.compute_expansion > 0) {
    XAON_CHECK_MSG(
        uarch::fits_address_space(config.data_base,
                                  kHotOffset + config.expansion_hot_bytes),
        "expansion hot table ends above 4 GiB");
    XAON_CHECK_MSG(
        uarch::fits_address_space(kWarmBase, config.expansion_warm_bytes),
        "expansion warm set ends above 4 GiB");
  }
}

std::uint64_t TraceRecorder::remap(std::uint64_t host_addr) {
  const std::uint64_t page = host_addr & ~kPageMask;
  auto [it, inserted] = page_map_.try_emplace(page, 0);
  if (inserted) {
    const std::uint64_t offset = next_page_++ * kPageBytes;
    XAON_CHECK_MSG(uarch::fits_address_space(config_.data_base,
                                             offset + kPageBytes),
                   "captured data page maps above 4 GiB");
    it->second = config_.data_base + offset;
  }
  return it->second + (host_addr & kPageMask);
}

std::uint64_t TraceRecorder::site_entry_pc(std::uint32_t site) const {
  // Each site gets a stable 64-byte-aligned entry inside the footprint.
  const std::uint64_t slots = config_.code_footprint_bytes / 64;
  const std::uint64_t slot = slots == 0 ? 0 : mix(site + 1) % slots;
  return config_.code_base + slot * 64;
}

void TraceRecorder::advance_pc() {
  pc_ += 4;
  if (pc_ >= config_.code_base + config_.code_footprint_bytes) {
    pc_ = config_.code_base;
  }
}

void TraceRecorder::emit_memory(const void* addr, std::uint32_t bytes,
                                bool is_write) {
  if (bytes == 0) return;
  const auto host = reinterpret_cast<std::uint64_t>(addr);
  const std::uint32_t step = config_.bytes_per_access;
  for (std::uint64_t offset = 0; offset < bytes; offset += step) {
    uarch::Op op;
    op.pc = static_cast<std::uint32_t>(pc_);
    op.addr = static_cast<std::uint32_t>(remap(host + offset));
    op.kind = is_write ? uarch::OpKind::kStore : uarch::OpKind::kLoad;
    op.size = static_cast<std::uint8_t>(
        std::min<std::uint64_t>(step, bytes - offset));
    trace_.push_back(op);
    advance_pc();
  }
}

void TraceRecorder::inject_expansion(std::uint64_t recorded_ops) {
  if (config_.compute_expansion <= 0 || recorded_ops == 0) return;
  expansion_carry_ +=
      config_.compute_expansion * static_cast<double>(recorded_ops);
  auto n = static_cast<std::uint64_t>(expansion_carry_);
  if (n == 0) return;
  expansion_carry_ -= static_cast<double>(n);

  auto next_rand = [&] {
    // splitmix64 step — cheap, deterministic.
    std::uint64_t z = (expansion_state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  const std::uint64_t hot_base = config_.data_base + kHotOffset;
  const std::uint64_t hot_lines =
      std::max<std::uint64_t>(1, config_.expansion_hot_bytes / 64);
  // The warm set is process-global and read-mostly (compiled schemas,
  // DFA tables): every worker thread shares one copy.
  const std::uint64_t warm_lines =
      std::max<std::uint64_t>(1, config_.expansion_warm_bytes / 64);

  for (std::uint64_t i = 0; i < n; ++i) {
    ++expansion_counter_;
    const std::uint64_t r = next_rand();
    const double u = static_cast<double>(r >> 11) * 0x1.0p-53;
    uarch::Op op;
    if (u < config_.expansion_branch_fraction) {
      op.kind = uarch::OpKind::kBranch;
      const std::uint32_t site_index =
          static_cast<std::uint32_t>(r % kExpansionSites);
      op.pc = static_cast<std::uint32_t>(site_entry_pc(2000 + site_index));
      const double u2 =
          static_cast<double>(next_rand() >> 11) * 0x1.0p-53;
      if (u2 < config_.expansion_branch_entropy) {
        op.taken = (next_rand() & 0xFFFF) <
                   static_cast<std::uint64_t>(
                       config_.expansion_branch_bias * 65536.0);
      } else {
        // Patterned per site: a loop of period (site-dependent) the
        // predictors can learn — table-lookup loops are regular.
        const std::uint32_t period = site_index % 7 + 3;
        op.taken = (++expansion_site_count_[site_index]) % period != 0;
      }
      pc_ = op.taken ? op.pc + 4 : pc_ + 4;
    } else if (u < config_.expansion_branch_fraction +
                       config_.expansion_memory_fraction) {
      const double u3 =
          static_cast<double>(next_rand() >> 11) * 0x1.0p-53;
      if (u3 < config_.expansion_warm_fraction) {
        // Shared tables are read-only on the request path.
        op.kind = uarch::OpKind::kLoad;
        op.addr = static_cast<std::uint32_t>(
            kWarmBase + (next_rand() % warm_lines) * 64);
      } else {
        op.kind = (next_rand() & 3) == 0 ? uarch::OpKind::kStore
                                         : uarch::OpKind::kLoad;
        op.addr = static_cast<std::uint32_t>(
            hot_base + (next_rand() % hot_lines) * 64);
      }
      op.pc = static_cast<std::uint32_t>(pc_);
      advance_pc();
    } else {
      op.kind = uarch::OpKind::kAlu;
      op.pc = static_cast<std::uint32_t>(pc_);
      advance_pc();
    }
    trace_.push_back(op);
  }
}

void TraceRecorder::on_load(const void* addr, std::uint32_t bytes) {
  const std::size_t before = trace_.size();
  emit_memory(addr, bytes, /*is_write=*/false);
  inject_expansion(trace_.size() - before);
}

void TraceRecorder::on_store(const void* addr, std::uint32_t bytes) {
  const std::size_t before = trace_.size();
  emit_memory(addr, bytes, /*is_write=*/true);
  inject_expansion(trace_.size() - before);
}

void TraceRecorder::on_branch(std::uint32_t site, bool taken) {
  uarch::Op op;
  op.kind = uarch::OpKind::kBranch;
  op.taken = taken;
  // The branch instruction itself lives at a site-specific address so
  // the simulated predictors see stable, distinct PCs per source-level
  // decision point.
  op.pc = static_cast<std::uint32_t>(site_entry_pc(site));
  trace_.push_back(op);
  // Taken branches redirect fetch to the site entry (loop bodies
  // re-fetch their lines); fall-through continues linearly.
  if (taken) {
    pc_ = op.pc + 4;
  } else {
    advance_pc();
  }
  inject_expansion(1);
}

void TraceRecorder::on_alu(std::uint32_t count) {
  alu_carry_ += static_cast<double>(count) * config_.alu_scale;
  std::uint32_t n = static_cast<std::uint32_t>(alu_carry_);
  if (n == 0) return;
  alu_carry_ -= n;
  n = std::min(n, config_.max_alu_batch);
  for (std::uint32_t i = 0; i < n; ++i) {
    uarch::Op op;
    op.kind = uarch::OpKind::kAlu;
    op.pc = static_cast<std::uint32_t>(pc_);
    trace_.push_back(op);
    advance_pc();
  }
  inject_expansion(n);
}

uarch::Trace TraceRecorder::take_trace() {
  uarch::Trace out = std::move(trace_);
  trace_.clear();
  return out;
}

}  // namespace xaon::wload
