#include "xaon/wload/netperf_traces.hpp"

#include <algorithm>

#include "xaon/util/assert.hpp"
#include "xaon/util/rng.hpp"

namespace xaon::wload {

namespace {

/// skb metadata sits right after the socket ring: 64 slots of 256 bytes.
constexpr std::uint64_t kMetaSlots = 64;
constexpr std::uint64_t kMetaSlotBytes = 256;

/// Checks that every region a netperf trace touches lies in the
/// simulated address space.
void check_address_space(const NetperfTraceConfig& config) {
  const std::uint64_t stream_bytes = netperf_trace_bytes(config);
  XAON_CHECK_MSG(
      uarch::fits_address_space(config.app_buffer_base, stream_bytes),
      "netperf app buffer ends above 4 GiB");
  XAON_CHECK_MSG(
      uarch::fits_address_space(config.sink_buffer_base, stream_bytes),
      "netperf sink buffer ends above 4 GiB");
  XAON_CHECK_MSG(
      uarch::fits_address_space(
          config.socket_ring_base,
          config.socket_ring_bytes + kMetaSlots * kMetaSlotBytes),
      "netperf socket ring ends above 4 GiB");
  XAON_CHECK_MSG(uarch::fits_address_space(config.code_base,
                                           config.code_footprint_bytes),
                 "netperf code region ends above 4 GiB");
}

/// Emits the per-buffer kernel work for one role.
class NetperfEmitter {
 public:
  NetperfEmitter(const NetperfTraceConfig& config, uarch::Trace* out,
                 std::uint64_t seed)
      : config_(config), out_(out), rng_(seed) {
    check_address_space(config);
  }

  /// Copies one buffer (`offset` bytes into the logical stream) between
  /// `src_base`/`dst_base` regions, with protocol work every MSS.
  void copy_buffer(std::uint64_t offset, std::uint64_t src_base,
                   std::uint64_t dst_base, bool src_is_ring,
                   bool dst_is_ring) {
    const std::uint32_t chunk = config_.copy_chunk_bytes;
    std::uint64_t since_segment = 0;
    for (std::uint64_t b = 0; b < config_.buffer_bytes; b += chunk) {
      const std::uint64_t pos = offset + b;
      const std::uint64_t src =
          src_is_ring ? ring_addr(src_base, pos) : src_base + pos;
      const std::uint64_t dst =
          dst_is_ring ? ring_addr(dst_base, pos) : dst_base + pos;
      // Copy loop body: load, store, loop branch; the index update
      // fuses with the branch on both modeled cores.
      emit_mem(src, false);
      emit_mem(dst, true);
      emit_branch(kCopyLoopSite, /*taken=*/b + chunk < config_.buffer_bytes);

      since_segment += chunk;
      if (since_segment >= config_.mss) {
        since_segment = 0;
        protocol_work(pos);
      }
    }
    // Syscall entry/exit and socket bookkeeping per buffer.
    emit_alu(40);
    for (int i = 0; i < 6; ++i) {
      emit_branch(kSyscallSite + static_cast<std::uint32_t>(i),
                  rng_.next_bool(0.7));
    }
  }

 private:
  static constexpr std::uint32_t kCopyLoopSite = 1;
  static constexpr std::uint32_t kProtoSite = 8;
  static constexpr std::uint32_t kSyscallSite = 24;

  std::uint64_t ring_addr(std::uint64_t base, std::uint64_t pos) const {
    return base + pos % config_.socket_ring_bytes;
  }

  void emit_mem(std::uint64_t addr, bool is_write) {
    uarch::Op op;
    op.kind = is_write ? uarch::OpKind::kStore : uarch::OpKind::kLoad;
    op.addr = static_cast<std::uint32_t>(addr);
    op.pc = static_cast<std::uint32_t>(advance_pc());
    out_->push_back(op);
  }

  void emit_alu(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      uarch::Op op;
      op.kind = uarch::OpKind::kAlu;
      op.pc = static_cast<std::uint32_t>(advance_pc());
      out_->push_back(op);
    }
  }

  void emit_branch(std::uint32_t site, bool taken) {
    uarch::Op op;
    op.kind = uarch::OpKind::kBranch;
    op.taken = taken;
    op.pc = static_cast<std::uint32_t>(
        config_.code_base + (static_cast<std::uint64_t>(site) * 64) %
                                config_.code_footprint_bytes);
    out_->push_back(op);
    pc_ = taken ? op.pc + 4 : pc_ + 4;
  }

  /// Per-MSS TCP/IP work: header build/parse, checksum touch of
  /// metadata, a handful of partly data-dependent branches.
  void protocol_work(std::uint64_t pos) {
    // skb metadata region: small, hot, reused.
    const std::uint64_t meta =
        config_.socket_ring_base + config_.socket_ring_bytes +
        (pos / config_.mss % kMetaSlots) * kMetaSlotBytes;
    for (int i = 0; i < 3; ++i) emit_mem(meta + i * 64ull, false);
    emit_mem(meta + 192, true);
    emit_alu(24);
    for (int i = 0; i < 10; ++i) {
      emit_branch(kProtoSite + static_cast<std::uint32_t>(i),
                  rng_.next_bool(i < 7 ? 0.9 : 0.55));
    }
  }

  std::uint64_t advance_pc() {
    pc_ += 4;
    if (pc_ >= config_.code_base + config_.code_footprint_bytes) {
      pc_ = config_.code_base;
    }
    return pc_;
  }

  NetperfTraceConfig config_;
  uarch::Trace* out_;
  util::Xoshiro256ss rng_;
  std::uint64_t pc_ = 0x0080'0000;
};

}  // namespace

std::uint64_t netperf_trace_bytes(const NetperfTraceConfig& config) {
  return static_cast<std::uint64_t>(config.iterations) * config.buffer_bytes;
}

uarch::Trace make_netperf_sender_trace(const NetperfTraceConfig& config) {
  uarch::Trace trace;
  NetperfEmitter emitter(config, &trace, /*seed=*/0xA01);
  for (std::uint32_t i = 0; i < config.iterations; ++i) {
    emitter.copy_buffer(static_cast<std::uint64_t>(i) * config.buffer_bytes,
                        config.app_buffer_base, config.socket_ring_base,
                        /*src_is_ring=*/false, /*dst_is_ring=*/true);
  }
  return trace;
}

uarch::Trace make_netperf_receiver_trace(const NetperfTraceConfig& config) {
  uarch::Trace trace;
  NetperfEmitter emitter(config, &trace, /*seed=*/0xB02);
  for (std::uint32_t i = 0; i < config.iterations; ++i) {
    emitter.copy_buffer(static_cast<std::uint64_t>(i) * config.buffer_bytes,
                        config.socket_ring_base, config.sink_buffer_base,
                        /*src_is_ring=*/true, /*dst_is_ring=*/false);
  }
  return trace;
}

uarch::Trace make_netperf_loopback_timeshared_trace(
    const NetperfTraceConfig& config) {
  uarch::Trace trace;
  NetperfEmitter sender(config, &trace, /*seed=*/0xA01);
  NetperfEmitter receiver(config, &trace, /*seed=*/0xB02);
  for (std::uint32_t i = 0; i < config.iterations; ++i) {
    const std::uint64_t offset =
        static_cast<std::uint64_t>(i) * config.buffer_bytes;
    sender.copy_buffer(offset, config.app_buffer_base,
                       config.socket_ring_base, false, true);
    receiver.copy_buffer(offset, config.socket_ring_base,
                         config.sink_buffer_base, true, false);
  }
  return trace;
}

}  // namespace xaon::wload
