#include <gtest/gtest.h>

#include <set>

#include "xaon/wload/netperf_traces.hpp"
#include "xaon/wload/synth.hpp"

namespace xaon::wload {
namespace {

TEST(Synth, RespectsOpCount) {
  SynthConfig config;
  config.ops = 12345;
  EXPECT_EQ(make_synthetic_trace(config).size(), 12345u);
}

TEST(Synth, MixMatchesConfiguration) {
  SynthConfig config;
  config.ops = 200'000;
  config.branch_fraction = 0.25;
  config.memory_fraction = 0.40;
  const auto stats = uarch::compute_stats(make_synthetic_trace(config));
  EXPECT_NEAR(stats.branch_fraction(), 0.25, 0.01);
  EXPECT_NEAR(stats.memory_fraction(), 0.40, 0.01);
}

TEST(Synth, DeterministicForSeed) {
  SynthConfig config;
  config.ops = 5000;
  const auto a = make_synthetic_trace(config);
  const auto b = make_synthetic_trace(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].addr, b[i].addr);
    EXPECT_EQ(a[i].pc, b[i].pc);
  }
  config.seed = 99;
  const auto c = make_synthetic_trace(config);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].addr != c[i].addr || a[i].kind != c[i].kind) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(SynthDeath, WorkingSetAbove4GiBIsRejected) {
  SynthConfig config;
  config.ops = 10;
  config.data_base = 1ull << 32;
  EXPECT_DEATH(make_synthetic_trace(config), "above 4 GiB");
}

TEST(Synth, SequentialPatternStridesThroughWorkingSet) {
  SynthConfig config;
  config.ops = 50'000;
  config.pattern = AddressPattern::kSequential;
  config.working_set_bytes = 4096;
  config.stride_bytes = 64;
  config.memory_fraction = 0.5;
  const auto trace = make_synthetic_trace(config);
  std::set<std::uint64_t> addrs;
  for (const auto& op : trace) {
    if (op.kind == uarch::OpKind::kLoad ||
        op.kind == uarch::OpKind::kStore) {
      EXPECT_GE(op.addr, config.data_base);
      EXPECT_LT(op.addr, config.data_base + 4096);
      addrs.insert(op.addr);
    }
  }
  EXPECT_EQ(addrs.size(), 64u);  // 4096/64 distinct strided addresses
}

TEST(Synth, ZipfConcentratesAccesses) {
  SynthConfig config;
  config.ops = 100'000;
  config.pattern = AddressPattern::kZipf;
  config.working_set_bytes = 1 << 20;
  config.memory_fraction = 0.5;
  const auto trace = make_synthetic_trace(config);
  std::map<std::uint64_t, int> hist;
  std::uint64_t mem_ops = 0;
  for (const auto& op : trace) {
    if (op.kind == uarch::OpKind::kLoad ||
        op.kind == uarch::OpKind::kStore) {
      ++hist[op.addr / 64];
      ++mem_ops;
    }
  }
  // The hottest 5% of touched lines should carry well over 5% of
  // accesses (strong skew by construction).
  std::vector<int> counts;
  for (const auto& [line, n] : hist) counts.push_back(n);
  std::sort(counts.rbegin(), counts.rend());
  std::uint64_t hot = 0;
  for (std::size_t i = 0; i < counts.size() / 20; ++i) {
    hot += static_cast<std::uint64_t>(counts[i]);
  }
  EXPECT_GT(static_cast<double>(hot) / static_cast<double>(mem_ops), 0.3);
}

TEST(NetperfTraces, BytesAccounting) {
  NetperfTraceConfig config;
  config.buffer_bytes = 16 * 1024;
  config.iterations = 8;
  EXPECT_EQ(netperf_trace_bytes(config), 8u * 16u * 1024u);
}

TEST(NetperfTraces, SenderReceiverShareRingAddresses) {
  NetperfTraceConfig config;
  config.iterations = 2;
  const auto sender = make_netperf_sender_trace(config);
  const auto receiver = make_netperf_receiver_trace(config);
  std::set<std::uint64_t> ring_writes, ring_reads;
  const std::uint64_t ring_lo = config.socket_ring_base;
  const std::uint64_t ring_hi = ring_lo + config.socket_ring_bytes;
  for (const auto& op : sender) {
    if (op.kind == uarch::OpKind::kStore && op.addr >= ring_lo &&
        op.addr < ring_hi) {
      ring_writes.insert(op.addr);
    }
  }
  for (const auto& op : receiver) {
    if (op.kind == uarch::OpKind::kLoad && op.addr >= ring_lo &&
        op.addr < ring_hi) {
      ring_reads.insert(op.addr);
    }
  }
  EXPECT_FALSE(ring_writes.empty());
  // Every byte the receiver reads was written by the sender — the
  // producer/consumer coupling behind the 2PPx loopback collapse.
  EXPECT_EQ(ring_writes, ring_reads);
}

TEST(NetperfTraces, CopyDominatedMix) {
  NetperfTraceConfig config;
  config.iterations = 4;
  const auto stats =
      uarch::compute_stats(make_netperf_sender_trace(config));
  EXPECT_GT(stats.memory_fraction(), 0.4);
  EXPECT_GT(stats.branch_fraction(), 0.25);
  EXPECT_LT(stats.branch_fraction(), 0.45);
}

TEST(NetperfTraces, TimesharedCoversBothRoles) {
  NetperfTraceConfig config;
  config.iterations = 2;
  const auto combined =
      make_netperf_loopback_timeshared_trace(config);
  const auto sender = make_netperf_sender_trace(config);
  const auto receiver = make_netperf_receiver_trace(config);
  EXPECT_EQ(combined.size(), sender.size() + receiver.size());
}

TEST(NetperfTracesDeath, RegionAbove4GiBIsRejected) {
  NetperfTraceConfig config;
  config.iterations = 1;
  // The app buffer [base, base + 16 KiB) would cross 4 GiB.
  config.app_buffer_base = (1ull << 32) - 4096;
  EXPECT_DEATH(make_netperf_sender_trace(config), "app buffer");
}

TEST(NetperfTraces, SenderAndReceiverShareKernelCode) {
  NetperfTraceConfig config;
  config.iterations = 1;
  const auto sender = make_netperf_sender_trace(config);
  const auto receiver = make_netperf_receiver_trace(config);
  auto code_range = [&](const uarch::Trace& t) {
    std::pair<std::uint64_t, std::uint64_t> range{~0ull, 0};
    for (const auto& op : t) {
      range.first = std::min(range.first, std::uint64_t{op.pc});
      range.second = std::max(range.second, std::uint64_t{op.pc});
    }
    return range;
  };
  const auto s = code_range(sender);
  const auto r = code_range(receiver);
  // Same kernel text: overlapping pc ranges.
  EXPECT_LT(std::max(s.first, r.first), std::min(s.second, r.second));
}

}  // namespace
}  // namespace xaon::wload
