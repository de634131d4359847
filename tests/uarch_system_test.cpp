#include "xaon/uarch/system.hpp"

#include <gtest/gtest.h>

#include "xaon/uarch/platform.hpp"
#include "xaon/util/rng.hpp"

namespace xaon::uarch {
namespace {

/// Synthetic trace: `n` ops, mix of ALU/loads/stores/branches over a
/// working set of `ws_bytes` starting at `base`, with sequential or
/// random locality.
Trace make_trace(std::size_t n, std::uint64_t base, std::uint64_t ws_bytes,
                 bool sequential, double branch_frac = 0.2,
                 double mem_frac = 0.35, std::uint64_t seed = 1,
                 std::uint64_t step = 16) {
  util::Xoshiro256ss rng(seed);
  Trace t;
  t.reserve(n);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Op op;
    op.pc = 0x400000 + (i % 256) * 4;  // small code loop
    const double r = rng.next_double();
    if (r < branch_frac) {
      op.kind = OpKind::kBranch;
      op.taken = rng.next_bool(0.8);
    } else if (r < branch_frac + mem_frac) {
      op.kind = rng.next_bool(0.3) ? OpKind::kStore : OpKind::kLoad;
      if (sequential) {
        op.addr = base + (seq % ws_bytes);
        seq += step;
      } else {
        op.addr = base + (rng.next_below(ws_bytes / 64)) * 64;
      }
    } else {
      op.kind = OpKind::kAlu;
    }
    t.push_back(op);
  }
  return t;
}

TEST(TraceStats, CountsKinds) {
  Trace t;
  t.push_back(Op{0, 0, OpKind::kAlu, 4, false});
  t.push_back(Op{0, 0, OpKind::kLoad, 4, false});
  t.push_back(Op{0, 0, OpKind::kBranch, 4, true});
  t.push_back(Op{0, 0, OpKind::kBranch, 4, false});
  const TraceStats s = compute_stats(t);
  EXPECT_EQ(s.total, 4u);
  EXPECT_EQ(s.alu, 1u);
  EXPECT_EQ(s.loads, 1u);
  EXPECT_EQ(s.branches, 2u);
  EXPECT_EQ(s.taken_branches, 1u);
  EXPECT_DOUBLE_EQ(s.branch_fraction(), 0.5);
}

TEST(System, RunsTraceAndCounts) {
  System sys(platform_1cpm());
  Trace t = make_trace(20000, 0x10000000, 16 * 1024, true);
  auto r = sys.run({&t});
  EXPECT_GT(r.wall_ns, 0.0);
  EXPECT_EQ(r.total.ops, 20000u);
  EXPECT_GT(r.total.inst_retired, 0u);
  EXPECT_GT(r.total.branch_retired, 0u);
  EXPECT_GT(r.total.l1d_accesses, 0u);
  EXPECT_GT(r.total.cpi(), 0.0);
}

TEST(System, DeterministicAcrossRuns) {
  Trace t = make_trace(30000, 0x10000000, 64 * 1024, false);
  System a(platform_2cpm()), b(platform_2cpm());
  Trace t2 = make_trace(30000, 0x20000000, 64 * 1024, false, 0.2, 0.35, 9);
  auto ra = a.run({&t, &t2});
  auto rb = b.run({&t, &t2});
  EXPECT_DOUBLE_EQ(ra.wall_ns, rb.wall_ns);
  EXPECT_EQ(ra.total.l2_misses, rb.total.l2_misses);
  EXPECT_EQ(ra.total.branch_mispredicted, rb.total.branch_mispredicted);
}

TEST(System, UopExpansionScalesInstRetired) {
  Trace t = make_trace(10000, 0x10000000, 8 * 1024, true);
  System pm(platform_1cpm());
  System xeon(platform_1lpx());
  auto rp = pm.run({&t});
  auto rx = xeon.run({&t});
  EXPECT_EQ(rp.total.ops, rx.total.ops);
  EXPECT_GT(rx.total.inst_retired,
            static_cast<std::uint64_t>(1.8 * rp.total.inst_retired));
  // Branch frequency consequently halves on Xeon (paper Table 5).
  EXPECT_GT(rp.total.branch_frequency(),
            1.8 * rx.total.branch_frequency());
}

TEST(System, CacheResidentBeatsStreaming) {
  System sys(platform_1cpm());
  Trace small = make_trace(50000, 0x10000000, 8 * 1024, false);
  Trace big = make_trace(50000, 0x20000000, 16 * 1024 * 1024, false);
  auto warm1 = sys.run({&small});
  auto r_small = sys.run({&small});
  sys.reset();
  auto warm2 = sys.run({&big});
  auto r_big = sys.run({&big});
  (void)warm1;
  (void)warm2;
  EXPECT_LT(r_small.total.cpi(), r_big.total.cpi());
  EXPECT_LT(r_small.total.l2mpi(), r_big.total.l2mpi());
  EXPECT_LT(r_small.total.btpi(), r_big.total.btpi());
}

TEST(System, DualCoreSpeedsUpIndependentWork) {
  Trace t1 = make_trace(40000, 0x10000000, 8 * 1024, false, 0.2, 0.3, 1);
  Trace t2 = make_trace(40000, 0x30000000, 8 * 1024, false, 0.2, 0.3, 2);
  System one(platform_1cpm());
  System two(platform_2cpm());
  // One core runs both traces back-to-back; two cores run them in
  // parallel.
  auto r1a = one.run({&t1});
  auto r1b = one.run({&t2});
  const double serial = r1a.wall_ns + r1b.wall_ns;
  auto r2 = two.run({&t1, &t2});
  EXPECT_LT(r2.wall_ns, serial);
  const double scaling = serial / r2.wall_ns;
  EXPECT_GT(scaling, 1.5);
  EXPECT_LE(scaling, 2.05);
}

TEST(System, SmtHelpsStallHeavyMoreThanComputeBound) {
  // The paper's central HT observation (Fig. 3): I/O(stall)-heavy
  // workloads gain more from Hyper-Threading than CPU-bound ones.
  auto scaling_for = [](double mem_frac, std::uint64_t ws) {
    Trace t1 = make_trace(40000, 0x10000000, ws, false, 0.15, mem_frac, 1);
    Trace t2 = make_trace(40000, 0x50000000, ws, false, 0.15, mem_frac, 2);
    System one(platform_1lpx());
    auto a = one.run({&t1});
    auto b = one.run({&t2});
    System ht(platform_2lpx());
    auto r = ht.run({&t1, &t2});
    return (a.wall_ns + b.wall_ns) / r.wall_ns;
  };
  const double compute_bound = scaling_for(0.05, 4 * 1024);
  const double stall_heavy = scaling_for(0.6, 32 * 1024 * 1024);
  EXPECT_GT(stall_heavy, compute_bound + 0.15);
  EXPECT_LT(compute_bound, 1.5);
  EXPECT_GT(stall_heavy, 1.4);
}

TEST(System, SharedL2ContendsUnderStreaming) {
  // Each core streams a 1.5 MB buffer: alone it fits the 2 MB shared L2
  // (near-zero steady-state misses); two cores together need 3 MB and
  // thrash it — the 2CPm contention mechanism behind the paper's lower
  // FR scaling on the dual-core Pentium M.
  const std::uint64_t kWs = 1536 * 1024;
  Trace t1 = make_trace(60000, 0x10000000, kWs, true, 0.1, 0.5, 1, 64);
  Trace t2 = make_trace(60000, 0x70000000, kWs, true, 0.1, 0.5, 2, 64);
  System one(platform_1cpm());
  auto warm = one.run({&t1});
  (void)warm;
  auto r1 = one.run({&t1});
  System two(platform_2cpm());
  auto warm2 = two.run({&t1, &t2});
  (void)warm2;
  auto r2 = two.run({&t1, &t2});
  EXPECT_GT(r2.total.l2mpi(), r1.total.l2mpi() * 2.0);
  EXPECT_GT(r2.total.bus_transactions, r1.total.bus_transactions);
}

TEST(System, CrossChipProducerConsumerPaysCoherence) {
  // Producer writes a buffer, consumer reads it: on 2PPx (separate
  // packages) this costs FSB interventions; on 2CPm the shared L2
  // absorbs it.
  const std::uint64_t kBuf = 0x40000000;
  Trace producer, consumer;
  for (int i = 0; i < 30000; ++i) {
    Op w;
    w.pc = 0x400000 + (i % 64) * 4;
    w.kind = OpKind::kStore;
    w.addr = kBuf + (static_cast<std::uint64_t>(i) * 64) % (256 * 1024);
    producer.push_back(w);
    Op r = w;
    r.kind = OpKind::kLoad;
    consumer.push_back(r);
  }
  System pm(platform_2cpm());
  System xeon2(platform_2ppx());
  auto rp = pm.run({&producer, &consumer});
  auto rx = xeon2.run({&producer, &consumer});
  EXPECT_GT(rx.total.coherence_invalidations, 0u);
  // Cross-package sharing generates far more bus transactions.
  EXPECT_GT(rx.total.bus_transactions, rp.total.bus_transactions);
}

TEST(System, IdleUnitsInflateSystemCpi) {
  // netperf end-to-end on a dual system: one busy unit + one idle unit
  // double the clockticks for the same instructions (paper Table 3).
  Trace t = make_trace(30000, 0x10000000, 16 * 1024, true);
  System one(platform_1lpx());
  System two(platform_2ppx());
  auto r1 = one.run({&t});
  auto r2 = two.run({&t});  // second unit idle
  EXPECT_NEAR(r2.total.cpi() / r1.total.cpi(), 2.0, 0.2);
}

TEST(System, PrefetchRaisesBusTrafficLowersStalls) {
  // PM's Smart Memory Access: more bus transactions (prefetch fills),
  // faster streaming.
  PlatformConfig with = platform_1cpm();
  PlatformConfig without = platform_1cpm();
  without.arch.prefetch.enabled = false;
  Trace t = make_trace(80000, 0x10000000, 8 * 1024 * 1024, true, 0.1, 0.5);
  System a(with), b(without);
  auto ra = a.run({&t});
  auto rb = b.run({&t});
  EXPECT_GT(ra.total.prefetch_fills, 0u);
  EXPECT_GT(ra.total.bus_transactions, rb.total.bus_transactions);
  EXPECT_LT(ra.wall_ns, rb.wall_ns);
}

TEST(System, RejectsTooManyTraces) {
  System sys(platform_1cpm());
  Trace t = make_trace(10, 0, 1024, true);
  EXPECT_DEATH(sys.run({&t, &t}), "more traces than hardware threads");
}

TEST(System, RejectsUnequalLineSizes) {
  PlatformConfig l1d = platform_2cpm();
  l1d.arch.l1d.line_bytes = 32;
  EXPECT_DEATH(System{l1d}, "equal line sizes");
  PlatformConfig l1i = platform_2ppx();
  l1i.arch.l1i.line_bytes = 128;
  EXPECT_DEATH(System{l1i}, "equal line sizes");
  PlatformConfig l2 = platform_1cpm();
  l2.l2.line_bytes = 128;
  EXPECT_DEATH(System{l2}, "equal line sizes");
}

TEST(System, RejectsMoreThan32Cores) {
  PlatformConfig wide = platform_2cpm();
  wide.chips = 4;
  wide.cores_per_chip = 8;
  System ok(wide);  // 32 cores: every core has a directory mask bit
  wide.cores_per_chip = 9;
  EXPECT_DEATH(System{wide}, "at most 32 cores");
}

TEST(Platform, TableOneGeometries) {
  const PlatformConfig pm = platform_1cpm();
  EXPECT_EQ(pm.arch.l1d.size_bytes, 32u * 1024u);
  EXPECT_EQ(pm.l2.size_bytes, 2u * 1024u * 1024u);
  EXPECT_DOUBLE_EQ(pm.arch.freq_ghz, 1.83);
  const PlatformConfig xe = platform_1lpx();
  EXPECT_EQ(xe.arch.l1d.size_bytes, 16u * 1024u);
  EXPECT_EQ(xe.l2.size_bytes, 1u * 1024u * 1024u);
  EXPECT_DOUBLE_EQ(xe.arch.freq_ghz, 3.16);
  EXPECT_DOUBLE_EQ(xe.bus_freq_mhz, 667);
}

TEST(Platform, HardwareThreadCounts) {
  EXPECT_EQ(platform_1cpm().hardware_threads(), 1);
  EXPECT_EQ(platform_2cpm().hardware_threads(), 2);
  EXPECT_EQ(platform_1lpx().hardware_threads(), 1);
  EXPECT_EQ(platform_2lpx().hardware_threads(), 2);
  EXPECT_EQ(platform_2ppx().hardware_threads(), 2);
  EXPECT_EQ(all_platforms().size(), 5u);
}

TEST(Counters, DerivedMetricDefinitions) {
  Counters c;
  c.clockticks = 1000;
  c.inst_retired = 500;
  c.l2_misses = 5;
  c.bus_transactions = 10;
  c.branch_retired = 100;
  c.branch_mispredicted = 3;
  EXPECT_DOUBLE_EQ(c.cpi(), 2.0);
  EXPECT_DOUBLE_EQ(c.l2mpi(), 1.0);     // 5/500 as %
  EXPECT_DOUBLE_EQ(c.btpi(), 2.0);      // 10/500 as %
  EXPECT_DOUBLE_EQ(c.branch_frequency(), 20.0);
  EXPECT_DOUBLE_EQ(c.brmpr(), 3.0);
  Counters d = c;
  d += c;
  EXPECT_EQ(d.clockticks, 2000u);
  EXPECT_DOUBLE_EQ(d.cpi(), 2.0);
}

}  // namespace
}  // namespace xaon::uarch
