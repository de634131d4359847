#include "xaon/uarch/cache.hpp"

#include <gtest/gtest.h>

#include "xaon/uarch/platform.hpp"

namespace xaon::uarch {
namespace {

TEST(Cache, HitAfterFill) {
  Cache c(CacheConfig{1024, 64, 2});
  EXPECT_FALSE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x13F, false).hit);   // same line
  EXPECT_FALSE(c.access(0x140, false).hit);  // next line
  EXPECT_EQ(c.stats().accesses, 4u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, LruEviction) {
  // 2-way, 64B lines, 8 sets -> lines mapping to set 0: 0, 8, 16 (x64).
  Cache c(CacheConfig{1024, 64, 2});
  const std::uint64_t a = 0 * 64, b = 8 * 64, d = 16 * 64;
  c.access(a, false);
  c.access(b, false);
  c.access(a, false);        // a most recent
  c.access(d, false);        // evicts b (LRU)
  EXPECT_TRUE(c.contains(a));
  EXPECT_FALSE(c.contains(b));
  EXPECT_TRUE(c.contains(d));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, WritebackOnDirtyEviction) {
  Cache c(CacheConfig{1024, 64, 2});
  const std::uint64_t a = 0, b = 8 * 64, d = 16 * 64;
  c.access(a, true);  // dirty
  c.access(b, false);
  auto r = c.access(d, false);  // evicts a (dirty)
  EXPECT_TRUE(r.writeback);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_line, 0u);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionNoWriteback) {
  Cache c(CacheConfig{1024, 64, 2});
  c.access(0, false);
  c.access(8 * 64, false);
  auto r = c.access(16 * 64, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_FALSE(r.writeback);
}

TEST(Cache, WriteHitMarksDirty) {
  Cache c(CacheConfig{1024, 64, 2});
  c.access(0, false);
  c.access(0, true);  // hit, now dirty
  c.access(8 * 64, false);
  auto r = c.access(16 * 64, false);
  EXPECT_TRUE(r.writeback);
}

TEST(Cache, Invalidate) {
  Cache c(CacheConfig{1024, 64, 2});
  c.access(0x100, true);
  EXPECT_TRUE(c.invalidate(0x100));  // dirty
  EXPECT_FALSE(c.contains(0x100));
  EXPECT_FALSE(c.invalidate(0x100));  // already gone
  c.access(0x200, false);
  EXPECT_FALSE(c.invalidate(0x200));  // clean
}

TEST(Cache, FillDoesNotCountAccess) {
  Cache c(CacheConfig{1024, 64, 2});
  c.fill(0x100);
  EXPECT_EQ(c.stats().accesses, 0u);
  EXPECT_TRUE(c.access(0x100, false).hit);
}

TEST(Cache, WorkingSetLargerThanCacheThrashes) {
  Cache c(CacheConfig{4096, 64, 4});  // 4 KB
  // Stream 64 KB twice: second pass still misses (no reuse captured).
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t a = 0; a < 64 * 1024; a += 64) {
      c.access(a, false);
    }
  }
  EXPECT_GT(c.stats().miss_rate(), 0.95);
}

TEST(Cache, WorkingSetSmallerThanCacheHits) {
  Cache c(CacheConfig{64 * 1024, 64, 8});
  for (int pass = 0; pass < 10; ++pass) {
    for (std::uint64_t a = 0; a < 4 * 1024; a += 64) {
      c.access(a, false);
    }
  }
  // Only the first pass misses.
  EXPECT_LT(c.stats().miss_rate(), 0.11);
}

TEST(Cache, BiggerCacheNeverMissesMore) {
  // Property: on the same trace, a 2x cache with same geometry has <=
  // misses (LRU inclusion property holds for same-assoc doubling of
  // sets in practice on sequential/strided traces used here).
  CacheConfig small{8 * 1024, 64, 8};
  CacheConfig big{16 * 1024, 64, 8};
  Cache cs(small), cb(big);
  std::uint64_t addr = 0;
  for (int i = 0; i < 20000; ++i) {
    addr = (addr * 1103515245 + 12345) % (32 * 1024);
    cs.access(addr, i % 7 == 0);
    cb.access(addr, i % 7 == 0);
  }
  EXPECT_LE(cb.stats().misses, cs.stats().misses);
}

TEST(Cache, StatsResetKeepsContents) {
  Cache c(CacheConfig{1024, 64, 2});
  c.access(0x40, false);
  c.reset_stats();
  EXPECT_EQ(c.stats().accesses, 0u);
  EXPECT_TRUE(c.access(0x40, false).hit);  // line still present
}

TEST(Cache, SeveralInvalidWaysFillBeforeAnyEviction) {
  // 4-way, 64B lines, 4 sets -> set 0 holds lines 0, 4, 8, ... (x64).
  Cache c(CacheConfig{1024, 64, 4});
  const std::uint64_t a = 0, b = 4 * 64, d = 8 * 64, e = 12 * 64;
  for (std::uint64_t x : {a, b, d, e}) c.access(x, false);
  EXPECT_FALSE(c.invalidate(b));
  EXPECT_FALSE(c.invalidate(d));
  // Two invalid ways: both refills land in them, evicting nothing.
  EXPECT_FALSE(c.access(16 * 64, false).evicted);
  EXPECT_FALSE(c.access(20 * 64, false).evicted);
  // The set is full again: the next miss evicts the LRU valid line, a.
  const AccessResult r = c.access(24 * 64, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_line, 0u);
  EXPECT_TRUE(c.contains(e));
  EXPECT_TRUE(c.contains(16 * 64));
  EXPECT_TRUE(c.contains(20 * 64));
  EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(Cache, InvalidateThenRefillIsCleanMiss) {
  Cache c(CacheConfig{1024, 64, 2});
  c.access(0x100, true);
  EXPECT_TRUE(c.invalidate(0x100));
  EXPECT_FALSE(c.access(0x100, false).hit);  // refill misses
  EXPECT_TRUE(c.access(0x100, false).hit);
  EXPECT_FALSE(c.invalidate(0x100));  // the refill was a read: clean
  EXPECT_EQ(c.stats().misses, 2u);
  EXPECT_EQ(c.stats().evictions, 0u);
  EXPECT_EQ(c.stats().writebacks, 0u);
}

TEST(Cache, VictimLineAfterInvalidation) {
  // 2-way, 8 sets: lines 0, 8, 16, 24 map to set 0.
  Cache c(CacheConfig{1024, 64, 2});
  c.access(0 * 64, true);
  c.access(8 * 64, false);
  EXPECT_TRUE(c.invalidate(0 * 64));
  c.access(16 * 64, false);  // refills the invalidated way
  // The invalidated line is never reported as a victim; the LRU valid
  // line (8) is, and it was clean.
  const AccessResult r = c.access(24 * 64, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_line, 8u);
  EXPECT_FALSE(r.writeback);
  const AccessResult r2 = c.access(0 * 64, false);
  EXPECT_TRUE(r2.evicted);
  EXPECT_EQ(r2.victim_line, 16u);
}

TEST(Cache, ThirtyTwoByteLines) {
  Cache c(CacheConfig{1024, 32, 2});  // 16 sets
  EXPECT_EQ(c.line_of(0x11F), 0x8u);
  EXPECT_EQ(c.line_of(0x120), 0x9u);
  c.access(0x100, true);
  EXPECT_TRUE(c.access(0x11F, false).hit);
  EXPECT_FALSE(c.access(0x120, false).hit);
  // Lines 0x8, 0x18, 0x28 share set 8.
  c.access(0x18 * 32, false);
  const AccessResult r = c.access(0x28 * 32, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_line, 0x8u);
}

TEST(Cache, OneTwentyEightByteLines) {
  Cache c(CacheConfig{2048, 128, 2});  // 8 sets
  EXPECT_EQ(c.line_of(0x17F), 0x2u);
  EXPECT_EQ(c.line_of(0x180), 0x3u);
  c.access(0x100, false);
  EXPECT_TRUE(c.access(0x17F, false).hit);
  EXPECT_FALSE(c.access(0x180, false).hit);
  // Lines 2, 10, 18 share set 2.
  c.access(10 * 128, true);
  c.access(2 * 128, false);  // 2 most recent
  const AccessResult r = c.access(18 * 128, false);
  EXPECT_EQ(r.victim_line, 10u);
  EXPECT_TRUE(r.writeback);
}

TEST(Cache, FillMovesLruWithoutCountingAccess) {
  Cache c(CacheConfig{1024, 64, 2});
  const std::uint64_t a = 0, b = 8 * 64, d = 16 * 64;
  c.access(a, false);
  c.access(b, false);
  EXPECT_TRUE(c.fill(a).hit);  // a becomes most recent
  EXPECT_EQ(c.stats().accesses, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
  const AccessResult r = c.access(d, false);
  EXPECT_EQ(r.victim_line, 8u);  // b, not a
  EXPECT_TRUE(c.contains(a));
  // A missing fill allocates (and may evict) but counts no access/miss.
  const AccessResult f = c.fill(24 * 64);
  EXPECT_FALSE(f.hit);
  EXPECT_TRUE(f.evicted);
  EXPECT_EQ(f.victim_line, 0u);
  EXPECT_EQ(c.stats().accesses, 3u);
  EXPECT_EQ(c.stats().misses, 3u);
  EXPECT_EQ(c.stats().evictions, 2u);
}

TEST(Cache, XeonSixWayInstructionCache) {
  const CacheConfig l1i = xeon_netburst_arch().l1i;
  EXPECT_EQ(l1i.associativity, 6u);
  EXPECT_EQ(l1i.num_sets(), 32u);
  Cache c(l1i);
  // Six lines of set 0 fit; the seventh evicts the least recent.
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_FALSE(c.access(i * 32 * 64, false).evicted);
  }
  c.access(0, false);  // line 0 most recent; line 32 is now LRU
  const AccessResult r = c.access(6 * 32 * 64, false);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.victim_line, 32u);
  for (std::uint64_t i : {0, 2, 3, 4, 5, 6}) {
    EXPECT_TRUE(c.contains(i * 32 * 64)) << i;
  }
}

TEST(CacheConfig, SetMath) {
  CacheConfig c{32 * 1024, 64, 8};
  EXPECT_EQ(c.num_sets(), 64u);
}

}  // namespace
}  // namespace xaon::uarch
