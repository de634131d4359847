#include "xaon/wload/recorder.hpp"

#include <gtest/gtest.h>

#include <set>

namespace xaon::wload {
namespace {

TEST(Recorder, LoadSpanChunked) {
  TraceRecorder rec;
  char buf[64];
  probe::ScopedRecorder guard(&rec);
  probe::load(buf, 64);
  const auto stats = uarch::compute_stats(rec.trace());
  EXPECT_EQ(stats.loads, 4u);  // 64 / 16-byte chunks
  EXPECT_EQ(stats.stores, 0u);
}

TEST(Recorder, StoreSpanChunked) {
  TraceRecorder rec;
  char buf[100];
  probe::ScopedRecorder guard(&rec);
  probe::store(buf, 100);
  EXPECT_EQ(uarch::compute_stats(rec.trace()).stores, 7u);  // ceil(100/16)
}

TEST(Recorder, AddressRemappingIsDeterministicAndDense) {
  RecorderConfig config;
  config.data_base = 0x4000'0000;
  TraceRecorder rec(config);
  probe::ScopedRecorder guard(&rec);
  auto heap = std::make_unique<char[]>(3 * 4096);
  probe::load(heap.get(), 16);
  probe::load(heap.get() + 8192, 16);
  const auto& trace = rec.trace();
  ASSERT_EQ(trace.size(), 2u);
  // First-touch order: first page -> data_base, third page -> +4096.
  EXPECT_EQ(trace[0].addr & ~0xFFFull, 0x4000'0000ull);
  EXPECT_EQ(trace[1].addr & ~0xFFFull, 0x4000'1000ull);
  // Offsets within the page are preserved.
  EXPECT_EQ(trace[0].addr & 0xFFF,
            reinterpret_cast<std::uintptr_t>(heap.get()) & 0xFFF);
  EXPECT_EQ(rec.pages_mapped(), 2u);
}

TEST(RecorderDeath, DataPageAbove4GiBIsRejected) {
  RecorderConfig config;
  config.data_base = 0xFFFF'F000;  // room for exactly one page
  TraceRecorder rec(config);
  probe::ScopedRecorder guard(&rec);
  auto heap = std::make_unique<char[]>(2 * 4096);
  probe::load(heap.get(), 16);
  EXPECT_EQ(rec.trace()[0].addr & ~0xFFFu, 0xFFFF'F000u);
  EXPECT_DEATH(probe::load(heap.get() + 4096, 16), "above 4 GiB");
}

TEST(Recorder, SamePageMapsOnce) {
  TraceRecorder rec;
  probe::ScopedRecorder guard(&rec);
  char buf[4096];
  probe::load(buf, 16);
  probe::load(buf + 64, 16);
  EXPECT_LE(rec.pages_mapped(), 2u);  // may straddle one page boundary
  const auto& t = rec.trace();
  EXPECT_EQ(t[1].addr - t[0].addr, 64u);  // relative layout preserved
}

TEST(Recorder, BranchCarriesSitePcAndOutcome) {
  TraceRecorder rec;
  probe::ScopedRecorder guard(&rec);
  const auto site = probe::site("test.rec.branch", probe::SiteKind::kLoop);
  probe::branch(site, true);
  probe::branch(site, false);
  const auto& t = rec.trace();
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].kind, uarch::OpKind::kBranch);
  EXPECT_TRUE(t[0].taken);
  EXPECT_FALSE(t[1].taken);
  EXPECT_EQ(t[0].pc, t[1].pc);  // same site -> same predictor PC
}

TEST(Recorder, DistinctSitesDistinctPcs) {
  TraceRecorder rec;
  probe::ScopedRecorder guard(&rec);
  const auto a = probe::site("test.rec.site_a", probe::SiteKind::kData);
  const auto b = probe::site("test.rec.site_b", probe::SiteKind::kData);
  probe::branch(a, true);
  probe::branch(b, true);
  EXPECT_NE(rec.trace()[0].pc, rec.trace()[1].pc);
}

TEST(Recorder, PcsStayInCodeFootprint) {
  RecorderConfig config;
  config.code_base = 0x0100'0000;
  config.code_footprint_bytes = 4096;
  TraceRecorder rec(config);
  probe::ScopedRecorder guard(&rec);
  const auto site = probe::site("test.rec.fp", probe::SiteKind::kLoop);
  char buf[16];
  for (int i = 0; i < 5000; ++i) {
    probe::alu(3);
    probe::load(buf, 16);
    probe::branch(site, i % 3 != 0);
  }
  for (const auto& op : rec.trace()) {
    EXPECT_GE(op.pc, 0x0100'0000u);
    EXPECT_LT(op.pc, 0x0100'1000u);
  }
}

TEST(Recorder, AluScale) {
  RecorderConfig config;
  config.alu_scale = 2.0;
  TraceRecorder rec(config);
  probe::ScopedRecorder guard(&rec);
  probe::alu(10);
  EXPECT_EQ(uarch::compute_stats(rec.trace()).alu, 20u);
}

TEST(Recorder, AluBatchCap) {
  RecorderConfig config;
  config.max_alu_batch = 8;
  TraceRecorder rec(config);
  probe::ScopedRecorder guard(&rec);
  probe::alu(1000);
  EXPECT_EQ(uarch::compute_stats(rec.trace()).alu, 8u);
}

TEST(Recorder, ComputeExpansionInjectsConfiguredMix) {
  RecorderConfig config;
  config.compute_expansion = 4.0;
  config.expansion_branch_fraction = 0.3;
  config.expansion_memory_fraction = 0.3;
  TraceRecorder rec(config);
  probe::ScopedRecorder guard(&rec);
  char buf[4096];
  for (int i = 0; i < 200; ++i) probe::load(buf, 64);
  const auto stats = uarch::compute_stats(rec.trace());
  // 200*4 recorded loads trigger ~4x injected ops.
  EXPECT_GT(stats.total, 3000u);
  const double branch_frac = stats.branch_fraction();
  EXPECT_GT(branch_frac, 0.15);
  EXPECT_LT(branch_frac, 0.35);
}

TEST(Recorder, ExpansionHotRegionIsSmall) {
  RecorderConfig config;
  config.compute_expansion = 5.0;
  config.expansion_hot_bytes = 8 * 1024;
  config.expansion_warm_fraction = 0.0;
  TraceRecorder rec(config);
  probe::ScopedRecorder guard(&rec);
  char buf[64];
  for (int i = 0; i < 500; ++i) probe::load(buf, 64);
  std::set<std::uint64_t> lines;
  for (const auto& op : rec.trace()) {
    if ((op.kind == uarch::OpKind::kLoad ||
         op.kind == uarch::OpKind::kStore) &&
        op.addr >= config.data_base + 0x0800'0000ull) {
      lines.insert(op.addr / 64);
    }
  }
  EXPECT_LE(lines.size(), 8u * 1024u / 64u);
  EXPECT_GT(lines.size(), 16u);
}

TEST(Recorder, ZeroExpansionInjectsNothing) {
  TraceRecorder rec;  // default expansion 0
  probe::ScopedRecorder guard(&rec);
  char buf[64];
  probe::load(buf, 64);
  EXPECT_EQ(rec.trace().size(), 4u);
}

TEST(Recorder, TakeTraceResets) {
  TraceRecorder rec;
  probe::ScopedRecorder guard(&rec);
  probe::alu(5);
  auto t = rec.take_trace();
  EXPECT_EQ(t.size(), 5u);
  EXPECT_TRUE(rec.trace().empty());
}

}  // namespace
}  // namespace xaon::wload
