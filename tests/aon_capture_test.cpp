#include "xaon/aon/capture.hpp"

#include <gtest/gtest.h>

#include <set>

#include "xaon/uarch/system.hpp"

namespace xaon::aon {
namespace {

CaptureConfig small_capture() {
  CaptureConfig config;
  config.messages = 4;
  return config;
}

TEST(Capture, ProducesNonEmptyTraces) {
  for (const auto use_case :
       {UseCase::kForwardRequest, UseCase::kContentBasedRouting,
        UseCase::kSchemaValidation}) {
    const uarch::Trace trace =
        capture_use_case_trace(use_case, small_capture());
    EXPECT_GT(trace.size(), 1000u) << use_case_notation(use_case);
  }
}

TEST(CaptureDeath, DataRegionAbove4GiBIsRejected) {
  CaptureConfig config = small_capture();
  config.data_base = 0xFFFF'F000;
  EXPECT_DEATH(capture_use_case_trace(UseCase::kForwardRequest, config),
               "above 4 GiB");
}

TEST(Capture, ControlFlowDeterministic) {
  // Two captures of the same spec execute the same instruction stream
  // (same ops, pcs, branch outcomes). Data addresses may differ at page
  // granularity — the host allocator's recycling order is part of the
  // environment — but the layout *within* a run is what the simulator
  // consumes, and whole processes (the benches) are reproducible.
  const auto a = capture_use_case_trace(UseCase::kContentBasedRouting,
                                        small_capture());
  const auto b = capture_use_case_trace(UseCase::kContentBasedRouting,
                                        small_capture());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 97) {
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].pc, b[i].pc) << i;
    EXPECT_EQ(a[i].taken, b[i].taken) << i;
  }
}

TEST(Capture, CpuIntensityOrdering) {
  // Ops per message: SV > CBR > FR — the paper's workload spectrum.
  const auto fr =
      capture_use_case_trace(UseCase::kForwardRequest, small_capture());
  const auto cbr = capture_use_case_trace(UseCase::kContentBasedRouting,
                                          small_capture());
  const auto sv = capture_use_case_trace(UseCase::kSchemaValidation,
                                         small_capture());
  EXPECT_GT(cbr.size(), fr.size());
  EXPECT_GT(sv.size(), cbr.size());
}

TEST(Capture, DistinctDataBasesDisjointHeaps) {
  CaptureConfig a = small_capture();
  CaptureConfig b = small_capture();
  a.compute_expansion = 0;  // the warm table region is shared by design
  b.compute_expansion = 0;
  b.data_base = 0x5000'0000;
  const auto ta = capture_use_case_trace(UseCase::kForwardRequest, a);
  const auto tb = capture_use_case_trace(UseCase::kForwardRequest, b);
  auto data_lines = [](const uarch::Trace& t) {
    std::set<std::uint64_t> lines;
    for (const auto& op : t) {
      if (op.kind == uarch::OpKind::kLoad ||
          op.kind == uarch::OpKind::kStore) {
        lines.insert(op.addr / 64);
      }
    }
    return lines;
  };
  const auto la = data_lines(ta);
  const auto lb = data_lines(tb);
  std::size_t overlap = 0;
  for (std::uint64_t line : la) overlap += lb.count(line);
  // FR has no shared warm set: heaps must be fully disjoint.
  EXPECT_EQ(overlap, 0u);
}

TEST(Capture, FreshPagesPerMessage) {
  // Message data is never recycled: more messages => proportionally
  // more distinct pages. (Expansion off: its hot/warm tables are a
  // fixed-size overlay.)
  CaptureConfig four = small_capture();
  CaptureConfig eight = small_capture();
  four.compute_expansion = 0;
  eight.compute_expansion = 0;
  eight.messages = 8;
  auto pages = [](const uarch::Trace& t) {
    std::set<std::uint64_t> p;
    for (const auto& op : t) {
      if (op.kind == uarch::OpKind::kLoad ||
          op.kind == uarch::OpKind::kStore) {
        p.insert(op.addr >> 12);
      }
    }
    return p.size();
  };
  const auto p4 =
      pages(capture_use_case_trace(UseCase::kForwardRequest, four));
  const auto p8 =
      pages(capture_use_case_trace(UseCase::kForwardRequest, eight));
  EXPECT_GT(p8, p4 + p4 / 2);
}

TEST(Capture, DefaultsFollowUseCase) {
  EXPECT_LT(default_code_footprint(UseCase::kForwardRequest),
            default_code_footprint(UseCase::kSchemaValidation));
  EXPECT_LT(default_compute_expansion(UseCase::kForwardRequest),
            default_compute_expansion(UseCase::kSchemaValidation));
  EXPECT_GT(default_messages(UseCase::kForwardRequest),
            default_messages(UseCase::kSchemaValidation));
}

TEST(Capture, TraceRunsOnEveryPlatform) {
  const auto trace =
      capture_use_case_trace(UseCase::kContentBasedRouting, small_capture());
  for (const auto& platform : uarch::all_platforms()) {
    uarch::System system(platform);
    const auto result = system.run({&trace});
    EXPECT_EQ(result.total.ops, trace.size()) << platform.notation;
    EXPECT_GT(result.total.cpi(), 0.0) << platform.notation;
  }
}

}  // namespace
}  // namespace xaon::aon
