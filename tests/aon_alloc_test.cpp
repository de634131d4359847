// Steady-state allocation regression: a worker that reuses one
// ProcessScratch must stop touching the heap once its buffers are warm.
// Uses the bench allocation counter's global operator new interposer
// (single-TU binaries only, which every test binary is).

#define XAON_ALLOC_COUNT_INTERPOSE
#include "../bench/alloc_counter.hpp"

#include <gtest/gtest.h>

#include "xaon/aon/messages.hpp"
#include "xaon/aon/pipeline.hpp"
#include "xaon/aon/server.hpp"

namespace xaon::aon {
namespace {

std::vector<std::string> make_wires() {
  std::vector<std::string> wires;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    MessageSpec spec;
    spec.seed = seed;
    spec.quantity = static_cast<std::uint32_t>(seed % 2) + 1;
    wires.push_back(make_post_wire(spec));
  }
  return wires;
}

class AckDownstream : public Downstream {
 public:
  SendStatus send(std::string_view) override { return SendStatus::kAck; }
};

// Allocations per message at steady state: warm the scratch (string
// capacities, pooled vectors, thread-local VM state), then count. The
// scratch and metrics are a GatewayWorker's, attached exactly as both
// servers attach them — the zero-allocation contract must hold with
// the spine enabled. With `gateway`, each message also takes the step
// both servers run after the pipeline: forward to an always-ack
// downstream, then finish.
std::uint64_t steady_state_allocs(UseCase use_case, bool gateway = false) {
  const std::vector<std::string> wires = make_wires();
  Pipeline pipeline(use_case);
  AckDownstream downstream;
  GatewayConfig config;
  config.use_case = use_case;
  config.downstream = &downstream;
  GatewayWorker worker(config);
  const auto step = [&](const std::string& wire) {
    const std::uint64_t start = util::metrics_now_ns();
    const Pipeline::Outcome& out = pipeline.process_wire(wire, worker.scratch);
    EXPECT_TRUE(out.ok) << out.detail;
    if (gateway) worker.finish(worker.forward(out), start);
  };
  for (int rep = 0; rep < 4; ++rep) {
    for (const std::string& wire : wires) step(wire);
  }
  bench::reset_alloc_counter();
  for (int rep = 0; rep < 4; ++rep) {
    for (const std::string& wire : wires) step(wire);
  }
  const std::uint64_t messages = 4 * wires.size();
  // The spine really was live: every counted message recorded spans.
  EXPECT_EQ(worker.metrics.stage(util::Stage::kParse).count(),
            8 * wires.size());
  if (gateway) {
    EXPECT_EQ(worker.metrics.stage(util::Stage::kForward).count(),
              8 * wires.size());
    EXPECT_EQ(worker.metrics.messages(), 8 * wires.size());
  }
  // Round up so even one allocation across the whole run registers.
  return (bench::alloc_count() + messages - 1) / messages;
}

TEST(AllocRegression, MetricsRecordingAllocatesNothing) {
  util::WorkerMetrics metrics;
  bench::reset_alloc_counter();
  for (std::uint64_t i = 1; i <= 10000; ++i) {
    metrics.record_stage(util::Stage::kParse, i);
    metrics.record_stage(util::Stage::kRoute, i * 3);
    metrics.record_stage(util::Stage::kForward, i * 7);
    metrics.record_message(i * 11);
  }
  EXPECT_EQ(bench::alloc_count(), 0u);
  EXPECT_EQ(metrics.messages(), 10000u);
}

TEST(AllocCounter, InterposerCountsNewAndDelete) {
  bench::reset_alloc_counter();
  {
    std::string s(128, 'x');
    EXPECT_GE(bench::alloc_count(), 1u);
    EXPECT_GE(bench::alloc_bytes(), 128u);
  }
  EXPECT_GE(bench::free_count(), 1u);
}

TEST(AllocRegression, ForwardRequestSteadyStateIsAllocationFree) {
  EXPECT_EQ(steady_state_allocs(UseCase::kForwardRequest), 0u);
}

TEST(AllocRegression, ContentRoutingSteadyStateStaysUnderBudget) {
  EXPECT_LE(steady_state_allocs(UseCase::kContentBasedRouting), 2u);
}

TEST(AllocRegression, SchemaValidationSteadyStateStaysUnderBudget) {
  EXPECT_LE(steady_state_allocs(UseCase::kSchemaValidation), 2u);
}

TEST(AllocRegression, GatewayStepSteadyStateIsAllocationFree) {
  for (const UseCase use_case :
       {UseCase::kForwardRequest, UseCase::kContentBasedRouting,
        UseCase::kSchemaValidation}) {
    EXPECT_EQ(steady_state_allocs(use_case, /*gateway=*/true), 0u)
        << static_cast<int>(use_case);
  }
}

}  // namespace
}  // namespace xaon::aon
