// End-to-end checks of the per-worker metrics spine through
// Server::run_load: per-stage latency tracks, per-worker message and
// busy-time accounting, the dispatch-to-drain throughput window, and
// the one-dump-path JSON snapshot (label `metrics`).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "xaon/aon/messages.hpp"
#include "xaon/aon/server.hpp"

namespace xaon::aon {
namespace {

std::vector<std::string> order_wires(int n) {
  std::vector<std::string> wires;
  for (int i = 0; i < n; ++i) {
    MessageSpec spec;
    spec.seed = static_cast<std::uint64_t>(i) + 1;
    spec.quantity = (i % 2 == 0) ? 1 : 3;
    wires.push_back(make_post_wire(spec));
  }
  return wires;
}

class AckDownstream : public Downstream {
 public:
  SendStatus send(std::string_view) override { return SendStatus::kAck; }
};

TEST(ServerMetrics, RecordsEveryStagePerMessage) {
  ServerConfig config;
  config.use_case = UseCase::kContentBasedRouting;
  config.workers = 2;
  Server server(config);
  const std::uint64_t n = 400;
  const LoadResult result = server.run_load(order_wires(4), n);
  ASSERT_EQ(result.messages, n);

  const util::MetricsSnapshot& m = result.metrics;
  // Clean wires: every message passes through parse, route and
  // serialize exactly once; no downstream -> no forward spans.
  EXPECT_EQ(m.stages[0].count(), n);  // parse
  EXPECT_EQ(m.stages[1].count(), n);  // route
  EXPECT_EQ(m.stages[2].count(), n);  // serialize
  EXPECT_EQ(m.stages[3].count(), 0u);  // forward
  EXPECT_EQ(m.message.count(), n);

  // Quantiles are monotone and bounded by the exact max.
  for (std::size_t s = 0; s < 3; ++s) {
    const util::LatencyTrack& t = m.stages[s];
    EXPECT_GT(t.quantile(0.50), 0u);
    EXPECT_LE(t.quantile(0.50), t.quantile(0.90));
    EXPECT_LE(t.quantile(0.90), t.quantile(0.99));
    EXPECT_GT(t.max(), 0u);
  }
  // A message span covers its stage spans.
  EXPECT_GE(m.message.sum(), m.stages[0].sum());
}

TEST(ServerMetrics, PerWorkerCountsSumAndBalance) {
  ServerConfig config;
  config.use_case = UseCase::kForwardRequest;
  config.workers = 3;
  Server server(config);
  const std::uint64_t n = 900;
  const LoadResult result = server.run_load(order_wires(4), n);

  const util::MetricsSnapshot& m = result.metrics;
  ASSERT_EQ(m.workers.size(), 3u);
  EXPECT_EQ(m.messages_total(), n);
  // Round-robin dispatch: every worker gets exactly n/3 here.
  for (const auto& w : m.workers) EXPECT_EQ(w.messages, n / 3);
  EXPECT_NEAR(m.imbalance(), 1.0, 1e-12);
}

TEST(ServerMetrics, BusySecondsWithinDispatchToDrainWindow) {
  ServerConfig config;
  config.use_case = UseCase::kSchemaValidation;
  config.workers = 2;
  Server server(config);
  const LoadResult result = server.run_load(order_wires(4), 200);

  ASSERT_GT(result.seconds, 0.0);
  // The drain window excludes thread creation/teardown, so it can only
  // be tighter than the full harness span.
  EXPECT_LE(result.seconds, result.wall_seconds);
  // A worker's busy time (sum of message spans) fits inside the
  // dispatch-to-drain window: processing starts after the first push
  // and each worker finishes before the last drain.
  for (const auto& w : result.metrics.workers) {
    EXPECT_GT(w.busy_seconds, 0.0);
    EXPECT_LE(w.busy_seconds, result.seconds);
  }
  EXPECT_LE(result.metrics.busy_seconds_total(),
            result.seconds * static_cast<double>(config.workers));
}

TEST(ServerMetrics, ForwardStageRecordedWithDownstream) {
  AckDownstream downstream;
  ServerConfig config;
  config.use_case = UseCase::kForwardRequest;
  config.workers = 2;
  config.downstream = &downstream;
  Server server(config);
  const std::uint64_t n = 200;
  const LoadResult result = server.run_load(order_wires(4), n);
  EXPECT_EQ(result.metrics.stages[3].count(), n);  // forward span per msg
  EXPECT_EQ(result.status.s2xx, n);
}

TEST(ServerMetrics, SnapshotJsonSurfacesStagesAndProbes) {
  ServerConfig config;
  config.use_case = UseCase::kContentBasedRouting;
  config.workers = 2;
  Server server(config);
  const LoadResult result = server.run_load(order_wires(4), 100);

  // The CBR run exercised the probed XML/XPath hot paths, so the
  // probe registry is non-empty and rides in the same snapshot.
  EXPECT_FALSE(result.metrics.probes.empty());
  const std::string json = result.metrics.to_json();
  EXPECT_NE(json.find("\"parse\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"workers\""), std::string::npos);
  EXPECT_NE(json.find("\"probes\""), std::string::npos);
}

TEST(ServerMetrics, FailedMessagesStillTimeTheParseStage) {
  ServerConfig config;
  config.use_case = UseCase::kContentBasedRouting;
  config.workers = 2;
  Server server(config);
  const std::vector<std::string> garbage{"not an http request at all"};
  const std::uint64_t n = 100;
  const LoadResult result = server.run_load(garbage, n);
  EXPECT_EQ(result.failed, n);
  EXPECT_EQ(result.status.s4xx, n);
  const util::MetricsSnapshot& m = result.metrics;
  EXPECT_EQ(m.stages[0].count(), n);   // parse span recorded on the 400 path
  EXPECT_EQ(m.stages[2].count(), 0u);  // nothing serialized
  EXPECT_EQ(m.message.count(), n);
}

}  // namespace
}  // namespace xaon::aon
