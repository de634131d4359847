#include "xaon/aon/server.hpp"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "xaon/aon/messages.hpp"
#include "xaon/http/message.hpp"

namespace xaon::aon {
namespace {

std::vector<std::string> mixed_wires() {
  std::vector<std::string> wires;
  for (int i = 0; i < 4; ++i) {
    MessageSpec spec;
    spec.seed = static_cast<std::uint64_t>(i) + 1;
    spec.quantity = (i % 2 == 0) ? 1 : 3;
    wires.push_back(make_post_wire(spec));
  }
  return wires;
}

TEST(Server, ProcessesEveryMessage) {
  ServerConfig config;
  config.use_case = UseCase::kForwardRequest;
  config.workers = 2;
  Server server(config);
  const LoadResult result = server.run_load(mixed_wires(), 500);
  EXPECT_EQ(result.messages, 500u);
  EXPECT_EQ(result.routed_primary, 500u);  // FR forwards everything
  EXPECT_EQ(result.failed, 0u);
  EXPECT_GT(result.messages_per_second(), 0.0);
}

TEST(Server, CbrSplitsRoutes) {
  ServerConfig config;
  config.use_case = UseCase::kContentBasedRouting;
  config.workers = 2;
  Server server(config);
  // Wires alternate quantity 1 / 3 -> half primary, half error.
  const LoadResult result = server.run_load(mixed_wires(), 400);
  EXPECT_EQ(result.messages, 400u);
  EXPECT_EQ(result.routed_primary, 200u);
  EXPECT_EQ(result.routed_error, 200u);
  EXPECT_EQ(result.failed, 0u);
}

TEST(Server, SvValidatesUnderLoad) {
  ServerConfig config;
  config.use_case = UseCase::kSchemaValidation;
  config.workers = 3;
  Server server(config);
  const LoadResult result = server.run_load(mixed_wires(), 300);
  EXPECT_EQ(result.messages, 300u);
  EXPECT_EQ(result.routed_primary, 300u);  // all wires schema-valid
  EXPECT_EQ(result.failed, 0u);
}

TEST(Server, SingleWorkerWorks) {
  ServerConfig config;
  config.use_case = UseCase::kForwardRequest;
  config.workers = 1;
  Server server(config);
  const LoadResult result = server.run_load(mixed_wires(), 100);
  EXPECT_EQ(result.messages, 100u);
}

TEST(Server, ManyWorkersNoMessageLoss) {
  ServerConfig config;
  config.use_case = UseCase::kContentBasedRouting;
  config.workers = 8;
  config.queue_capacity = 16;  // force backpressure
  Server server(config);
  const LoadResult result = server.run_load(mixed_wires(), 2000);
  EXPECT_EQ(result.messages, 2000u);
  EXPECT_EQ(result.routed_primary + result.routed_error, 2000u);
}

/// Records, per worker thread, which wire class it forwarded — the
/// class marker rides in the message body, which FR proxies untouched.
class ClassRecordingDownstream : public Downstream {
 public:
  SendStatus send(std::string_view wire) override {
    int cls = -1;
    for (int k = 0; k < 8; ++k) {
      std::string marker = "wire-class-" + std::to_string(k) + "<";
      if (wire.find(marker) != std::string_view::npos) {
        cls = k;
        break;
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    seen_[std::this_thread::get_id()].insert(cls);
    return SendStatus::kAck;
  }

  std::map<std::thread::id, std::set<int>> seen() {
    std::lock_guard<std::mutex> lock(mu_);
    return seen_;
  }

 private:
  std::mutex mu_;
  std::map<std::thread::id, std::set<int>> seen_;
};

// Regression for the dispatch-skew bug: with worker index and wire
// index both derived from the message counter (`i % n_workers` and
// `i % wires.size()`), any common factor of the two counts locks each
// worker onto a fixed wire subset (2 workers x 4 wires: worker 0 only
// ever saw wires {0,2}). The decoupled wire cursor must show every
// worker every wire class.
TEST(Server, EveryWorkerObservesEveryWireClass) {
  const std::size_t n_workers = 2;
  const int n_classes = 4;  // shares a factor with n_workers
  std::vector<std::string> wires;
  for (int k = 0; k < n_classes; ++k) {
    wires.push_back(http::write_request(
        make_post_request("<order>wire-class-" + std::to_string(k) +
                          "<filler/></order>")));
  }

  ClassRecordingDownstream downstream;
  ServerConfig config;
  config.use_case = UseCase::kForwardRequest;
  config.workers = n_workers;
  config.downstream = &downstream;
  Server server(config);
  const LoadResult result = server.run_load(wires, 400);
  EXPECT_EQ(result.messages, 400u);

  const auto seen = downstream.seen();
  ASSERT_EQ(seen.size(), n_workers);
  for (const auto& [tid, classes] : seen) {
    (void)tid;
    EXPECT_EQ(classes.size(), static_cast<std::size_t>(n_classes))
        << "a worker saw only a subset of wire classes (dispatch skew)";
    for (int k = 0; k < n_classes; ++k) EXPECT_TRUE(classes.count(k));
  }
}

// The rotated wire cursor must keep the *mix* uniform while decoupling:
// over whole passes, every wire class appears equally often.
TEST(Server, WireMixStaysUniformAcrossClasses) {
  ServerConfig config;
  config.use_case = UseCase::kContentBasedRouting;
  config.workers = 2;
  Server server(config);
  // mixed_wires(): quantity alternates 1/3 -> exactly half route
  // primary when every wire is used equally often.
  const LoadResult result = server.run_load(mixed_wires(), 800);
  EXPECT_EQ(result.messages, 800u);
  EXPECT_EQ(result.routed_primary, 400u);
  EXPECT_EQ(result.routed_error, 400u);
}

TEST(StatusBuckets, ClassifiesEveryRangeExplicitly) {
  StatusBuckets b;
  b.add(100);
  b.add(200);
  b.add(204);
  b.add(304);  // synthetic 3xx: must land in s3xx, not s4xx
  b.add(400);
  b.add(403);
  b.add(502);
  b.add(503);
  b.add(42);  // out of range -> other, never a silent 4xx
  EXPECT_EQ(b.s1xx, 1u);
  EXPECT_EQ(b.s2xx, 2u);
  EXPECT_EQ(b.s3xx, 1u);
  EXPECT_EQ(b.s4xx, 2u);
  EXPECT_EQ(b.s5xx, 2u);
  EXPECT_EQ(b.other, 1u);
  EXPECT_EQ(b.total(), 9u);

  StatusBuckets c;
  c.add(301);
  b.merge(c);
  EXPECT_EQ(b.s3xx, 2u);
  EXPECT_EQ(b.total(), 10u);
}

TEST(Server, StatusBucketsReconcileUnderMixedOutcomes) {
  ServerConfig config;
  config.use_case = UseCase::kContentBasedRouting;
  config.workers = 2;
  Server server(config);
  std::vector<std::string> wires = mixed_wires();
  wires.push_back("garbage that fails the HTTP parse");  // -> 400
  const LoadResult result = server.run_load(wires, 500);
  EXPECT_EQ(result.messages, 500u);
  // The stock pipeline never emits 1xx/3xx or out-of-range statuses.
  EXPECT_EQ(result.status.s1xx, 0u);
  EXPECT_EQ(result.status.s3xx, 0u);
  EXPECT_EQ(result.status.other, 0u);
  EXPECT_GT(result.status.s4xx, 0u);  // the garbage wire
  EXPECT_EQ(result.status.s2xx + result.status.s4xx + result.status.s5xx,
            result.messages);
}

TEST(Server, ThroughputWindowExcludesTeardown) {
  ServerConfig config;
  config.use_case = UseCase::kForwardRequest;
  config.workers = 2;
  Server server(config);
  const LoadResult result = server.run_load(mixed_wires(), 200);
  EXPECT_GT(result.seconds, 0.0);
  EXPECT_GT(result.wall_seconds, 0.0);
  // seconds is the dispatch-to-drain window; wall_seconds additionally
  // spans thread creation and join.
  EXPECT_LE(result.seconds, result.wall_seconds);
  EXPECT_GT(result.messages_per_second(), 0.0);
}

}  // namespace
}  // namespace xaon::aon
