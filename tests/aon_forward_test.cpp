// Server forward path: bounded retry-with-backoff against faulty
// downstreams, 502/503 degradation, and the exactly-one-response
// invariant (status.s2xx + status.s4xx + status.s5xx == messages).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "xaon/aon/messages.hpp"
#include "xaon/aon/server.hpp"

namespace xaon::aon {
namespace {

std::vector<std::string> order_wires() {
  std::vector<std::string> wires;
  for (int i = 0; i < 4; ++i) {
    MessageSpec spec;
    spec.seed = static_cast<std::uint64_t>(i) + 1;
    spec.quantity = 1;
    wires.push_back(make_post_wire(spec));
  }
  return wires;
}

class HealthyDownstream : public Downstream {
 public:
  SendStatus send(std::string_view) override {
    ++sends_;
    return SendStatus::kAck;
  }
  std::uint64_t sends() const { return sends_.load(); }

 private:
  std::atomic<std::uint64_t> sends_{0};
};

class DeadDownstream : public Downstream {
 public:
  SendStatus send(std::string_view) override {
    ++sends_;
    return SendStatus::kFail;
  }
  std::uint64_t sends() const { return sends_.load(); }

 private:
  std::atomic<std::uint64_t> sends_{0};
};

class BusyDownstream : public Downstream {
 public:
  SendStatus send(std::string_view) override { return SendStatus::kBusy; }
};

/// Fails every first attempt, acks every second — a retry always
/// recovers. Single-worker only (the alternation is stateful).
class FlakyDownstream : public Downstream {
 public:
  SendStatus send(std::string_view) override {
    return (calls_++ % 2 == 0) ? SendStatus::kFail : SendStatus::kAck;
  }

 private:
  std::uint64_t calls_ = 0;
};

TEST(ServerForward, HealthyDownstreamAllAcked) {
  HealthyDownstream downstream;
  ServerConfig config;
  config.use_case = UseCase::kForwardRequest;
  config.workers = 2;
  config.downstream = &downstream;
  Server server(config);
  const LoadResult result = server.run_load(order_wires(), 400);
  EXPECT_EQ(result.messages, 400u);
  EXPECT_EQ(result.status.s2xx, 400u);
  EXPECT_EQ(result.status.s5xx, 0u);
  EXPECT_EQ(result.forward_retries, 0u);
  EXPECT_EQ(downstream.sends(), 400u);
}

TEST(ServerForward, DeadDownstreamDegradesTo502) {
  DeadDownstream downstream;
  ServerConfig config;
  config.use_case = UseCase::kForwardRequest;
  config.workers = 2;
  config.downstream = &downstream;
  config.forward.max_attempts = 3;
  config.forward.backoff_pauses = 1;
  Server server(config);
  const LoadResult result = server.run_load(order_wires(), 200);
  EXPECT_EQ(result.messages, 200u);
  EXPECT_EQ(result.status.s5xx, 200u);
  EXPECT_EQ(result.forward_failures, 200u);
  EXPECT_EQ(result.status.s2xx + result.status.s4xx + result.status.s5xx,
            result.messages);
  // Retry budget honored exactly: 3 attempts per message, no more.
  EXPECT_EQ(downstream.sends(), 600u);
  EXPECT_EQ(result.forward_retries, 400u);
}

TEST(ServerForward, BusyDownstreamShedsAs503) {
  BusyDownstream downstream;
  ServerConfig config;
  config.use_case = UseCase::kForwardRequest;
  config.workers = 2;
  config.downstream = &downstream;
  config.forward.max_attempts = 2;
  config.forward.backoff_pauses = 1;
  Server server(config);
  const LoadResult result = server.run_load(order_wires(), 100);
  EXPECT_EQ(result.messages, 100u);
  EXPECT_EQ(result.status.s5xx, 100u);
  EXPECT_EQ(result.forward_shed, 100u);
  EXPECT_EQ(result.forward_failures, 0u);
}

TEST(ServerForward, FlakyDownstreamRecoversViaRetry) {
  FlakyDownstream downstream;
  ServerConfig config;
  config.use_case = UseCase::kContentBasedRouting;
  config.workers = 1;  // FlakyDownstream's alternation needs one caller
  config.downstream = &downstream;
  config.forward.max_attempts = 3;
  config.forward.backoff_pauses = 1;
  Server server(config);
  const LoadResult result = server.run_load(order_wires(), 100);
  EXPECT_EQ(result.messages, 100u);
  EXPECT_EQ(result.status.s2xx, 100u);
  EXPECT_EQ(result.status.s5xx, 0u);
  EXPECT_EQ(result.forward_retries, 100u);  // one retry per message
}

TEST(ServerForward, MalformedMessagesCount4xxRegardlessOfDownstream) {
  HealthyDownstream downstream;
  ServerConfig config;
  config.use_case = UseCase::kSchemaValidation;
  config.workers = 2;
  config.downstream = &downstream;
  Server server(config);
  std::vector<std::string> wires = order_wires();
  wires.push_back("GET / HTTP/1.1\r\n\r\n");  // not a POST with a body
  // 5 wires cycling over 500 messages: 100 hit the malformed wire.
  const LoadResult result = server.run_load(wires, 500);
  EXPECT_EQ(result.messages, 500u);
  EXPECT_EQ(result.status.s4xx, 100u);
  EXPECT_EQ(result.status.s2xx, 400u);
  EXPECT_EQ(result.failed, 100u);
  // Rejected messages never reach the downstream.
  EXPECT_EQ(downstream.sends(), 400u);
}

TEST(ServerForward, NoDownstreamStillBucketsResponses) {
  ServerConfig config;
  config.use_case = UseCase::kForwardRequest;
  config.workers = 2;
  Server server(config);
  const LoadResult result = server.run_load(order_wires(), 100);
  EXPECT_EQ(result.status.s2xx, 100u);
  EXPECT_EQ(result.status.s2xx + result.status.s4xx + result.status.s5xx,
            result.messages);
}

// "At most max_attempts sends": a zero budget would still send once, so
// construction rejects it.
TEST(ServerForwardDeath, ZeroAttemptBudgetIsRejected) {
  ServerConfig config;
  config.forward.max_attempts = 0;
  EXPECT_DEATH(Server{config}, "max_attempts");
}

}  // namespace
}  // namespace xaon::aon
