// Cross-module integration: messages travel through the simulated
// network as TCP segments, arrive chunk-by-chunk at the HTTP parser,
// flow through the AON pipelines, and the whole round trip is captured
// and replayed on the simulated hardware — every layer of the
// reproduction touching every other.

#include <gtest/gtest.h>

#include "xaon/aon/capture.hpp"
#include "xaon/aon/messages.hpp"
#include "xaon/aon/pipeline.hpp"
#include "xaon/http/parser.hpp"
#include "xaon/netsim/link.hpp"
#include "xaon/netsim/simulator.hpp"
#include "xaon/netsim/tcp.hpp"
#include "xaon/uarch/system.hpp"
#include "xaon/xml/parser.hpp"

namespace xaon {
namespace {

TEST(Integration, MessageOverSimulatedTcpThroughPipeline) {
  // The wire bytes of a POST are streamed through the TCP model; the
  // receiver reassembles them incrementally into the HTTP parser and
  // hands the request to the CBR pipeline.
  const std::string wire = aon::make_post_wire();

  netsim::Simulator sim;
  netsim::Link data(sim, netsim::Link::gigabit_ethernet());
  netsim::Link acks(sim, netsim::Link::gigabit_ethernet());
  netsim::TcpStream stream(sim, data, acks, netsim::TcpConfig{});

  http::RequestParser parser;
  std::size_t offset = 0;
  stream.set_on_deliver([&](std::uint32_t bytes) {
    // Deliver the next `bytes` of the wire into the parser, segment by
    // segment, exactly as the kernel would.
    const std::string_view chunk =
        std::string_view(wire).substr(offset, bytes);
    offset += bytes;
    if (!parser.done() && !parser.failed()) parser.feed(chunk);
  });
  stream.send(wire.size());
  sim.run();

  ASSERT_TRUE(parser.done()) << parser.error();
  EXPECT_GT(stream.stats().segments_sent, 2u);  // 5KB spans several MSS

  aon::Pipeline cbr(aon::UseCase::kContentBasedRouting);
  aon::Pipeline::ProcessScratch scratch;
  const auto& outcome = cbr.process(parser.request(), scratch);
  EXPECT_TRUE(outcome.ok);
  EXPECT_TRUE(outcome.routed_primary);  // default message has quantity=1
}

TEST(Integration, LossyNetworkStillDeliversValidMessages) {
  const std::string wire = aon::make_post_wire();
  netsim::Simulator sim;
  netsim::LinkConfig lossy = netsim::Link::gigabit_ethernet();
  lossy.loss_rate = 0.05;
  netsim::Link data(sim, lossy);
  netsim::Link acks(sim, netsim::Link::gigabit_ethernet());
  netsim::TcpStream stream(sim, data, acks, netsim::TcpConfig{});

  std::uint64_t received = 0;
  stream.set_on_deliver([&](std::uint32_t bytes) { received += bytes; });
  stream.send(wire.size());
  sim.run();
  // TCP recovers every byte despite drops. NOTE: our simplified model
  // delivers retransmitted segments out of order, so we check volume,
  // not byte-exact reassembly (a real receiver reorders via sequence
  // numbers).
  EXPECT_EQ(received, wire.size());
}

TEST(Integration, SameMessageSameVerdictAcrossAllPipelines) {
  // One message, every use case, consistent outcomes.
  aon::MessageSpec spec;
  spec.quantity = 1;
  const std::string wire = aon::make_post_wire(spec);
  for (const auto use_case :
       {aon::UseCase::kForwardRequest, aon::UseCase::kContentBasedRouting,
        aon::UseCase::kSchemaValidation, aon::UseCase::kDeepInspection,
        aon::UseCase::kMessageSecurity}) {
    aon::Pipeline pipeline(use_case);
    const auto outcome = pipeline.process_wire(wire);
    EXPECT_TRUE(outcome.ok) << use_case_notation(use_case);
    EXPECT_TRUE(outcome.routed_primary)
        << use_case_notation(use_case) << ": " << outcome.detail;
    // Forwarded bytes always reparse as HTTP.
    http::RequestParser check;
    check.feed(outcome.forwarded_wire);
    EXPECT_TRUE(check.done()) << use_case_notation(use_case);
  }
}

TEST(Integration, CapturedTraceMatchesHostProcessingSemantics) {
  // The capture path and the host path run the same pipeline code:
  // outcomes agree, and the trace replays identically twice on the
  // same platform (simulator determinism end to end).
  aon::CaptureConfig config;
  config.messages = 6;
  const uarch::Trace trace = capture_use_case_trace(
      aon::UseCase::kContentBasedRouting, config);

  uarch::System a(uarch::platform_2lpx());
  uarch::System b(uarch::platform_2lpx());
  const auto ra = a.run({&trace});
  const auto rb = b.run({&trace});
  EXPECT_DOUBLE_EQ(ra.wall_ns, rb.wall_ns);
  EXPECT_EQ(ra.total.l2_misses, rb.total.l2_misses);
  EXPECT_EQ(ra.total.branch_mispredicted, rb.total.branch_mispredicted);
  EXPECT_EQ(ra.total.bus_transactions, rb.total.bus_transactions);
}

TEST(Integration, EndToEndThroughputChainIsConsistent) {
  // items_per_second() of a run must equal messages / wall time.
  aon::CaptureConfig config;
  config.messages = 8;
  const uarch::Trace trace =
      capture_use_case_trace(aon::UseCase::kForwardRequest, config);
  uarch::System system(uarch::platform_1cpm());
  const auto result = system.run({&trace});
  const double tput = result.items_per_second(8);
  EXPECT_NEAR(tput * result.wall_ns * 1e-9, 8.0, 1e-6);
}

}  // namespace
}  // namespace xaon
