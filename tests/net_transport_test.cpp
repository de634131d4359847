#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "xaon/aon/messages.hpp"
#include "xaon/http/message.hpp"
#include "xaon/http/parser.hpp"
#include "xaon/net/downstream.hpp"
#include "xaon/net/server.hpp"
#include "xaon/net/socket.hpp"

// The real-network transport (xaon::net): epoll event loops terminating
// actual loopback TCP connections. These tests exercise the pieces the
// host-mode suite cannot: kernel-segmented reads through the
// incremental parser, keep-alive pipelining, the 400-and-close path for
// hostile bytes, fd accounting across worker handoff, and the
// socket-backed forward path degrading to 502 when the downstream peer
// is gone. Runs in the `net` tier (and under TSan in `sanitize-tsan`:
// acceptor + workers + client threads are real threads).

namespace xaon {
namespace {

std::vector<std::string> mixed_wires() {
  std::vector<std::string> wires;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    aon::MessageSpec spec;
    spec.seed = seed;
    spec.quantity = static_cast<std::uint32_t>(seed % 2) + 1;
    wires.push_back(aon::make_post_wire(spec));
  }
  return wires;
}

/// Sends `count` requests (cycling `wires`) over one keep-alive
/// connection, checking every response parses with `expect_status`.
void run_client(std::uint16_t port, const std::vector<std::string>& wires,
                int count, int expect_status) {
  net::BlockingClient client;
  ASSERT_TRUE(client.connect(port));
  http::ResponseParser parser;
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(client.send(wires[static_cast<std::size_t>(i) % wires.size()]));
    ASSERT_EQ(client.read_response(parser), expect_status) << "message " << i;
  }
}

TEST(NetTransport, ForwardRequestRoundTrip) {
  net::SinkServer sink;
  ASSERT_TRUE(sink.start());
  net::SocketDownstream downstream(sink.port());

  net::ServerConfig config;
  config.use_case = aon::UseCase::kForwardRequest;
  config.workers = 2;
  config.downstream = &downstream;
  net::Server server(config);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  run_client(server.port(), mixed_wires(), 40, 200);

  const net::ServerStats& stats = server.stop();
  sink.stop();
  EXPECT_EQ(stats.messages, 40u);
  EXPECT_EQ(stats.routed_primary, 40u);  // FR forwards everything primary
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.status.total(), stats.messages);
  EXPECT_EQ(stats.forward_failures, 0u);
  EXPECT_EQ(stats.forward_shed, 0u);
  // Every forwarded wire landed at the sink, byte for byte.
  EXPECT_GT(sink.bytes_received(), 0u);
  // Transport counters reconcile: the one client connection was
  // accepted and (on stop) closed; bytes flowed both ways.
  EXPECT_EQ(stats.metrics.net.accepted, 1u);
  EXPECT_EQ(stats.metrics.net.closed, 1u);
  EXPECT_GT(stats.metrics.net.bytes_in, 0u);
  EXPECT_GT(stats.metrics.net.bytes_out, 0u);
}

TEST(NetTransport, KeepAlivePipelining) {
  net::ServerConfig config;
  config.use_case = aon::UseCase::kForwardRequest;
  config.workers = 1;
  net::Server server(config);
  ASSERT_TRUE(server.start());

  // One write carrying 8 back-to-back requests; the parser must frame
  // all of them out of whatever chunks epoll delivers, and the
  // responses must come back in order on the same connection.
  const std::vector<std::string> wires = mixed_wires();
  std::string burst;
  for (int i = 0; i < 8; ++i) burst += wires[static_cast<std::size_t>(i) % wires.size()];

  net::BlockingClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.send(burst));
  http::ResponseParser parser;
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(client.read_response(parser), 200) << "pipelined response " << i;
  }
  client.close();

  const net::ServerStats& stats = server.stop();
  EXPECT_EQ(stats.messages, 8u);
  EXPECT_EQ(stats.status.total(), 8u);
}

TEST(NetTransport, MultiClientMultiWorkerReconciles) {
  net::ServerConfig config;
  config.use_case = aon::UseCase::kContentBasedRouting;
  config.workers = 3;
  net::Server server(config);
  ASSERT_TRUE(server.start());

  const std::vector<std::string> wires = mixed_wires();
  constexpr int kClients = 6;
  constexpr int kPerClient = 25;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back(
        [&, t] { run_client(server.port(), wires, kPerClient, 200); });
  }
  for (auto& t : clients) t.join();

  const net::ServerStats& stats = server.stop();
  EXPECT_EQ(stats.messages, kClients * kPerClient);
  EXPECT_EQ(stats.status.total(), stats.messages);
  // CBR: quantity=1 wires route primary, quantity=2 to the error
  // endpoint — both are successful routes, split across the mix.
  EXPECT_EQ(stats.routed_primary + stats.routed_error, stats.messages);
  EXPECT_GT(stats.routed_primary, 0u);
  EXPECT_GT(stats.routed_error, 0u);
  EXPECT_EQ(stats.failed, 0u);
  // fd accounting: every accepted connection was closed by stop().
  EXPECT_EQ(stats.metrics.net.accepted, kClients);
  EXPECT_EQ(stats.metrics.net.closed, stats.metrics.net.accepted);
  // All three event loops saw traffic (round-robin handoff).
  EXPECT_EQ(stats.metrics.workers.size(), 3u);
  EXPECT_EQ(stats.metrics.messages_total(), stats.messages);
}

TEST(NetTransport, SchemaValidationOverSockets) {
  net::ServerConfig config;
  config.use_case = aon::UseCase::kSchemaValidation;
  config.workers = 2;
  net::Server server(config);
  ASSERT_TRUE(server.start());

  aon::MessageSpec good;
  aon::MessageSpec bad;
  bad.valid_for_schema = false;

  net::BlockingClient client;
  ASSERT_TRUE(client.connect(server.port()));
  http::ResponseParser parser;
  ASSERT_TRUE(client.send(aon::make_post_wire(good)));
  EXPECT_EQ(client.read_response(parser), 200);
  ASSERT_TRUE(client.send(aon::make_post_wire(bad)));
  const int invalid_status = client.read_response(parser);
  EXPECT_NE(invalid_status, -1);
  client.close();

  const net::ServerStats& stats = server.stop();
  EXPECT_EQ(stats.messages, 2u);
  // The invalid message must not have routed primary.
  EXPECT_EQ(stats.routed_primary, 1u);
}

TEST(NetTransport, GarbageGets400AndClose) {
  net::ServerConfig config;
  config.workers = 1;
  net::Server server(config);
  ASSERT_TRUE(server.start());

  net::BlockingClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.send("THIS IS NOT HTTP\r\n\r\n"));
  http::ResponseParser parser;
  EXPECT_EQ(client.read_response(parser), 400);
  EXPECT_EQ(parser.response().headers.get("Connection").value_or(""), "close");
  // The transport hangs up after flushing the 400.
  EXPECT_EQ(client.read_response(parser), -1);
  client.close();

  const net::ServerStats& stats = server.stop();
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.status.total(), 1u);
}

TEST(NetTransport, OverCapBodyGets400AndClose) {
  net::ServerConfig config;
  config.workers = 1;
  net::Server server(config);
  ASSERT_TRUE(server.start());

  // One byte over the transport's 16 MiB body cap: rejected from the
  // header alone, before any body byte is sent.
  net::BlockingClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.send(
      "POST /orders HTTP/1.1\r\nHost: gw\r\n"
      "Content-Length: 16777217\r\n\r\n"));
  http::ResponseParser parser;
  EXPECT_EQ(client.read_response(parser), 400);
  EXPECT_EQ(parser.response().headers.get("Connection").value_or(""), "close");
  EXPECT_EQ(client.read_response(parser), -1);  // server closed
  client.close();

  const net::ServerStats& stats = server.stop();
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.status.s4xx, 1u);
  EXPECT_EQ(stats.metrics.net.accepted, 1u);
  EXPECT_EQ(stats.metrics.net.closed, stats.metrics.net.accepted);
}

TEST(NetTransport, ConnectionCloseHonored) {
  net::ServerConfig config;
  config.workers = 1;
  net::Server server(config);
  ASSERT_TRUE(server.start());

  aon::MessageSpec spec;
  http::Request request = aon::make_post_request(aon::make_order_message(spec));
  request.headers.add("Connection", "close");
  const std::string wire = http::write_request(request);

  net::BlockingClient client;
  ASSERT_TRUE(client.connect(server.port()));
  ASSERT_TRUE(client.send(wire));
  http::ResponseParser parser;
  EXPECT_EQ(client.read_response(parser), 200);
  EXPECT_EQ(parser.response().headers.get("Connection").value_or(""), "close");
  EXPECT_EQ(client.read_response(parser), -1);  // server closed
  client.close();

  const net::ServerStats& stats = server.stop();
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.metrics.net.closed, 1u);
}

TEST(NetTransport, DeadDownstreamDegradesTo502) {
  // Reserve a loopback port, then close the listener: connects to it
  // are refused, which SocketDownstream reports as kFail — after the
  // retry budget the transport answers 502, and the event loop keeps
  // serving (the next message gets its own verdict).
  std::uint16_t dead_port = 0;
  {
    net::Fd listener = net::listen_tcp(0, &dead_port, nullptr);
    ASSERT_TRUE(listener.valid());
  }
  net::SocketDownstream downstream(dead_port);

  net::ServerConfig config;
  config.use_case = aon::UseCase::kForwardRequest;
  config.workers = 1;
  config.downstream = &downstream;
  config.forward.max_attempts = 2;
  config.forward.backoff_pauses = 1;
  net::Server server(config);
  ASSERT_TRUE(server.start());

  run_client(server.port(), mixed_wires(), 5, 502);

  const net::ServerStats& stats = server.stop();
  EXPECT_EQ(stats.messages, 5u);
  EXPECT_EQ(stats.forward_failures, 5u);
  EXPECT_EQ(stats.forward_retries, 5u);  // one retry per message
  EXPECT_EQ(stats.status.total(), 5u);
}

TEST(NetTransport, ChunkedRequestOverSocket) {
  // The satellite framing fixes run on this path too: a chunked
  // request arriving over the socket must reassemble and process, and
  // its exact-CRLF terminators must survive kernel segmentation.
  net::ServerConfig config;
  config.workers = 1;
  net::Server server(config);
  ASSERT_TRUE(server.start());

  const std::string body = aon::make_order_message();
  std::string wire =
      "POST /aon/service HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: text/xml\r\n"
      "Transfer-Encoding: chunked\r\n\r\n";
  // Two chunks, split mid-body.
  const std::size_t half = body.size() / 2;
  char size_buf[32];
  std::snprintf(size_buf, sizeof(size_buf), "%zx\r\n", half);
  wire += size_buf;
  wire.append(body, 0, half);
  wire += "\r\n";
  std::snprintf(size_buf, sizeof(size_buf), "%zx\r\n", body.size() - half);
  wire += size_buf;
  wire.append(body, half, std::string::npos);
  wire += "\r\n0\r\n\r\n";

  net::BlockingClient client;
  ASSERT_TRUE(client.connect(server.port()));
  // Dribble the wire in small writes so the server's reads are
  // guaranteed to split the framing at awkward points.
  for (std::size_t pos = 0; pos < wire.size(); pos += 512) {
    ASSERT_TRUE(client.send(
        std::string_view(wire).substr(pos, 512)));
  }
  http::ResponseParser parser;
  EXPECT_EQ(client.read_response(parser), 200);
  client.close();

  const net::ServerStats& stats = server.stop();
  EXPECT_EQ(stats.messages, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(NetTransport, StopIsIdempotentAndStatsStable) {
  net::ServerConfig config;
  config.workers = 2;
  net::Server server(config);
  ASSERT_TRUE(server.start());
  run_client(server.port(), mixed_wires(), 3, 200);
  const net::ServerStats& first = server.stop();
  EXPECT_EQ(first.messages, 3u);
  const net::ServerStats& again = server.stop();
  EXPECT_EQ(again.messages, 3u);
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace xaon
