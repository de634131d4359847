// fr-net-small: real loopback TCP. One keep-alive client (this thread)
// sends the smallest AONBench order to net::Server (FR, one worker),
// which forwards each message through net::SocketDownstream to a
// net::SinkServer: 4 threads, 2 connections. Per-message transport cost
// dominates; the XML layers do nothing.

#include <algorithm>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "xaon/aon/messages.hpp"
#include "xaon/aon/pipeline.hpp"
#include "xaon/aon/server.hpp"
#include "xaon/http/message.hpp"
#include "xaon/http/parser.hpp"
#include "xaon/net/downstream.hpp"
#include "xaon/net/server.hpp"
#include "xaon/net/socket.hpp"
#include "xaon/util/rng.hpp"

namespace perfbench {

namespace {

using xaon::aon::Pipeline;
using xaon::aon::SendStatus;

constexpr std::size_t kCorpusSize = 64;
constexpr std::uint32_t kSegments = 10;
/// Warm-up exchanges per set-up: grows connection buffers, parser
/// storage and the downstream pool to steady state.
constexpr std::uint64_t kWarmupMessages = 512;
/// Exchanges per exact-count pass.
constexpr std::uint64_t kCountMessages = 512;
/// Forward spans kept per segment in traced runs (fixed capacity, so
/// recording never allocates on the worker).
constexpr std::size_t kForwardSpanCapacity = 1 << 18;

struct Message {
  std::string wire;
  std::string body;
};

/// The smallest AONBench order: one line item, no filler.
std::vector<Message> make_corpus(std::uint64_t seed) {
  xaon::util::Xoshiro256ss rng(seed);
  std::vector<Message> corpus(kCorpusSize);
  for (Message& m : corpus) {
    xaon::aon::MessageSpec spec;
    spec.target_bytes = 0;
    spec.items = 1;
    spec.quantity = 1 + static_cast<std::uint32_t>(rng.next_below(9));
    spec.seed = rng.next();
    m.body = xaon::aon::make_order_message(spec);
    m.wire = xaon::http::write_request(xaon::aon::make_post_request(m.body));
  }
  return corpus;
}

/// aon::Downstream decorator: times each forward (first attempt to ack)
/// and checks that the k-th acknowledged wire carries the k-th message's
/// body. With one worker and one client connection, messages are
/// forwarded in the order the client sent them. Written by the worker
/// thread only; read after Server::stop() has joined it.
class TimedDownstream final : public xaon::aon::Downstream {
 public:
  TimedDownstream(xaon::aon::Downstream& inner,
                  const std::vector<Message>& corpus, bool trace)
      : inner_(inner), corpus_(corpus) {
    if (trace) spans_.reserve(kForwardSpanCapacity);
  }

  SendStatus send(std::string_view wire) override {
    const std::uint64_t t0 = now_ns();
    if (attempt_start_ns_ == 0) attempt_start_ns_ = t0;
    const SendStatus status = inner_.send(wire);
    if (status != SendStatus::kAck) return status;
    const std::uint64_t t1 = now_ns();
    if (!carries_body(wire, corpus_[acked_ % corpus_.size()].body)) {
      ++mismatches_;
    }
    bytes_ += wire.size();
    if (spans_.size() < spans_.capacity()) {
      spans_.emplace_back(attempt_start_ns_, t1);
    }
    attempt_start_ns_ = 0;
    ++acked_;
    return status;
  }

  std::uint64_t acked() const { return acked_; }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t mismatches() const { return mismatches_; }
  /// [first attempt, ack] of the k-th forwarded message.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>>& spans() const {
    return spans_;
  }

 private:
  xaon::aon::Downstream& inner_;
  const std::vector<Message>& corpus_;
  std::uint64_t attempt_start_ns_ = 0;
  std::uint64_t acked_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t mismatches_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans_;
};

/// One segment's loopback rig. Members are destroyed in reverse order:
/// client, server, downstreams, sink.
struct Rig {
  std::vector<Message> corpus;
  xaon::net::SinkServer sink;
  std::optional<xaon::net::SocketDownstream> socket;
  std::optional<TimedDownstream> downstream;
  std::optional<xaon::net::Server> server;
  xaon::net::BlockingClient client;
  xaon::http::ResponseParser response;
  std::size_t cursor = 0;
  std::uint64_t sent = 0;  ///< exchanges in this segment, warm-up included

  /// One request/response; returns the HTTP status or -1.
  int exchange() {
    const Message& m = corpus[cursor];
    cursor = cursor + 1 == corpus.size() ? 0 : cursor + 1;
    ++sent;
    if (!client.send(m.wire)) return -1;
    return client.read_response(response);
  }
};

bool is_2xx(int status) { return status >= 200 && status < 300; }

/// Timed set-up: corpus, sink, downstream, server start, client
/// connect, warm-up. False when any step fails.
bool set_up(Rig& rig, std::uint64_t seed, bool trace, Report& report) {
  const double factor = report.calibrator.measure();
  const std::uint64_t t0 = now_ns();
  rig.corpus = make_corpus(seed);
  std::string error;
  if (!rig.sink.start(&error)) {
    report.check("rig starts", false, "sink: " + error);
    return false;
  }
  rig.socket.emplace(rig.sink.port());
  rig.downstream.emplace(*rig.socket, rig.corpus, trace);
  xaon::net::ServerConfig config;
  config.use_case = xaon::aon::UseCase::kForwardRequest;
  config.workers = 1;
  config.downstream = &*rig.downstream;
  rig.server.emplace(config);
  if (!rig.server->start(&error)) {
    report.check("rig starts", false, "server: " + error);
    return false;
  }
  if (!rig.client.connect(rig.server->port(), &error)) {
    report.check("rig starts", false, "client: " + error);
    return false;
  }
  bool ok = true;
  for (std::uint64_t i = 0; i < kWarmupMessages; ++i) {
    ok = is_2xx(rig.exchange()) && ok;
  }
  const std::uint64_t t1 = now_ns();
  report.add_setup(t1 - t0, 0.5 * (factor + report.calibrator.measure()));
  report.check("rig starts", true);
  report.check("warm-up responses 2xx", ok);
  return true;
}

/// Allocations (whole process) over a fixed number of exchanges.
std::uint64_t count_allocs(Rig& rig, bool& ok) {
  const std::uint64_t a0 = alloc_count();
  for (std::uint64_t i = 0; i < kCountMessages; ++i) {
    ok = is_2xx(rig.exchange()) && ok;
  }
  return alloc_count() - a0;
}

/// Stops the rig and checks the transport's books.
const xaon::net::ServerStats& tear_down(Rig& rig, Report& report) {
  rig.client.close();
  const xaon::net::ServerStats& stats = rig.server->stop();
  const TimedDownstream& downstream = *rig.downstream;
  // Acked bytes are in the kernel; give the sink time to drain them.
  for (int i = 0; i < 2000 && rig.sink.bytes_received() < downstream.bytes();
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  rig.sink.stop();
  const xaon::util::NetCounters& net = stats.metrics.net;
  report.check("forwarded body unchanged", downstream.mismatches() == 0,
               std::to_string(downstream.mismatches()) + " mismatches");
  report.check("every message forwarded once", downstream.acked() == rig.sent,
               std::to_string(downstream.acked()) + " of " +
                   std::to_string(rig.sent));
  report.check("sink bytes equal forwarded bytes",
               rig.sink.bytes_received() == downstream.bytes(),
               std::to_string(rig.sink.bytes_received()) + " vs " +
                   std::to_string(downstream.bytes()));
  report.check("accepted == closed",
               net.accepted == net.closed && net.accepted == 1,
               std::to_string(net.accepted) + " accepted, " +
                   std::to_string(net.closed) + " closed");
  report.check("server books",
               stats.messages == rig.sent && stats.failed == 0 &&
                   stats.status.s2xx == stats.messages &&
                   stats.forward_failures == 0 && stats.forward_shed == 0,
               std::to_string(stats.messages) + " messages, " +
                   std::to_string(stats.failed) + " failed, " +
                   std::to_string(stats.forward_shed) + " shed");
  return stats;
}

}  // namespace

Report run_fr_net(const Options& options) {
  Report report;
  SpanLog& spans = report.spans;
  const std::uint32_t msg_name = spans.name("net.msg");
  const std::uint32_t send_name = spans.name("net.client_send");
  const std::uint32_t wait_name = spans.name("net.client_wait");
  const std::uint32_t forward_name = spans.name("net.forward");
  const std::uint32_t process_name = spans.name("aon.process");
  const std::uint32_t http_name = spans.name("http.parse");
  // Replay of the gateway's own layers for the decomposition.
  const Pipeline replay_pipeline(xaon::aon::UseCase::kForwardRequest);
  Pipeline::ProcessScratch replay_scratch;
  xaon::http::RequestParser replay_parser;

  const auto segment_ns =
      static_cast<std::uint64_t>(options.seconds * 1e9 / kSegments);
  const std::uint64_t slice_ns = std::min(kSliceNs, segment_ns / 2);
  std::uint64_t slice = 0;
  std::uint64_t id = 0;
  std::uint64_t server_messages = 0;
  double busy_s = 0;
  xaon::util::NetCounters net;
  std::uint64_t allocs = 0;
  std::uint64_t arena_bytes = 0;

  for (std::uint32_t segment = 0; segment < kSegments; ++segment) {
    Rig rig;
    if (!set_up(rig, options.seed, options.trace, report)) break;
    // (sequence number in the segment, client_wait span) per traced message
    std::vector<std::pair<std::uint64_t, std::uint32_t>> traced_waits;
    std::uint64_t timed = 0;
    while (timed < segment_ns) {
      const bool traced = options.trace && slice++ % 2 == 1;
      const std::uint32_t first_span = spans.size();
      const std::uint64_t start = report.window.open(report.calibrator);
      const std::uint64_t end = start + std::min(slice_ns, segment_ns - timed);
      std::uint64_t n = 0;
      std::uint64_t t = start;
      while (t < end) {
        const Message& m = rig.corpus[rig.cursor];
        const std::uint64_t seq = rig.sent;
        const std::uint64_t t0 = now_ns();
        const bool sent = rig.client.send(m.wire);
        const std::uint64_t t1 = now_ns();
        const int status = sent ? rig.client.read_response(rig.response) : -1;
        t = now_ns();
        rig.cursor = rig.cursor + 1 == rig.corpus.size() ? 0 : rig.cursor + 1;
        ++rig.sent;
        ++n;
        if (!is_2xx(status)) ++report.failed;
        if (!traced) {
          report.window.add(t - t0);
          continue;
        }
        const std::uint64_t h0 = now_ns();
        replay_parser.reset();
        replay_parser.feed(m.wire);
        const std::uint64_t h1 = now_ns();
        const Pipeline::Outcome& out =
            replay_pipeline.process_wire(m.wire, replay_scratch);
        const std::uint64_t p1 = now_ns();
        if (!replay_parser.done() || !out.ok) ++report.failed;
        const std::uint32_t root = spans.add(msg_name, kNoParent, id, t0, t);
        spans.add(send_name, root, id, t0, t1);
        const std::uint32_t wait = spans.add(wait_name, root, id, t1, t);
        const std::uint32_t process = spans.add(process_name, wait, id, h1, p1);
        spans.add(http_name, process, id, h0, h1);
        traced_waits.emplace_back(seq, wait);
        ++id;
        t = now_ns();
      }
      const double factor =
          report.window.close(report.calibrator, t, n, traced ? 1 : 0);
      spans.rescale(first_span, factor);
      report.attempted += n;
      timed += t - start;
    }
    if (segment + 1 == kSegments) {
      bool ok = true;
      allocs = count_allocs(rig, ok);
      report.check("exact counts repeat", count_allocs(rig, ok) == allocs);
      report.check("count-pass responses 2xx", ok);
    }
    const xaon::net::ServerStats& stats = tear_down(rig, report);
    server_messages += stats.messages;
    busy_s += stats.metrics.busy_seconds_total();
    net.merge(stats.metrics.net);
    arena_bytes = static_cast<std::uint64_t>(stats.metrics.arena_allocated.value);
    // Attach each traced message's forward, matched by order.
    const auto& forwards = rig.downstream->spans();
    for (const auto& [seq, wait] : traced_waits) {
      if (seq < forwards.size()) {
        spans.add(forward_name, wait, spans.at(wait).id, forwards[seq].first,
                  forwards[seq].second, spans.at(wait).scale);
      }
    }
    spans.fold();
  }

  auto& layer = report.layer;
  const double messages = static_cast<double>(std::max<std::uint64_t>(server_messages, 1));
  layer["aon.allocs_per_msg"] =
      static_cast<double>(allocs) / static_cast<double>(kCountMessages);
  layer["aon.arena_bytes_per_msg"] = static_cast<double>(arena_bytes);
  layer["net.worker_busy_us_per_msg"] = busy_s * 1e6 / messages;
  layer["net.read_eagain_per_msg"] = static_cast<double>(net.read_eagain) / messages;
  layer["net.short_writes_per_msg"] = static_cast<double>(net.short_writes) / messages;
  layer["net.bytes_out_per_msg"] = static_cast<double>(net.bytes_out) / messages;
  if (options.trace) {
    layer["net.client_send_us"] = spans.totals("net.client_send").mean_us();
    layer["net.client_wait_us"] = spans.totals("net.client_wait").mean_us();
    layer["net.forward_us"] = spans.totals("net.forward").mean_us();
    layer["http.parse_us"] = spans.totals("http.parse").mean_us();
    layer["aon.process_us"] = spans.totals("aon.process").mean_us();
    layer["aon.self_us"] = spans.totals("aon.process").self_mean_us();
    report.window.report_trace(layer);
  }
  return report;
}

}  // namespace perfbench
