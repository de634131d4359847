// Chaos soak: long-running seeded fault replay through the host-mode
// server — mutated messages plus a misbehaving downstream — reporting
// outcome counts per use case in the same JSON-line format as
// host_throughput. Exits nonzero if the exactly-one-response invariant
// is violated, so it doubles as a soak check in scripts.

#include "bench_common.hpp"

#include <string>
#include <vector>

#include "xaon/aon/messages.hpp"
#include "xaon/aon/server.hpp"
#include "xaon/util/fault.hpp"

using namespace xaon;

namespace {

std::string deep_nest_wire(std::size_t depth) {
  std::string body;
  body.reserve(depth * 7 + 16);
  for (std::size_t i = 0; i < depth; ++i) body += "<a>";
  body += "x";
  for (std::size_t i = 0; i < depth; ++i) body += "</a>";
  return http::write_request(aon::make_post_request(std::move(body)));
}

/// Seeded corpus with the chaos test's mutation classes: truncation,
/// byte corruption, oversized Content-Length, deep nesting, garbage.
std::vector<std::string> chaos_corpus(std::uint64_t seed,
                                      std::size_t count) {
  util::FaultRates rates;
  rates.drop = 0.05;
  rates.corrupt = 0.10;
  rates.delay = 0.05;
  rates.reorder = 0.05;
  util::FaultInjector injector(rates, seed);

  std::vector<std::string> base;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    aon::MessageSpec spec;
    spec.seed = s;
    spec.quantity = static_cast<std::uint32_t>(s % 2) + 1;
    base.push_back(aon::make_post_wire(spec));
  }

  std::vector<std::string> corpus;
  corpus.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& wire = base[i % base.size()];
    auto& rng = injector.rng();
    switch (injector.next()) {
      case util::FaultKind::kNone:
        corpus.push_back(wire);
        break;
      case util::FaultKind::kDrop:
        corpus.push_back(wire.substr(0, rng.next() % wire.size()));
        break;
      case util::FaultKind::kCorrupt:
        if (rng.next() & 1) {
          std::string out = wire;
          const std::size_t at = rng.next() % out.size();
          out[at] = static_cast<char>(
              out[at] ^ static_cast<char>(1 + rng.next() % 255));
          corpus.push_back(std::move(out));
        } else {
          std::string out(64 + rng.next() % 512, '\0');
          for (char& c : out) c = static_cast<char>(rng.next() & 0xFF);
          corpus.push_back(std::move(out));
        }
        break;
      case util::FaultKind::kDelay: {
        const std::size_t at = wire.find("Content-Length:");
        const std::size_t eol = wire.find("\r\n", at);
        corpus.push_back(wire.substr(0, at) +
                         "Content-Length: 99999999999" + wire.substr(eol));
        break;
      }
      case util::FaultKind::kReorder:
        corpus.push_back(deep_nest_wire(2'000 + rng.next() % 1'000));
        break;
    }
  }
  return corpus;
}

class HashVerdictDownstream : public aon::Downstream {
 public:
  explicit HashVerdictDownstream(std::uint64_t seed) : seed_(seed) {}

  aon::SendStatus send(std::string_view wire) override {
    std::uint64_t h = 1469598103934665603ull ^ seed_;
    for (char c : wire) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    const std::uint64_t roll = h % 100;
    if (roll < 5) return aon::SendStatus::kBusy;
    if (roll < 10) return aon::SendStatus::kFail;
    return aon::SendStatus::kAck;
  }

 private:
  std::uint64_t seed_;
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const std::uint64_t messages = static_cast<std::uint64_t>(
      flags.i64("messages", 50000, "messages per use case"));
  const std::size_t workers = static_cast<std::size_t>(
      flags.i64("workers", 4, "worker threads"));
  const std::uint64_t seed = static_cast<std::uint64_t>(
      flags.i64("seed", 0xC4A05, "fault schedule seed"));
  const std::size_t route_cache = static_cast<std::size_t>(flags.i64(
      "route_cache", static_cast<std::int64_t>(aon::kDefaultRouteCacheCapacity),
      "per-worker CBR routing-cache capacity (0 disables)"));
  if (bench::handle_help(flags)) return 0;

  const std::vector<std::string> corpus = chaos_corpus(seed, 256);

  const aon::UseCase cases[] = {aon::UseCase::kForwardRequest,
                                aon::UseCase::kContentBasedRouting,
                                aon::UseCase::kSchemaValidation};

  util::TextTable table("Chaos soak (seeded fault replay)");
  table.set_header({"Use case", "msgs/s", "2xx", "4xx", "5xx", "retries"});
  table.set_tsv(true);

  bool invariant_ok = true;
  for (aon::UseCase use_case : cases) {
    const std::string name(aon::use_case_notation(use_case));

    HashVerdictDownstream downstream(seed);
    aon::ServerConfig config;
    config.use_case = use_case;
    config.workers = workers;
    config.queue_capacity = 64;
    config.downstream = &downstream;
    config.forward.max_attempts = 2;
    config.forward.backoff_pauses = 1;
    config.route_cache_capacity = route_cache;
    aon::Server server(config);
    const aon::LoadResult load = server.run_load(corpus, messages);

    const bool one_response_each =
        load.messages == messages &&
        load.status.s2xx + load.status.s4xx + load.status.s5xx ==
            load.messages;
    invariant_ok = invariant_ok && one_response_each;

    table.add_row({name, util::format("%.0f", load.messages_per_second()),
                   util::format("%llu", static_cast<unsigned long long>(
                                            load.status.s2xx)),
                   util::format("%llu", static_cast<unsigned long long>(
                                            load.status.s4xx)),
                   util::format("%llu", static_cast<unsigned long long>(
                                            load.status.s5xx)),
                   util::format("%llu", static_cast<unsigned long long>(
                                            load.forward_retries))});
    std::printf(
        "{\"bench\": \"chaos_soak\", \"use_case\": \"%s\", "
        "\"workers\": %zu, \"seed\": %llu, \"messages\": %llu, "
        "\"seconds\": %.4f, \"wall_seconds\": %.4f, "
        "\"msgs_per_sec\": %.1f, "
        "\"status_2xx\": %llu, \"status_4xx\": %llu, "
        "\"status_5xx\": %llu, \"forward_retries\": %llu, "
        "\"forward_shed\": %llu, \"forward_failures\": %llu, "
        "\"failed\": %llu, \"invariant_ok\": %s, "
        "\"cache_hit_rate\": %.4f, \"metrics\": %s}\n",
        name.c_str(), workers, static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(load.messages), load.seconds,
        load.wall_seconds, load.messages_per_second(),
        static_cast<unsigned long long>(load.status.s2xx),
        static_cast<unsigned long long>(load.status.s4xx),
        static_cast<unsigned long long>(load.status.s5xx),
        static_cast<unsigned long long>(load.forward_retries),
        static_cast<unsigned long long>(load.forward_shed),
        static_cast<unsigned long long>(load.forward_failures),
        static_cast<unsigned long long>(load.failed),
        one_response_each ? "true" : "false",
        load.metrics.route_cache.hit_rate(),
        load.metrics.to_json().c_str());
  }

  table.print();
  return invariant_ok ? 0 : 1;
}
