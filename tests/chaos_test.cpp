// Chaos harness: replays seeded fault schedules — mutated messages
// (truncated / corrupted / oversized / deeply-nested / garbage), faulty
// downstreams and faulty links — across FR/CBR/SV and asserts the
// failure-model invariants:
//
//   * every message gets exactly one response
//     (status.s2xx + status.s4xx + status.s5xx == messages),
//   * no crash (and no leak under the sanitize preset),
//   * same seed => bit-identical outcome counts, regardless of worker
//     interleaving (downstream verdicts are pure functions of the wire
//     bytes),
//   * the non-fault path stays allocation-free at steady state even
//     after hostile messages have been through the same scratch.

#define XAON_ALLOC_COUNT_INTERPOSE
#include "../bench/alloc_counter.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "xaon/aon/messages.hpp"
#include "xaon/aon/server.hpp"
#include "xaon/netsim/link.hpp"
#include "xaon/netsim/netperf.hpp"
#include "xaon/util/fault.hpp"

namespace xaon::aon {
namespace {

// --- seeded message mutations ------------------------------------------

enum class Mutation : std::uint8_t {
  kNone = 0,
  kTruncate,
  kCorruptByte,
  kOversizeLength,
  kDeepNest,
  kGarbage,
  kCount,
};

std::string deep_nest_wire(std::size_t depth) {
  std::string body;
  body.reserve(depth * 7 + 16);
  for (std::size_t i = 0; i < depth; ++i) body += "<a>";
  body += "x";
  for (std::size_t i = 0; i < depth; ++i) body += "</a>";
  return http::write_request(make_post_request(std::move(body)));
}

std::string mutate(const std::string& wire, Mutation mutation,
                   util::Xoshiro256ss& rng) {
  switch (mutation) {
    case Mutation::kNone:
    case Mutation::kCount:
      return wire;
    case Mutation::kTruncate: {
      // Cut anywhere, including mid-headers.
      const std::size_t keep = rng.next() % wire.size();
      return wire.substr(0, keep);
    }
    case Mutation::kCorruptByte: {
      std::string out = wire;
      const std::size_t at = rng.next() % out.size();
      out[at] = static_cast<char>(out[at] ^
                                  static_cast<char>(1 + rng.next() % 255));
      return out;
    }
    case Mutation::kOversizeLength: {
      // Claim a body far beyond the parser's 16 MiB cap.
      const std::size_t at = wire.find("Content-Length:");
      if (at == std::string::npos) return wire;
      const std::size_t eol = wire.find("\r\n", at);
      return wire.substr(0, at) + "Content-Length: 99999999999" +
             wire.substr(eol);
    }
    case Mutation::kDeepNest:
      return deep_nest_wire(2'000 + rng.next() % 1'000);
    case Mutation::kGarbage: {
      std::string out(64 + rng.next() % 512, '\0');
      for (char& c : out) c = static_cast<char>(rng.next() & 0xFF);
      return out;
    }
  }
  return wire;
}

/// Builds the seeded chaos corpus: clean AONBench wires interleaved with
/// every mutation class, all decisions drawn from one injector stream.
std::vector<std::string> chaos_corpus(std::uint64_t seed,
                                      std::size_t count) {
  util::FaultRates rates;
  rates.drop = 0.05;     // -> truncate
  rates.corrupt = 0.10;  // -> corrupt byte / garbage
  rates.delay = 0.05;    // -> oversize length
  rates.reorder = 0.05;  // -> deep nesting
  util::FaultInjector injector(rates, seed);

  std::vector<std::string> base;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    MessageSpec spec;
    spec.seed = s;
    spec.quantity = static_cast<std::uint32_t>(s % 2) + 1;
    base.push_back(make_post_wire(spec));
  }

  std::vector<std::string> corpus;
  corpus.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::string& wire = base[i % base.size()];
    Mutation mutation = Mutation::kNone;
    switch (injector.next()) {
      case util::FaultKind::kNone: break;
      case util::FaultKind::kDrop: mutation = Mutation::kTruncate; break;
      case util::FaultKind::kCorrupt:
        mutation = (injector.rng().next() & 1) ? Mutation::kCorruptByte
                                               : Mutation::kGarbage;
        break;
      case util::FaultKind::kDelay:
        mutation = Mutation::kOversizeLength;
        break;
      case util::FaultKind::kReorder: mutation = Mutation::kDeepNest; break;
    }
    corpus.push_back(mutate(wire, mutation, injector.rng()));
  }
  return corpus;
}

// --- faulty downstream ---------------------------------------------------

/// Verdict is a pure function of the wire bytes (plus the seed), so the
/// outcome of every message is independent of which worker handles it or
/// in what order — the requirement for bit-identical chaos runs on a
/// multi-threaded server.
class HashVerdictDownstream : public Downstream {
 public:
  explicit HashVerdictDownstream(std::uint64_t seed) : seed_(seed) {}

  SendStatus send(std::string_view wire) override {
    std::uint64_t h = 1469598103934665603ull ^ seed_;
    for (char c : wire) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    const std::uint64_t roll = h % 100;
    if (roll < 5) return SendStatus::kBusy;
    if (roll < 10) return SendStatus::kFail;
    return SendStatus::kAck;
  }

 private:
  std::uint64_t seed_;
};

// --- the harness ---------------------------------------------------------

constexpr std::uint64_t kChaosSeed = 0xC4A05;
constexpr std::uint64_t kMessagesPerCase = 10'000;

LoadResult run_chaos(UseCase use_case, std::uint64_t seed,
                     std::size_t workers = 4) {
  const std::vector<std::string> corpus = chaos_corpus(seed, 256);
  HashVerdictDownstream downstream(seed);
  ServerConfig config;
  config.use_case = use_case;
  config.workers = workers;
  config.queue_capacity = 64;  // keep backpressure in play
  config.downstream = &downstream;
  config.forward.max_attempts = 2;
  config.forward.backoff_pauses = 1;
  Server server(config);
  return server.run_load(corpus, kMessagesPerCase);
}

struct Counts {
  std::uint64_t messages, primary, error, failed;
  std::uint64_t s2, s4, s5, retries, fwd_fail, shed;
  bool operator==(const Counts&) const = default;
};

Counts counts_of(const LoadResult& r) {
  return Counts{r.messages,     r.routed_primary,   r.routed_error,
                r.failed,       r.status.s2xx,       r.status.s4xx,
                r.status.s5xx,   r.forward_retries,  r.forward_failures,
                r.forward_shed};
}

class ChaosTest : public ::testing::TestWithParam<UseCase> {};

TEST_P(ChaosTest, EveryMessageGetsExactlyOneResponse) {
  const LoadResult r = run_chaos(GetParam(), kChaosSeed);
  EXPECT_EQ(r.messages, kMessagesPerCase);
  EXPECT_EQ(r.status.s2xx + r.status.s4xx + r.status.s5xx, r.messages);
  // The corpus contains faults, and they were classified, not crashed on.
  EXPECT_GT(r.failed, 0u);
  EXPECT_GT(r.status.s5xx, 0u);  // the downstream misbehaved too
  EXPECT_GT(r.status.s2xx, 0u);  // and clean traffic still flowed
}

TEST_P(ChaosTest, SameSeedBitIdenticalOutcomeCounts) {
  const Counts first = counts_of(run_chaos(GetParam(), kChaosSeed));
  const Counts again = counts_of(run_chaos(GetParam(), kChaosSeed));
  EXPECT_EQ(first, again);
  // Worker count must not change outcomes either — verdicts are
  // per-message, not per-thread.
  const Counts serial =
      counts_of(run_chaos(GetParam(), kChaosSeed, /*workers=*/1));
  EXPECT_EQ(first, serial);
}

INSTANTIATE_TEST_SUITE_P(UseCases, ChaosTest,
                         ::testing::Values(UseCase::kForwardRequest,
                                           UseCase::kContentBasedRouting,
                                           UseCase::kSchemaValidation),
                         [](const auto& info) {
                           return std::string(use_case_notation(info.param));
                         });

TEST(Chaos, DifferentSeedsProduceDifferentSchedules) {
  EXPECT_NE(chaos_corpus(1, 256), chaos_corpus(2, 256));
}

TEST(Chaos, LinkFaultScheduleReplaysBitIdentically) {
  auto run_once = [] {
    netsim::LinkConfig cfg = netsim::Link::gigabit_ethernet();
    cfg.faults.drop = 0.02;
    cfg.faults.corrupt = 0.02;
    cfg.faults.delay = 0.05;
    cfg.faults.reorder = 0.02;
    cfg.loss_seed = kChaosSeed;
    return netsim::run_tcp_stream(cfg, netsim::TcpConfig{},
                                  4 * 1024 * 1024);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.bytes_delivered, 4u * 1024u * 1024u);
  EXPECT_DOUBLE_EQ(a.goodput_mbps, b.goodput_mbps);
}

TEST(Chaos, NonFaultPathStaysAllocationFreeAfterFaults) {
  // Hostile messages may allocate (error strings, oversized buffers);
  // the invariant is that afterwards the same scratch still processes
  // clean traffic without touching the heap.
  const std::vector<std::string> corpus = chaos_corpus(kChaosSeed, 256);
  std::vector<std::string> clean;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    MessageSpec spec;
    spec.seed = s;
    clean.push_back(make_post_wire(spec));
  }
  Pipeline pipeline(UseCase::kForwardRequest);
  Pipeline::ProcessScratch scratch;
  for (int rep = 0; rep < 2; ++rep) {
    for (const std::string& wire : corpus) {
      (void)pipeline.process_wire(wire, scratch);
    }
    for (const std::string& wire : clean) {
      const Pipeline::Outcome& out = pipeline.process_wire(wire, scratch);
      EXPECT_TRUE(out.ok) << out.detail;
    }
  }
  bench::reset_alloc_counter();
  for (int rep = 0; rep < 4; ++rep) {
    for (const std::string& wire : clean) {
      (void)pipeline.process_wire(wire, scratch);
    }
  }
  EXPECT_EQ(bench::alloc_count(), 0u);
}

}  // namespace
}  // namespace xaon::aon
