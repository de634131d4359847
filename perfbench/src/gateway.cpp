// cbr-5k and sv-5k: aon::Pipeline::process_wire on one thread, reusing
// one ProcessScratch, over a seeded corpus of 4-6 KB AONBench orders.
// No transport: HTTP parse, XML parse and XPath select (CBR) or schema
// validation (SV) do the work.

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "xaon/aon/messages.hpp"
#include "xaon/aon/pipeline.hpp"
#include "xaon/http/parser.hpp"
#include "xaon/util/rng.hpp"
#include "xaon/util/scan.hpp"
#include "xaon/xml/dom.hpp"
#include "xaon/xml/parser.hpp"
#include "xaon/xpath/value.hpp"
#include "xaon/xpath/xpath.hpp"
#include "xaon/xsd/loader.hpp"
#include "xaon/xsd/validator.hpp"

namespace perfbench {

namespace {

using xaon::aon::Pipeline;
using xaon::aon::UseCase;

/// 64 messages: 59 distinct tag skeletons on the default seed, under the
/// route cache's 128 slots, and a 320 KB working set.
constexpr std::size_t kCorpusSize = 64;
constexpr std::uint32_t kSegments = 10;
/// Warm-up passes over the corpus in each set-up: the first fills the
/// route cache and grows the arena and buffers, the second runs at
/// steady state.
constexpr int kWarmupPasses = 2;

struct Message {
  std::string wire;
  std::string body;
  bool primary = false;  ///< the verdict the message must get
};

/// Seeded AONBench-style SOAP orders of 4-6 KB with 1-8 line items. CBR:
/// exactly half carry quantity 1 on the first item, the primary route.
/// SV: exactly one in four is schema-invalid (every quantity 0).
std::vector<Message> make_corpus(UseCase use_case, std::uint64_t seed) {
  xaon::util::Xoshiro256ss rng(seed);
  std::vector<Message> corpus(kCorpusSize);
  for (std::size_t i = 0; i < kCorpusSize; ++i) {
    xaon::aon::MessageSpec spec;
    spec.target_bytes = 4096 + rng.next_below(2049);
    spec.items = 1 + static_cast<std::uint32_t>(rng.next_below(8));
    spec.seed = rng.next();
    Message& m = corpus[i];
    if (use_case == UseCase::kContentBasedRouting) {
      m.primary = i % 2 == 0;
      spec.quantity =
          m.primary ? 1 : 2 + static_cast<std::uint32_t>(rng.next_below(8));
    } else {
      spec.valid_for_schema = i % 4 != 3;
      spec.quantity = 1 + static_cast<std::uint32_t>(rng.next_below(9));
      m.primary = spec.valid_for_schema;
    }
    m.body = xaon::aon::make_order_message(spec);
    m.wire = xaon::http::write_request(xaon::aon::make_post_request(m.body));
  }
  for (std::size_t i = kCorpusSize - 1; i > 0; --i) {
    std::swap(corpus[i], corpus[rng.next_below(i + 1)]);
  }
  return corpus;
}

/// The verdict matches the message, the reply is 200, and the forwarded
/// wire ends with the original body, byte for byte.
bool correct(const Pipeline::Outcome& out, const Message& m) {
  if (!out.ok || out.response.status != 200 ||
      out.routed_primary != m.primary) {
    return false;
  }
  return carries_body(out.forwarded_wire, m.body);
}

/// Exact counts over one pass of the corpus at steady state.
struct Counts {
  std::uint64_t allocs = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t elements = 0;
  std::uint64_t scan_calls = 0;
  std::uint64_t scan_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_lookups = 0;
  bool correct = true;

  bool operator==(const Counts&) const = default;
};

Counts count_pass(const Pipeline& pipeline, Pipeline::ProcessScratch& scratch,
                  const std::vector<Message>& corpus) {
  Counts c;
  const xaon::util::CacheStats cache0 = scratch.route_cache.stats();
  const xaon::util::scan::Counters scan0 = xaon::util::scan::thread_counters();
  const std::uint64_t allocs0 = alloc_count();
  for (const Message& m : corpus) {
    const Pipeline::Outcome& out = pipeline.process_wire(m.wire, scratch);
    c.arena_bytes += scratch.arena.bytes_allocated();
    c.elements += xaon::xml::count_elements(scratch.parsed.document.root());
    c.correct = correct(out, m) && c.correct;
  }
  c.allocs = alloc_count() - allocs0;
  const xaon::util::scan::Counters scan1 = xaon::util::scan::thread_counters();
  c.scan_calls = scan1.calls - scan0.calls;
  c.scan_bytes = scan1.bytes - scan0.bytes;
  const xaon::util::CacheStats cache1 = scratch.route_cache.stats();
  c.cache_hits = cache1.hits - cache0.hits;
  c.cache_lookups = cache1.lookups() - cache0.lookups();
  return c;
}

/// The traced run's decomposition: each message is replayed through the
/// layer calls process_wire makes, each call timed as its own span.
class Replay {
 public:
  Replay(UseCase use_case, SpanLog& spans)
      : use_case_(use_case),
        spans_(spans),
        xpath_(xaon::xpath::XPath::compile_cached("//quantity/text()")),
        schema_(xaon::xsd::load_schema_cached(xaon::aon::order_schema_xsd())),
        validator_(*schema_),
        msg_(spans.name("gateway.msg")),
        process_(spans.name("aon.process")),
        http_(spans.name("http.parse")),
        xml_(spans.name("xml.parse")),
        select_(spans.name(use_case == UseCase::kContentBasedRouting
                               ? "xpath.select"
                               : "xsd.validate")) {}

  /// Runs `m` through the pipeline and the replay; false on any wrong
  /// verdict (the real one or the replayed one).
  bool message(const Pipeline& pipeline, Pipeline::ProcessScratch& scratch,
               const Message& m, std::uint64_t id) {
    const std::uint64_t hits0 = scratch.route_cache.stats().hits;
    const std::uint64_t p0 = now_ns();
    const Pipeline::Outcome& out = pipeline.process_wire(m.wire, scratch);
    const std::uint64_t p1 = now_ns();
    const bool cache_hit = scratch.route_cache.stats().hits != hits0;
    bool ok = correct(out, m);

    const std::uint64_t h0 = now_ns();
    http_parser_.reset();
    http_parser_.feed(m.wire);
    const std::uint64_t h1 = now_ns();
    ok = ok && http_parser_.done();
    const std::string& body = http_parser_.request().body;

    arena_.reset();
    const std::uint64_t x0 = now_ns();
    parsed_ = dom_parser_.parse(body, arena_);
    const std::uint64_t x1 = now_ns();
    const xaon::xml::Node* root = parsed_.document.root();
    ok = ok && parsed_.ok && root != nullptr;
    if (!ok) return false;
    elements_ += xaon::xml::count_elements(root);

    bool primary = false;
    std::uint64_t s0 = 0;
    std::uint64_t s1 = 0;
    if (use_case_ == UseCase::kContentBasedRouting) {
      s0 = now_ns();
      const xaon::xpath::NodeSet& hits = xpath_.select(root, eval_);
      s1 = now_ns();
      primary = !hits.empty() && xaon::xpath::string_value(hits.front()) == "1";
    } else {
      // Payload lookup as the pipeline does it: the first element of the
      // SOAP Body. Lookup is routing glue, outside the validate span.
      const xaon::xml::Node* payload = root;
      if (const xaon::xml::Node* soap_body = root->child_element("Body")) {
        payload = soap_body->first_child_element();
      }
      const xaon::xsd::ElementDecl* decl =
          payload == nullptr ? nullptr
                             : schema_->find_global_element(payload->ns_uri,
                                                            payload->local);
      if (decl == nullptr) return false;
      s0 = now_ns();
      primary = validator_.validate_element_reuse(payload, decl).valid();
      s1 = now_ns();
    }
    const std::uint64_t end = now_ns();

    const std::uint32_t msg = spans_.add(msg_, kNoParent, id, p0, end);
    const std::uint32_t process = spans_.add(process_, msg, id, p0, p1);
    spans_.add(http_, process, id, h0, h1);
    spans_.add(xml_, process, id, x0, x1);
    // A route-cache hit skips the XPath evaluation inside process_wire,
    // so the replayed evaluation is not part of that call's time.
    spans_.add(select_, cache_hit ? msg : process, id, s0, s1);
    return primary == m.primary;
  }

  std::uint64_t elements() const { return elements_; }

 private:
  UseCase use_case_;
  SpanLog& spans_;
  xaon::http::RequestParser http_parser_;
  xaon::xml::DomParser dom_parser_;
  xaon::util::Arena arena_{64 * 1024};
  xaon::xml::ParseResult parsed_;
  xaon::xpath::XPath xpath_;
  xaon::xpath::EvalScratch eval_;
  std::shared_ptr<const xaon::xsd::Schema> schema_;
  xaon::xsd::Validator validator_;
  std::uint32_t msg_, process_, http_, xml_, select_;
  std::uint64_t elements_ = 0;
};

/// One segment's gateway: the corpus, the pipeline and its scratch.
struct Gateway {
  std::vector<Message> corpus;
  std::optional<Pipeline> pipeline;
  std::unique_ptr<Pipeline::ProcessScratch> scratch;
};

/// Set-up: corpus generation, Pipeline construction (XPath or schema
/// compilation; later set-ups in the process reuse the shared plan and
/// schema caches) and warm-up to steady state.
void set_up(Gateway& g, UseCase use_case, std::uint64_t seed, Report& report) {
  g.corpus = make_corpus(use_case, seed);
  g.pipeline.emplace(use_case);
  g.scratch = std::make_unique<Pipeline::ProcessScratch>();
  bool ok = true;
  for (int pass = 0; pass < kWarmupPasses; ++pass) {
    for (const Message& m : g.corpus) {
      ok = correct(g.pipeline->process_wire(m.wire, *g.scratch), m) && ok;
    }
  }
  report.check("warm-up verdicts", ok);
}

}  // namespace

Report run_gateway(const Options& options) {
  const UseCase use_case = options.workload == "cbr-5k"
                               ? UseCase::kContentBasedRouting
                               : UseCase::kSchemaValidation;
  Report report;
  std::optional<Replay> replay;
  if (options.trace) replay.emplace(use_case, report.spans);
  const auto segment_ns =
      static_cast<std::uint64_t>(options.seconds * 1e9 / kSegments);
  const std::uint64_t slice_ns = std::min(kSliceNs, segment_ns / 2);
  std::uint64_t slice = 0;
  std::uint64_t id = 0;

  Gateway g;
  for (std::uint32_t segment = 0; segment < kSegments; ++segment) {
    const double factor = report.calibrator.measure();
    const std::uint64_t t0 = now_ns();
    g = Gateway{};
    set_up(g, use_case, options.seed, report);
    const std::uint64_t t1 = now_ns();
    report.add_setup(t1 - t0, 0.5 * (factor + report.calibrator.measure()));

    const Pipeline& pipeline = *g.pipeline;
    Pipeline::ProcessScratch& scratch = *g.scratch;
    std::size_t cursor = 0;
    std::uint64_t timed = 0;
    while (timed < segment_ns) {
      const bool traced = replay && slice++ % 2 == 1;
      const std::uint32_t first_span = report.spans.size();
      const std::uint64_t start = report.window.open(report.calibrator);
      const std::uint64_t end = start + std::min(slice_ns, segment_ns - timed);
      std::uint64_t n = 0;
      std::uint64_t t = start;
      while (t < end) {
        const Message& m = g.corpus[cursor];
        cursor = cursor + 1 == g.corpus.size() ? 0 : cursor + 1;
        bool ok = false;
        if (traced) {
          ok = replay->message(pipeline, scratch, m, id++);
          t = now_ns();
        } else {
          const std::uint64_t m0 = now_ns();
          const Pipeline::Outcome& out = pipeline.process_wire(m.wire, scratch);
          t = now_ns();
          report.window.add(t - m0);
          ok = correct(out, m);
        }
        ++n;
        if (!ok) ++report.failed;
      }
      const double factor =
          report.window.close(report.calibrator, t, n, traced ? 1 : 0);
      report.spans.rescale(first_span, factor);
      report.attempted += n;
      timed += t - start;
    }
    report.spans.fold();
  }

  // Exact-count companions, twice at steady state: they must repeat.
  const Counts counts = count_pass(*g.pipeline, *g.scratch, g.corpus);
  const Counts again = count_pass(*g.pipeline, *g.scratch, g.corpus);
  report.check("count-pass verdicts", counts.correct && again.correct);
  report.check("exact counts repeat", counts == again);
  const auto per_msg = [](std::uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(kCorpusSize);
  };
  auto& layer = report.layer;
  layer["xml.elements_per_msg"] = per_msg(counts.elements);
  layer["scan.calls_per_msg"] = per_msg(counts.scan_calls);
  layer["scan.bytes_per_call"] =
      counts.scan_calls == 0 ? 0
                             : static_cast<double>(counts.scan_bytes) /
                                   static_cast<double>(counts.scan_calls);
  layer["aon.allocs_per_msg"] = per_msg(counts.allocs);
  layer["aon.arena_bytes_per_msg"] = per_msg(counts.arena_bytes);
  layer["aon.route_cache_hit_rate"] =
      counts.cache_lookups == 0 ? 0
                                : static_cast<double>(counts.cache_hits) /
                                      static_cast<double>(counts.cache_lookups);

  if (options.trace) {
    const SpanLog& spans = report.spans;
    layer["http.parse_us"] = spans.totals("http.parse").mean_us();
    layer["xml.parse_us"] = spans.totals("xml.parse").mean_us();
    layer["xml.ns_per_element"] =
        replay->elements() == 0
            ? 0
            : spans.totals("xml.parse").total_ns /
                  static_cast<double>(replay->elements());
    layer["xpath.select_us"] = spans.totals("xpath.select").mean_us();
    layer["xsd.validate_us"] = spans.totals("xsd.validate").mean_us();
    layer["aon.process_us"] = spans.totals("aon.process").mean_us();
    layer["aon.self_us"] = spans.totals("aon.process").self_mean_us();
    report.window.report_trace(layer);
  }
  return report;
}

}  // namespace perfbench
