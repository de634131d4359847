// Differential proof of the caching subsystem (labels: cache, tsan):
// the cached pipeline must be bit-identical to the cache-disabled
// pipeline over a corpus of well-formed, value-mutated, structurally
// mutated and chaos-mutated wires — same verdicts, same routes, same
// forwarded bytes, same status buckets — at 1 and 4 workers, same
// seed. A cache that changes any observable answer is a routing bug,
// not a performance feature; this tier is the gate that proves it
// cannot.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "xaon/aon/messages.hpp"
#include "xaon/aon/pipeline.hpp"
#include "xaon/aon/server.hpp"
#include "xaon/http/parser.hpp"
#include "xaon/util/fault.hpp"
#include "xaon/xml/parser.hpp"
#include "xaon/xsd/loader.hpp"
#include "xaon/xsd/validator.hpp"

namespace xaon::aon {
namespace {

constexpr std::uint64_t kSeed = 0xD1FFC4A5;

std::string deep_nest_wire(std::size_t depth) {
  std::string body;
  body.reserve(depth * 7 + 16);
  for (std::size_t i = 0; i < depth; ++i) body += "<a>";
  body += "x";
  for (std::size_t i = 0; i < depth; ++i) body += "</a>";
  return http::write_request(make_post_request(std::move(body)));
}

/// Replaces the first occurrence of `from` in `body` and re-wraps the
/// result as a POST wire (Content-Length recomputed by the writer).
std::string mutate_body(const std::string& body, std::string_view from,
                        std::string_view to) {
  std::string out = body;
  const std::size_t at = out.find(from);
  EXPECT_NE(at, std::string::npos) << "corpus bug: " << from << " missing";
  if (at != std::string::npos) out.replace(at, from.size(), to);
  return http::write_request(make_post_request(std::move(out)));
}

/// The differential corpus: well-formed orders (repeated shapes, varied
/// values), value-only mutations, structural mutations, and the chaos
/// tier's wire-level mutation classes — truncation, byte corruption,
/// oversized Content-Length, deep nesting, raw garbage. Everything is
/// seeded, so both pipelines see the exact same byte streams.
std::vector<std::string> differential_corpus(std::uint64_t seed) {
  std::vector<std::string> corpus;

  // Well-formed orders: 8 shapes (seed varies filler structure), both
  // routing classes per shape — the same shape with different values is
  // exactly the case the position-replay cache must get right.
  for (std::uint64_t s = 1; s <= 8; ++s) {
    for (std::uint32_t q = 1; q <= 3; ++q) {
      MessageSpec spec;
      spec.seed = s;
      spec.quantity = q;
      corpus.push_back(make_post_wire(spec));
    }
    MessageSpec invalid;
    invalid.seed = s;
    invalid.valid_for_schema = false;  // SV must still reject via cache path
    corpus.push_back(make_post_wire(invalid));
  }

  // Hand-built mutations around the routing element itself.
  const std::string body = make_order_message({});
  // Value-only: same skeleton, different routing verdicts.
  corpus.push_back(mutate_body(body, "<quantity>1<", "<quantity>7<"));
  // Structural: the quantity element disappears / moves / duplicates.
  corpus.push_back(
      mutate_body(body, "<quantity>1</quantity>", ""));  // no hit at all
  corpus.push_back(mutate_body(body, "<quantity>1</quantity>",
                               "<wrap><quantity>1</quantity></wrap>"));
  corpus.push_back(
      mutate_body(body, "<quantity>1</quantity>",
                  "<quantity>2</quantity><quantity>1</quantity>"));
  corpus.push_back(mutate_body(body, "<quantity>1</quantity>",
                               "<quantity></quantity>"));  // empty value
  corpus.push_back(mutate_body(body, "<quantity>1</quantity>",
                               "<quantity> 1 </quantity>"));  // ws value

  // Chaos tier: seeded wire-level mutations (same classes as
  // tests/chaos_test.cpp / bench/chaos_soak.cpp).
  util::FaultRates rates;
  rates.drop = 0.10;
  rates.corrupt = 0.15;
  rates.delay = 0.05;
  rates.reorder = 0.05;
  util::FaultInjector injector(rates, seed);
  for (std::size_t i = 0; i < 96; ++i) {
    const std::string& wire = corpus[i % 32];  // mutate the order wires
    auto& rng = injector.rng();
    switch (injector.next()) {
      case util::FaultKind::kNone:
        corpus.push_back(wire);
        break;
      case util::FaultKind::kDrop:
        corpus.push_back(wire.substr(0, rng.next() % wire.size()));
        break;
      case util::FaultKind::kCorrupt: {
        std::string out = wire;
        const std::size_t at = rng.next() % out.size();
        out[at] = static_cast<char>(
            out[at] ^ static_cast<char>(1 + rng.next() % 255));
        corpus.push_back(std::move(out));
        break;
      }
      case util::FaultKind::kDelay: {
        const std::size_t at = wire.find("Content-Length:");
        const std::size_t eol = wire.find("\r\n", at);
        corpus.push_back(wire.substr(0, at) +
                         "Content-Length: 99999999999" + wire.substr(eol));
        break;
      }
      case util::FaultKind::kReorder:
        corpus.push_back(deep_nest_wire(500 + rng.next() % 500));
        break;
    }
  }
  return corpus;
}

/// Runs every wire through one pipeline twice (second pass hits a warm
/// cache) with a caching scratch and a cache-disabled scratch, and
/// requires every observable Outcome field to match exactly.
void expect_pipeline_differential(UseCase use_case) {
  const std::vector<std::string> corpus = differential_corpus(kSeed);
  Pipeline pipeline(use_case);

  Pipeline::ProcessScratch cached;
  Pipeline::ProcessScratch uncached;
  uncached.route_cache.set_capacity(0);

  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const Pipeline::Outcome& a = pipeline.process_wire(corpus[i], cached);
      // `a` lives in `cached` and the next process_wire invalidates it,
      // so compare before running the uncached twin... which is safe
      // because the two scratches own disjoint outcome storage.
      const Pipeline::Outcome& b =
          pipeline.process_wire(corpus[i], uncached);
      ASSERT_EQ(a.ok, b.ok) << "wire " << i << " pass " << pass;
      ASSERT_EQ(a.routed_primary, b.routed_primary)
          << "wire " << i << " pass " << pass;
      ASSERT_EQ(a.forwarded_to, b.forwarded_to)
          << "wire " << i << " pass " << pass;
      ASSERT_EQ(a.forwarded_wire, b.forwarded_wire)
          << "wire " << i << " pass " << pass;
      ASSERT_EQ(a.response.status, b.response.status)
          << "wire " << i << " pass " << pass;
      ASSERT_EQ(a.detail, b.detail) << "wire " << i << " pass " << pass;
    }
  }

  // The differential actually exercised both paths: the disabled twin
  // never hit, and for CBR the caching twin genuinely served hits
  // (pass 2 replays every shape).
  EXPECT_EQ(uncached.route_cache.stats().hits, 0u);
  if (use_case == UseCase::kContentBasedRouting) {
    EXPECT_GT(cached.route_cache.stats().hits, 0u)
        << "cache never engaged — the differential proved nothing";
  }
}

TEST(CacheDifferential, CbrPipelineBitIdenticalAcrossCorpus) {
  expect_pipeline_differential(UseCase::kContentBasedRouting);
}

TEST(CacheDifferential, SvPipelineBitIdenticalAcrossCorpus) {
  expect_pipeline_differential(UseCase::kSchemaValidation);
}

/// Server-level differential: same corpus, same total, cached vs
/// disabled — every aggregate count and status bucket must match.
void expect_server_differential(UseCase use_case, std::size_t workers) {
  const std::vector<std::string> corpus = differential_corpus(kSeed);
  const std::uint64_t total = 4000;

  ServerConfig with_cache;
  with_cache.use_case = use_case;
  with_cache.workers = workers;
  Server cached(with_cache);
  const LoadResult a = cached.run_load(corpus, total);

  ServerConfig no_cache = with_cache;
  no_cache.route_cache_capacity = 0;
  Server uncached(no_cache);
  const LoadResult b = uncached.run_load(corpus, total);

  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.routed_primary, b.routed_primary);
  EXPECT_EQ(a.routed_error, b.routed_error);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.status.s1xx, b.status.s1xx);
  EXPECT_EQ(a.status.s2xx, b.status.s2xx);
  EXPECT_EQ(a.status.s3xx, b.status.s3xx);
  EXPECT_EQ(a.status.s4xx, b.status.s4xx);
  EXPECT_EQ(a.status.s5xx, b.status.s5xx);
  EXPECT_EQ(a.status.other, b.status.other);
  EXPECT_EQ(a.forward_retries, b.forward_retries);
  EXPECT_EQ(a.forward_failures, b.forward_failures);
  EXPECT_EQ(a.forward_shed, b.forward_shed);

  if (use_case == UseCase::kContentBasedRouting) {
    EXPECT_GT(a.metrics.route_cache.hits, 0u);
  }
  EXPECT_EQ(b.metrics.route_cache.hits, 0u);
}

TEST(CacheDifferential, CbrServerOneWorker) {
  expect_server_differential(UseCase::kContentBasedRouting, 1);
}

TEST(CacheDifferential, CbrServerFourWorkers) {
  expect_server_differential(UseCase::kContentBasedRouting, 4);
}

TEST(CacheDifferential, SvServerOneWorker) {
  expect_server_differential(UseCase::kSchemaValidation, 1);
}

TEST(CacheDifferential, SvServerFourWorkers) {
  expect_server_differential(UseCase::kSchemaValidation, 4);
}

// The schema cache differential: a cached schema must validate exactly
// like a freshly loaded one, and repeated loads must share one object.
TEST(CacheDifferential, SchemaCacheMatchesUncachedLoader) {
  const std::string xsd = order_schema_xsd();
  xsd::LoadResult fresh = xsd::load_schema(xsd);
  ASSERT_TRUE(fresh.ok) << fresh.error;
  std::string error;
  std::shared_ptr<const xsd::Schema> shared =
      xsd::load_schema_cached(xsd, &error);
  ASSERT_NE(shared, nullptr) << error;
  // Content-addressed: the second load is the same compiled object.
  EXPECT_EQ(shared.get(), xsd::load_schema_cached(xsd).get());

  xsd::Validator fresh_validator(fresh.schema);
  xsd::Validator cached_validator(*shared);
  for (std::uint64_t s = 1; s <= 8; ++s) {
    for (bool valid : {true, false}) {
      MessageSpec spec;
      spec.seed = s;
      spec.valid_for_schema = valid;
      xml::ParseResult doc = xml::parse(make_order_message(spec));
      ASSERT_TRUE(doc.ok);
      // Locate the order payload inside soap:Body, as the SV pipeline
      // does.
      const xml::Node* payload = doc.document.root();
      ASSERT_NE(payload, nullptr);
      if (payload->local == "Envelope") {
        const xml::Node* body = payload->child_element("Body");
        ASSERT_NE(body, nullptr);
        payload = body->first_child_element();
        ASSERT_NE(payload, nullptr);
      }
      const xsd::ElementDecl* decl_fresh =
          fresh.schema.find_global_element(payload->ns_uri, payload->local);
      const xsd::ElementDecl* decl_cached =
          shared->find_global_element(payload->ns_uri, payload->local);
      ASSERT_NE(decl_fresh, nullptr);
      ASSERT_NE(decl_cached, nullptr);
      const xsd::ValidationResult ra =
          fresh_validator.validate_element(payload, decl_fresh);
      const xsd::ValidationResult rb =
          cached_validator.validate_element(payload, decl_cached);
      EXPECT_EQ(ra.valid(), rb.valid()) << "seed " << s << " valid " << valid;
      EXPECT_EQ(ra.valid(), valid) << "seed " << s;
      EXPECT_EQ(ra.errors.size(), rb.errors.size());
    }
  }
}

TEST(CacheDifferential, SchemaCacheNeverCachesFailures) {
  std::string error;
  EXPECT_EQ(xsd::load_schema_cached("<not-a-schema/>", &error), nullptr);
  EXPECT_FALSE(error.empty());
  // Still a failure on retry (not served from cache as a null entry).
  EXPECT_EQ(xsd::load_schema_cached("<not-a-schema/>"), nullptr);
}

// Hit-rate sanity on the workload the cache is built for: a bounded
// shape working set. Every shape misses once per worker; everything
// after that must hit.
TEST(CacheDifferential, RepeatedShapesHitAboveNinetyPercent) {
  std::vector<std::string> wires;
  for (std::uint64_t s = 1; s <= 8; ++s) {
    MessageSpec spec;
    spec.seed = s;
    spec.quantity = static_cast<std::uint32_t>(s % 2) + 1;
    wires.push_back(make_post_wire(spec));
  }
  ServerConfig config;
  config.use_case = UseCase::kContentBasedRouting;
  config.workers = 2;
  Server server(config);
  const LoadResult load = server.run_load(wires, 4000);
  EXPECT_EQ(load.messages, 4000u);
  EXPECT_GT(load.metrics.route_cache.hit_rate(), 0.9)
      << "hits " << load.metrics.route_cache.hits << " misses "
      << load.metrics.route_cache.misses;
  // Shape working set fits: misses == cold compulsory misses only
  // (8 shapes per worker), no capacity evictions.
  EXPECT_EQ(load.metrics.route_cache.evictions, 0u);
}

// The compiled-plan cache: one expression text, one compilation, every
// pipeline construction after the first is a hit.
TEST(CacheDifferential, XPathPlanCacheServesRepeatCompiles) {
  const util::CacheStats before = xpath::XPath::shared_plan_cache_stats();
  xpath::CompileError error;
  xpath::XPath a = xpath::XPath::compile_cached("//quantity/text()", &error);
  ASSERT_TRUE(a.valid()) << error.message;
  xpath::XPath b = xpath::XPath::compile_cached("//quantity/text()", &error);
  ASSERT_TRUE(b.valid()) << error.message;
  const util::CacheStats after = xpath::XPath::shared_plan_cache_stats();
  EXPECT_GT(after.hits, before.hits);

  // Differential: the cached plan selects exactly what a fresh compile
  // selects.
  xpath::XPath fresh = xpath::XPath::compile("//quantity/text()", &error);
  ASSERT_TRUE(fresh.valid()) << error.message;
  xml::ParseResult doc = xml::parse(make_order_message({}));
  ASSERT_TRUE(doc.ok);
  xpath::EvalScratch scratch_a, scratch_b;
  const xpath::NodeSet& hits_cached =
      a.select(doc.document.root(), scratch_a);
  const xpath::NodeSet& hits_fresh =
      fresh.select(doc.document.root(), scratch_b);
  ASSERT_EQ(hits_cached.size(), hits_fresh.size());
  for (std::size_t i = 0; i < hits_cached.size(); ++i) {
    EXPECT_TRUE(hits_cached[i] == hits_fresh[i]) << "hit " << i;
  }
}

}  // namespace
}  // namespace xaon::aon
