#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <memory>

#include "xaon/http/message.hpp"
#include "xaon/http/parser.hpp"
#include "xaon/util/annotations.hpp"
#include "xaon/util/arena.hpp"
#include "xaon/util/cache.hpp"
#include "xaon/util/metrics.hpp"
#include "xaon/xml/parser.hpp"
#include "xaon/xpath/xpath.hpp"
#include "xaon/xsd/validator.hpp"

/// \file pipeline.hpp
/// The three AON use cases of the paper (§3.2.1):
///
///  * **FR** — HTTP Forward Request: proxy the POST to the default
///    endpoint untouched. Pure network I/O; the throughput baseline.
///  * **CBR** — Content Based Routing: parse the XML, evaluate
///    `//quantity/text()`; route to the primary endpoint when it equals
///    "1", else to the error endpoint.
///  * **SV** — Schema Validation: validate the order payload inside the
///    SOAP Body against the order schema; route valid messages to the
///    primary endpoint, invalid ones to the error endpoint.

namespace xaon::aon {

enum class UseCase : std::uint8_t {
  kForwardRequest,
  kContentBasedRouting,
  kSchemaValidation,
  // Extensions implementing the paper's stated future work ("deep
  // packet inspection ... and crypto functions", §6):
  kDeepInspection,   ///< DPI: payload scanned against attack signatures
  kMessageSecurity,  ///< SEC: HMAC-SHA1 message signing / verification
};

/// Paper notation: FR / CBR / SV (extensions: DPI / SEC).
std::string_view use_case_notation(UseCase use_case);

/// The built-in DPI signature patterns (unanchored regexes over the
/// payload bytes — injection attempts, script smuggling, entity bombs).
const std::vector<std::string>& default_dpi_signatures();

/// Header carrying the HMAC-SHA1 signature in the SEC use case.
inline constexpr const char* kSignatureHeader = "X-AON-Signature";

struct Endpoints {
  std::string primary = "http://backend.example:8080/orders";
  std::string error = "http://backend.example:8080/errors";
};

/// One cached CBR routing plan: where a *structural* XPath's first hit
/// sits in any document sharing the keying tag-skeleton fingerprint.
/// The plan records tree **positions**, never values — on a cache hit
/// the pipeline re-reads the value at the recorded position from the
/// current message, so value-varying messages with a repeated shape
/// still route on their own content.
struct RoutePlan {
  enum class Kind : std::uint8_t {
    kNoHit,     ///< the expression selected nothing: route decided empty
    kNode,      ///< first hit is a text-like node at `path`
    kAttr,      ///< first hit is attribute #`attr_ordinal` of node at `path`
    kUncached,  ///< shape seen, but not plan-cacheable: run full eval
  };
  Kind kind = Kind::kNoHit;
  std::vector<std::uint32_t> path;  ///< child indices, root -> hit node
  std::uint32_t attr_ordinal = 0;   ///< 1-based, for kAttr
};

/// Per-worker structural routing cache: tag-skeleton fingerprint ->
/// RoutePlan, bounded LRU. Lives in ProcessScratch (single-owner, no
/// shared mutable state on the message path); hits are allocation-free.
using RouteCache = util::LruCache<std::uint64_t, RoutePlan>;

/// Default per-worker routing-cache capacity. Sized to hold the shape
/// working set of a mixed AONBench workload (distinct message *shapes*,
/// not messages) with room to spare; ~60 bytes/slot.
inline constexpr std::size_t kDefaultRouteCacheCapacity = 128;

/// One message-processing engine. Construction compiles the XPath /
/// loads the schema; `process*` is const and thread-compatible, so the
/// host-mode server shares one Pipeline across workers.
class Pipeline {
 public:
  struct Outcome {
    bool ok = false;             ///< message handled (even if routed to error)
    bool routed_primary = false; ///< primary vs error endpoint
    std::string forwarded_to;    ///< endpoint URL chosen
    std::string forwarded_wire;  ///< serialized outbound request
    http::Response response;     ///< reply to the original client
    std::string detail;          ///< routing/validation diagnostics

    /// Restores the default-constructed state, retaining string/header
    /// capacity for the next message.
    void reset();
  };

  explicit Pipeline(UseCase use_case, Endpoints endpoints = {});

  UseCase use_case() const { return use_case_; }

  /// Per-message processing state: parser buffers, DOM arena, XPath
  /// node-set pools, a schema-bound validator, and the reusable Outcome.
  /// A worker that keeps one of these across messages processes at
  /// steady state with (near-)zero heap allocation — all per-message
  /// storage is bump-allocated from `arena` and freed wholesale by
  /// Arena::reset(), while the remaining buffers retain their capacity.
  ///
  /// Trace capture instead passes a fresh one per message and keeps them
  /// alive so the recorded address stream reflects a live message stream
  /// rather than allocator page recycling.
  struct ProcessScratch {
    http::RequestParser parser;    ///< wire -> request, buffers reused
    http::Request request;         ///< retained for the capture path
    xml::DomParser dom_parser;     ///< tokenizer scratch
    util::Arena arena{64 * 1024};  ///< DOM storage, reset per message
    xml::ParseResult parsed;       ///< DOM bound to `arena`
    xpath::EvalScratch xpath;      ///< pooled node-set storage
    std::optional<xsd::Validator> validator;  ///< bound on first SV message
    Outcome outcome;               ///< reused result (reference API)

    /// Optional per-worker metrics sink: when set, process_wire records
    /// the parse / route / serialize stage spans into it (the forward
    /// stage is recorded by the caller that owns the downstream send).
    /// Recording is allocation-free; nullptr costs one branch per stage.
    util::WorkerMetrics* metrics = nullptr;
    std::uint64_t stage_start_ns = 0;  ///< internal stage-clock state

    /// Structural routing cache for CBR (DESIGN.md §"Caching"): keyed by
    /// the message's tag-skeleton fingerprint; a hit short-circuits the
    /// XPath evaluation and re-reads the routing value at the cached
    /// tree position. Per-worker and value-safe by construction; set
    /// capacity 0 to disable (every message takes the full-eval path).
    RouteCache route_cache{kDefaultRouteCacheCapacity};
  };

  /// Processes raw wire bytes: HTTP parse + use case + forward
  /// serialization — the full per-message path the paper measures.
  Outcome process_wire(std::string_view wire,
                       ProcessScratch* scratch = nullptr) const;

  /// Hot-path variants: the returned Outcome lives in `scratch` and is
  /// invalidated by the next call through the same scratch. No
  /// per-message copies of the request or outcome are made. `process`
  /// takes an already-parsed request.
  const Outcome& process(const http::Request& request,
                         ProcessScratch& scratch XAON_LIFETIME_BOUND) const;
  const Outcome& process_wire(std::string_view wire,
                              ProcessScratch& scratch XAON_LIFETIME_BOUND)
      const;

 private:
  Outcome& process_into(const http::Request& request,
                        ProcessScratch& state) const;
  Outcome& process_wire_into(std::string_view wire,
                             ProcessScratch& state) const;
  /// Serializes the outbound request straight into the scratch outcome,
  /// rewriting the target and Via (and `extra_name`, when given) without
  /// deep-copying the request.
  Outcome& forward_into(const http::Request& request, bool primary,
                        std::string_view detail, ProcessScratch& state,
                        std::string_view extra_name = {},
                        std::string_view extra_value = {}) const;

  UseCase use_case_;
  Endpoints endpoints_;
  xpath::XPath quantity_xpath_;
  /// True when quantity_xpath_ is a structural location path — the
  /// soundness precondition of the routing cache (checked once here,
  /// never per message).
  bool cbr_cacheable_ = false;
  /// Compiled schema, shared through the content-addressed schema cache
  /// (xsd::load_schema_cached) — immutable, so one compilation serves
  /// every pipeline and every worker thread.
  std::shared_ptr<const xsd::Schema> schema_;
  std::vector<xsd::Regex> signatures_;  ///< DPI
  std::string hmac_key_;                ///< SEC
};

}  // namespace xaon::aon
