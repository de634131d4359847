#include "xaon/aon/pipeline.hpp"

#include <algorithm>

#include "xaon/aon/messages.hpp"
#include "xaon/crypto/sha1.hpp"
#include "xaon/http/parser.hpp"
#include "xaon/util/assert.hpp"
#include "xaon/util/probe.hpp"
#include "xaon/util/str.hpp"
#include "xaon/xml/parser.hpp"
#include "xaon/xsd/loader.hpp"

namespace xaon::aon {

namespace {

// Stage clock over ProcessScratch::stage_start_ns: mark opens a span,
// record closes it into the worker's metrics block and opens the next.
// Both are single branches when no metrics sink is attached, and
// allocation-free always (the steady-state contract of §5b holds with
// metrics enabled).
inline void stage_mark(Pipeline::ProcessScratch& state) {
  if (state.metrics != nullptr) state.stage_start_ns = util::metrics_now_ns();
}

inline void stage_record(Pipeline::ProcessScratch& state, util::Stage stage) {
  if (state.metrics != nullptr) {
    const std::uint64_t now = util::metrics_now_ns();
    state.metrics->record_stage(stage, now - state.stage_start_ns);
    state.stage_start_ns = now;
  }
}

// HTTP parse stage of both process_wire variants: frames `wire` into
// `state.parser`. Bytes that are not exactly one complete request get
// the 400 outcome in `state.outcome`, and the result is false.
bool frame_wire(std::string_view wire, Pipeline::ProcessScratch& state) {
  stage_mark(state);
  state.parser.reset();
  const std::size_t consumed = state.parser.feed(wire);
  const bool framed = state.parser.done() && consumed == wire.size();
  if (!framed) {
    Pipeline::Outcome& out = state.outcome;
    out.reset();
    out.response.status = 400;
    out.response.reason.assign("Bad Request");
    out.detail.assign(state.parser.failed() ? state.parser.error()
                                            : "incomplete request");
  }
  stage_record(state, util::Stage::kParse);
  return framed;
}

// --- CBR structural routing cache helpers (DESIGN.md §"Caching") -------

// Child-index path from `root` down to `target` (exclusive of root).
// False when target is not in root's subtree (e.g. an ancestor-axis hit
// above the context) — such hits stay uncacheable. Miss-path only.
bool path_from_root(const xml::Node* root, const xml::Node* target,
                    std::vector<std::uint32_t>& out) {
  out.clear();
  for (const xml::Node* n = target; n != root; n = n->parent) {
    if (n == nullptr || n->parent == nullptr) return false;
    std::uint32_t index = 0;
    for (const xml::Node* s = n->prev_sibling; s != nullptr;
         s = s->prev_sibling) {
      ++index;
    }
    out.push_back(index);
  }
  std::reverse(out.begin(), out.end());
  return true;
}

// Walks a cached child-index path in the *current* document. Returns
// nullptr when the path runs off the tree (only reachable through a
// fingerprint collision); callers fall back to full evaluation.
const xml::Node* resolve_path(const xml::Node* root,
                              const std::vector<std::uint32_t>& path) {
  const xml::Node* n = root;
  for (std::uint32_t index : path) {
    const xml::Node* c = n->first_child;
    while (c != nullptr && index > 0) {
      c = c->next_sibling;
      --index;
    }
    if (c == nullptr) return nullptr;
    n = c;
  }
  return n;
}

// Builds the plan for a freshly evaluated node-set: position of the
// first hit, or kUncached for hit kinds whose string-value needs a
// descendant walk (element/document) — those keep full evaluation.
RoutePlan make_route_plan(const xml::Node* root, const xpath::NodeSet& hits) {
  RoutePlan plan;
  if (hits.empty()) return plan;  // kNoHit
  const xpath::NodeRef& first = hits.front();
  plan.kind = RoutePlan::Kind::kUncached;
  if (first.is_attr()) {
    if (!path_from_root(root, first.node, plan.path)) return plan;
    std::uint32_t ordinal = 1;
    for (const xml::Attr* a = first.node->first_attr; a != nullptr;
         a = a->next, ++ordinal) {
      if (a == first.attr) {
        plan.kind = RoutePlan::Kind::kAttr;
        plan.attr_ordinal = ordinal;
        return plan;
      }
    }
    return plan;
  }
  if (first.node->type == xml::NodeType::kElement ||
      first.node->type == xml::NodeType::kDocument) {
    return plan;
  }
  if (!path_from_root(root, first.node, plan.path)) return plan;
  plan.kind = RoutePlan::Kind::kNode;
  return plan;
}

// Replays a cached plan against the current document: resolves the
// recorded position and reads the value **from this message**. Returns
// false (fall back to full evaluation) for kUncached plans or any
// resolution mismatch. Allocation-free — the hit path of §5b.
bool route_from_plan(const RoutePlan& plan, const xml::Node* root,
                     bool& primary) {
  switch (plan.kind) {
    case RoutePlan::Kind::kNoHit:
      primary = false;
      return true;
    case RoutePlan::Kind::kNode: {
      const xml::Node* n = resolve_path(root, plan.path);
      if (n == nullptr || n->is_element() ||
          n->type == xml::NodeType::kDocument) {
        return false;
      }
      // Same value the full path compares: xpath::string_value of a
      // text-like node is its text.
      primary = n->text == "1";
      return true;
    }
    case RoutePlan::Kind::kAttr: {
      const xml::Node* n = resolve_path(root, plan.path);
      if (n == nullptr) return false;
      std::uint32_t ordinal = plan.attr_ordinal;
      const xml::Attr* a = n->first_attr;
      while (a != nullptr && ordinal > 1) {
        a = a->next;
        --ordinal;
      }
      if (a == nullptr) return false;
      primary = a->value == "1";
      return true;
    }
    case RoutePlan::Kind::kUncached:
      return false;
  }
  return false;
}

}  // namespace

std::string_view use_case_notation(UseCase use_case) {
  switch (use_case) {
    case UseCase::kForwardRequest: return "FR";
    case UseCase::kContentBasedRouting: return "CBR";
    case UseCase::kSchemaValidation: return "SV";
    case UseCase::kDeepInspection: return "DPI";
    case UseCase::kMessageSecurity: return "SEC";
  }
  return "?";
}

const std::vector<std::string>& default_dpi_signatures() {
  // A small signature set in the spirit of 2006-era XML firewalls:
  // injection fragments, script smuggling, entity-expansion bombs,
  // path traversal.
  static const std::vector<std::string>* signatures =
      new std::vector<std::string>{  // xlint: allow(hot-new): process-lifetime singleton, allocated once on first use
          "<!ENTITY",
          "<script",
          "(UNION|union) +(SELECT|select)",
          "';( )?(DROP|drop) ",
          "\\.\\./\\.\\./",
          "cmd\\.exe",
          "/etc/passwd",
          "(%3C|%3c)script",
      };
  return *signatures;
}

Pipeline::Pipeline(UseCase use_case, Endpoints endpoints)
    : use_case_(use_case), endpoints_(std::move(endpoints)) {
  if (use_case_ == UseCase::kContentBasedRouting) {
    // The paper's exact CBR expression, served from the shared plan
    // cache: every pipeline over the same rule shares one compilation.
    xpath::CompileError error;
    quantity_xpath_ = xpath::XPath::compile_cached("//quantity/text()", &error);
    XAON_CHECK_MSG(quantity_xpath_.valid(), "CBR XPath failed to compile");
    cbr_cacheable_ = quantity_xpath_.structural();
  }
  if (use_case_ == UseCase::kSchemaValidation) {
    schema_ = xsd::load_schema_cached(order_schema_xsd());
    XAON_CHECK_MSG(schema_ != nullptr, "order schema failed to load");
  }
  if (use_case_ == UseCase::kDeepInspection) {
    for (const std::string& pattern : default_dpi_signatures()) {
      std::string error;
      xsd::Regex re = xsd::Regex::compile(pattern, &error);
      XAON_CHECK_MSG(re.valid(), "DPI signature failed to compile");
      signatures_.push_back(std::move(re));
    }
  }
  if (use_case_ == UseCase::kMessageSecurity) {
    hmac_key_ = "xaon-gateway-shared-secret-2007";
  }
}

void Pipeline::Outcome::reset() {
  ok = false;
  routed_primary = false;
  forwarded_to.clear();
  forwarded_wire.clear();
  response.reset();
  detail.clear();
}

Pipeline::Outcome& Pipeline::forward_into(const http::Request& request,
                                          bool primary,
                                          std::string_view detail,
                                          ProcessScratch& state,
                                          std::string_view extra_name,
                                          std::string_view extra_value) const {
  // The routing decision is made the moment forward_into is entered;
  // everything below is outbound serialization.
  stage_record(state, util::Stage::kRoute);
  Outcome& out = state.outcome;
  out.reset();
  out.ok = true;
  out.routed_primary = primary;
  out.forwarded_to.assign(primary ? endpoints_.primary : endpoints_.error);
  out.detail.assign(detail);

  // Serialize the outbound request straight into the scratch buffer:
  // same body, adjusted target/Via — the proxy's transmit path, without
  // an intermediate deep copy of the request.
  std::string& w = out.forwarded_wire;
  w.reserve(request.body.size() + 256);
  w += request.method;
  w += ' ';
  w += out.forwarded_to;
  w += ' ';
  w += request.version;
  w += "\r\n";
  bool wrote_length = false;
  for (const auto& e : request.headers.entries()) {
    if (util::iequals(e.name, "Via")) continue;  // replaced below
    if (!extra_name.empty() && util::iequals(e.name, extra_name)) {
      continue;  // replaced below
    }
    if (util::iequals(e.name, "Transfer-Encoding")) {
      continue;  // serialized messages always use Content-Length
    }
    if (util::iequals(e.name, "Content-Length")) {
      if (wrote_length) continue;
      w += "Content-Length: ";
      w += std::to_string(request.body.size());  // xlint: allow(hot-string): std::to_string of a small size fits SSO — no heap
      wrote_length = true;
    } else {
      w += e.name;
      w += ": ";
      w += e.value;
    }
    w += "\r\n";
  }
  if (!extra_name.empty()) {
    w += extra_name;
    w += ": ";
    w += extra_value;
    w += "\r\n";
  }
  w += "Via: 1.1 xaon-gateway\r\n";
  if (!wrote_length && !request.body.empty()) {
    w += "Content-Length: ";
    w += std::to_string(request.body.size());  // xlint: allow(hot-string): std::to_string of a small size fits SSO — no heap
    w += "\r\n";
  }
  w += "\r\n";
  w += request.body;
  probe::store(w.data(), static_cast<std::uint32_t>(w.size()));

  out.response.status = 200;
  out.response.headers.add("Content-Type", "text/plain");
  out.response.body.assign(primary ? "routed" : "routed-error");
  stage_record(state, util::Stage::kSerialize);
  return out;
}

Pipeline::Outcome& Pipeline::process_into(const http::Request& request,
                                          ProcessScratch& state) const {
  // Opens the route-or-validate span; forward_into (or an error return)
  // closes it. When called via process_wire_into the clock was already
  // advanced past the parse stage — re-stamping costs one clock read.
  stage_mark(state);
  switch (use_case_) {
    case UseCase::kForwardRequest:
      // No content processing at all: the network-I/O extreme.
      return forward_into(request, /*primary=*/true, "forwarded", state);

    case UseCase::kContentBasedRouting: {
      state.arena.reset();
      state.parsed = state.dom_parser.parse(request.body, state.arena);
      if (!state.parsed.ok) {
        Outcome& out = state.outcome;
        out.reset();
        out.response.status = 400;
        out.response.reason.assign("Bad Request");
        out.response.body.assign("XML parse error: ");
        out.response.body += state.parsed.error.to_string();
        out.detail.assign(out.response.body);
        stage_record(state, util::Stage::kRoute);
        return out;
      }
      // Paper: route primary iff //quantity/text() exists and equals "1".
      //
      // Structural routing cache: when the expression is structural and
      // the message's tag skeleton has been routed before, replay the
      // cached hit *position* and read the value from this message —
      // skipping the full XPath evaluation. Any miss, uncacheable plan
      // or resolution mismatch falls back to the full evaluation below
      // (and a miss records the plan for the next message of this
      // shape).
      const xml::Node* root = state.parsed.document.root();
      bool primary = false;
      bool decided = false;
      if (cbr_cacheable_ && state.route_cache.enabled() && root != nullptr) {
        const std::uint64_t shape = xml::skeleton_fingerprint(root);
        if (const RoutePlan* plan = state.route_cache.find(shape)) {
          decided = route_from_plan(*plan, root, primary);
        } else {
          const xpath::NodeSet& hits = quantity_xpath_.select(root, state.xpath);
          state.route_cache.insert(shape, make_route_plan(root, hits));
          primary = !hits.empty() && xpath::string_value(hits.front()) == "1";
          decided = true;
        }
      }
      if (!decided) {
        const xpath::NodeSet& hits = quantity_xpath_.select(root, state.xpath);
        primary = !hits.empty() && xpath::string_value(hits.front()) == "1";
      }
      return forward_into(request, primary,
                          primary ? "quantity=1" : "quantity!=1", state);
    }

    case UseCase::kSchemaValidation: {
      state.arena.reset();
      state.parsed = state.dom_parser.parse(request.body, state.arena);
      if (!state.parsed.ok) {
        Outcome& out = state.outcome;
        out.reset();
        out.response.status = 400;
        out.response.reason.assign("Bad Request");
        out.response.body.assign("XML parse error: ");
        out.response.body += state.parsed.error.to_string();
        out.detail.assign(out.response.body);
        stage_record(state, util::Stage::kRoute);
        return out;
      }
      // The order payload is the first element child of soap:Body (or
      // the root itself for bare payloads).
      const xml::Node* payload = state.parsed.document.root();
      if (payload != nullptr && payload->local == "Envelope") {
        if (const xml::Node* body = payload->child_element("Body")) {
          // Skip Header etc.; first element in Body is the payload.
          for (const xml::Node* c = body->first_child_element();
               c != nullptr; c = c->next_sibling_element()) {
            payload = c;
            break;
          }
        }
      }
      const xsd::ElementDecl* decl =
          payload == nullptr
              ? nullptr
              : schema_->find_global_element(payload->ns_uri, payload->local);
      if (decl == nullptr) {
        return forward_into(request, /*primary=*/false, "no declaration",
                            state);
      }
      if (!state.validator) state.validator.emplace(*schema_);
      const xsd::ValidationResult& result =
          state.validator->validate_element_reuse(payload, decl);
      if (result.valid()) {
        return forward_into(request, /*primary=*/true, "valid", state);
      }
      return forward_into(request, /*primary=*/false, result.to_string(),
                          state);
    }

    case UseCase::kDeepInspection: {
      // Future-work extension: scan the raw payload bytes against the
      // signature set — no XML parsing at all, like an inline IPS.
      for (std::size_t i = 0; i < signatures_.size(); ++i) {
        if (signatures_[i].search(request.body)) {
          return forward_into(request, /*primary=*/false,
                              "signature match: '" +
                                  std::string(signatures_[i].pattern()) +  // xlint: allow(hot-string): diagnostic built only on signature match
                                  "'",
                              state);
        }
      }
      return forward_into(request, /*primary=*/true, "clean", state);
    }

    case UseCase::kMessageSecurity: {
      // Future-work extension: HMAC-SHA1 message security. Signed
      // messages are verified; unsigned messages are signed on the way
      // out (gateway-applied integrity).
      if (auto provided = request.headers.get(kSignatureHeader)) {
        const crypto::Sha1::Digest expected =
            crypto::hmac_sha1(hmac_key_, request.body);
        if (crypto::to_hex(expected) != *provided) {
          Outcome& out = forward_into(request, /*primary=*/false,
                                      "signature verification failed",
                                      state);
          out.response.status = 403;
          out.response.reason.assign("Forbidden");
          return out;
        }
        return forward_into(request, /*primary=*/true,
                            "signature verified", state);
      }
      const crypto::Sha1::Digest digest =
          crypto::hmac_sha1(hmac_key_, request.body);
      const std::string signature = crypto::to_hex(digest);
      return forward_into(request, /*primary=*/true, "signed outbound",
                          state, kSignatureHeader, signature);
    }
  }
  XAON_CHECK_MSG(false, "unreachable use case");
  return state.outcome;
}

Pipeline::Outcome& Pipeline::process_wire_into(std::string_view wire,
                                               ProcessScratch& state) const {
  if (!frame_wire(wire, state)) return state.outcome;
  return process_into(state.parser.request(), state);
}

const Pipeline::Outcome& Pipeline::process(const http::Request& request,
                                           ProcessScratch& scratch) const {
  return process_into(request, scratch);
}

const Pipeline::Outcome& Pipeline::process_wire(std::string_view wire,
                                                ProcessScratch& scratch) const {
  return process_wire_into(wire, scratch);
}

Pipeline::Outcome Pipeline::process_wire(std::string_view wire,
                                         ProcessScratch* scratch) const {
  ProcessScratch local;
  ProcessScratch& state = scratch != nullptr ? *scratch : local;
  if (!frame_wire(wire, state)) return std::move(state.outcome);
  // Unlike the reference-returning variant, the parsed request is moved
  // into the scratch so callers (e.g. trace capture) can keep it alive.
  state.request = state.parser.take_request();
  return std::move(process_into(state.request, state));
}

}  // namespace xaon::aon
