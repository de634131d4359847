#include "xaon/aon/pipeline.hpp"

#include <gtest/gtest.h>

#include "xaon/aon/messages.hpp"
#include "xaon/http/parser.hpp"

namespace xaon::aon {
namespace {

std::string wire_with_quantity(std::uint32_t quantity, bool valid = true) {
  MessageSpec spec;
  spec.quantity = quantity;
  spec.valid_for_schema = valid;
  return make_post_wire(spec);
}

TEST(Pipeline, UseCaseNotation) {
  EXPECT_EQ(use_case_notation(UseCase::kForwardRequest), "FR");
  EXPECT_EQ(use_case_notation(UseCase::kContentBasedRouting), "CBR");
  EXPECT_EQ(use_case_notation(UseCase::kSchemaValidation), "SV");
}

TEST(Pipeline, FrAlwaysForwardsToPrimary) {
  Pipeline fr(UseCase::kForwardRequest);
  for (std::uint32_t q : {1u, 5u}) {
    const auto out = fr.process_wire(wire_with_quantity(q));
    EXPECT_TRUE(out.ok);
    EXPECT_TRUE(out.routed_primary);
    EXPECT_EQ(out.response.status, 200);
    EXPECT_FALSE(out.forwarded_wire.empty());
  }
  // FR forwards even schema-invalid and non-XML bodies (no inspection).
  const auto junk = fr.process_wire(
      "POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
  EXPECT_TRUE(junk.ok);
  EXPECT_TRUE(junk.routed_primary);
}

TEST(Pipeline, CbrRoutesOnQuantity) {
  Pipeline cbr(UseCase::kContentBasedRouting);
  const auto hit = cbr.process_wire(wire_with_quantity(1));
  EXPECT_TRUE(hit.ok);
  EXPECT_TRUE(hit.routed_primary);
  const auto miss = cbr.process_wire(wire_with_quantity(3));
  EXPECT_TRUE(miss.ok);
  EXPECT_FALSE(miss.routed_primary);
  EXPECT_NE(miss.forwarded_to.find("error"), std::string::npos);
}

TEST(Pipeline, CbrRejectsMalformedXml) {
  Pipeline cbr(UseCase::kContentBasedRouting);
  const auto out = cbr.process_wire(
      "POST /x HTTP/1.1\r\nContent-Length: 9\r\n\r\n<broken><");
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.response.status, 400);
}

TEST(Pipeline, SvRoutesOnValidity) {
  Pipeline sv(UseCase::kSchemaValidation);
  const auto valid = sv.process_wire(wire_with_quantity(1, true));
  EXPECT_TRUE(valid.ok);
  EXPECT_TRUE(valid.routed_primary);
  EXPECT_EQ(valid.detail, "valid");
  const auto invalid = sv.process_wire(wire_with_quantity(1, false));
  EXPECT_TRUE(invalid.ok);
  EXPECT_FALSE(invalid.routed_primary);
  EXPECT_NE(invalid.detail.find("quantity"), std::string::npos);
}

TEST(Pipeline, SvHandlesBarePayloadWithoutEnvelope) {
  Pipeline sv(UseCase::kSchemaValidation);
  http::Request req = make_post_request(
      R"(<order id="1"><customer>c</customer>)"
      R"(<item><sku>AB-123</sku><quantity>2</quantity>)"
      R"(<price>1.50</price></item></order>)");
  Pipeline::ProcessScratch scratch;
  const auto& out = sv.process(req, scratch);
  EXPECT_TRUE(out.ok);
  EXPECT_TRUE(out.routed_primary) << out.detail;
}

TEST(Pipeline, SvUnknownRootGoesToErrorEndpoint) {
  Pipeline sv(UseCase::kSchemaValidation);
  http::Request req = make_post_request("<invoice/>");
  Pipeline::ProcessScratch scratch;
  const auto& out = sv.process(req, scratch);
  EXPECT_TRUE(out.ok);
  EXPECT_FALSE(out.routed_primary);
  EXPECT_EQ(out.detail, "no declaration");
}

TEST(Pipeline, ForwardedRequestPreservesBodyAndAddsVia) {
  Pipeline fr(UseCase::kForwardRequest);
  const std::string wire = wire_with_quantity(1);
  const auto out = fr.process_wire(wire);
  http::RequestParser parser;
  parser.feed(out.forwarded_wire);
  ASSERT_TRUE(parser.done()) << parser.error();
  EXPECT_EQ(parser.request().headers.get("Via"), "1.1 xaon-gateway");
  EXPECT_EQ(parser.request().target, out.forwarded_to);
  // Body forwarded byte-identical.
  http::RequestParser original;
  original.feed(wire);
  EXPECT_EQ(parser.request().body, original.request().body);
}

TEST(Pipeline, CustomEndpoints) {
  Endpoints endpoints;
  endpoints.primary = "http://custom/main";
  endpoints.error = "http://custom/err";
  Pipeline cbr(UseCase::kContentBasedRouting, endpoints);
  EXPECT_EQ(cbr.process_wire(wire_with_quantity(1)).forwarded_to,
            "http://custom/main");
  EXPECT_EQ(cbr.process_wire(wire_with_quantity(9)).forwarded_to,
            "http://custom/err");
}

TEST(Pipeline, RejectsTruncatedHttp) {
  Pipeline fr(UseCase::kForwardRequest);
  const auto out = fr.process_wire("POST /x HTTP/1.1\r\nContent-Le");
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.response.status, 400);
}

TEST(Pipeline, ScratchKeepsParseAlive) {
  Pipeline cbr(UseCase::kContentBasedRouting);
  Pipeline::ProcessScratch scratch;
  const auto out = cbr.process_wire(wire_with_quantity(1), &scratch);
  EXPECT_TRUE(out.ok);
  ASSERT_TRUE(scratch.parsed.ok);
  EXPECT_EQ(scratch.parsed.document.root()->local, "Envelope");
  EXPECT_EQ(scratch.request.method, "POST");
}

}  // namespace
}  // namespace xaon::aon
