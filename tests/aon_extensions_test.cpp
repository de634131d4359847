// Tests for the future-work use cases (paper §6: deep packet
// inspection and crypto functions).

#include <gtest/gtest.h>

#include "xaon/aon/capture.hpp"
#include "xaon/aon/messages.hpp"
#include "xaon/aon/pipeline.hpp"
#include "xaon/crypto/sha1.hpp"
#include "xaon/http/parser.hpp"
#include "xaon/uarch/system.hpp"
#include "xaon/xsd/regex.hpp"

namespace xaon::aon {
namespace {

TEST(RegexSearch, FindsSubstrings) {
  auto re = xsd::Regex::compile("<script");
  EXPECT_TRUE(re.search("abc<script>alert(1)</script>"));
  EXPECT_TRUE(re.search("<script"));
  EXPECT_FALSE(re.search("scriptless"));
  EXPECT_FALSE(re.search(""));
}

TEST(RegexSearch, PatternAtEveryPosition) {
  auto re = xsd::Regex::compile("\\d{3}");
  EXPECT_TRUE(re.search("abc123def"));
  EXPECT_TRUE(re.search("123"));
  EXPECT_TRUE(re.search("ab12cd345"));
  EXPECT_FALSE(re.search("ab12cd45"));
}

TEST(RegexSearch, AnchoredMatchUnaffected) {
  auto re = xsd::Regex::compile("\\d{3}");
  EXPECT_FALSE(re.match("abc123def"));  // match() stays whole-string
  EXPECT_TRUE(re.match("123"));
}

TEST(Dpi, CleanMessagePassesThrough) {
  Pipeline dpi(UseCase::kDeepInspection);
  const auto out = dpi.process_wire(make_post_wire());
  EXPECT_TRUE(out.ok);
  EXPECT_TRUE(out.routed_primary) << out.detail;
  EXPECT_EQ(out.detail, "clean");
}

TEST(Dpi, SignatureHitsRouteToError) {
  Pipeline dpi(UseCase::kDeepInspection);
  struct Case {
    const char* name;
    const char* payload;
  };
  for (const auto& c : std::initializer_list<Case>{
           {"xxe", "<order><!ENTITY x SYSTEM 'file:///x'></order>"},
           {"script", "<order><note><script>x</script></note></order>"},
           {"sqli", "<order><customer>' UNION SELECT * FROM t</customer></order>"},
           {"traversal", "<order><file>../../../../etc/shadow</file></order>"},
           {"passwd", "<order><p>/etc/passwd</p></order>"}}) {
    Pipeline::ProcessScratch scratch;
    const auto& out = dpi.process(make_post_request(c.payload), scratch);
    EXPECT_TRUE(out.ok) << c.name;
    EXPECT_FALSE(out.routed_primary) << c.name;
    EXPECT_NE(out.detail.find("signature match"), std::string::npos)
        << c.name;
  }
}

TEST(Dpi, DefaultSignaturesAllCompile) {
  for (const std::string& pattern : default_dpi_signatures()) {
    std::string error;
    EXPECT_TRUE(xsd::Regex::compile(pattern, &error).valid())
        << pattern << ": " << error;
  }
  EXPECT_GE(default_dpi_signatures().size(), 6u);
}

TEST(Sec, UnsignedMessagesGetSigned) {
  Pipeline sec(UseCase::kMessageSecurity);
  const auto out = sec.process_wire(make_post_wire());
  EXPECT_TRUE(out.ok);
  EXPECT_TRUE(out.routed_primary);
  EXPECT_EQ(out.detail, "signed outbound");
  // The forwarded request carries the signature header.
  http::RequestParser parser;
  parser.feed(out.forwarded_wire);
  ASSERT_TRUE(parser.done());
  auto sig = parser.request().headers.get(kSignatureHeader);
  ASSERT_TRUE(sig.has_value());
  EXPECT_EQ(sig->size(), 40u);  // hex SHA-1
}

TEST(Sec, ValidSignatureVerifies) {
  Pipeline sec(UseCase::kMessageSecurity);
  // Sign once through the gateway, replay the signed request: verifies.
  const auto first = sec.process_wire(make_post_wire());
  const auto second = sec.process_wire(first.forwarded_wire);
  EXPECT_TRUE(second.ok);
  EXPECT_TRUE(second.routed_primary);
  EXPECT_EQ(second.detail, "signature verified");
}

TEST(Sec, TamperedBodyRejected) {
  Pipeline sec(UseCase::kMessageSecurity);
  const auto signed_out = sec.process_wire(make_post_wire());
  // Flip one body byte of the signed request.
  std::string tampered = signed_out.forwarded_wire;
  tampered[tampered.size() - 10] ^= 1;
  const auto out = sec.process_wire(tampered);
  EXPECT_FALSE(out.routed_primary);
  EXPECT_EQ(out.response.status, 403);
}

TEST(Sec, WrongSignatureRejected) {
  Pipeline sec(UseCase::kMessageSecurity);
  http::Request req = make_post_request(make_order_message());
  req.headers.add(kSignatureHeader, std::string(40, '0'));
  Pipeline::ProcessScratch scratch;
  const auto& out = sec.process(req, scratch);
  EXPECT_FALSE(out.routed_primary);
  EXPECT_EQ(out.response.status, 403);
}

TEST(ExtensionCapture, TracesForNewUseCases) {
  CaptureConfig config;
  config.messages = 4;
  for (const auto use_case :
       {UseCase::kDeepInspection, UseCase::kMessageSecurity}) {
    const uarch::Trace trace = capture_use_case_trace(use_case, config);
    EXPECT_GT(trace.size(), 1000u) << use_case_notation(use_case);
    // New use cases run on every platform model.
    uarch::System system(uarch::platform_2lpx());
    const auto result = system.run({&trace});
    EXPECT_GT(result.total.cpi(), 0.0);
  }
}

TEST(ExtensionCapture, SecIsCryptoDense) {
  // SEC sweeps every byte through SHA-1 rounds: more branch-per-byte
  // work than plain proxying.
  CaptureConfig config;
  config.messages = 4;
  config.compute_expansion = 0;
  const auto fr =
      capture_use_case_trace(UseCase::kForwardRequest, config);
  const auto sec =
      capture_use_case_trace(UseCase::kMessageSecurity, config);
  EXPECT_GT(sec.size(), fr.size());
}

}  // namespace
}  // namespace xaon::aon
