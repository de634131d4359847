#include "xaon/uarch/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "xaon/wload/synth.hpp"

namespace xaon::uarch {
namespace {

Trace sample_trace() {
  wload::SynthConfig config;
  config.ops = 5000;
  return make_synthetic_trace(config);
}

TEST(TraceIo, RoundTripThroughStream) {
  Trace original = sample_trace();
  Op top;  // the highest simulated address survives the 64-bit record
  top.pc = 0xFFFF'FFFF;
  top.addr = 0xFFFF'FFFF;
  top.kind = OpKind::kStore;
  original.push_back(top);
  std::stringstream buffer;
  ASSERT_TRUE(save_trace(original, buffer));
  const auto loaded = load_trace(buffer);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  ASSERT_EQ(loaded.trace.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.trace[i].pc, original[i].pc) << i;
    EXPECT_EQ(loaded.trace[i].addr, original[i].addr) << i;
    EXPECT_EQ(loaded.trace[i].kind, original[i].kind) << i;
    EXPECT_EQ(loaded.trace[i].size, original[i].size) << i;
    EXPECT_EQ(loaded.trace[i].taken, original[i].taken) << i;
  }
}

TEST(TraceIo, EmptyTraceRoundTrips) {
  std::stringstream buffer;
  ASSERT_TRUE(save_trace(Trace{}, buffer));
  const auto loaded = load_trace(buffer);
  ASSERT_TRUE(loaded.ok);
  EXPECT_TRUE(loaded.trace.empty());
}

TEST(TraceIo, RoundTripThroughFile) {
  const Trace original = sample_trace();
  const std::string path = "/tmp/xaon_trace_io_test.trc";
  ASSERT_TRUE(save_trace(original, path));
  const auto loaded = load_trace(path);
  ASSERT_TRUE(loaded.ok) << loaded.error;
  EXPECT_EQ(loaded.trace.size(), original.size());
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "NOTATRACE-FILE-AT-ALL";
  const auto loaded = load_trace(buffer);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("magic"), std::string::npos);
}

TEST(TraceIo, RejectsTruncatedFile) {
  const Trace original = sample_trace();
  std::stringstream buffer;
  ASSERT_TRUE(save_trace(original, buffer));
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated(bytes);
  const auto loaded = load_trace(truncated);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("truncated"), std::string::npos);
  EXPECT_TRUE(loaded.trace.empty());  // never partial
}

TEST(TraceIo, RejectsCorruptOpKind) {
  Trace one;
  one.push_back(Op{});
  std::stringstream buffer;
  ASSERT_TRUE(save_trace(one, buffer));
  std::string bytes = buffer.str();
  bytes[bytes.size() - 8] = 0x7F;  // kind byte of the only record
  std::stringstream corrupt(bytes);
  const auto loaded = load_trace(corrupt);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("kind"), std::string::npos);
}

TEST(TraceIo, RejectsAddressAbove4GiB) {
  Trace two(2);
  std::stringstream buffer;
  ASSERT_TRUE(save_trace(two, buffer));
  std::string bytes = buffer.str();
  bytes[bytes.size() - 24 + 8 + 4] = 0x01;  // addr of op 1 = 2^32
  std::stringstream corrupt(bytes);
  const auto loaded = load_trace(corrupt);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("at op 1"), std::string::npos)
      << loaded.error;
  EXPECT_TRUE(loaded.trace.empty());
}

TEST(TraceIo, RejectsImplausibleCount) {
  std::stringstream buffer;
  buffer.write(kTraceMagic, sizeof(kTraceMagic));
  for (int i = 0; i < 8; ++i) buffer.put(static_cast<char>(0xFF));
  const auto loaded = load_trace(buffer);
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("implausible"), std::string::npos);
}

TEST(TraceIo, MissingFileFailsGracefully) {
  const auto loaded = load_trace("/nonexistent/path/trace.trc");
  EXPECT_FALSE(loaded.ok);
  EXPECT_NE(loaded.error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace xaon::uarch
