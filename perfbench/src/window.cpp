#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so it
  // would report the launching process's footprint when that is larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen < rank) continue;
    if (i < kSub) return static_cast<double>(i);
    const std::size_t shift = (i - kSub) / kSub;
    const double low = static_cast<double>((kSub + (i - kSub) % kSub) << shift);
    return low + static_cast<double>(std::uint64_t{1} << shift) / 2.0;
  }
  return 0;
}

namespace {

/// The reference kernel: a miniature DOM build, the same kind of work as
/// the gateway's parsers. It scans XML-like bytes, hashes each tag name,
/// counts it in a small table and appends a node record (tag, depth,
/// offset, parent) to a node array, keeping an open-element stack.
/// Static storage throughout.
/// Aligned and out of line, so its code layout does not move with the
/// code around it when the program under test changes.
template <std::size_t N>
__attribute__((noinline, aligned(64))) std::uint64_t reference_pass(
    const std::array<unsigned char, N>& input) {
  struct Node {
    std::uint32_t tag, depth, offset, parent;
  };
  alignas(64) static std::array<Node, 4096> nodes;
  alignas(64) static std::array<std::uint32_t, 1024> tags;
  std::uint32_t stack[64] = {};
  std::uint32_t depth = 0;
  std::uint32_t count = 0;
  std::uint64_t text = 0;
  for (std::size_t i = 0; i < N; ++i) {
    const unsigned char c = input[i];
    if (c != '<') {
      text += c >= '0' && c <= '9' ? c * 31u : c;
      continue;
    }
    const bool closing = i + 1 < N && input[i + 1] == '/';
    std::size_t j = i + (closing ? 2 : 1);
    std::uint32_t h = 2166136261u;
    while (j < N && input[j] > ' ' && input[j] != '>' && input[j] != '/') {
      h = (h ^ input[j]) * 16777619u;
      ++j;
    }
    ++tags[h & (tags.size() - 1)];
    if (closing) {
      depth -= depth > 0 ? 1 : 0;
    } else {
      Node& node = nodes[count++ & (nodes.size() - 1)];
      node = Node{h, depth, static_cast<std::uint32_t>(i), stack[depth & 63]};
      stack[++depth & 63] = count;
    }
    i = j - 1;
  }
  return text + count + tags[text & (tags.size() - 1)];
}

/// Fixed XML-like input: order-shaped markup (nested tags, attributes,
/// words, numbers) from a fixed template and a fixed xorshift stream, so
/// the kernel meets the kind of branches the gateway's parsers meet and
/// every run scans the same bytes. Static storage: calibrating must not
/// touch the heap (sim-cbr's captures depend on its layout).
constexpr std::size_t kReferenceBytes = 256 * 1024;

const std::array<unsigned char, kReferenceBytes>& reference_input() {
  alignas(64) static const std::array<unsigned char, kReferenceBytes> input = [] {
    static constexpr const char* kWords[] = {
        "logistics", "priority", "warehouse", "carrier", "manifest",
        "routing",   "customs",  "tracking",  "parcel",  "invoice"};
    std::array<unsigned char, kReferenceBytes> bytes{};
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::size_t at = 0;
    char chunk[256];
    while (at < bytes.size()) {
      const int n = std::snprintf(
          chunk, sizeof(chunk),
          "  <item seq=\"%u\">\n    <sku>%c%c-%03u</sku>\n    "
          "<quantity>%u</quantity>\n    <note>%s %s %s</note>\n  </item>\n",
          static_cast<unsigned>(next() % 1000),
          static_cast<char>('A' + next() % 26),
          static_cast<char>('A' + next() % 26),
          static_cast<unsigned>(next() % 1000),
          static_cast<unsigned>(1 + next() % 9), kWords[next() % 10],
          kWords[next() % 10], kWords[next() % 10]);
      for (int i = 0; i < n && at < bytes.size(); ++i) {
        bytes[at++] = static_cast<unsigned char>(chunk[i]);
      }
    }
    return bytes;
  }();
  return input;
}

}  // namespace

double Calibrator::measure() {
  constexpr std::uint64_t kMinNs = 2'000'000;
  const std::uint64_t t0 = now_ns();
  std::uint64_t t = t0;
  std::uint64_t bytes = 0;
  while (t - t0 < kMinNs) {
    sink_ += reference_pass(reference_input());
    bytes += kReferenceBytes;
    t = now_ns();
  }
  // Keeps the kernel's result observable, so it is not optimised away.
  asm volatile("" : : "g"(sink_) : "memory");
  const double bytes_per_second =
      static_cast<double>(bytes) * 1e9 / static_cast<double>(t - t0);
  return bytes_per_second / kNominalBytesPerSecond;
}

std::uint64_t Window::open(Calibrator& calibrator) {
  // Back to back with the previous slice, its closing measurement is
  // this slice's opening one.
  factor0_ = now_ns() - closed_ns_ < 1'000'000 ? closed_factor_
                                               : calibrator.measure();
  if (pending_.capacity() == 0) pending_.reserve(1 << 16);
  pending_.clear();
  cpu0_ = cpu_seconds();
  wall0_ = now_ns();
  return wall0_;
}

double Window::close(Calibrator& calibrator, std::uint64_t end,
                     std::uint64_t messages, int kind) {
  const double cpu = cpu_seconds() - cpu0_;
  closed_factor_ = calibrator.measure();
  closed_ns_ = now_ns();
  const double factor = 0.5 * (factor0_ + closed_factor_);
  const std::uint64_t wall = end - wall0_;
  wall_ns_ += wall;
  nominal_ns_[kind] += static_cast<double>(wall) * factor;
  messages_[kind] += static_cast<double>(messages);
  cpu_s_ += cpu;
  nominal_cpu_s_ += cpu * factor;
  for (const std::uint64_t ns : pending_) {
    raw_.add(ns);
    calibrated_.add(static_cast<std::uint64_t>(static_cast<double>(ns) * factor));
  }
  pending_.clear();
  slices_.push_back(Slice{messages, wall, factor});
  return factor;
}

void Window::report_trace(std::map<std::string, double>& layer) const {
  const double untraced = rate(0);
  const double traced = rate(1);
  layer["trace.msgs_per_s_untraced"] = untraced;
  layer["trace.msgs_per_s_traced"] = traced;
  layer["trace.overhead_pct"] =
      untraced == 0 || traced == 0 ? 0 : (untraced - traced) / untraced * 100.0;
}

void Report::check(std::string name, bool ok, std::string detail) {
  for (Check& c : checks) {
    if (c.name == name) {
      // Repeated checks (one per segment) keep the first failure.
      if (c.ok && !ok) {
        c.ok = false;
        c.detail = std::move(detail);
      }
      return;
    }
  }
  checks.push_back(Check{std::move(name), ok, std::move(detail)});
}

void Report::add_setup(std::uint64_t ns, double factor) {
  const double seconds = static_cast<double>(ns) * 1e-9;
  setup_raw_s.push_back(seconds);
  setup_s.push_back(seconds * factor);
}

}  // namespace perfbench
