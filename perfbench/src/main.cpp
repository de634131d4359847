// xaon_perfbench: one benchmark run of one workload.
//
//   xaon_perfbench --workload <cbr-5k|sv-5k|fr-net-small|sim-cbr>
//                  [--seed N] [--seconds S] [--trace 0|1]
//                  [--spans FILE] [--rounds N]
//
// Prints one JSON object on stdout: the raw end-to-end figures, the
// per-layer figures (traced runs), every output check and the build
// facts (build type, active util::scan lane). `run.py` turns it into
// the benchmark's result line. Exit status 0 means the run completed;
// whether its outputs were correct is in the "checks" member.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <string_view>

#include "bench.hpp"
#include "xaon/util/scan.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// --- process-wide allocation counter ----------------------------------------
// Replaces the global allocation functions so the exact-count companions
// (allocations per message) cover every thread of the process.

namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align),
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

namespace {

using perfbench::Options;
using perfbench::Report;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "xaon_perfbench: %s\nusage: xaon_perfbench --workload "
               "<cbr-5k|sv-5k|fr-net-small|sim-cbr> [--seed N] "
               "[--seconds S] [--trace 0|1] [--spans FILE] [--rounds N]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("missing flag value");
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else if (arg == "--spans") {
      options.spans_out = value;
    } else if (arg == "--rounds") {
      options.rounds = static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    } else {
      return usage("unknown flag");
    }
  }
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  Report report;
  if (options.workload == "cbr-5k" || options.workload == "sv-5k") {
    report = perfbench::run_gateway(options);
  } else if (options.workload == "fr-net-small") {
    report = perfbench::run_fr_net(options);
  } else if (options.workload == "sim-cbr") {
    report = perfbench::run_sim(options);
  } else {
    return usage("unknown workload");
  }
  if (options.trace && !options.spans_out.empty()) {
    const std::string path(options.spans_out);
    report.check("spans written", report.spans.write(path), path);
  }

  const perfbench::Window& window = report.window;
  const double completed =
      static_cast<double>(report.attempted - report.failed);
  const auto rate = [completed](double seconds) {
    return seconds > 0 ? completed / seconds : 0;
  };
  const double per_msg =
      report.attempted > 0 ? 1.0 / static_cast<double>(report.attempted) : 0;
  std::vector<double> factors;
  for (const perfbench::Slice& s : window.slices()) factors.push_back(s.factor);

  std::string out = "{";
  auto num = [&out](const char* key, double v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\": %.9g, ", key, v);
    out += buf;
  };
  auto list = [&out](const char* key, const std::vector<double>& v) {
    out += "\"" + std::string(key) + "\": [";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%s%.6g", i == 0 ? "" : ", ", v[i]);
      out += buf;
    }
    out += "], ";
  };
  out += "\"workload\": \"" + json_escape(options.workload) + "\", ";
  num("seed", static_cast<double>(options.seed));
  num("trace", options.trace ? 1 : 0);
  out += "\"build_type\": \"" PERFBENCH_BUILD_TYPE "\", ";
  out += "\"scan_impl\": \"" +
         std::string(xaon::util::scan::impl_name(
             xaon::util::scan::active_impl())) +
         "\", ";
  num("attempted", static_cast<double>(report.attempted));
  num("failed", static_cast<double>(report.failed));
  num("measured_s", window.wall_s());
  // Calibrated figures (see Calibrator), then the raw ones.
  num("msgs_per_s",
      report.msgs_per_s > 0 ? report.msgs_per_s : rate(window.nominal_s()));
  num("latency_p50_us", window.latency().quantile(0.50) * 1e-3);
  num("latency_p90_us", window.latency().quantile(0.90) * 1e-3);
  num("latency_p99_us", window.latency().quantile(0.99) * 1e-3);
  num("latency_samples", static_cast<double>(window.latency().count()));
  out += "\"latency_unit\": \"" + json_escape(report.latency_unit) + "\", ";
  num("cpu_us_per_msg", window.nominal_cpu_s() * 1e6 * per_msg);
  num("peak_rss_mb", perfbench::peak_rss_mb());
  num("setup_s", median(report.setup_s));
  num("raw_msgs_per_s", report.msgs_per_s_raw > 0 ? report.msgs_per_s_raw
                                                   : rate(window.wall_s()));
  num("raw_latency_p50_us", window.raw_latency().quantile(0.50) * 1e-3);
  num("raw_latency_p90_us", window.raw_latency().quantile(0.90) * 1e-3);
  num("raw_cpu_us_per_msg", window.cpu_s() * 1e6 * per_msg);
  num("raw_setup_s", median(report.setup_raw_s));
  num("speed_factor_median", median(factors));
  num("speed_factor_min",
      factors.empty() ? 0 : *std::min_element(factors.begin(), factors.end()));
  num("speed_factor_max",
      factors.empty() ? 0 : *std::max_element(factors.begin(), factors.end()));
  list("setup_samples", report.setup_s);
  out += "\"layer\": {";
  bool first = true;
  for (const auto& [name, value] : report.layer) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.9g", first ? "" : ", ",
                  name.c_str(), value);
    out += buf;
    first = false;
  }
  out += "}, \"slices\": [";
  for (std::size_t i = 0; i < window.slices().size(); ++i) {
    const perfbench::Slice& s = window.slices()[i];
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s[%llu, %llu, %.4f]", i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(s.messages),
                  static_cast<unsigned long long>(s.wall_ns), s.factor);
    out += buf;
  }
  out += "], \"checks\": [";
  for (std::size_t i = 0; i < report.checks.size(); ++i) {
    const perfbench::Check& c = report.checks[i];
    out += i == 0 ? "" : ", ";
    out += "{\"name\": \"" + json_escape(c.name) +
           "\", \"ok\": " + (c.ok ? "true" : "false") + ", \"detail\": \"" +
           json_escape(c.detail) + "\"}";
  }
  out += "]" + report.extra_json + "}";
  std::printf("%s\n", out.c_str());
  return 0;
}
