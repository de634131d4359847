#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace.hpp"

/// \file bench.hpp
/// Shared pieces of the benchmark program: clocks, process counters, the
/// options one run receives and the report it hands back to main().
///
/// The gateway workloads cut a run into segments; each segment performs
/// the workload's full set-up (timed; the reported set-up time is the
/// median over segments, so set-up samples are spread over the run like
/// the timed messages are) and then runs its share of the timed window.
/// Every timed figure is calibrated against the machine's speed (see
/// Calibrator).

namespace perfbench {

/// Steady-clock nanoseconds.
std::uint64_t now_ns();

/// Process user + system CPU seconds, all threads.
double cpu_seconds();

/// Peak resident set size of the process, in MB.
double peak_rss_mb();

/// Heap allocations made by the whole process so far (every thread),
/// fed by the global operator new replacement in main.cpp.
std::uint64_t alloc_count();

/// Views into argv: parsing options allocates nothing, so the heap a
/// workload starts from does not depend on the flags (sim-cbr's captured
/// addresses depend on the heap layout; see sim.cpp).
struct Options {
  std::string_view workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// sim-cbr only: simulate exactly this many rounds (one System::run
  /// per platform each) instead of filling `seconds`. Used to record
  /// the golden counter file.
  std::uint32_t rounds = 0;
  std::string_view spans_out;  ///< where the traced run writes its spans
};

/// Fixed-footprint latency histogram (HDR-style log-linear buckets,
/// under 0.8% relative width), so recording costs no memory per sample
/// and peak RSS does not grow with the message count.
class LatencyHistogram {
 public:
  void add(std::uint64_t ns) {
    ++counts_[index(ns)];
    ++count_;
  }
  std::uint64_t count() const { return count_; }
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
  }
  /// Nearest-rank quantile, as the midpoint of its bucket, in ns.
  double quantile(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - 1;  // >= kSubBits
    const std::uint64_t mantissa = (v >> (e - kSubBits)) - kSub;
    return kSub + static_cast<std::size_t>(e - kSubBits) * kSub +
           static_cast<std::size_t>(mantissa);
  }
  std::array<std::uint64_t, kSub * (65 - kSubBits)> counts_{};
  std::uint64_t count_ = 0;
};

struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Machine-speed calibration. This host's speed drifts by up to 2x over
/// seconds with what shares its cores, and a single run cannot average
/// that away. So the benchmark measures the machine beside the program:
/// a fixed reference kernel, compiled into the benchmark and independent
/// of the code under test, runs for about 2 ms between timed slices, and
/// each slice's time is scaled by the speed factor measured around it.
/// Calibrated times read as if on a machine where the kernel scans
/// kNominalBytesPerSecond. Raw figures are reported beside them.
///
/// The kernel is shaped like the gateway's parsers: a miniature DOM
/// build over a fixed 256 KB of XML-like bytes, in static storage only.
class Calibrator {
 public:
  static constexpr double kNominalBytesPerSecond = 700e6;

  /// Runs the kernel once to fault in its static data.
  Calibrator() { measure(); }

  /// Runs the reference kernel for about 2 ms; returns the machine's
  /// current speed factor (1 = nominal, 0.5 = half speed). Allocates
  /// nothing.
  double measure();

 private:
  std::uint64_t sink_ = 0;
};

/// One slice of the timed window, for the run's record.
struct Slice {
  std::uint64_t messages = 0;
  std::uint64_t wall_ns = 0;
  double factor = 0;  ///< machine speed factor (mean of both ends)
};

/// The timed window: slices, each bracketed by two speed measurements
/// (outside the slice's time). Keeps wall, CPU and latency both raw and
/// calibrated, split by slice kind (0 = untraced, 1 = traced).
class Window {
 public:
  /// Measures the machine, then starts a slice; returns its start time.
  std::uint64_t open(Calibrator& calibrator);
  /// One message's latency, in the open slice.
  void add(std::uint64_t latency_ns) { pending_.push_back(latency_ns); }
  /// Ends the slice at `end` (a now_ns() the caller read) holding
  /// `messages` messages, then measures the machine; returns the slice's
  /// speed factor.
  double close(Calibrator& calibrator, std::uint64_t end,
               std::uint64_t messages, int kind = 0);

  double wall_s() const { return static_cast<double>(wall_ns_) * 1e-9; }
  double nominal_s() const { return (nominal_ns_[0] + nominal_ns_[1]) * 1e-9; }
  double cpu_s() const { return cpu_s_; }
  double nominal_cpu_s() const { return nominal_cpu_s_; }
  const LatencyHistogram& latency() const { return calibrated_; }
  const LatencyHistogram& raw_latency() const { return raw_; }
  const std::vector<Slice>& slices() const { return slices_; }
  /// Calibrated msgs/s of one slice kind (traced runs: the overhead).
  double rate(int kind) const {
    return nominal_ns_[kind] == 0 ? 0 : messages_[kind] * 1e9 / nominal_ns_[kind];
  }
  /// trace.msgs_per_s_untraced / _traced / overhead_pct.
  void report_trace(std::map<std::string, double>& layer) const;

 private:
  std::vector<std::uint64_t> pending_;
  double factor0_ = 0;
  double closed_factor_ = 0;
  std::uint64_t closed_ns_ = 0;
  std::uint64_t wall0_ = 0;
  double cpu0_ = 0;
  std::uint64_t wall_ns_ = 0;
  double nominal_ns_[2] = {0, 0};
  double messages_[2] = {0, 0};
  double cpu_s_ = 0;
  double nominal_cpu_s_ = 0;
  LatencyHistogram raw_;
  LatencyHistogram calibrated_;
  std::vector<Slice> slices_;
};

/// What one workload run measured. The end-to-end figures are derived
/// from the raw fields by main(); per-layer figures go into `layer`.
struct Report {
  std::uint64_t attempted = 0;  ///< messages sent in the timed window
  std::uint64_t failed = 0;     ///< failed or wrong-verdict messages
  Calibrator calibrator;
  Window window;
  /// Set by workloads whose throughput is not simply completed messages
  /// over the window (sim-cbr weights platforms); 0 = derive it.
  double msgs_per_s = 0;
  double msgs_per_s_raw = 0;
  std::string latency_unit = "message";
  std::vector<double> setup_s;      ///< calibrated, one per set-up
  std::vector<double> setup_raw_s;  ///< the same, uncalibrated
  std::vector<Check> checks;
  std::map<std::string, double> layer;
  /// Raw workload-specific JSON members (leading comma included),
  /// appended verbatim to the result object.
  std::string extra_json;
  SpanLog spans;

  void check(std::string name, bool ok, std::string detail = {});
  /// Records one set-up of `ns` nanoseconds, calibrated by `factor`
  /// (the mean of the speeds measured just before and after it).
  void add_setup(std::uint64_t ns, double factor);
};

/// True when `wire` is an HTTP message whose body is exactly `body`:
/// the forwarded wire must carry the client's body unchanged.
inline bool carries_body(std::string_view wire, std::string_view body) {
  const std::size_t n = body.size();
  return wire.size() >= n + 4 && wire.substr(wire.size() - n - 4, 4) == "\r\n\r\n" &&
         wire.substr(wire.size() - n) == body;
}

/// The timed window is cut into slices of this length (shorter when a
/// segment is shorter). Traced runs alternate untraced and traced
/// slices, so both see the same machine-speed mix and their msgs/s
/// difference is the tracing overhead.
inline constexpr std::uint64_t kSliceNs = 100'000'000;

Report run_gateway(const Options& options);  // cbr-5k, sv-5k
Report run_fr_net(const Options& options);   // fr-net-small
Report run_sim(const Options& options);      // sim-cbr

}  // namespace perfbench
