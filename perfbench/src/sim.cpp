// sim-cbr: one row of the reproduction. Capture two CBR message streams
// from the real pipeline, then simulate them round-robin on the five
// platforms (1CPm, 2CPm, 1LPx, 2LPx, 2PPx), one uarch::System per
// platform kept across runs as perf::run_aon_experiment keeps it (its
// first run is that experiment's warm-up, runs 1-4 its measured
// repeats). Host time of the simulator dominates.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "xaon/aon/capture.hpp"
#include "xaon/uarch/platform.hpp"
#include "xaon/uarch/system.hpp"
#include "xaon/uarch/trace.hpp"

namespace perfbench {

namespace {

using xaon::aon::UseCase;
using xaon::uarch::Counters;
using xaon::uarch::Trace;

/// Set-ups (captures) per run; the reported set-up time is their median.
constexpr std::uint32_t kCaptures = 3;
/// Hardware threads of the largest platform: one stream each.
constexpr int kStreams = 2;

struct Capture {
  std::vector<Trace> traces;
  std::vector<xaon::uarch::TraceStats> stats;
};

/// Captures the two CBR streams. Seed 1 captures the messages
/// perf::run_aon_experiment captures (message seeds 1 and 1 + n); seed s
/// starts (s - 1) * 2n messages further along the same sequence.
Capture capture(std::uint64_t seed) {
  const std::uint32_t n = xaon::aon::default_messages(UseCase::kContentBasedRouting);
  Capture c;
  for (int t = 0; t < kStreams; ++t) {
    xaon::aon::CaptureConfig config;
    config.message_seed = 1 + (seed - 1) * kStreams * n +
                          static_cast<std::uint64_t>(t) * n;
    config.data_base =
        0x1000'0000ull + static_cast<std::uint64_t>(t) * 0x1000'0000ull;
    c.traces.push_back(
        xaon::aon::capture_use_case_trace(UseCase::kContentBasedRouting, config));
  }
  for (const Trace& trace : c.traces) {
    c.stats.push_back(xaon::uarch::compute_stats(trace));
  }
  return c;
}

/// Identities every run's counters must satisfy, whatever the seed.
bool identities_hold(const xaon::uarch::RunResult& r, const Capture& c,
                     int threads) {
  std::uint64_t ops = 0;
  std::uint64_t branches = 0;
  for (int t = 0; t < threads; ++t) {
    ops += c.stats[static_cast<std::size_t>(t)].total;
    branches += c.stats[static_cast<std::size_t>(t)].branches;
  }
  const Counters& k = r.total;
  return r.wall_ns > 0 && k.ops == ops && k.branch_retired == branches &&
         k.branch_mispredicted <= k.branch_retired &&
         k.l1d_misses <= k.l1d_accesses && k.l1i_misses <= k.l1i_accesses &&
         k.l2_misses <= k.l2_accesses && k.busy_cycles <= k.clockticks;
}

std::string counters_json(const xaon::uarch::RunResult& r) {
  const Counters& k = r.total;
  const std::uint64_t values[] = {
      k.clockticks,       k.busy_cycles,         k.inst_retired,
      k.ops,              k.branch_retired,      k.branch_mispredicted,
      k.l1d_accesses,     k.l1d_misses,          k.l1i_accesses,
      k.l1i_misses,       k.l2_accesses,         k.l2_misses,
      k.bus_transactions, k.bus_wait_cycles,     k.coherence_invalidations,
      k.prefetch_fills};
  char buf[64];
  std::snprintf(buf, sizeof(buf), "[%.17g", r.wall_ns);
  std::string out = buf;
  for (const std::uint64_t v : values) out += ", " + std::to_string(v);
  return out + "]";
}

/// Per-platform host-time books: each run's host time, raw and
/// calibrated, split by untraced / traced runs.
struct PlatformBooks {
  std::string notation;
  int threads = 0;
  std::vector<double> host_ns[2];
  std::vector<double> nominal_ns[2];
  std::string counters;  ///< JSON array of per-run counter arrays

  std::size_t runs() const { return host_ns[0].size() + host_ns[1].size(); }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Simulated messages per host second over one round (one run on each
/// platform), from each platform's median run time: a partial round
/// weighs no platform more than another, and a run caught in a burst of
/// host contention moves the figure less than it would move a mean.
double round_rate(const std::vector<PlatformBooks>& books, double messages,
                  int kind_mask, bool calibrated) {
  double round_messages = 0;
  double round_ns = 0;
  for (const PlatformBooks& b : books) {
    std::vector<double> times;
    for (int kind = 0; kind < 2; ++kind) {
      if ((kind_mask & (1 << kind)) != 0) {
        const auto& v = calibrated ? b.nominal_ns[kind] : b.host_ns[kind];
        times.insert(times.end(), v.begin(), v.end());
      }
    }
    if (times.empty()) return 0;
    round_messages += messages * b.threads;
    round_ns += median(std::move(times));
  }
  return round_ns == 0 ? 0 : round_messages * 1e9 / round_ns;
}

}  // namespace

Report run_sim(const Options& options) {
  // Set-up first, before this function allocates anything: the captured
  // data addresses keep each host address's offset within its page, so
  // they depend on the heap's state. Capturing from the same state on
  // every run keeps the simulated counters bit-identical run to run.
  // Each capture is timed; the last one is simulated.
  Capture c;
  Calibrator calibrator;
  std::uint64_t capture_start[kCaptures] = {};
  std::uint64_t capture_ns[kCaptures] = {};
  double capture_factor[kCaptures] = {};
  xaon::uarch::TraceStats first[kStreams] = {};
  bool captures_repeat = true;
  for (std::uint32_t i = 0; i < kCaptures; ++i) {
    c = Capture{};  // free the previous streams before capturing again
    const double f0 = calibrator.measure();
    capture_start[i] = now_ns();
    c = capture(options.seed);
    capture_ns[i] = now_ns() - capture_start[i];
    capture_factor[i] = 0.5 * (f0 + calibrator.measure());
    for (int t = 0; t < kStreams; ++t) {
      const xaon::uarch::TraceStats& s = c.stats[static_cast<std::size_t>(t)];
      if (i == 0) first[t] = s;
      captures_repeat = captures_repeat && s.total == first[t].total &&
                        s.loads == first[t].loads &&
                        s.stores == first[t].stores &&
                        s.branches == first[t].branches &&
                        s.taken_branches == first[t].taken_branches;
    }
  }

  Report report;
  report.latency_unit = "host time per simulated message, per System::run";
  report.check("captures repeat their op mix", captures_repeat);
  const std::uint32_t capture_name = report.spans.name("capture");
  for (std::uint32_t i = 0; i < kCaptures; ++i) {
    report.add_setup(capture_ns[i], capture_factor[i]);
    report.spans.add(capture_name, kNoParent, i, capture_start[i],
                     capture_start[i] + capture_ns[i], capture_factor[i]);
  }
  const double messages =
      xaon::aon::default_messages(UseCase::kContentBasedRouting);
  const std::vector<xaon::uarch::PlatformConfig> platforms =
      xaon::uarch::all_platforms();
  std::vector<std::unique_ptr<xaon::uarch::System>> systems;
  std::vector<PlatformBooks> books;
  std::vector<std::uint32_t> run_names;
  for (const auto& platform : platforms) {
    systems.push_back(std::make_unique<xaon::uarch::System>(platform));
    PlatformBooks& b = books.emplace_back();
    b.notation = platform.notation;
    b.threads = platform.hardware_threads();
    run_names.push_back(report.spans.name("uarch.run." + platform.notation));
  }

  // Round-robin over the platforms, one System::run per step; each run
  // is one slice of the window, calibrated by the machine speed measured
  // around it.
  const std::size_t n_platforms = platforms.size();
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(options.seconds * 1e9);
  bool identities = true;
  for (std::uint64_t run = 0;; ++run) {
    if (options.rounds > 0 ? run >= options.rounds * n_platforms
                           : run >= n_platforms && now_ns() >= end) {
      break;  // every platform runs at least once: every rate is defined
    }
    const std::size_t p = run % n_platforms;
    // Traced runs trace every other round.
    const bool traced = options.trace && (run / n_platforms) % 2 == 1;
    PlatformBooks& b = books[p];
    std::vector<const Trace*> streams;
    for (int i = 0; i < b.threads; ++i) {
      streams.push_back(&c.traces[static_cast<std::size_t>(i)]);
    }
    const double run_messages = messages * b.threads;
    const std::uint64_t r0 = report.window.open(report.calibrator);
    const xaon::uarch::RunResult r = systems[p]->run(streams);
    const std::uint64_t r1 = now_ns();
    report.window.add(static_cast<std::uint64_t>(
        static_cast<double>(r1 - r0) / run_messages));
    const double factor = report.window.close(
        report.calibrator, r1, static_cast<std::uint64_t>(run_messages),
        traced ? 1 : 0);
    if (traced) report.spans.add(run_names[p], kNoParent, run, r0, r1, factor);
    b.host_ns[traced ? 1 : 0].push_back(static_cast<double>(r1 - r0));
    b.nominal_ns[traced ? 1 : 0].push_back(static_cast<double>(r1 - r0) *
                                           factor);
    report.attempted += static_cast<std::uint64_t>(run_messages);
    const bool ok = identities_hold(r, c, b.threads);
    if (!ok) report.failed += static_cast<std::uint64_t>(run_messages);
    identities = identities && ok;
    b.counters += (b.counters.empty() ? "" : ", ") + counters_json(r);
  }
  report.check("counter identities", identities);
  report.msgs_per_s = round_rate(books, messages, 0b11, true);
  report.msgs_per_s_raw = round_rate(books, messages, 0b11, false);
  report.spans.fold();

  std::uint64_t round_ops = 0;
  double nominal_ns = 0;
  std::uint64_t simulated_ops = 0;
  report.extra_json = ", \"sim_runs\": {";
  for (std::size_t p = 0; p < books.size(); ++p) {
    const PlatformBooks& b = books[p];
    const std::uint64_t per_run_ops =
        b.threads == 1 ? c.stats[0].total : c.stats[0].total + c.stats[1].total;
    const std::size_t n = b.runs();
    double platform_ns = 0;
    for (const auto& kind : b.nominal_ns) {
      for (const double ns : kind) platform_ns += ns;
    }
    round_ops += per_run_ops;
    nominal_ns += platform_ns;
    simulated_ops += per_run_ops * n;
    report.layer["uarch.run_s." + b.notation] =
        n == 0 ? 0 : platform_ns * 1e-9 / static_cast<double>(n);
    report.extra_json += (p == 0 ? "\"" : ", \"") + b.notation + "\": [" +
                         b.counters + "]";
  }
  report.extra_json += "}, \"sim_messages_per_thread\": " +
                       std::to_string(static_cast<std::uint64_t>(messages));
  auto& layer = report.layer;
  layer["capture.ops"] =
      static_cast<double>(c.stats[0].total + c.stats[1].total);
  layer["uarch.ops"] = static_cast<double>(round_ops);
  layer["uarch.ns_per_op"] =
      simulated_ops == 0 ? 0
                         : nominal_ns / static_cast<double>(simulated_ops);
  if (options.trace) {
    layer["capture.s"] = report.spans.totals("capture").mean_us() * 1e-6;
    const double untraced = round_rate(books, messages, 0b01, true);
    const double traced = round_rate(books, messages, 0b10, true);
    layer["trace.msgs_per_s_untraced"] = untraced;
    layer["trace.msgs_per_s_traced"] = traced;
    layer["trace.overhead_pct"] =
        untraced == 0 || traced == 0 ? 0 : (untraced - traced) / untraced * 100.0;
  }
  return report;
}

}  // namespace perfbench
