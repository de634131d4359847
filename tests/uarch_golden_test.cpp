// Golden counters for the trace-driven simulator: every Counters field
// and the bit pattern of wall_ns, per hardware thread, for the five
// paper platforms plus a 4-core variant, over fixed-address traces.
//
// The expected table (tests/golden/uarch_counters.txt) is the
// exactness contract for host-side work on `uarch`: a change that only
// makes the simulator cheaper to run must reproduce it byte for byte.
// It changes only in a change meant to alter simulated counters; on a
// mismatch this test prints the actual table, which then replaces the
// file. Captured AON traces are deliberately absent: their addresses
// come from the heap, so they would differ between build presets.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "xaon/uarch/platform.hpp"
#include "xaon/uarch/system.hpp"
#include "xaon/wload/netperf_traces.hpp"
#include "xaon/wload/synth.hpp"

namespace xaon::uarch {
namespace {

std::vector<PlatformConfig> golden_platforms() {
  std::vector<PlatformConfig> platforms = all_platforms();
  // Two packages of two cores: the only topology with both same-chip
  // and cross-chip sharers of one line, and more than two bits in the
  // directory's core mask.
  PlatformConfig quad = platform_2cpm();
  quad.notation = "2CPm-4c";
  quad.chips = 2;
  quad.cores_per_chip = 2;
  platforms.push_back(quad);
  return platforms;
}

Trace synth(wload::AddressPattern pattern, std::uint64_t seed,
            std::uint64_t data_base) {
  wload::SynthConfig c;
  c.ops = 60'000;
  c.pattern = pattern;
  c.seed = seed;
  c.data_base = data_base;
  c.store_fraction = 0.3;
  c.branch_entropy = 0.5;
  if (pattern == wload::AddressPattern::kSequential) {
    // A unit-line stream of ~2.7 MB trains the prefetcher and runs
    // past every L2, so dirty L2 evictions write back.
    c.ops = 120'000;
    c.working_set_bytes = 8 * 1024 * 1024;
    c.stride_bytes = 64;
  } else {
    c.working_set_bytes = 3 * 1024 * 1024;
  }
  return wload::make_synthetic_trace(c);
}

/// One side of a producer/consumer pair over a shared 16 KB region:
/// the producer stores every line, the consumer loads every line and
/// stores every fourth, so ownership moves both ways.
Trace shared_lines(bool producer, std::uint64_t private_base) {
  constexpr std::uint64_t kShared = 0x5000'0000;
  constexpr std::uint64_t kLines = 256;
  const std::uint64_t code = producer ? 0x0060'0000 : 0x0070'0000;
  Trace t;
  auto emit = [&](std::uint64_t pc, OpKind kind, std::uint64_t addr,
                  bool taken) {
    Op op;
    op.pc = code + pc;
    op.addr = addr;
    op.kind = kind;
    op.taken = taken;
    t.push_back(op);
  };
  for (std::uint64_t round = 0; round < 24; ++round) {
    for (std::uint64_t line = 0; line < kLines; ++line) {
      const std::uint64_t addr = kShared + line * 64 + (round % 4) * 16;
      if (producer) {
        emit(0, OpKind::kStore, addr, false);
      } else {
        emit(0, OpKind::kLoad, addr, false);
        if (line % 4 == round % 4) emit(4, OpKind::kStore, addr + 8, false);
      }
      emit(8, OpKind::kLoad, private_base + (line % 32) * 64, false);
      emit(12, OpKind::kAlu, 0, false);
      emit(16, OpKind::kBranch, 0, line + 1 < kLines);
    }
  }
  return t;
}

struct Scenario {
  std::string name;
  std::vector<Trace> traces;  ///< truncated to the platform's threads
};

std::vector<Scenario> golden_scenarios() {
  using wload::AddressPattern;
  std::vector<Scenario> s;
  s.push_back({"seq", {synth(AddressPattern::kSequential, 11, 0x1000'0000)}});
  s.push_back({"random", {synth(AddressPattern::kRandom, 12, 0x1000'0000)}});
  s.push_back({"zipf", {synth(AddressPattern::kZipf, 13, 0x1000'0000)}});
  // Four streams over one data region: unrelated threads sharing lines.
  s.push_back({"mixed",
               {synth(AddressPattern::kSequential, 21, 0x1000'0000),
                synth(AddressPattern::kRandom, 22, 0x1000'0000),
                synth(AddressPattern::kZipf, 23, 0x1000'0000),
                synth(AddressPattern::kRandom, 24, 0x1000'0000)}});
  s.push_back({"prodcons",
               {shared_lines(true, 0x6000'0000),
                shared_lines(false, 0x6100'0000),
                shared_lines(false, 0x6200'0000),
                shared_lines(true, 0x6300'0000)}});
  wload::NetperfTraceConfig np;
  np.iterations = 4;
  s.push_back({"netperf",
               {wload::make_netperf_sender_trace(np),
                wload::make_netperf_receiver_trace(np)}});
  s.push_back(
      {"loopback", {wload::make_netperf_loopback_timeshared_trace(np)}});
  return s;
}

void append_run(std::ostringstream& out, const std::string& prefix,
                const RunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s wall %016llx\n", prefix.c_str(),
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(r.wall_ns)));
  out << buf;
  for (std::size_t i = 0; i < r.per_thread.size(); ++i) {
    const Counters& c = r.per_thread[i];
    out << prefix << " t" << i;
    for (std::uint64_t v :
         {c.clockticks, c.busy_cycles, c.inst_retired, c.ops,
          c.branch_retired, c.branch_mispredicted, c.l1d_accesses,
          c.l1d_misses, c.l1i_accesses, c.l1i_misses, c.l2_accesses,
          c.l2_misses, c.bus_transactions, c.bus_wait_cycles,
          c.coherence_invalidations, c.prefetch_fills}) {
      out << ' ' << v;
    }
    out << '\n';
  }
}

/// Runs every scenario on every platform: twice on one System (state
/// persists), then once more after reset().
std::string actual_table() {
  std::ostringstream out;
  out << "# platform scenario run t<thread> clockticks busy_cycles "
         "inst_retired ops branch_retired branch_mispredicted "
         "l1d_accesses l1d_misses l1i_accesses l1i_misses l2_accesses "
         "l2_misses bus_transactions bus_wait_cycles "
         "coherence_invalidations prefetch_fills\n"
      << "# platform scenario run wall <bits of wall_ns as hex>\n";
  const std::vector<Scenario> scenarios = golden_scenarios();
  for (const PlatformConfig& platform : golden_platforms()) {
    for (const Scenario& scenario : scenarios) {
      std::vector<const Trace*> traces;
      for (const Trace& t : scenario.traces) {
        if (static_cast<int>(traces.size()) == platform.hardware_threads()) {
          break;
        }
        traces.push_back(&t);
      }
      System sys(platform);
      const std::string prefix = platform.notation + " " + scenario.name;
      append_run(out, prefix + " 0", sys.run(traces));
      append_run(out, prefix + " 1", sys.run(traces));
      sys.reset();
      append_run(out, prefix + " reset", sys.run(traces));
    }
  }
  return out.str();
}

std::vector<std::string> lines_of(std::istream& in) {
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(UarchGolden, CountersMatchCommittedTable) {
  const std::string path =
      std::string(XAON_GOLDEN_DIR) + "/uarch_counters.txt";
  std::ifstream file(path);
  const std::vector<std::string> expected = lines_of(file);
  const std::string table = actual_table();
  std::istringstream actual_in(table);
  const std::vector<std::string> actual = lines_of(actual_in);

  std::size_t first_diff = 0;
  while (first_diff < expected.size() && first_diff < actual.size() &&
         expected[first_diff] == actual[first_diff]) {
    ++first_diff;
  }
  if (first_diff == expected.size() && first_diff == actual.size()) return;

  ADD_FAILURE() << path << " differs from the simulated counters at line "
                << first_diff + 1 << "\n  expected: "
                << (first_diff < expected.size() ? expected[first_diff]
                                                 : "<end of file>")
                << "\n  actual:   "
                << (first_diff < actual.size() ? actual[first_diff]
                                               : "<end of table>");
  std::cout << "---- actual table ----\n"
            << table << "---- end of actual table ----\n";
}

}  // namespace
}  // namespace xaon::uarch
