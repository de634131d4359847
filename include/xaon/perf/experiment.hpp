#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "xaon/aon/pipeline.hpp"
#include "xaon/uarch/counters.hpp"
#include "xaon/uarch/platform.hpp"

/// \file experiment.hpp
/// The paper's measurement campaigns: each experiment runs a workload
/// on the five system-under-test configurations (1CPm, 2CPm, 1LPx,
/// 2LPx, 2PPx) and reports throughput plus the counter-derived metrics
/// (CPI, L2MPI, BTPI, branch frequency, BrMPR).

namespace xaon::perf {

/// One platform's measurement for one workload.
struct PlatformRun {
  std::string notation;
  double wall_ns = 0;
  double throughput = 0;  ///< messages/sec (AON) or Mbps (netperf)
  uarch::Counters counters;
};

/// A workload measured across all five platforms (paper order).
struct WorkloadResults {
  std::string workload;  ///< "SV", "CBR", "FR", "Netperf-loopback", ...
  std::vector<PlatformRun> runs;

  const PlatformRun* find(std::string_view notation) const;
};

struct AonExperimentConfig {
  /// Messages per captured stream; 0 = per-use-case default (sized so
  /// one stream's fresh data footprint exceeds the largest L2,
  /// reproducing the no-temporal-reuse behaviour of a live message
  /// flow).
  std::uint32_t messages_per_trace = 0;
  std::uint32_t warmup_repeats = 1;
  std::uint32_t measure_repeats = 4;
};

/// Runs one AON use case across every platform. Each hardware thread
/// processes its own captured message stream (distinct data, shared
/// code), replayed to steady state.
WorkloadResults run_aon_experiment(aon::UseCase use_case,
                                   const AonExperimentConfig& config = {});

/// All three use cases, SV/CBR/FR (the paper's row order).
std::vector<WorkloadResults> run_all_aon_experiments(
    const AonExperimentConfig& config = {});

struct NetperfExperimentConfig {
  std::uint32_t warmup_repeats = 1;
  std::uint32_t measure_repeats = 4;
  std::uint32_t iterations_per_trace = 24;  ///< 16 KB buffers per trace
};

/// netperf in loopback mode (CPU-bound extreme): Figure 2 left group +
/// Table 3 top half. Throughput is simulated Mbps.
WorkloadResults run_netperf_loopback(
    const NetperfExperimentConfig& config = {});

/// netperf end-to-end over simulated Gigabit Ethernet (network-I/O
/// extreme): Figure 2 right group + Table 3 bottom half. Throughput is
/// min(CPU-limited rate, TCP goodput from the network simulator).
WorkloadResults run_netperf_endtoend(
    const NetperfExperimentConfig& config = {});

/// Every experiment of the paper's evaluation, each on the five
/// platforms: the AON use cases (Figs. 3-5, Tables 4-6) and netperf in
/// both modes (Fig. 2, Table 3).
struct PaperMatrix {
  std::vector<WorkloadResults> aon;  ///< SV, CBR, FR
  WorkloadResults loopback;
  WorkloadResults endtoend;
};

/// Runs the whole matrix once; the benches print it and the shape
/// predicates (shapes.hpp) check it.
PaperMatrix run_paper_matrix(const AonExperimentConfig& aon,
                             const NetperfExperimentConfig& netperf);

/// Throughput ratio between two platforms of one workload (Figure 3's
/// scaling bars); 0 when either is missing.
double scaling(const WorkloadResults& results, std::string_view from,
               std::string_view to);

}  // namespace xaon::perf
