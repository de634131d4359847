#pragma once

#include <cstdint>

#include "xaon/aon/pipeline.hpp"
#include "xaon/uarch/trace.hpp"

/// \file capture.hpp
/// Records instruction traces of the real AON pipelines.
///
/// The capture runs the actual HTTP + XML + XPath/XSD code on real
/// AONBench messages with a wload::TraceRecorder installed, then hands
/// the resulting trace to the microarchitecture simulator. The receive
/// (socket delivery into the input buffer) and transmit (NIC reading
/// the forwarded bytes) copies are recorded explicitly around the
/// pipeline call, so FR traces are dominated by byte movement while SV
/// traces are dominated by content processing — the workload-spectrum
/// axis of the paper's Figure 1.

namespace xaon::aon {

struct CaptureConfig {
  /// Messages per trace; 0 = per-use-case default sized so one stream's
  /// data footprint exceeds the largest simulated L2 (live message
  /// flows have no allocator-level reuse).
  std::uint32_t messages = 0;
  std::uint64_t message_seed = 1;    ///< varies message content
  std::uint64_t data_base = 0x1000'0000;  ///< per-thread address region
  std::uint64_t code_base = 0x0040'0000;
  /// 0 = use the per-use-case default (FR < CBR < SV — proxying touches
  /// far less code than a 2006-era parse+validate stack).
  std::uint64_t code_footprint_bytes = 0;
  /// <0 = per-use-case default. See RecorderConfig::compute_expansion:
  /// emulates the heavyweight commercial XML stack of the paper's SUT.
  double compute_expansion = -1.0;
};

/// Per-use-case workload-model defaults (documented in DESIGN.md).
std::uint64_t default_code_footprint(UseCase use_case);
std::uint32_t default_messages(UseCase use_case);
double default_compute_expansion(UseCase use_case);

/// Records `config.messages` full message round trips of the use case.
/// The work represented by the trace is exactly `config.messages`
/// messages (used to derive throughput from simulated time).
uarch::Trace capture_use_case_trace(UseCase use_case,
                                    const CaptureConfig& config = {});

}  // namespace xaon::aon
