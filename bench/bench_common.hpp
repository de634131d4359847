#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "xaon/perf/experiment.hpp"
#include "xaon/perf/report.hpp"
#include "xaon/util/flags.hpp"
#include "xaon/util/str.hpp"
#include "xaon/util/table.hpp"

/// \file bench_common.hpp
/// Shared scaffolding for the bench binaries: the AON experiment config
/// from command-line flags, and --help / unknown-flag handling.

namespace xaon::bench {

inline perf::AonExperimentConfig aon_config_from_flags(util::Flags& flags) {
  perf::AonExperimentConfig config;
  config.messages_per_trace = static_cast<std::uint32_t>(
      flags.i64("messages", 0, "messages per trace (0 = per-use-case)"));
  config.warmup_repeats = static_cast<std::uint32_t>(
      flags.i64("warmup", 1, "warm-up trace replays"));
  config.measure_repeats = static_cast<std::uint32_t>(
      flags.i64("repeats", 2, "measured trace replays"));
  return config;
}

inline bool handle_help(util::Flags& flags) {
  if (flags.help_requested()) {
    std::fputs(flags.usage().c_str(), stderr);
    return true;
  }
  for (const std::string& unknown : flags.unknown()) {
    std::fprintf(stderr, "warning: unknown flag --%s\n", unknown.c_str());
  }
  return false;
}

}  // namespace xaon::bench
