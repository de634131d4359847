// Structural tests over the experiment runner and its report tables, on
// short message streams: every platform and use case is measured and
// rendered. The paper's shapes need full-size streams and are checked
// once, by perf_shapes_test over the shape table.

#include "xaon/perf/experiment.hpp"

#include <gtest/gtest.h>

#include "xaon/perf/report.hpp"
#include "xaon/uarch/platform.hpp"

namespace xaon::perf {
namespace {

AonExperimentConfig quick_config() {
  AonExperimentConfig config;
  config.messages_per_trace = 4;
  config.warmup_repeats = 1;
  config.measure_repeats = 1;
  return config;
}

class PerfExperiment : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    results_ = new std::vector<WorkloadResults>(
        run_all_aon_experiments(quick_config()));
  }
  static void TearDownTestSuite() {
    delete results_;
    results_ = nullptr;
  }

  static std::vector<WorkloadResults>* results_;
};

std::vector<WorkloadResults>* PerfExperiment::results_ = nullptr;

TEST_F(PerfExperiment, AllPlatformsPresent) {
  const std::vector<uarch::PlatformConfig> platforms = uarch::all_platforms();
  for (const auto& w : *results_) {
    ASSERT_EQ(w.runs.size(), platforms.size());
    for (const auto& p : platforms) {
      ASSERT_NE(w.find(p.notation), nullptr) << p.notation;
      EXPECT_GT(w.find(p.notation)->throughput, 0.0) << p.notation;
    }
  }
  ASSERT_EQ(results_->size(), 3u);
  EXPECT_EQ((*results_)[0].workload, "SV");
  EXPECT_EQ((*results_)[1].workload, "CBR");
  EXPECT_EQ((*results_)[2].workload, "FR");
}

TEST_F(PerfExperiment, ReportTableRendersAllCells) {
  const std::string out = metric_table("CPI", *results_, metric_cpi).render();
  for (const auto& p : uarch::all_platforms()) {
    EXPECT_NE(out.find(p.notation), std::string::npos) << p.notation;
  }
  for (const auto& w : *results_) {
    EXPECT_NE(out.find(w.workload), std::string::npos) << w.workload;
  }
  const auto chart = metric_chart("CPI", *results_, metric_cpi);
  EXPECT_NE(chart.render().find("1CPm"), std::string::npos);
}

TEST(PerfScaling, HelperHandlesMissingPlatforms) {
  WorkloadResults empty;
  EXPECT_DOUBLE_EQ(scaling(empty, "1CPm", "2CPm"), 0.0);
}

}  // namespace
}  // namespace xaon::perf
