// Paper-shape regression suite: every predicate of the shape table
// (xaon/perf/shapes.hpp) must hold on the simulated paper matrix, so a
// refactor that silently bends a curve fails CI, not only
// bench/reproduce. Each named case asserts the predicates of one
// figure or table finding; PredicateTable asserts the whole table,
// checks the table itself and that a bent curve is reported.
//
// The matrix is simulated once per process and every case reads it;
// ctest runs this binary once (see xaon_one_process_cases in
// tests/CMakeLists.txt).

#include <algorithm>
#include <initializer_list>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include <gtest/gtest.h>

#include "xaon/perf/shapes.hpp"

namespace xaon::perf {
namespace {

const PaperMatrix& matrix() {
  // Default per-use-case message counts (footprints must exceed the L2
  // for the streaming shapes to hold), one measured replay.
  static const PaperMatrix simulated = [] {
    AonExperimentConfig aon;
    aon.measure_repeats = 1;
    NetperfExperimentConfig netperf;
    netperf.measure_repeats = 1;
    netperf.iterations_per_trace = 12;
    return run_paper_matrix(aon, netperf);
  }();
  return simulated;
}

const std::vector<ShapeVerdict>& verdicts() {
  static const std::vector<ShapeVerdict> checked = check_shapes(matrix());
  return checked;
}

const ShapeVerdict* find(const std::vector<ShapeVerdict>& checked,
                         std::string_view name) {
  const auto it = std::find_if(
      checked.begin(), checked.end(),
      [&](const ShapeVerdict& v) { return v.name == name; });
  return it == checked.end() ? nullptr : &*it;
}

bool passes(const std::vector<ShapeVerdict>& checked,
            const std::string& name) {
  const ShapeVerdict* v = find(checked, name);
  EXPECT_NE(v, nullptr) << name;
  return v != nullptr && v->pass;
}

void expect_pass(std::initializer_list<const char*> names) {
  for (const char* name : names) {
    const ShapeVerdict* v = find(verdicts(), name);
    ASSERT_NE(v, nullptr) << name;
    EXPECT_TRUE(v->pass) << name << ": " << v->detail;
  }
}

TEST(PaperShapes, PredicateTable) {
  for (const ShapeVerdict& v : verdicts()) {
    EXPECT_TRUE(v.pass) << v.name << ": " << v.detail;
  }

  // The table: unique names, and every figure and table (the name's
  // prefix) has a predicate.
  std::set<std::string> names;
  std::set<std::string> figures;
  for (const ShapeVerdict& v : verdicts()) {
    EXPECT_TRUE(names.insert(v.name).second) << "duplicate " << v.name;
    const std::string_view name = v.name;
    figures.emplace(name.substr(0, name.find('.')));
  }
  EXPECT_EQ(figures, (std::set<std::string>{"fig2", "fig3", "fig4", "fig5",
                                            "table3", "table4", "table5",
                                            "table6"}));

  // A bent curve is reported. SV and FR swapped: every SV < CBR < FR
  // ordering and both scaling trends invert.
  PaperMatrix swapped = matrix();
  std::swap(swapped.aon.at(0).runs, swapped.aon.at(2).runs);
  const std::vector<ShapeVerdict> bent = check_shapes(swapped);
  for (const char* name : {"fig3.dual_core_scaling_rises_with_cpu_intensity",
                           "fig3.ht_scaling_falls_with_cpu_intensity",
                           "fig3.throughput_sv_below_cbr_below_fr",
                           "table4.cpi_sv_below_cbr_below_fr",
                           "fig4.l2mpi_sv_below_cbr_below_fr"}) {
    EXPECT_FALSE(passes(bent, name)) << name;
  }

  // Hyper-Threading no longer raises BrMPR: 2LPx predicts like 1LPx.
  PaperMatrix no_smt_aliasing = matrix();
  for (WorkloadResults& w : no_smt_aliasing.aon) {
    const uarch::Counters single = w.find("1LPx")->counters;
    for (PlatformRun& r : w.runs) {
      if (r.notation != "2LPx") continue;
      r.counters.branch_retired = single.branch_retired;
      r.counters.branch_mispredicted = single.branch_mispredicted;
    }
  }
  EXPECT_FALSE(
      passes(check_shapes(no_smt_aliasing), "table6.ht_raises_brmpr"));
}

// Fig. 2 / Table 3: netperf.
TEST(PaperShapes, Fig2LoopbackDualPentiumMDegrades) {
  expect_pass({"fig2.loopback_dual_pm_degrades"});
}

TEST(PaperShapes, Fig2LoopbackDualXeonCollapses) {
  expect_pass({"fig2.loopback_dual_xeon_collapses",
               "fig2.loopback_xeon_dual_hit_worse_than_pm"});
}

TEST(PerfNetperf, LoopbackShapes) {
  expect_pass({"fig2.loopback_dual_pm_degrades",
               "fig2.loopback_dual_xeon_collapses",
               "fig2.loopback_dual_xeon_coherence_traffic"});
}

TEST(PerfNetperf, EndToEndSaturatesWire) {
  expect_pass(
      {"fig2.endtoend_saturates_gige", "table3.endtoend_cpi_doubles_xeon"});
}

// Fig. 3: throughput and scaling.
TEST(PaperShapes, Fig3DualCoreScalingRisesWithCpuIntensity) {
  expect_pass({"fig3.dual_core_scaling_rises_with_cpu_intensity"});
}

TEST(PaperShapes, Fig3HyperThreadScalingFallsWithCpuIntensity) {
  expect_pass({"fig3.ht_scaling_falls_with_cpu_intensity"});
}

TEST(PerfExperiment, HtScalingFallsWithCpuIntensity) {
  expect_pass({"fig3.ht_scaling_falls_with_cpu_intensity"});
}

TEST(PaperShapes, Fig3DualPhysicalXeonScalesNearTwoEverywhere) {
  expect_pass({"fig3.dual_xeon_scales_near_two"});
}

TEST(PerfExperiment, DualPhysicalScalesNearTwo) {
  expect_pass({"fig3.dual_xeon_scales_near_two"});
}

TEST(PerfExperiment, HyperThreadingScalesLessThanPhysical) {
  expect_pass({"fig3.ht_scales_less_than_physical"});
}

TEST(PerfExperiment, PentiumMOutperformsXeonPerUnit) {
  expect_pass({"fig3.pm_outperforms_xeon_per_unit", "table4.pm_cpi_below_xeon"});
}

TEST(PerfExperiment, ThroughputSpectrumFrFastest) {
  expect_pass({"fig3.throughput_sv_below_cbr_below_fr"});
}

// Table 4: CPI.
TEST(PaperShapes, Table4CpiOrderingSvBelowCbrBelowFr) {
  expect_pass({"table4.cpi_sv_below_cbr_below_fr"});
}

TEST(PaperShapes, Table4HyperThreadingWorstXeonCpi) {
  expect_pass({"table4.ht_worst_xeon_cpi", "table4.dual_xeon_cpi_near_single"});
}

// Fig. 4: L2MPI.
TEST(PaperShapes, Fig4L2MpiOrderingTracksIoIntensity) {
  expect_pass({"fig4.l2mpi_sv_below_cbr_below_fr"});
}

TEST(PaperShapes, Fig4HyperThreadingLeavesL2MpiNearSingle) {
  expect_pass({"fig4.ht_l2mpi_near_single"});
}

TEST(PaperShapes, Fig4DualPhysicalKeepsPrivateL2Mpi) {
  expect_pass({"fig4.dual_xeon_keeps_private_l2mpi"});
}

// Table 5: branch frequency.
TEST(PaperShapes, Table5PentiumMDoublesXeonBranchFrequency) {
  expect_pass({"table5.pm_doubles_xeon_branch_frequency"});
}

TEST(PerfExperiment, BranchFrequencyUopDilution) {
  expect_pass({"table5.pm_doubles_xeon_branch_frequency"});
}

TEST(PaperShapes, Table5BranchFrequencyStableWithinArchitecture) {
  expect_pass({"table5.branch_frequency_stable_within_architecture"});
}

// Table 6: BrMPR.
TEST(PaperShapes, Table6HyperThreadingRaisesBrMpr) {
  expect_pass({"table6.ht_raises_brmpr"});
}

TEST(PaperShapes, Table6UnitCountAloneLeavesBrMprUnchanged) {
  expect_pass(
      {"table6.pm_predicts_better_than_xeon", "table6.unit_count_leaves_brmpr"});
}

}  // namespace
}  // namespace xaon::perf
