// Reproduces every table and figure of the paper's evaluation (Fig. 2-5,
// Tables 3-6) from one run of the paper matrix. Each is printed as the
// measured table with its TSV lines, then the paper-reported table;
// figures get a bar chart first. Ends with the verdict of every shape
// predicate (xaon/perf/shapes.hpp) and exits non-zero if any fails.

#include "bench_common.hpp"
#include "xaon/perf/shapes.hpp"

using namespace xaon;

namespace {

std::vector<std::string> header(const char* first,
                                const perf::WorkloadResults& w) {
  std::vector<std::string> h{first};
  for (const perf::PlatformRun& run : w.runs) h.push_back(run.notation);
  return h;
}

void print_paper(const perf::PaperTable& paper,
                 std::vector<std::string> columns) {
  util::TextTable ref(std::string(paper.title) + " — paper reported");
  ref.set_header(std::move(columns));
  for (const perf::PaperTable::Row& row : paper.rows) {
    std::vector<std::string> cells{row.label};
    for (double v : row.values) {
      cells.push_back(util::format("%.*f", row.precision, v));
    }
    ref.add_row(std::move(cells));
  }
  ref.print();
}

/// One metric over `workloads` (rows) and the platforms (columns).
void print_metric(const std::vector<perf::WorkloadResults>& workloads,
                  const perf::PaperTable& paper, perf::MetricFn metric,
                  int precision, bool chart) {
  if (chart) {
    perf::metric_chart(paper.title, workloads, metric, precision).print();
  }
  util::TextTable table =
      perf::metric_table(paper.title, workloads, metric, precision);
  table.set_tsv(true);
  table.print();
  print_paper(paper, header("Workload", workloads.front()));
}

/// Table 3's layout: one netperf mode, metrics as rows.
void print_table3(const perf::WorkloadResults& w,
                  const perf::PaperTable& paper) {
  struct Row {
    const char* label;
    double (*metric)(const perf::PlatformRun&);
    int precision;
  };
  const Row rows[] = {
      {"CPI", perf::metric_cpi, 2},
      {"L2MPI (%)", perf::metric_l2mpi, 3},
      {"Bus transactions per inst (%)", perf::metric_btpi, 2},
      {"Branch inst per inst (%)", perf::metric_branch_frequency, 0},
      {"BrMPR (%)", perf::metric_brmpr, 2},
  };
  util::TextTable table(paper.title);
  table.set_header(header("Metric", w));
  table.set_tsv(true);
  for (const Row& row : rows) {
    std::vector<std::string> cells{row.label};
    for (const perf::PlatformRun& run : w.runs) {
      cells.push_back(util::format("%.*f", row.precision, row.metric(run)));
    }
    table.add_row(std::move(cells));
  }
  table.print();
  print_paper(paper, header("Metric", w));
}

/// Fig. 3's layout: single->dual throughput scaling per transition.
void print_fig3(const std::vector<perf::WorkloadResults>& aon,
                const perf::PaperTable& paper) {
  const std::pair<const char*, const char*> transitions[] = {
      {"1CPm", "2CPm"}, {"1LPx", "2LPx"}, {"1LPx", "2PPx"}};
  std::vector<std::string> columns{"Workload"};
  for (const auto& [from, to] : transitions) {
    columns.push_back(std::string(from) + "->" + to);
  }
  util::TextTable table(paper.title);
  table.set_header(columns);
  table.set_tsv(true);
  for (const perf::WorkloadResults& w : aon) {
    std::vector<std::string> cells{w.workload};
    for (const auto& [from, to] : transitions) {
      cells.push_back(util::format("%.2f", perf::scaling(w, from, to)));
    }
    table.add_row(std::move(cells));
  }
  table.print();
  print_paper(paper, columns);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags(argc, argv);
  const perf::AonExperimentConfig aon = bench::aon_config_from_flags(flags);
  perf::NetperfExperimentConfig netperf;
  netperf.warmup_repeats = aon.warmup_repeats;
  netperf.measure_repeats = aon.measure_repeats;
  netperf.iterations_per_trace = static_cast<std::uint32_t>(
      flags.i64("iterations", 24, "16KB buffers per netperf trace"));
  if (bench::handle_help(flags)) return 0;

  std::printf("Reproducing Fig. 2-5 and Tables 3-6\n");
  const perf::PaperMatrix m = perf::run_paper_matrix(aon, netperf);
  const perf::PaperValues& paper = perf::paper_values();

  print_metric({m.loopback, m.endtoend}, paper.fig2, perf::metric_throughput,
               0, true);
  print_table3(m.loopback, paper.table3_loopback);
  print_table3(m.endtoend, paper.table3_endtoend);
  print_fig3(m.aon, paper.fig3);
  print_metric(m.aon, paper.table4, perf::metric_cpi, 2, false);
  print_metric(m.aon, paper.fig4, perf::metric_l2mpi, 3, true);
  print_metric(m.aon, paper.fig5, perf::metric_btpi, 2, true);
  print_metric(m.aon, paper.table5, perf::metric_branch_frequency, 0, false);
  print_metric(m.aon, paper.table6, perf::metric_brmpr, 2, false);

  std::printf("\nShape predicates\n");
  int failed = 0;
  const std::vector<perf::ShapeVerdict> verdicts = perf::check_shapes(m);
  for (const perf::ShapeVerdict& v : verdicts) {
    std::printf("%s %s: %s\n", v.pass ? "PASS" : "FAIL", v.name,
                v.detail.c_str());
    failed += v.pass ? 0 : 1;
  }
  std::printf("%zu predicates, %d failed\n", verdicts.size(), failed);
  return failed == 0 ? 0 : 1;
}
