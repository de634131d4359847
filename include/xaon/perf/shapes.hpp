#pragma once

#include <string>
#include <vector>

#include "xaon/perf/experiment.hpp"

/// \file shapes.hpp
/// The paper's findings as one table of named shape predicates over a
/// PaperMatrix: orderings and ratios, never absolute values. The
/// reproduction bench prints their verdicts and the test suite asserts
/// them, so both read the same bounds. Next to them, the values the
/// paper reports, which the bench prints beside the measured ones.

namespace xaon::perf {

/// One predicate's outcome on a matrix.
struct ShapeVerdict {
  /// Unique; the prefix names the figure or table, e.g.
  /// "table4.cpi_sv_below_cbr_below_fr".
  const char* name;
  bool pass = false;
  /// Every comparison the predicate made, with its values; a failed one
  /// is marked with a leading '!'.
  std::string detail;
};

/// Checks every predicate of the table, in table order (Fig. 2, Table
/// 3, Fig. 3, Table 4, Fig. 4, Fig. 5, Table 5, Table 6).
std::vector<ShapeVerdict> check_shapes(const PaperMatrix& matrix);

/// A table of values the paper reports, laid out like the matching
/// measured table (and sharing its title): one row per label, one
/// column per platform (for Fig. 3, per single->dual transition).
struct PaperTable {
  struct Row {
    const char* label;
    int precision;  ///< decimals the paper prints
    std::vector<double> values;
  };
  const char* title;
  std::vector<Row> rows;
};

/// Everything the paper reports for its evaluation. Fig. 4 and Fig. 5
/// are charts only; their values are read off the bars.
struct PaperValues {
  PaperTable fig2;
  PaperTable table3_loopback;
  PaperTable table3_endtoend;
  PaperTable fig3;
  PaperTable table4;
  PaperTable fig4;
  PaperTable fig5;
  PaperTable table5;
  PaperTable table6;
};

const PaperValues& paper_values();

}  // namespace xaon::perf
