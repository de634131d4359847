#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

/// \file trace.hpp
/// In-memory span log for the traced run. Spans are recorded by the
/// benchmark around calls into each layer's public functions; nothing
/// inside the program under test is instrumented.
///
/// A span has a name, start, end, parent and the id of the message or
/// simulation step it belongs to. Spans accumulate in memory and are
/// folded into per-name totals at segment boundaries (never mid-message,
/// so a parent and its children are always folded together). The last
/// folded batch is kept and written out as JSON lines at exit.
///
/// Self time is a span's duration minus the durations of its children;
/// durations are calibrated by each span's scale.
/// Layer calls replayed beside the real call are recorded as children
/// of the span they decompose, so self time there means "what the real
/// call spent outside the replayed layers".

namespace perfbench {

inline constexpr std::uint32_t kNoParent =
    std::numeric_limits<std::uint32_t>::max();

struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = kNoParent;  ///< index in the same batch
  std::uint64_t id = 0;              ///< message / simulation step
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// Machine speed factor of the slice the span ran in: totals count
  /// (end - start) * scale, the calibrated duration (see Calibrator).
  double scale = 1.0;
};

class SpanLog {
 public:
  struct Totals {
    double total_ns = 0;
    double self_ns = 0;
    std::uint64_t count = 0;

    double mean_us() const { return count == 0 ? 0 : total_ns / count * 1e-3; }
    double self_mean_us() const {
      return count == 0 ? 0 : self_ns / count * 1e-3;
    }
  };

  /// Interned span name id.
  std::uint32_t name(std::string_view name);

  /// Appends a span; returns its index for use as a parent.
  std::uint32_t add(std::uint32_t name, std::uint32_t parent, std::uint64_t id,
                    std::uint64_t start_ns, std::uint64_t end_ns,
                    double scale = 1.0) {
    spans_.push_back(Span{name, parent, id, start_ns, end_ns, scale});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }

  std::uint32_t size() const { return static_cast<std::uint32_t>(spans_.size()); }
  const Span& at(std::uint32_t index) const { return spans_[index]; }

  /// Sets the scale of every span from index `from` on.
  void rescale(std::uint32_t from, double scale) {
    for (std::size_t i = from; i < spans_.size(); ++i) spans_[i].scale = scale;
  }

  /// Folds the buffered spans into the totals and starts a new batch.
  void fold();

  /// Totals for `name` (zero when never recorded).
  Totals totals(std::string_view name) const;

  /// Writes the last folded batch as JSON lines. False on I/O error.
  bool write(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<Span> last_batch_;
  std::map<std::string, Totals, std::less<>> totals_;
};

}  // namespace perfbench
