#include "trace.hpp"

#include <cstdio>

namespace perfbench {

std::uint32_t SpanLog::name(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void SpanLog::fold() {
  if (spans_.empty()) return;
  std::vector<double> child_ns(spans_.size(), 0.0);
  const auto duration = [](const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) * s.scale;
  };
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ns[s.parent] += duration(s);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = totals_[names_[s.name]];
    t.total_ns += duration(s);
    t.self_ns += duration(s) - child_ns[i];
    ++t.count;
  }
  last_batch_.swap(spans_);
  spans_.clear();
}

SpanLog::Totals SpanLog::totals(std::string_view name) const {
  const auto it = totals_.find(name);
  return it == totals_.end() ? Totals{} : it->second;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < last_batch_.size(); ++i) {
    const Span& s = last_batch_[i];
    std::fprintf(f,
                 "{\"index\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                 "\"id\": %llu, \"start_ns\": %llu, \"end_ns\": %llu, "
                 "\"scale\": %.4f}\n",
                 i, names_[s.name].c_str(),
                 s.parent == kNoParent ? -1LL : static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.scale);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
