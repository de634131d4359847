#pragma once

#include <cstdint>
#include <vector>

/// \file cache.hpp
/// Set-associative write-back/write-allocate cache with true-LRU
/// replacement — the model behind every L1/L2 in the simulated
/// platforms (Table 1 of the paper gives the geometries).

namespace xaon::uarch {

struct CacheConfig {
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t line_bytes = 64;
  std::uint32_t associativity = 8;

  std::uint64_t num_sets() const {
    return size_bytes / (static_cast<std::uint64_t>(line_bytes) *
                         associativity);
  }
};

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;  ///< dirty evictions

  double miss_rate() const {
    return accesses == 0
               ? 0.0
               : static_cast<double>(misses) / static_cast<double>(accesses);
  }
};

/// Result of one cache access.
struct AccessResult {
  bool hit = false;
  bool writeback = false;       ///< a dirty line was evicted
  std::uint64_t victim_line = 0;  ///< line address of the eviction victim
  bool evicted = false;
};

/// The simulator calls access()/fill() several times per simulated op,
/// so they are defined here to inline into System::memory_access. A set
/// is stored as three parallel arrays (tags, LRU stamps, dirty bytes);
/// the hit scan reads only the tags.
class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  /// Looks up / fills `addr`. A miss allocates the line (victim evicted
  /// per LRU). `is_write` marks the line dirty.
  AccessResult access(std::uint64_t addr, bool is_write) {
    return touch(addr, is_write, /*count=*/true);
  }

  /// True without side effects.
  bool contains(std::uint64_t addr) const {
    return lookup(line_of(addr)) >= 0;
  }

  /// Invalidates the line if present (coherence). Returns true when the
  /// invalidated line was dirty.
  bool invalidate(std::uint64_t addr);

  /// Inserts a line without counting an access (prefetch fill).
  /// Returns the access result of the fill (hit = already present).
  AccessResult fill(std::uint64_t addr) {
    return touch(addr, /*is_write=*/false, /*count=*/false);
  }

  void reset_stats() { stats_ = CacheStats{}; }
  const CacheStats& stats() const { return stats_; }
  const CacheConfig& config() const { return config_; }

  std::uint64_t line_of(std::uint64_t addr) const {
    return addr >> line_shift_;
  }

 private:
  /// First way of `line`'s set in the per-way arrays.
  std::size_t set_base(std::uint64_t line) const {
    return static_cast<std::size_t>(line & set_mask_) * config_.associativity;
  }

  /// Index of the way holding `line`, or -1.
  std::int64_t lookup(std::uint64_t line) const {
    const std::size_t base = set_base(line);
    const std::uint64_t* tags = &tags_[base];
    for (std::uint32_t w = 0; w < config_.associativity; ++w) {
      if (tags[w] == line + 1) return static_cast<std::int64_t>(base + w);
    }
    return -1;
  }

  AccessResult touch(std::uint64_t addr, bool is_write, bool count) {
    const std::uint64_t line = line_of(addr);
    AccessResult result;
    if (count) ++stats_.accesses;
    ++tick_;
    const std::int64_t hit = lookup(line);
    if (hit >= 0) {
      const auto way = static_cast<std::size_t>(hit);
      lru_[way] = tick_;
      dirty_[way] |= static_cast<std::uint8_t>(is_write);
      result.hit = true;
      return result;
    }
    // Miss: the victim is the last invalid way, else the least recently
    // used valid way.
    if (count) ++stats_.misses;
    const std::size_t base = set_base(line);
    std::size_t victim = base;
    bool victim_valid = tags_[base] != 0;
    for (std::uint32_t w = 1; w < config_.associativity; ++w) {
      const std::size_t way = base + w;
      if (tags_[way] == 0) {
        victim = way;
        victim_valid = false;
      } else if (victim_valid && lru_[way] < lru_[victim]) {
        victim = way;
      }
    }
    if (victim_valid) {
      ++stats_.evictions;
      result.evicted = true;
      result.victim_line = tags_[victim] - 1;
      if (dirty_[victim] != 0) {
        ++stats_.writebacks;
        result.writeback = true;
      }
    }
    tags_[victim] = line + 1;
    lru_[victim] = tick_;
    dirty_[victim] = static_cast<std::uint8_t>(is_write);
    return result;
  }

  CacheConfig config_;
  std::uint32_t line_shift_;
  std::uint64_t set_mask_;
  // Per way, sets * associativity entries, row-major by set.
  std::vector<std::uint64_t> tags_;   ///< line + 1; 0 = invalid
  std::vector<std::uint64_t> lru_;    ///< larger = more recent
  std::vector<std::uint8_t> dirty_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace xaon::uarch
