#include "xaon/uarch/cache.hpp"

#include <bit>

#include "xaon/util/assert.hpp"

namespace xaon::uarch {

Cache::Cache(const CacheConfig& config) : config_(config) {
  XAON_CHECK_MSG(std::has_single_bit(config.line_bytes),
                 "line size must be 2^k");
  XAON_CHECK_MSG(config.associativity > 0, "associativity must be > 0");
  const std::uint64_t sets = config.num_sets();
  XAON_CHECK_MSG(sets > 0 && std::has_single_bit(sets),
                 "size/(line*assoc) must be a power of two");
  line_shift_ =
      static_cast<std::uint32_t>(std::countr_zero(config.line_bytes));
  set_mask_ = sets - 1;
  const std::size_t ways = sets * config.associativity;
  tags_.assign(ways, 0);
  lru_.assign(ways, 0);
  dirty_.assign(ways, 0);
}

bool Cache::invalidate(std::uint64_t addr) {
  const std::int64_t hit = lookup(line_of(addr));
  if (hit < 0) return false;
  const auto way = static_cast<std::size_t>(hit);
  const bool was_dirty = dirty_[way] != 0;
  tags_[way] = 0;
  dirty_[way] = 0;
  return was_dirty;
}

}  // namespace xaon::uarch
