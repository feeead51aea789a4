// Retained reference implementation of SetAssocCache: the original
// array-of-structs version, kept verbatim as the behavioural oracle for
// the SoA rewrite. The differential test (test_cache_soa.cpp) drives
// both implementations with identical randomized op streams and asserts
// identical LookupResult/FillResult/stats at every step. Deliberately
// slow and simple — do not "optimize" this file; its value is that it
// is obviously the old semantics.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/cache.hpp"

namespace cmm::sim::testref {

class ReferenceCache {
 public:
  explicit ReferenceCache(const CacheGeometry& geom)
      : geom_(geom),
        num_sets_(static_cast<std::uint32_t>(geom.num_sets())),
        ways_(geom.ways),
        lines_(static_cast<std::size_t>(num_sets_) * ways_) {}

  LookupResult access(Addr line_addr, AccessType type, Cycle now) {
    const bool demand = is_demand(type);
    if (demand) {
      ++stats_.demand_accesses;
    } else {
      ++stats_.prefetch_accesses;
    }

    Line* line = find(line_addr);
    if (line == nullptr) return LookupResult{};

    LookupResult r;
    r.hit = true;
    r.ready_at = line->ready_at;
    if (demand) {
      ++stats_.demand_hits;
      if (line->prefetched && !line->pf_used) {
        line->pf_used = true;
        ++stats_.prefetched_lines_used;
        r.first_use_of_prefetch = true;
      }
      line->ready_at = now;
      if (type == AccessType::DemandStore) line->dirty = true;
    } else {
      ++stats_.prefetch_hits;
      if (line->prefetched && !line->pf_used) {
        line->pf_used = true;
        ++stats_.prefetched_lines_used;
        r.first_use_of_prefetch = true;
      }
      return r;  // prefetch hits do not promote replacement state
    }

    touch(*line);
    return r;
  }

  bool contains(Addr line_addr) const { return find(line_addr) != nullptr; }

  FillResult fill(Addr line_addr, AccessType type, Cycle /*now*/, Cycle ready_at,
                  WayMask alloc_mask, CoreId owner = kInvalidCore) {
    FillResult result;
    if (alloc_mask == 0) return result;

    if (Line* existing = find(line_addr); existing != nullptr) {
      if (existing->ready_at > ready_at) existing->ready_at = ready_at;
      if (type == AccessType::DemandStore) existing->dirty = true;
      return result;
    }

    const std::uint32_t set = set_index(line_addr);
    Line* base = &lines_[static_cast<std::size_t>(set) * ways_];

    std::uint32_t victim = ways_;
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (((alloc_mask >> w) & 1U) == 0) continue;
      if (!base[w].valid) {
        victim = w;
        break;
      }
    }
    if (victim == ways_) {
      std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
      for (std::uint32_t w = 0; w < ways_; ++w) {
        if (((alloc_mask >> w) & 1U) == 0) continue;
        if (base[w].last_used < oldest) {
          oldest = base[w].last_used;
          victim = w;
        }
      }
      if (victim == ways_) return result;  // mask beyond associativity
      Line& v = base[victim];
      result.evicted_valid = true;
      result.evicted_line = v.tag;
      result.evicted_owner = v.owner;
      result.evicted_dirty = v.dirty;
      ++stats_.evictions;
      if (v.prefetched && !v.pf_used) {
        result.evicted_was_prefetched_unused = true;
        ++stats_.prefetched_lines_evicted_unused;
      }
    }

    Line& line = lines_[static_cast<std::size_t>(set) * ways_ + victim];
    line.valid = true;
    line.tag = line_addr;
    line.ready_at = ready_at;
    line.owner = owner;
    line.prefetched = (type == AccessType::Prefetch);
    line.pf_used = false;
    line.dirty = (type == AccessType::DemandStore);
    touch(line);
    return result;
  }

  bool invalidate(Addr line_addr) {
    Line* line = find(line_addr);
    if (line == nullptr) return false;
    if (line->prefetched && !line->pf_used) ++stats_.prefetched_lines_evicted_unused;
    line->valid = false;
    return true;
  }

  void flush() {
    for (auto& line : lines_) line.valid = false;
  }

  std::size_t invalidate_owner(CoreId owner) {
    if (owner == kInvalidCore) return 0;
    std::size_t dropped = 0;
    for (auto& line : lines_) {
      if (!line.valid || line.owner != owner) continue;
      if (line.prefetched && !line.pf_used) ++stats_.prefetched_lines_evicted_unused;
      line.valid = false;
      ++dropped;
    }
    return dropped;
  }

  std::vector<std::uint64_t> occupancy_by_owner(unsigned num_cores) const {
    std::vector<std::uint64_t> counts(num_cores, 0);
    for (const auto& line : lines_) {
      if (line.valid && line.owner < num_cores) ++counts[line.owner];
    }
    return counts;
  }

  unsigned set_occupancy_in_mask(std::uint32_t set, WayMask mask) const {
    unsigned n = 0;
    const Line* base = &lines_[static_cast<std::size_t>(set) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (((mask >> w) & 1U) != 0 && base[w].valid) ++n;
    }
    return n;
  }

  const CacheStats& stats() const noexcept { return stats_; }
  std::uint32_t num_sets() const noexcept { return num_sets_; }

  std::uint32_t set_index(Addr line_addr) const noexcept {
    return static_cast<std::uint32_t>(line_addr & (num_sets_ - 1));
  }

 private:
  struct Line {
    Addr tag = 0;
    Cycle ready_at = 0;
    std::uint64_t last_used = 0;
    CoreId owner = kInvalidCore;
    bool valid = false;
    bool prefetched = false;
    bool pf_used = false;
    bool dirty = false;
  };

  Line* find(Addr line_addr) {
    const std::uint32_t set = set_index(line_addr);
    Line* base = &lines_[static_cast<std::size_t>(set) * ways_];
    for (std::uint32_t w = 0; w < ways_; ++w) {
      if (base[w].valid && base[w].tag == line_addr) return &base[w];
    }
    return nullptr;
  }
  const Line* find(Addr line_addr) const {
    return const_cast<ReferenceCache*>(this)->find(line_addr);
  }
  void touch(Line& line) noexcept { line.last_used = ++tick_; }

  CacheGeometry geom_;
  std::uint32_t num_sets_;
  std::uint32_t ways_;
  std::vector<Line> lines_;
  std::uint64_t tick_ = 0;
  CacheStats stats_;
};

}  // namespace cmm::sim::testref
