#include "sim/cache.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace cmm::sim {

SetAssocCache::SetAssocCache(const CacheGeometry& geom)
    : geom_(geom),
      num_sets_(static_cast<std::uint32_t>(geom.num_sets())),
      ways_(geom.ways),
      tags_(static_cast<std::size_t>(num_sets_) * ways_, kNoTag),
      ready_at_(static_cast<std::size_t>(num_sets_) * ways_, 0),
      owner_(static_cast<std::size_t>(num_sets_) * ways_, kInvalidCore),
      flags_(static_cast<std::size_t>(num_sets_) * ways_, 0),
      valid_(num_sets_, 0),
      packed_lru_(ways_ <= kRecencyMaxWays) {
  if (packed_lru_) {
    recency_.assign(num_sets_, kRecencyInit);
  } else {
    last_used_.assign(static_cast<std::size_t>(num_sets_) * ways_, 0);
  }
  assert(num_sets_ > 0 && (num_sets_ & (num_sets_ - 1)) == 0);
  assert(ways_ > 0 && ways_ <= 32 && "valid bitmask is a 32-bit WayMask");
}

LookupResult SetAssocCache::access(Addr line_addr, AccessType type, Cycle now) {
  const bool demand = is_demand(type);
  if (demand) {
    ++stats_.demand_accesses;
  } else {
    ++stats_.prefetch_accesses;
  }

  const std::uint32_t set = set_index(line_addr);
  const int way = probe(set, line_addr);
  if (way < 0) return LookupResult{};
  const std::size_t idx = line_index(set, static_cast<std::uint32_t>(way));

  LookupResult r;
  r.hit = true;
  r.ready_at = ready_at_[idx];
  if (demand) {
    ++stats_.demand_hits;
    if ((flags_[idx] & (kFlagPrefetched | kFlagPfUsed)) == kFlagPrefetched) {
      flags_[idx] |= kFlagPfUsed;
      ++stats_.prefetched_lines_used;
      r.first_use_of_prefetch = true;
    }
    // The first demand waiter absorbs any in-flight fill latency: it is
    // charged once (via r.ready_at) and the line is resident afterwards.
    ready_at_[idx] = now;
    if (type == AccessType::DemandStore) flags_[idx] |= kFlagDirty;
  } else {
    ++stats_.prefetch_hits;
    // A prefetch request consuming a prefetched line still counts as a
    // use for accuracy accounting (an L1 prefetch picking up a streamer
    // fill from L2 does deliver the data to the core)...
    if ((flags_[idx] & (kFlagPrefetched | kFlagPfUsed)) == kFlagPrefetched) {
      flags_[idx] |= kFlagPfUsed;
      ++stats_.prefetched_lines_used;
      r.first_use_of_prefetch = true;
    }
    // ...but prefetch hits do not promote replacement state: a
    // prefetcher re-walking resident data must not keep lines young
    // forever (non-promoting prefetch hits, as in real LLC designs —
    // without this, a wrapping stream pins its pre-partition footprint
    // and CAT repartitioning never reclaims the ways).
    return r;
  }

  touch(set, static_cast<std::uint32_t>(way));
  return r;
}

FillResult SetAssocCache::fill(Addr line_addr, AccessType type, [[maybe_unused]] Cycle now,
                               Cycle ready_at, WayMask alloc_mask, CoreId owner) {
  if (alloc_mask == 0) return FillResult{};  // no allocatable ways: fill dropped

  // Refill of a resident line (e.g. racing prefetch): refresh metadata.
  const std::uint32_t set = set_index(line_addr);
  if (const int way = probe(set, line_addr); way >= 0) {
    const std::size_t idx = line_index(set, static_cast<std::uint32_t>(way));
    if (ready_at_[idx] > ready_at) ready_at_[idx] = ready_at;
    if (type == AccessType::DemandStore) flags_[idx] |= kFlagDirty;
    return FillResult{};
  }
  return install(line_addr, type, ready_at, alloc_mask, owner);
}

std::uint32_t SetAssocCache::lru_victim(std::uint32_t set, WayMask usable) const noexcept {
  if (!packed_lru_) {
    // Dense masks take the SIMD masked-argmin; sparse CAT partitions
    // keep the O(popcount) bit-scan (simd.hpp contract).
    return simd::argmin_tick(&last_used_[line_index(set, 0)], usable, ways_);
  }
  // Walk from the LRU slot towards the MRU one; a full mask stops at
  // the first slot.
  const std::uint64_t word = recency_[set];
  for (std::uint32_t slot = ways_; slot-- > 0;) {
    const auto way = static_cast<std::uint32_t>(word >> (4 * slot)) & 0xF;
    if ((usable >> way) & 1U) return way;
  }
  assert(false && "usable mask holds no way of the set");
  return 0;
}

FillResult SetAssocCache::install(Addr line_addr, AccessType type, Cycle ready_at,
                                  WayMask alloc_mask, CoreId owner) {
  FillResult result;
  if (alloc_mask == 0) return result;  // no allocatable ways: fill dropped
  assert(line_addr != kNoTag && "~0 is reserved as the invalid-way sentinel tag");

  const std::uint32_t set = set_index(line_addr);
  assert(probe(set, line_addr) < 0 && "install() of a resident line");

  const WayMask usable = alloc_mask & full_mask(ways_);
  std::uint32_t victim;
  // Prefer the lowest invalid way inside the mask: one AND + countr_zero
  // instead of an all-ways scan.
  if (const WayMask invalid_ways = usable & ~valid_[set]; invalid_ways != 0) {
    victim = static_cast<std::uint32_t>(std::countr_zero(invalid_ways));
  } else {
    if (usable == 0) return result;  // mask beyond associativity
    // Evict the LRU line among the mask's set bits (every in-mask way
    // is valid here).
    victim = lru_victim(set, usable);
    const std::size_t vidx = line_index(set, victim);
    result.evicted_valid = true;
    result.evicted_line = tags_[vidx];
    result.evicted_owner = owner_[vidx];
    result.evicted_dirty = (flags_[vidx] & kFlagDirty) != 0;
    ++stats_.evictions;
    if ((flags_[vidx] & (kFlagPrefetched | kFlagPfUsed)) == kFlagPrefetched) {
      result.evicted_was_prefetched_unused = true;
      ++stats_.prefetched_lines_evicted_unused;
    }
    owner_remove(owner_[vidx]);
  }

  const std::size_t idx = line_index(set, victim);
  valid_[set] |= WayMask{1} << victim;
  tags_[idx] = line_addr;
  ready_at_[idx] = ready_at;
  owner_[idx] = owner;
  flags_[idx] = static_cast<std::uint8_t>((type == AccessType::Prefetch ? kFlagPrefetched : 0) |
                                          (type == AccessType::DemandStore ? kFlagDirty : 0));
  owner_add(owner);
  touch(set, victim);
  return result;
}

bool SetAssocCache::invalidate(Addr line_addr) {
  const std::uint32_t set = set_index(line_addr);
  const int way = probe(set, line_addr);
  if (way < 0) return false;
  const std::size_t idx = line_index(set, static_cast<std::uint32_t>(way));
  if ((flags_[idx] & (kFlagPrefetched | kFlagPfUsed)) == kFlagPrefetched) {
    ++stats_.prefetched_lines_evicted_unused;
  }
  valid_[set] &= ~(WayMask{1} << static_cast<std::uint32_t>(way));
  tags_[idx] = kNoTag;
  owner_remove(owner_[idx]);
  return true;
}

std::size_t SetAssocCache::invalidate_owner(CoreId owner) {
  if (owner == kInvalidCore) return 0;
  std::size_t dropped = 0;
  for (std::uint32_t set = 0; set < num_sets_; ++set) {
    WayMask valid = valid_[set];
    while (valid != 0) {
      const auto way = static_cast<std::uint32_t>(std::countr_zero(valid));
      valid &= valid - 1;
      const std::size_t idx = line_index(set, way);
      if (owner_[idx] != owner) continue;
      if ((flags_[idx] & (kFlagPrefetched | kFlagPfUsed)) == kFlagPrefetched) {
        ++stats_.prefetched_lines_evicted_unused;
      }
      valid_[set] &= ~(WayMask{1} << way);
      tags_[idx] = kNoTag;
      owner_remove(owner);
      ++dropped;
    }
  }
  return dropped;
}

void SetAssocCache::flush() {
  for (auto& t : tags_) t = kNoTag;
  for (auto& vm : valid_) vm = 0;
  for (auto& n : owner_occupancy_) n = 0;
}

std::vector<std::uint64_t> SetAssocCache::occupancy_by_owner(unsigned num_cores) const {
  std::vector<std::uint64_t> counts(num_cores, 0);
  const std::size_t n = std::min<std::size_t>(num_cores, owner_occupancy_.size());
  for (std::size_t i = 0; i < n; ++i) counts[i] = owner_occupancy_[i];
  return counts;
}

unsigned SetAssocCache::set_occupancy(std::uint32_t set) const {
  return set_occupancy_in_mask(set, ~WayMask{0});
}

unsigned SetAssocCache::set_occupancy_in_mask(std::uint32_t set, WayMask mask) const {
  return popcount(valid_[set] & mask);
}

}  // namespace cmm::sim
