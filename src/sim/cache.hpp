// Set-associative cache with true-LRU replacement, way-restricted
// allocation (Intel CAT semantics at the LLC), prefetched-line
// bookkeeping for accuracy statistics, and a `ready_at` timestamp per
// line so that demand hits on still-in-flight prefetches pay the
// residual latency (prefetch timeliness).
//
// Storage is structure-of-arrays (set-major): the tag probe in the hot
// lookup path is an early-exit scan over a contiguous `Addr` slice
// (invalid ways hold an impossible sentinel tag, so there is no per-way
// valid check), and a per-set valid bitmask lets empty-set misses
// short-circuit without touching the tag array at all.
// CAT-masked victim selection iterates only the set bits of the
// allocation mask, so a fill costs O(allowed ways), not O(associativity).
//
// LRU state has two representations, chosen by associativity:
//  - up to 16 ways (the private L1/L2): one packed recency word per set,
//    a 4-bit way id per slot, most recently used first. A touch moves
//    the way's nibble to the front; the full-mask victim is the last
//    nibble, and a sparse mask walks from the LRU end to the first way
//    it allows.
//  - more ways (the 20-way LLC): a global tick per line, the victim
//    being the masked argmin (the SIMD kernel in simd.hpp).
// Both pick the same victims: every valid line was touched at its fill,
// ticks are unique, so tick order is recency order among valid lines,
// and a victim is only ever chosen when every way in the mask is valid.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "common/bitmask.hpp"
#include "common/simd.hpp"
#include "common/types.hpp"
#include "sim/machine_config.hpp"

namespace cmm::sim {

/// Per-cache event counters. Separate demand/prefetch channels because
/// every Table-I metric distinguishes them.
///
/// Stats contract for line removal:
///  - `evictions` counts only *capacity* evictions: a valid line pushed
///    out by `fill()` to make room inside the allocation mask.
///  - `invalidate()` (back-invalidation, test teardown) and `flush()`
///    drop lines without bumping `evictions` — they are not replacement
///    decisions and must not skew replacement-pressure metrics.
///  - `prefetched_lines_evicted_unused` counts every removal of a
///    never-demand-touched prefetched line regardless of the removal
///    path (fill eviction *or* invalidate): prefetch accuracy is a
///    property of the prefetch, not of how the line left the cache.
///    `flush()` is the one exception — it wipes lines *and* keeps the
///    accuracy stats as-of the flush point (used between runs).
struct CacheStats {
  std::uint64_t demand_accesses = 0;
  std::uint64_t demand_hits = 0;
  std::uint64_t prefetch_accesses = 0;
  std::uint64_t prefetch_hits = 0;

  // Prefetch usefulness: lines brought in by a prefetch that were
  // demand-touched at least once vs. evicted untouched.
  std::uint64_t prefetched_lines_used = 0;
  std::uint64_t prefetched_lines_evicted_unused = 0;

  std::uint64_t evictions = 0;

  std::uint64_t demand_misses() const noexcept { return demand_accesses - demand_hits; }
  std::uint64_t prefetch_misses() const noexcept { return prefetch_accesses - prefetch_hits; }

  /// Fraction of completed prefetched lines that were useful; NaN-free.
  double prefetch_accuracy() const noexcept {
    const std::uint64_t total = prefetched_lines_used + prefetched_lines_evicted_unused;
    return total == 0 ? 0.0 : static_cast<double>(prefetched_lines_used) / static_cast<double>(total);
  }

  void reset() { *this = CacheStats{}; }
};

struct LookupResult {
  bool hit = false;
  /// For hits: cycle at which the line's data is available (fill time of
  /// an in-flight prefetch). The caller pays max(0, ready_at - now)
  /// residual cycles on top of the cache's access latency.
  Cycle ready_at = 0;
  /// For hits on a prefetched, never-demand-touched line: this access
  /// just converted the prefetch to "useful".
  bool first_use_of_prefetch = false;
};

struct FillResult {
  bool evicted_valid = false;
  Addr evicted_line = 0;            // line address of the victim, if any
  bool evicted_was_prefetched_unused = false;
  bool evicted_dirty = false;       // victim held modified data
  CoreId evicted_owner = kInvalidCore;
};

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheGeometry& geom);

  /// Probe + LRU update. `line_addr` is a *line* address (byte addr >>
  /// line_shift). Demand hits mark prefetched lines as used.
  LookupResult access(Addr line_addr, AccessType type, Cycle now);

  /// Probe without LRU update or usefulness side effects. Header-inline:
  /// this is the pure-probe hot path (prefetcher sandboxes, occupancy
  /// scans, the probe micro-benches) and must not pay a call on top of
  /// the vector kernel.
  bool contains(Addr line_addr) const noexcept {
    return probe(set_index(line_addr), line_addr) >= 0;
  }

  /// Allocate `line_addr`, choosing the victim only among ways allowed
  /// by `alloc_mask` (CAT). Invalid ways inside the mask are preferred;
  /// otherwise the LRU way inside the mask is evicted. A full mask is
  /// ordinary allocation. `ready_at` is the cycle the fill completes
  /// (== now for demand fills that already waited on memory). A line
  /// already resident is not moved: its ready_at may only drop and a
  /// store marks it dirty.
  FillResult fill(Addr line_addr, AccessType type, Cycle now, Cycle ready_at,
                  WayMask alloc_mask, CoreId owner = kInvalidCore);

  /// fill() without the residency probe, for a caller that has just
  /// missed on `line_addr` and inserted nothing into this cache since.
  /// Installing a resident line would duplicate it; debug builds assert.
  FillResult install(Addr line_addr, AccessType type, Cycle ready_at, WayMask alloc_mask,
                     CoreId owner = kInvalidCore);

  /// Drop a line if present (used by inclusive back-invalidation, tests
  /// and back-invalidation studies). Counts an unused prefetched line
  /// toward `prefetched_lines_evicted_unused`, but does *not* count an
  /// eviction — see the CacheStats contract above.
  bool invalidate(Addr line_addr);

  /// Invalidate everything; stats preserved.
  void flush();

  /// Drop every valid line owned by `owner` (service-mode hotplug: a
  /// detaching tenant's LLC footprint must not leak into the next
  /// tenant's run). Cold path: full sets x ways scan. Counts unused
  /// prefetched lines like invalidate(); returns lines dropped.
  std::size_t invalidate_owner(CoreId owner);

  const CacheStats& stats() const noexcept { return stats_; }
  CacheStats& mutable_stats() noexcept { return stats_; }
  void reset_stats() { stats_.reset(); }

  const CacheGeometry& geometry() const noexcept { return geom_; }
  std::uint32_t num_sets() const noexcept { return num_sets_; }

  /// Valid-line count per owning core (kInvalidCore-owned lines are
  /// dropped). Diagnostic: shows who holds the cache. O(num_cores):
  /// served from incrementally maintained per-owner counters, not a
  /// sets x ways scan.
  std::vector<std::uint64_t> occupancy_by_owner(unsigned num_cores) const;

  /// Number of valid lines currently in `set` (test/diagnostic use).
  unsigned set_occupancy(std::uint32_t set) const;
  /// Number of valid lines in `set` residing in ways covered by `mask`.
  unsigned set_occupancy_in_mask(std::uint32_t set, WayMask mask) const;

  std::uint32_t set_index(Addr line_addr) const noexcept {
    return static_cast<std::uint32_t>(line_addr & (num_sets_ - 1));
  }

 private:
  // Packed per-line flag bits (flags_ array).
  static constexpr std::uint8_t kFlagPrefetched = 1u << 0;  // brought in by a prefetch...
  static constexpr std::uint8_t kFlagPfUsed = 1u << 1;      // ...and demand-touched since
  static constexpr std::uint8_t kFlagDirty = 1u << 2;       // modified since fill

  std::size_t line_index(std::uint32_t set, std::uint32_t way) const noexcept {
    return static_cast<std::size_t>(set) * ways_ + way;
  }

  // Tag stored in invalid ways. Probes compare tags only (no per-way
  // valid check, no bit-scan dependency chain), which makes this value
  // unusable as a real line address; fill() asserts it never arrives.
  static constexpr Addr kNoTag = ~Addr{0};

  /// Way of `set` holding `line_addr`, or -1. Empty sets short-circuit
  /// on the valid bitmask; otherwise a vectorized equality scan over the
  /// set's contiguous tag slice (invalid ways hold kNoTag and can never
  /// match — see simd.hpp for the dispatch contract). All backends
  /// preserve lowest-way-wins probe order bit-for-bit.
  int probe(std::uint32_t set, Addr line_addr) const noexcept {
    if (valid_[set] == 0) return -1;
    return simd::find_tag(&tags_[line_index(set, 0)], ways_, line_addr);
  }

  // Associativity up to which LRU state is a packed recency word.
  static constexpr std::uint32_t kRecencyMaxWays = 16;
  // Initial recency word: slot i holds way i. Slots at and above `ways_`
  // keep ids no real way has, so a touch never finds or moves them.
  static constexpr std::uint64_t kRecencyInit = 0xFEDCBA9876543210ULL;

  /// Move `way` to the MRU slot of `word`: a SWAR search for the
  /// nibble equal to `way`, then the slots in front of it shift back
  /// one place.
  static std::uint64_t promote(std::uint64_t word, std::uint32_t way) noexcept {
    constexpr std::uint64_t kOnes = 0x1111111111111111ULL;
    const std::uint64_t x = word ^ (kOnes * way);  // zero nibble where `way` sits
    // Lowest zero nibble: borrows only start at a zero nibble, so no
    // nibble below the first one is flagged.
    const std::uint64_t zero = (x - kOnes) & ~x & (kOnes << 3);
    const auto slot = static_cast<unsigned>(std::countr_zero(zero)) >> 2;
    const std::uint64_t before = (std::uint64_t{1} << (4 * slot)) - 1;
    const std::uint64_t through = (before << 4) | 0xF;
    return (word & ~through) | ((word & before) << 4) | way;
  }

  void touch(std::uint32_t set, std::uint32_t way) noexcept {
    if (packed_lru_) {
      recency_[set] = promote(recency_[set], way);
    } else {
      last_used_[line_index(set, way)] = ++tick_;
    }
  }

  /// LRU way of `set` among `usable` (non-empty, every way in it valid).
  std::uint32_t lru_victim(std::uint32_t set, WayMask usable) const noexcept;

  void owner_add(CoreId o) {
    if (o == kInvalidCore) return;
    if (o >= owner_occupancy_.size()) owner_occupancy_.resize(o + 1, 0);
    ++owner_occupancy_[o];
  }
  void owner_remove(CoreId o) noexcept {
    if (o == kInvalidCore || o >= owner_occupancy_.size()) return;
    --owner_occupancy_[o];
  }

  CacheGeometry geom_;
  std::uint32_t num_sets_;
  std::uint32_t ways_;

  // SoA line metadata, set-major: index = set * ways_ + way.
  std::vector<Addr> tags_;
  std::vector<Cycle> ready_at_;
  std::vector<CoreId> owner_;
  std::vector<std::uint8_t> flags_;
  std::vector<WayMask> valid_;  // per-set valid bitmask (bit w = way w holds a line)

  // Valid-line count per owner, maintained on fill/evict/invalidate/
  // flush so occupancy_by_owner() never scans the line arrays.
  std::vector<std::uint64_t> owner_occupancy_;

  // LRU state, one of the two representations (see the file comment).
  bool packed_lru_;
  std::vector<std::uint64_t> recency_;    // per set, when packed_lru_
  std::vector<std::uint64_t> last_used_;  // per line, otherwise (higher = newer)
  std::uint64_t tick_ = 0;                // LRU clock of last_used_
  CacheStats stats_;
};

}  // namespace cmm::sim
