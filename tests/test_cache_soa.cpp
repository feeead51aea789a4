// Differential/property test for the SoA SetAssocCache rewrite: drive
// the production cache and the retained AoS reference implementation
// (reference_cache.hpp) with the same randomized op stream — access,
// fill (under rotating CAT masks and owners), invalidate, flush — and
// assert identical LookupResult/FillResult streams, identical stats at
// every step, and identical occupancy views at checkpoints. Any
// divergence in replacement decisions, prefetch bookkeeping, or the
// incremental owner-occupancy counters shows up immediately with the
// op index that caused it.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "reference_cache.hpp"
#include "sim/cache.hpp"

namespace cmm::sim {
namespace {

bool same(const LookupResult& a, const LookupResult& b) {
  return a.hit == b.hit && a.ready_at == b.ready_at &&
         a.first_use_of_prefetch == b.first_use_of_prefetch;
}

bool same(const FillResult& a, const FillResult& b) {
  return a.evicted_valid == b.evicted_valid && a.evicted_line == b.evicted_line &&
         a.evicted_was_prefetched_unused == b.evicted_was_prefetched_unused &&
         a.evicted_dirty == b.evicted_dirty && a.evicted_owner == b.evicted_owner;
}

bool same(const CacheStats& a, const CacheStats& b) {
  return a.demand_accesses == b.demand_accesses && a.demand_hits == b.demand_hits &&
         a.prefetch_accesses == b.prefetch_accesses && a.prefetch_hits == b.prefetch_hits &&
         a.prefetched_lines_used == b.prefetched_lines_used &&
         a.prefetched_lines_evicted_unused == b.prefetched_lines_evicted_unused &&
         a.evictions == b.evictions;
}

struct DiffConfig {
  CacheGeometry geom;
  std::uint64_t ops = 1'000'000;
  std::uint64_t seed = 0xC0FFEE;
  unsigned num_cores = 8;
  // Address pool: small multiple of capacity so hits, conflict misses,
  // and mask-restricted evictions all occur frequently.
  std::uint64_t addr_pool_factor = 3;
  // Stress knobs, all off by default (the op stream is then the one
  // the original geometries were pinned with).
  unsigned owner_drop_per_mille = 0;  // invalidate_owner() share of ops
  unsigned flush_per_mille = 0;       // extra flush() share of ops
  bool sparse_masks = false;          // add single-way and strided masks
  // Fills of lines absent from the reference go through install(),
  // which must then behave exactly like fill().
  bool install_on_miss = false;
};

void run_differential(const DiffConfig& cfg) {
  SetAssocCache soa(cfg.geom);
  testref::ReferenceCache ref(cfg.geom);
  Rng rng(cfg.seed);

  const std::uint32_t ways = cfg.geom.ways;
  const std::uint64_t pool = cfg.geom.num_lines() * cfg.addr_pool_factor + 1;

  // Rotating CAT mask table: full mask, narrow/wide contiguous masks at
  // several offsets (real CAT), plus a sprinkle of arbitrary masks and
  // masks reaching beyond the associativity.
  std::vector<WayMask> masks{~WayMask{0}, full_mask(ways)};
  for (unsigned lo = 0; lo < ways; lo += 2) {
    masks.push_back(contiguous_mask(lo, 2));
    masks.push_back(contiguous_mask(lo, ways / 2 + 1));
  }
  masks.push_back(contiguous_mask(ways - 1, 4));  // straddles the top way
  masks.push_back(0x5);                           // non-contiguous (model allows)
  if (cfg.sparse_masks) {
    // Sparse masks make the packed-recency victim walk pass over
    // disallowed ways before it finds one.
    for (unsigned w = 0; w < ways; ++w) masks.push_back(WayMask{1} << w);
    masks.push_back(0x55555555u & full_mask(ways));
    masks.push_back(0xAAAAAAAAu & full_mask(ways));
    masks.push_back(0x11111111u & full_mask(ways));
    masks.push_back(WayMask{1} | (WayMask{1} << (ways - 1)));
  }

  const unsigned extra_per_mille = cfg.owner_drop_per_mille + cfg.flush_per_mille;
  Cycle now = 0;
  for (std::uint64_t i = 0; i < cfg.ops; ++i) {
    now += rng.next_below(3);
    const Addr line = rng.next_below(pool);
    if (extra_per_mille != 0) {
      const auto extra = rng.next_below(1000);
      if (extra < cfg.owner_drop_per_mille) {
        const auto owner = static_cast<CoreId>(rng.next_below(cfg.num_cores));
        ASSERT_EQ(soa.invalidate_owner(owner), ref.invalidate_owner(owner))
            << "invalidate_owner diverged at op " << i;
        ASSERT_TRUE(same(soa.stats(), ref.stats())) << "stats diverged at op " << i;
        continue;
      }
      if (extra < extra_per_mille) {
        soa.flush();
        ref.flush();
        continue;
      }
    }
    const auto roll = rng.next_below(100);

    if (roll < 45) {  // demand/prefetch access
      const AccessType type = roll < 25  ? AccessType::DemandLoad
                              : roll < 35 ? AccessType::DemandStore
                                          : AccessType::Prefetch;
      const LookupResult a = soa.access(line, type, now);
      const LookupResult b = ref.access(line, type, now);
      ASSERT_TRUE(same(a, b)) << "access diverged at op " << i;
    } else if (roll < 90) {  // fill under a rotating mask
      const AccessType type = roll < 65  ? AccessType::DemandLoad
                              : roll < 70 ? AccessType::DemandStore
                                          : AccessType::Prefetch;
      const WayMask mask = masks[rng.next_below(masks.size())];
      const auto owner = static_cast<CoreId>(rng.next_below(cfg.num_cores + 1));
      const CoreId o = owner == cfg.num_cores ? kInvalidCore : owner;
      const Cycle ready = now + rng.next_below(200);
      const FillResult a = cfg.install_on_miss && !ref.contains(line)
                               ? soa.install(line, type, ready, mask, o)
                               : soa.fill(line, type, now, ready, mask, o);
      const FillResult b = ref.fill(line, type, now, ready, mask, o);
      ASSERT_TRUE(same(a, b)) << "fill diverged at op " << i;
    } else if (roll < 97) {  // invalidate
      ASSERT_EQ(soa.invalidate(line), ref.invalidate(line)) << "invalidate diverged at op " << i;
    } else if (roll < 98) {  // rare flush
      soa.flush();
      ref.flush();
    } else {  // occupancy checkpoint
      const std::uint32_t set = static_cast<std::uint32_t>(rng.next_below(soa.num_sets()));
      const WayMask mask = masks[rng.next_below(masks.size())];
      ASSERT_EQ(soa.set_occupancy_in_mask(set, mask), ref.set_occupancy_in_mask(set, mask))
          << "set occupancy diverged at op " << i;
      ASSERT_EQ(soa.occupancy_by_owner(cfg.num_cores), ref.occupancy_by_owner(cfg.num_cores))
          << "owner occupancy diverged at op " << i;
    }

    ASSERT_TRUE(same(soa.stats(), ref.stats())) << "stats diverged at op " << i;
  }

  // Final full-state comparison.
  EXPECT_EQ(soa.occupancy_by_owner(cfg.num_cores), ref.occupancy_by_owner(cfg.num_cores));
  for (std::uint32_t set = 0; set < soa.num_sets(); ++set) {
    ASSERT_EQ(soa.set_occupancy_in_mask(set, ~WayMask{0}),
              ref.set_occupancy_in_mask(set, ~WayMask{0}))
        << "final occupancy diverged in set " << set;
  }
  for (Addr line = 0; line < pool; ++line) {
    ASSERT_EQ(soa.contains(line), ref.contains(line)) << "final residency diverged at " << line;
  }
}

// The headline run: 1M randomized ops on an LLC-like geometry (20 ways,
// the CAT-masked path the paper's partitioning exercises).
TEST(CacheSoaDifferential, MillionOpsLlcGeometry) {
  DiffConfig cfg;
  cfg.geom = CacheGeometry{64 * 20 * 64, 20, 64};  // 64 sets x 20 ways
  cfg.ops = 1'000'000;
  run_differential(cfg);
}

// L1-like geometry: 8 ways, power-of-two associativity.
TEST(CacheSoaDifferential, L1Geometry) {
  DiffConfig cfg;
  cfg.geom = CacheGeometry{32 * 8 * 64, 8, 64};  // 32 sets x 8 ways
  cfg.ops = 200'000;
  cfg.seed = 0xBADF00D;
  run_differential(cfg);
}

// Degenerate geometries: single set, and single way (every fill under a
// mask that allows it evicts).
TEST(CacheSoaDifferential, SingleSet) {
  DiffConfig cfg;
  cfg.geom = CacheGeometry{1 * 16 * 64, 16, 64};  // 1 set x 16 ways
  cfg.ops = 100'000;
  cfg.seed = 7;
  cfg.addr_pool_factor = 5;
  run_differential(cfg);
}

TEST(CacheSoaDifferential, SingleWay) {
  DiffConfig cfg;
  cfg.geom = CacheGeometry{16 * 1 * 64, 1, 64};  // 16 sets x 1 way
  cfg.ops = 100'000;
  cfg.seed = 99;
  run_differential(cfg);
}

// 32 ways saturates the WayMask width: shifts by way 31 and full-mask
// handling must not overflow.
TEST(CacheSoaDifferential, MaxWays) {
  DiffConfig cfg;
  cfg.geom = CacheGeometry{8 * 32 * 64, 32, 64};  // 8 sets x 32 ways
  cfg.ops = 100'000;
  cfg.seed = 31;
  run_differential(cfg);
}

// Packed-recency geometries below the 8-way private caches: 4 ways,
// and 12 ways, where the recency word has four unused slots.
TEST(CacheSoaDifferential, FourWays) {
  DiffConfig cfg;
  cfg.geom = CacheGeometry{32 * 4 * 64, 4, 64};  // 32 sets x 4 ways
  cfg.ops = 200'000;
  cfg.seed = 0x4A4A;
  run_differential(cfg);
}

TEST(CacheSoaDifferential, TwelveWays) {
  DiffConfig cfg;
  cfg.geom = CacheGeometry{16 * 12 * 64, 12, 64};  // 16 sets x 12 ways
  cfg.ops = 200'000;
  cfg.seed = 0x12;
  cfg.sparse_masks = true;
  run_differential(cfg);
}

// Removal-heavy 8-way run: owner drops, flushes and sparse masks leave
// invalid ways at every recency position, whose stale slots must never
// be chosen over a valid line's.
TEST(CacheSoaDifferential, EightWayRemovalAndSparseMaskStress) {
  DiffConfig cfg;
  cfg.geom = CacheGeometry{16 * 8 * 64, 8, 64};  // 16 sets x 8 ways
  cfg.ops = 300'000;
  cfg.seed = 0x5A5A;
  cfg.owner_drop_per_mille = 20;
  cfg.flush_per_mille = 3;
  cfg.sparse_masks = true;
  run_differential(cfg);
}

// install() after a miss is fill() without the probe, on both LRU
// representations (packed recency at 8 ways, ticks at 20).
TEST(CacheSoaDifferential, InstallAfterMissEqualsFill) {
  for (const std::uint32_t ways : {8u, 20u}) {
    DiffConfig cfg;
    cfg.geom = CacheGeometry{32 * ways * 64, ways, 64};  // 32 sets
    cfg.ops = 200'000;
    cfg.seed = 0x1257A11 + ways;
    cfg.sparse_masks = true;
    cfg.install_on_miss = true;
    run_differential(cfg);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace cmm::sim
