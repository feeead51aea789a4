// Fleet runner correctness suite. The claims under test, in order of
// load-bearing-ness:
//
//  - Shard == monolith: a multi-domain MulticoreSystem produces
//    bit-identical per-core PMU counters to independent single-domain
//    systems running the same tenants (domains share nothing).
//  - Shard == run_mix: each no-churn fleet shard is bit-identical to a
//    standalone run_mix() on the domain's machine.
//  - Thread-count invariance: the full fleet result (merged RunResult
//    and merged metrics JSON) is bit-identical at any CMM_THREADS.
//  - Churn determinism: the churn schedule is a pure function of
//    (churn_seed, domain) — repeat runs are identical.
//  - Placement: deterministic, full domains, bandwidth-greedy when
//    asked.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/fleet.hpp"
#include "sim/multicore_system.hpp"
#include "workloads/benchmark_specs.hpp"
#include "workloads/workload_mix.hpp"

namespace cmm::analysis {
namespace {

RunParams fleet_params(unsigned domains, unsigned cores_per_domain = 4) {
  RunParams p;
  p.machine = sim::MachineConfig::fleet(domains, cores_per_domain, /*scale_divisor=*/32);
  p.warmup_cycles = 50'000;
  p.run_cycles = 300'000;
  p.epochs.execution_epoch = 100'000;
  p.epochs.sampling_interval = 10'000;
  p.seed = 42;
  return p;
}

std::vector<std::string> tenant_pool(std::size_t n) {
  const std::vector<std::string> pool{"lbm", "mcf", "milc", "povray", "soplex", "bwaves"};
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(pool[i % pool.size()]);
  return out;
}

TEST(FleetTopology, FleetConfigShape) {
  const auto m = sim::MachineConfig::fleet(8, 8);
  EXPECT_TRUE(m.valid());
  EXPECT_EQ(m.num_cores, 64u);
  EXPECT_EQ(m.num_llc_domains, 8u);
  EXPECT_EQ(m.cores_per_domain(), 8u);
  EXPECT_EQ(m.domain_of(0), 0u);
  EXPECT_EQ(m.domain_of(63), 7u);
  EXPECT_EQ(m.domain_base(3), 24u);

  // Uneven splits and oversized domains are invalid.
  auto bad = m;
  bad.num_cores = 63;
  EXPECT_FALSE(bad.valid());
  bad = m;
  bad.num_llc_domains = 0;
  EXPECT_FALSE(bad.valid());

  // 256-core ceiling: 4 x 64 is the largest square corner.
  EXPECT_TRUE(sim::MachineConfig::fleet(4, 64).valid());
  EXPECT_FALSE(sim::MachineConfig::fleet(8, 64).valid());
}

TEST(FleetTopology, DomainConfigIsIdentityAtOneDomain) {
  const auto m = sim::MachineConfig::scaled(16);
  const auto d0 = m.domain_config(0);
  EXPECT_EQ(d0.num_cores, m.num_cores);
  EXPECT_EQ(d0.num_llc_domains, 1u);
  EXPECT_EQ(d0.llc.size_bytes, m.llc.size_bytes);
  EXPECT_TRUE(d0.valid());
}

TEST(FleetTopology, DomainConfigSlicesPrefetcherSets) {
  auto m = sim::MachineConfig::fleet(2, 4, 32);
  m.core_prefetchers.assign(8, {});
  m.core_prefetchers[5] = {sim::PrefetcherKind::DcuNextLine};
  const auto d1 = m.domain_config(1);
  ASSERT_EQ(d1.core_prefetchers.size(), 2u);  // trailing empties dropped
  EXPECT_EQ(d1.core_prefetchers[1],
            std::vector<sim::PrefetcherKind>{sim::PrefetcherKind::DcuNextLine});
  const auto d0 = m.domain_config(0);
  EXPECT_TRUE(d0.core_prefetchers.empty());
}

// A multi-domain system must be observationally equivalent to its
// shards: same tenants on a 2x4 monolith and on two standalone 4-core
// single-domain systems, op sources constructed identically (domain
// machine, local core id), same cycles — per-core counters must match
// bit for bit, domain by domain.
TEST(FleetEquivalence, MonolithMatchesShardSystems) {
  const auto params = fleet_params(2);
  const auto tenants = tenant_pool(8);
  const auto& m = params.machine;
  const std::uint32_t cpd = m.cores_per_domain();

  sim::MulticoreSystem monolith(m);
  for (CoreId c = 0; c < m.num_cores; ++c) {
    const std::uint32_t d = m.domain_of(c);
    const CoreId local = c - m.domain_base(d);
    monolith.set_op_source(c, workloads::make_op_source(tenants[c], m.domain_config(d), local,
                                                        params.seed + 0x1000ULL * local));
  }
  monolith.run(params.run_cycles);

  for (std::uint32_t d = 0; d < m.num_llc_domains; ++d) {
    sim::MulticoreSystem shard(m.domain_config(d));
    for (CoreId local = 0; local < cpd; ++local) {
      shard.set_op_source(local,
                          workloads::make_op_source(tenants[m.domain_base(d) + local],
                                                    m.domain_config(d), local,
                                                    params.seed + 0x1000ULL * local));
    }
    shard.run(params.run_cycles);
    for (CoreId local = 0; local < cpd; ++local) {
      EXPECT_EQ(shard.pmu().core(local), monolith.pmu().core(m.domain_base(d) + local))
          << "domain " << d << " core " << local;
    }
  }
}

// Each no-churn fleet shard must be bit-identical to run_mix() on the
// domain machine — the fleet layer adds sharding, not semantics.
TEST(FleetEquivalence, NoChurnShardMatchesRunMix) {
  FleetConfig cfg;
  cfg.params = fleet_params(2);
  cfg.policy = "cmm_c";
  const auto mixes = plan_placement(tenant_pool(8), PlacementMode::RoundRobin, cfg.params);
  const FleetResult fleet = run_fleet(cfg, mixes);

  ASSERT_EQ(fleet.domains.size(), 2u);
  for (std::uint32_t d = 0; d < 2; ++d) {
    RunParams shard_params = cfg.params;
    shard_params.machine = cfg.params.machine.domain_config(d);
    const auto policy = make_policy(cfg.policy, shard_params.detector());
    const RunResult want = run_mix(mixes[d], *policy, shard_params);
    EXPECT_EQ(fleet.domains[d].result, want) << "domain " << d;
  }

  // merged = domain-order concatenation.
  ASSERT_EQ(fleet.merged.cores.size(), 8u);
  EXPECT_EQ(fleet.merged.cores[5], fleet.domains[1].result.cores[1]);
  EXPECT_EQ(fleet.total_churn_swaps(), 0u);
}

TEST(FleetDeterminism, ThreadCountInvariance) {
  FleetConfig cfg;
  cfg.params = fleet_params(4);
  cfg.churn_slice = 60'000;
  cfg.churn_per_mille = 600;
  cfg.churn_catalog = {"povray", "mcf", "libquantum"};
  const auto mixes = plan_placement(tenant_pool(16), PlacementMode::RoundRobin, cfg.params);

  BatchOptions serial;
  serial.threads = 1;
  BatchOptions wide;
  wide.threads = 4;
  const FleetResult a = run_fleet(cfg, mixes, serial);
  const FleetResult b = run_fleet(cfg, mixes, wide);

  EXPECT_EQ(a.merged, b.merged);
  EXPECT_EQ(a.metrics.json(), b.metrics.json());
  EXPECT_EQ(a.total_churn_swaps(), b.total_churn_swaps());
  for (std::size_t d = 0; d < a.domains.size(); ++d) {
    EXPECT_EQ(a.domains[d].result, b.domains[d].result) << "domain " << d;
    EXPECT_EQ(a.domains[d].churn_swaps, b.domains[d].churn_swaps) << "domain " << d;
  }
}

TEST(FleetDeterminism, ChurnRunsRepeatAndActuallyChurn) {
  FleetConfig cfg;
  cfg.params = fleet_params(2);
  cfg.churn_slice = 50'000;
  cfg.churn_per_mille = 900;  // aggressive: swaps all over the run
  cfg.churn_catalog = {"povray", "mcf"};
  const auto mixes = plan_placement(tenant_pool(8), PlacementMode::RoundRobin, cfg.params);

  const FleetResult a = run_fleet(cfg, mixes);
  const FleetResult b = run_fleet(cfg, mixes);
  EXPECT_EQ(a.merged, b.merged);
  EXPECT_EQ(a.metrics.json(), b.metrics.json());
  EXPECT_GT(a.total_churn_swaps(), 0u);
  EXPECT_EQ(a.total_churn_swaps(), b.total_churn_swaps());

  // Churned shards diverge from the steady-state run (the swaps are
  // real, not bookkeeping).
  FleetConfig steady = cfg;
  steady.churn_slice = 0;
  const FleetResult c = run_fleet(steady, mixes);
  EXPECT_NE(a.merged.cores, c.merged.cores);
}

TEST(FleetPlacement, RoundRobinDealsInOrder) {
  const auto params = fleet_params(2);
  const auto mixes =
      plan_placement({"a", "b", "c", "d", "e", "f", "g", "h"}, PlacementMode::RoundRobin, params);
  ASSERT_EQ(mixes.size(), 2u);
  EXPECT_EQ(mixes[0].benchmarks, (std::vector<std::string>{"a", "c", "e", "g"}));
  EXPECT_EQ(mixes[1].benchmarks, (std::vector<std::string>{"b", "d", "f", "h"}));
  EXPECT_EQ(mixes[0].name, "fleet_d0");
}

TEST(FleetPlacement, BandwidthBalancedIsDeterministicAndFull) {
  const auto params = fleet_params(2);
  const auto tenants = tenant_pool(8);
  const auto a = plan_placement(tenants, PlacementMode::BandwidthBalanced, params);
  const auto b = plan_placement(tenants, PlacementMode::BandwidthBalanced, params);
  ASSERT_EQ(a.size(), 2u);
  for (std::uint32_t d = 0; d < 2; ++d) {
    EXPECT_EQ(a[d].benchmarks.size(), params.machine.cores_per_domain());
    EXPECT_EQ(a[d].benchmarks, b[d].benchmarks);
  }
  // Same multiset of tenants overall.
  std::vector<std::string> flat;
  for (const auto& m : a) flat.insert(flat.end(), m.benchmarks.begin(), m.benchmarks.end());
  std::sort(flat.begin(), flat.end());
  std::vector<std::string> want = tenants;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(flat, want);
}

// batch.jobs counts every shard job run: one per domain on the flat
// path, one per domain per slice on the coordinated path.
TEST(FleetAccounting, BatchJobsCountEveryShardJob) {
  FleetConfig cfg;
  cfg.params = fleet_params(2);
  cfg.churn_slice = 60'000;
  cfg.churn_per_mille = 0;      // slicing without swaps
  cfg.churn_catalog = {"mcf"};  // non-empty so both paths slice
  const auto mixes = plan_placement(tenant_pool(8), PlacementMode::RoundRobin, cfg.params);
  const std::size_t domains = mixes.size();
  const std::size_t slices =
      static_cast<std::size_t>((cfg.params.run_cycles + cfg.churn_slice - 1) / cfg.churn_slice);
  ASSERT_GT(slices, 1u);

  EXPECT_EQ(run_fleet(cfg, mixes).batch.jobs, domains);

  FleetConfig coordinated = cfg;
  coordinated.coordinator_period = 1;
  EXPECT_EQ(run_fleet(coordinated, mixes).batch.jobs, domains * slices);
}

TEST(FleetValidation, RejectsMalformedInput) {
  FleetConfig cfg;
  cfg.params = fleet_params(2);
  EXPECT_THROW(run_fleet(cfg, std::vector<workloads::WorkloadMix>{}), std::invalid_argument);
  auto mixes = plan_placement(tenant_pool(8), PlacementMode::RoundRobin, cfg.params);
  mixes[1].benchmarks.pop_back();
  EXPECT_THROW(run_fleet(cfg, mixes), std::invalid_argument);
  EXPECT_THROW(
      plan_placement(tenant_pool(3), PlacementMode::RoundRobin, cfg.params),
      std::invalid_argument);
}

}  // namespace
}  // namespace cmm::analysis
