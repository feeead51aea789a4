// Sharded fleet runner: many-core experiments over multi-LLC-domain
// machines (MachineConfig::num_llc_domains > 1), one EpochDriver shard
// per domain on the harness thread pool, under a two-level control
// hierarchy: the per-domain drivers are level one, and a
// FleetCoordinator (fleet_coordinator.hpp) running every
// coordinator_period slices is level two, planning cross-domain tenant
// migrations from per-domain telemetry. There is one slice loop: the
// run is a sequence of segments, each one parallel batch with one job
// per domain, and a coordinator round runs between segments. With the
// coordinator disabled (coordinator_period == 0, the default) the whole
// run is one segment, so it pays exactly one barrier.
//
// Determinism argument (see DESIGN.md, "Sharded multi-LLC fleet" and
// "Hierarchical CMM"): domains share nothing — each owns a private
// LLC, CAT, and memory controller; churn draws from a per-domain RNG
// seeded by churn_seed ^ domain, never by thread id or schedule; and
// the coordinator acts only between segments, serially, on telemetry
// that is itself a pure function of the seeded simulation. Inside a
// segment each job touches only its own shard, so a fleet run is
// bit-identical at any CMM_THREADS, and a coordinator-free shard is
// bit-identical to a standalone run_mix() on the domain's machine — the
// properties test_fleet.cpp and test_migration.cpp pin.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/fleet_coordinator.hpp"
#include "analysis/run_harness.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"

namespace cmm::analysis {

/// Cross-domain placement policy of the coordinator.
enum class PlacementMode : std::uint8_t {
  /// Tenant i lands on domain i % num_domains (slot-fill order).
  RoundRobin,
  /// Greedy balance on solo demand bandwidth: heaviest tenants first,
  /// each onto the currently least-loaded domain (memoized solo runs;
  /// deterministic ties by tenant index / domain id). This is the
  /// coordinator exercising cross-domain knowledge the per-domain
  /// policies don't have — the LFOC/CBP-style placement layer.
  BandwidthBalanced,
};

struct FleetConfig {
  /// params.machine describes the whole fleet (num_llc_domains >= 1).
  RunParams params{};
  std::string policy = "cmm_c";

  // ---- Tenant churn (0 = steady-state run, bit-identical to run_mix
  // per domain) ----

  /// Slice length in cycles between churn decision points. The run is
  /// driver.run(slice) repeated, with swaps between slices — the
  /// service-mode pattern (detach + attach + reseed to baseline).
  Cycle churn_slice = 0;
  /// Probability (in 1/1000 units) that a domain swaps one tenant at a
  /// slice boundary.
  unsigned churn_per_mille = 250;
  std::uint64_t churn_seed = 99;
  /// Replacement tenants drawn on churn (index via the domain RNG).
  /// Empty disables swaps even when churn_slice > 0.
  std::vector<std::string> churn_catalog;

  // ---- Hierarchical coordinator (0 = disabled) ----

  /// Run the FleetCoordinator every K slices. A slice is churn_slice
  /// cycles when churn is on; otherwise it is one execution epoch plus
  /// eight sampling intervals (the service-tick default) with K > 0,
  /// and the whole run with K = 0. Each K slices form one segment under
  /// a barrier, so the coordinator can migrate tenants across domains
  /// between segments; with K = 0 the whole run is one segment.
  unsigned coordinator_period = 0;
  /// Accepted migrations per coordinator round.
  unsigned migration_budget = 1;
  /// Strict-improvement threshold on predicted fleet hm_ipc.
  double migration_min_gain = 0.005;
  /// Hysteresis: rounds both slots of a swap stay pinned.
  unsigned migration_cooldown = 2;
  /// Per-domain bandwidth-feasibility cap for inbound migrations.
  double migration_headroom = 0.95;
  /// Serial sink for the coordinator's TenantMigrated /
  /// MigrationRejected events (borrowed; null = no events). Kept
  /// separate from params.epochs.sink, which the parallel shards would
  /// interleave nondeterministically.
  obs::TraceSink* coordinator_sink = nullptr;
};

/// One domain's shard outcome, in local (per-domain) core order.
struct DomainShardResult {
  RunResult result;
  double hm_ipc = 0.0;
  std::uint64_t churn_swaps = 0;       // detach+attach pairs performed
  std::uint64_t epochs_completed = 0;  // driver execution epochs
};

struct FleetResult {
  std::vector<DomainShardResult> domains;
  /// Domain-order concatenation: cores[global id] corresponds to
  /// domains[domain_of(id)].result.cores[local id].
  RunResult merged;
  /// Job-order merge of the per-shard registries plus fleet.* counters.
  obs::MetricsRegistry metrics;
  /// Shard jobs run: one job per domain per segment (a segment is the
  /// whole run with K = 0, K slices otherwise). Times and cache counts
  /// are summed over the segments likewise.
  BatchStats batch;
  double hm_ipc = 0.0;  // harmonic mean over all fleet cores

  /// Every migration candidate the coordinator ruled on, in decision
  /// order (empty when coordinator_period == 0). The tenant resident
  /// on each core at the end of the run is merged.cores[i].benchmark.
  std::vector<MigrationRecord> migrations;

  std::uint64_t total_churn_swaps() const noexcept;
  std::uint64_t accepted_migrations() const noexcept;
};

/// Deterministic heavy-first placement order over tenants: sort by
/// solo demand bandwidth descending, ties by benchmark name, then by
/// original index. Exposed separately so the tie-break is testable
/// with synthetic bandwidths — equal-bandwidth placements must be a
/// pure function of the tenant list, never of sort internals.
std::vector<std::size_t> placement_order(const std::vector<std::string>& benchmarks,
                                         const std::vector<double>& bandwidth);

/// Place `benchmarks` (one per fleet core, global core order) onto
/// domains. Returns one WorkloadMix per domain, local core order,
/// named "fleet_d<d>". BandwidthBalanced runs the distinct solos as
/// one memoized parallel batch first; with a coordinator enabled this
/// placement is only the initial state — migrations refine it at
/// runtime.
std::vector<workloads::WorkloadMix> plan_placement(const std::vector<std::string>& benchmarks,
                                                   PlacementMode mode, const RunParams& params,
                                                   const BatchOptions& opts = {});

/// Run one shard per domain (shard d simulates
/// params.machine.domain_config(d) under `shard_mixes[d]`). Size of
/// `shard_mixes` must equal num_llc_domains; each mix must have
/// cores_per_domain() benchmarks.
FleetResult run_fleet(const FleetConfig& cfg,
                      const std::vector<workloads::WorkloadMix>& shard_mixes,
                      const BatchOptions& opts = {});

/// Placement + run in one call (benchmarks in global core order).
FleetResult run_fleet(const FleetConfig& cfg, const std::vector<std::string>& benchmarks,
                      PlacementMode mode = PlacementMode::RoundRobin,
                      const BatchOptions& opts = {});

}  // namespace cmm::analysis
