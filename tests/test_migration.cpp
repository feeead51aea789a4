// Hierarchical CMM: live cross-domain tenant migration. The claims
// under test, bottom-up:
//
//  - Sim layer: export_tenant / attach_core_stream transplants the op
//    stream whole — buffered-but-unconsumed ops, traits, sub-cycle
//    phase — so a migrated tenant neither skips nor replays work, and
//    PMU counters stay monotonic across the move.
//  - BandwidthLedger: slot-table semantics (commit/release/move) and
//    the extra-first ascending-slot summation order.
//  - FleetCoordinator: pure function of telemetry (repeat-identical),
//    strict-improvement acceptance, per-domain bandwidth feasibility,
//    cooldown hysteresis against ping-pong, per-round budget.
//  - Fleet runner: a hierarchical run that accepts no migrations is
//    bit-identical to a K=0 run on the same schedule; a
//    pathological placement triggers real migrations; the whole thing
//    is thread-count invariant and repeat-identical.
//  - ServiceDriver: admission drawn on a coordinator-shared ledger
//    sees fleet-wide committed demand.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/bandwidth_ledger.hpp"
#include "analysis/fleet.hpp"
#include "analysis/fleet_coordinator.hpp"
#include "analysis/run_harness.hpp"
#include "service/service_driver.hpp"
#include "sim/multicore_system.hpp"
#include "workloads/benchmark_specs.hpp"
#include "workloads/workload_mix.hpp"

namespace cmm::analysis {
namespace {

// ------------------------------------------------------ sim layer

sim::MachineConfig small_machine(unsigned cores) {
  sim::MachineConfig c = sim::MachineConfig::scaled(32);
  c.num_cores = cores;
  return c;
}

void expect_stream_equal(const sim::OpStreamState& a, const sim::OpStreamState& b) {
  EXPECT_EQ(a.source.get(), b.source.get());  // same stream object, not a copy
  EXPECT_EQ(a.pos, b.pos);
  EXPECT_EQ(a.len, b.len);
  EXPECT_EQ(a.frac, b.frac);
  EXPECT_EQ(a.traits.base_cpi, b.traits.base_cpi);
  EXPECT_EQ(a.traits.mlp, b.traits.mlp);
  for (std::size_t i = a.pos; i < a.len; ++i) {
    EXPECT_EQ(a.batch[i].instructions, b.batch[i].instructions) << "op " << i;
    EXPECT_EQ(a.batch[i].has_mem, b.batch[i].has_mem) << "op " << i;
    EXPECT_EQ(a.batch[i].mem.addr, b.batch[i].mem.addr) << "op " << i;
  }
}

// The fleet coordinator's migration step: export both streams, then
// attach each on the other core.
void swap_streams(sim::MulticoreSystem& sys, CoreId a, CoreId b) {
  sim::OpStreamState sa = sys.export_tenant(a);
  sim::OpStreamState sb = sys.export_tenant(b);
  sys.attach_core_stream(a, std::move(sb));
  sys.attach_core_stream(b, std::move(sa));
}

TEST(SimMigration, SwapTransplantsBufferedOpsExactly) {
  sim::MulticoreSystem sys(small_machine(2));
  sys.set_op_source(0, workloads::make_op_source("lbm", sys.config(), 0, 7));
  sys.set_op_source(1, workloads::make_op_source("povray", sys.config(), 1, 8));
  sys.run(30'000);

  const sim::OpStreamState s0 = sys.export_tenant(0);
  const sim::OpStreamState s1 = sys.export_tenant(1);
  // The test must exercise a non-empty buffer, otherwise it could not
  // distinguish a stream transplant from the set_op_source path (which
  // drops buffered ops). Both sources batch 64 ops at a time, so after
  // an odd cycle count at least one core is mid-batch.
  ASSERT_TRUE(s0.len > s0.pos || s1.len > s1.pos);

  swap_streams(sys, 0, 1);
  // Stream state crossed over bit-for-bit: no skipped, no replayed ops.
  expect_stream_equal(sys.export_tenant(0), s1);
  expect_stream_equal(sys.export_tenant(1), s0);
  EXPECT_FALSE(sys.core_idle(0));
  EXPECT_FALSE(sys.core_idle(1));
}

TEST(SimMigration, PmuSurvivesMigrationMonotonically) {
  sim::MulticoreSystem sys(small_machine(2));
  sys.set_op_source(0, workloads::make_op_source("milc", sys.config(), 0, 7));
  sys.set_op_source(1, workloads::make_op_source("gobmk", sys.config(), 1, 8));
  sys.run(50'000);
  const auto before = sys.pmu().snapshot();
  ASSERT_GT(before[0].instructions, 0u);

  swap_streams(sys, 0, 1);
  // The PMU is per-core, not per-tenant: counters are never reset by a
  // migration (history stays attributed to the core, like hardware).
  EXPECT_EQ(sys.pmu().snapshot(), before);

  sys.run(50'000);
  for (CoreId c = 0; c < 2; ++c) {
    const auto delta = sys.pmu().core(c).delta_since(before[c]);
    EXPECT_GT(delta.cycles, 0u) << "core " << c;
    EXPECT_GT(delta.instructions, 0u) << "core " << c << " stopped retiring after migration";
  }
}

TEST(SimMigration, MigratedCoreRestartsCold) {
  sim::MulticoreSystem sys(small_machine(2));
  sys.set_op_source(0, workloads::make_op_source("lbm", sys.config(), 0, 7));
  sys.set_op_source(1, workloads::make_op_source("povray", sys.config(), 1, 8));
  sys.run(200'000);  // lbm builds an LLC footprint
  ASSERT_GT(sys.llc().occupancy_by_owner(2)[0], 0u);

  swap_streams(sys, 0, 1);
  // Migration = hotplug semantics: the departing tenant's LLC lines
  // are invalidated (its destination domain starts cold; here both
  // directions share the one LLC, so both footprints drop).
  const auto occ = sys.llc().occupancy_by_owner(2);
  EXPECT_EQ(occ[0], 0u);
  EXPECT_EQ(occ[1], 0u);
}

// ------------------------------------------------ bandwidth ledger

TEST(BandwidthLedger, SlotTableAccounting) {
  BandwidthLedger ledger(/*domain_peak_gbs=*/10.0, /*domains=*/2, /*slots=*/4);
  EXPECT_EQ(ledger.total_peak_gbs(), 20.0);
  EXPECT_EQ(ledger.projected(), 0.0);

  ledger.commit(0, 0, 3.0);
  ledger.commit(2, 1, 4.0);
  EXPECT_EQ(ledger.projected(), 7.0);
  EXPECT_EQ(ledger.projected(1.5), 8.5);
  EXPECT_EQ(ledger.domain_load(0), 3.0);
  EXPECT_EQ(ledger.domain_load(1), 4.0);

  // Re-commit overwrites; release frees; move re-homes the demand.
  ledger.commit(0, 0, 5.0);
  EXPECT_EQ(ledger.domain_load(0), 5.0);
  ledger.move(2, 3, 0);
  EXPECT_EQ(ledger.domain_load(1), 0.0);
  EXPECT_EQ(ledger.domain_load(0), 9.0);
  ledger.release(0);
  EXPECT_EQ(ledger.projected(), 4.0);

  EXPECT_TRUE(ledger.admissible(5.0, 0.5));    // 9 <= 10
  EXPECT_FALSE(ledger.admissible(7.0, 0.5));   // 11 > 10
  EXPECT_TRUE(ledger.domain_admissible(0, 5.0, 0.95));
  EXPECT_FALSE(ledger.domain_admissible(0, 6.0, 0.95));
}

// ---------------------------------------------- coordinator (unit)

sim::PmuCounters counters(std::uint64_t cycles, std::uint64_t instr, std::uint64_t bytes) {
  sim::PmuCounters c;
  c.cycles = cycles;
  c.instructions = instr;
  c.dram_demand_bytes = bytes;
  return c;
}

/// Telemetry builder at freq 1 GHz (gbs = bytes/cycles). Counters are
/// cumulative, so callers pass running totals round over round.
std::vector<DomainTelemetry> telemetry(std::uint32_t domains, std::uint32_t cpd,
                                       const std::vector<sim::PmuCounters>& slots) {
  std::vector<DomainTelemetry> fleet(domains);
  for (std::uint32_t d = 0; d < domains; ++d) {
    fleet[d].summary.epoch = 1;
    fleet[d].summary.now = 1000;
    for (std::uint32_t c = 0; c < cpd; ++c) {
      fleet[d].summary.exec_counters.push_back(slots[d * cpd + c]);
      fleet[d].running.push_back("t" + std::to_string(d * cpd + c));
    }
  }
  return fleet;
}

CoordinatorConfig coord_cfg(std::uint32_t domains, std::uint32_t cpd) {
  CoordinatorConfig cfg;
  cfg.domains = domains;
  cfg.cores_per_domain = cpd;
  cfg.domain_peak_gbs = 10.0;
  cfg.freq_ghz = 1.0;
  return cfg;
}

/// Cumulative counters for a 2x2 fleet where domain 0 holds two
/// contended streams (5 GB/s each, IPC crushed to 0.2 by the shared
/// queue) and domain 1 two light tenants (0.3 GB/s, IPC 0.8).
/// Splitting the heavy pair across domains is a clear predicted win.
std::vector<sim::PmuCounters> skewed_slots(std::uint64_t scale = 1) {
  return {counters(1000 * scale, 200 * scale, 5000 * scale),
          counters(1000 * scale, 200 * scale, 5000 * scale),
          counters(1000 * scale, 800 * scale, 300 * scale),
          counters(1000 * scale, 800 * scale, 300 * scale)};
}

TEST(FleetCoordinator, SkewedLoadTriggersAcceptedSwap) {
  FleetCoordinator coord(coord_cfg(2, 2));
  const auto records = coord.plan_round(telemetry(2, 2, skewed_slots()));
  ASSERT_EQ(records.size(), 1u);
  const MigrationRecord& rec = records.front();
  EXPECT_TRUE(rec.accepted);
  EXPECT_EQ(rec.reason, "accepted");
  EXPECT_GE(rec.predicted_gain, 0.005);
  EXPECT_LT(rec.from_core, 2u);  // out of the overloaded domain 0
  EXPECT_GE(rec.to_core, 2u);    // into the idle domain 1
  EXPECT_EQ(coord.accepted(), 1u);
  EXPECT_EQ(coord.rounds(), 1u);
  // The ledger carries the post-swap homes: measured demand moved, so
  // both domains now hold one heavy and one light stream.
  EXPECT_NEAR(coord.ledger().domain_load(0), 5.3, 1e-9);
  EXPECT_NEAR(coord.ledger().domain_load(1), 5.3, 1e-9);
}

TEST(FleetCoordinator, PlanIsPureFunctionOfTelemetry) {
  FleetCoordinator a(coord_cfg(2, 2));
  FleetCoordinator b(coord_cfg(2, 2));
  for (std::uint64_t round = 1; round <= 3; ++round) {
    const auto fleet = telemetry(2, 2, skewed_slots(round));
    const auto ra = a.plan_round(fleet);
    const auto rb = b.plan_round(fleet);
    ASSERT_EQ(ra.size(), rb.size()) << "round " << round;
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].from_core, rb[i].from_core);
      EXPECT_EQ(ra[i].to_core, rb[i].to_core);
      EXPECT_EQ(ra[i].tenant_a, rb[i].tenant_a);
      EXPECT_EQ(ra[i].tenant_b, rb[i].tenant_b);
      EXPECT_EQ(ra[i].predicted_gain, rb[i].predicted_gain);
      EXPECT_EQ(ra[i].accepted, rb[i].accepted);
      EXPECT_EQ(ra[i].reason, rb[i].reason);
    }
  }
}

TEST(FleetCoordinator, CooldownPinsMigratedSlots) {
  auto cfg = coord_cfg(2, 2);
  cfg.cooldown_rounds = 10;  // pin for the whole test
  FleetCoordinator coord(cfg);

  const auto r1 = coord.plan_round(telemetry(2, 2, skewed_slots(1)));
  ASSERT_EQ(r1.size(), 1u);
  ASSERT_TRUE(r1.front().accepted);

  // Same skew again: the optimal pair is pinned, so the coordinator
  // must pick the remaining heavy/light pair...
  const auto r2 = coord.plan_round(telemetry(2, 2, skewed_slots(2)));
  ASSERT_EQ(r2.size(), 1u);
  ASSERT_TRUE(r2.front().accepted);
  EXPECT_NE(r2.front().from_core, r1.front().from_core);
  EXPECT_NE(r2.front().to_core, r1.front().to_core);

  // ...and once every candidate is pinned, it reports the stall
  // instead of ping-ponging.
  const auto r3 = coord.plan_round(telemetry(2, 2, skewed_slots(3)));
  ASSERT_EQ(r3.size(), 1u);
  EXPECT_FALSE(r3.front().accepted);
  EXPECT_EQ(r3.front().reason, "cooldown");
  EXPECT_EQ(coord.accepted(), 2u);
  EXPECT_EQ(coord.rejected(), 1u);
}

TEST(FleetCoordinator, CooldownExpires) {
  auto cfg = coord_cfg(2, 2);
  cfg.cooldown_rounds = 1;  // pinned for exactly one round
  FleetCoordinator coord(cfg);
  const auto r1 = coord.plan_round(telemetry(2, 2, skewed_slots(1)));
  ASSERT_TRUE(r1.front().accepted);
  coord.plan_round(telemetry(2, 2, skewed_slots(2)));
  const auto r3 = coord.plan_round(telemetry(2, 2, skewed_slots(3)));
  ASSERT_EQ(r3.size(), 1u);
  // Round 3 is past round 1's cooldown horizon (1 + 1): the original
  // pair is movable again.
  EXPECT_TRUE(r3.front().accepted);
}

TEST(FleetCoordinator, NearBalancedLoadRejectsNoGain) {
  FleetCoordinator coord(coord_cfg(2, 2));
  const std::vector<sim::PmuCounters> slots{
      counters(1000, 800, 3000), counters(1000, 800, 3000),
      counters(1000, 800, 2900), counters(1000, 800, 2900)};
  const auto records = coord.plan_round(telemetry(2, 2, slots));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records.front().accepted);
  EXPECT_EQ(records.front().reason, "no_gain");
  EXPECT_LT(records.front().predicted_gain, 0.005);
}

TEST(FleetCoordinator, InfeasibleDestinationRejectsOnBandwidth) {
  auto cfg = coord_cfg(2, 2);
  cfg.bandwidth_headroom = 0.0;  // nothing fits anywhere
  FleetCoordinator coord(cfg);
  const auto records = coord.plan_round(telemetry(2, 2, skewed_slots()));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records.front().accepted);
  EXPECT_EQ(records.front().reason, "bandwidth");
  EXPECT_EQ(coord.accepted(), 0u);
}

TEST(FleetCoordinator, BudgetBoundsAcceptedSwapsPerRound) {
  auto cfg = coord_cfg(2, 2);
  cfg.migration_budget = 2;
  FleetCoordinator coord(cfg);
  const auto records = coord.plan_round(telemetry(2, 2, skewed_slots()));
  std::size_t accepted = 0;
  for (const auto& r : records) accepted += r.accepted ? 1 : 0;
  EXPECT_LE(accepted, 2u);
  EXPECT_GE(accepted, 1u);
  EXPECT_EQ(coord.accepted(), accepted);
}

TEST(FleetCoordinator, UnmeasurableRoundIsSkipped) {
  FleetCoordinator coord(coord_cfg(2, 2));
  // A slice with no execution-epoch progress on one slot: all-zero
  // deltas carry no signal, so the round must decide nothing.
  std::vector<sim::PmuCounters> slots = skewed_slots();
  slots[3] = sim::PmuCounters{};
  const auto records = coord.plan_round(telemetry(2, 2, slots));
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(coord.rounds(), 1u);
  EXPECT_EQ(coord.accepted(), 0u);
}

// -------------------------------------------- placement tie-break

TEST(FleetPlacement, EqualBandwidthTiesBreakByNameThenIndex) {
  // Four tenants, all with identical solo bandwidth: the order must be
  // a pure function of the names and indices, never of sort internals.
  const std::vector<std::string> benchmarks{"zeta", "alpha", "zeta", "alpha"};
  const std::vector<double> bw{2.0, 2.0, 2.0, 2.0};
  const auto order = placement_order(benchmarks, bw);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 3, 0, 2}));

  // Bandwidth dominates; ties resolve inside each band.
  const std::vector<double> bw2{1.0, 2.0, 1.0, 2.0};
  EXPECT_EQ(placement_order(benchmarks, bw2), (std::vector<std::size_t>{1, 3, 0, 2}));
  const std::vector<double> bw3{3.0, 2.0, 1.0, 2.0};
  EXPECT_EQ(placement_order(benchmarks, bw3), (std::vector<std::size_t>{0, 1, 3, 2}));

  EXPECT_THROW(placement_order(benchmarks, {1.0}), std::invalid_argument);
}

TEST(FleetPlacement, BandwidthBalancedIsStableUnderEqualSolos) {
  // All cores run the same benchmark: every solo bandwidth ties, so
  // the placement must be index order dealt greedily — domain 0 gets
  // even indices, domain 1 odd (least-loaded alternates).
  RunParams params;
  params.machine = sim::MachineConfig::fleet(2, 2, /*scale_divisor=*/32);
  params.warmup_cycles = 20'000;
  params.run_cycles = 100'000;
  const std::vector<std::string> tenants(4, "povray");
  const auto a = plan_placement(tenants, PlacementMode::BandwidthBalanced, params);
  const auto b = plan_placement(tenants, PlacementMode::BandwidthBalanced, params);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].benchmarks, b[0].benchmarks);
  EXPECT_EQ(a[1].benchmarks, b[1].benchmarks);
  EXPECT_EQ(a[0].benchmarks, (std::vector<std::string>{"povray", "povray"}));
  EXPECT_EQ(a[1].benchmarks, (std::vector<std::string>{"povray", "povray"}));
}

// ------------------------------------------------- fleet (E2E)

FleetConfig fleet_cfg(unsigned domains, unsigned cpd = 4) {
  FleetConfig cfg;
  cfg.params.machine = sim::MachineConfig::fleet(domains, cpd, /*scale_divisor=*/32);
  cfg.params.warmup_cycles = 50'000;
  cfg.params.run_cycles = 300'000;
  cfg.params.epochs.execution_epoch = 100'000;
  cfg.params.epochs.sampling_interval = 10'000;
  cfg.params.seed = 42;
  cfg.policy = "cmm_c";
  return cfg;
}

/// Deliberately pathological placement: every bandwidth-heavy stream
/// packed onto domain 0, every compute-bound tenant on domain 1.
std::vector<workloads::WorkloadMix> pathological_mixes() {
  std::vector<workloads::WorkloadMix> mixes(2);
  mixes[0].name = "fleet_d0";
  mixes[0].benchmarks = {"lbm", "libquantum", "milc", "bwaves"};
  mixes[1].name = "fleet_d1";
  mixes[1].benchmarks = {"povray", "calculix", "gobmk", "namd"};
  return mixes;
}

TEST(FleetHierarchy, NoAcceptedMigrationMatchesFlatRunner) {
  // A coordinator that never accepts (impossible gain bar) must leave
  // the shards bit-identical to a K=0 run on the same slice
  // schedule — planning alone has no side effects.
  FleetConfig flat = fleet_cfg(2);
  flat.churn_slice = 60'000;
  flat.churn_per_mille = 0;       // slicing without swaps
  flat.churn_catalog = {"mcf"};   // non-empty so both paths slice
  const auto mixes = pathological_mixes();
  const FleetResult a = run_fleet(flat, mixes);

  for (const unsigned k : {1u, 2u, 3u}) {
    SCOPED_TRACE("coordinator_period " + std::to_string(k));
    FleetConfig hier = flat;
    hier.coordinator_period = k;
    hier.migration_min_gain = 1e9;
    const FleetResult b = run_fleet(hier, mixes);
    EXPECT_EQ(a.merged, b.merged);
    EXPECT_EQ(b.accepted_migrations(), 0u);
    for (std::size_t d = 0; d < a.domains.size(); ++d) {
      EXPECT_EQ(a.domains[d].result, b.domains[d].result) << "domain " << d;
    }
  }
}

TEST(FleetHierarchy, PathologicalPlacementTriggersMigration) {
  FleetConfig cfg = fleet_cfg(2);
  cfg.params.run_cycles = 600'000;
  cfg.coordinator_period = 1;
  const FleetResult hier = run_fleet(cfg, pathological_mixes());
  EXPECT_GE(hier.accepted_migrations(), 1u);
  EXPECT_FALSE(hier.migrations.empty());
  for (const auto& rec : hier.migrations) {
    if (!rec.accepted) continue;
    EXPECT_GE(rec.predicted_gain, cfg.migration_min_gain);
    EXPECT_NE(rec.from_core / 4, rec.to_core / 4) << "migration must cross domains";
  }
  // The migrated tenants really moved: the final residents differ from
  // the initial placement.
  const auto mixes = pathological_mixes();
  bool moved = false;
  for (std::size_t c = 0; c < hier.merged.cores.size(); ++c) {
    if (hier.merged.cores[c].benchmark != mixes[c / 4].benchmarks[c % 4]) moved = true;
  }
  EXPECT_TRUE(moved);

  // Migration pays: the refined placement's fleet objective is no
  // worse than freezing the pathological initial placement.
  FleetConfig frozen = cfg;
  frozen.coordinator_period = 0;
  const FleetResult flat = run_fleet(frozen, mixes);
  EXPECT_GE(hier.hm_ipc, flat.hm_ipc);
}

TEST(FleetHierarchy, MigrationRunsAreDeterministic) {
  FleetConfig cfg = fleet_cfg(2);
  cfg.params.run_cycles = 600'000;
  cfg.coordinator_period = 1;
  cfg.migration_budget = 2;

  BatchOptions serial;
  serial.threads = 1;
  BatchOptions wide;
  wide.threads = 4;
  const FleetResult a = run_fleet(cfg, pathological_mixes(), serial);
  const FleetResult b = run_fleet(cfg, pathological_mixes(), wide);

  EXPECT_EQ(a.merged, b.merged);
  EXPECT_EQ(a.metrics.json(), b.metrics.json());
  ASSERT_EQ(a.migrations.size(), b.migrations.size());
  for (std::size_t i = 0; i < a.migrations.size(); ++i) {
    EXPECT_EQ(a.migrations[i].round, b.migrations[i].round);
    EXPECT_EQ(a.migrations[i].from_core, b.migrations[i].from_core);
    EXPECT_EQ(a.migrations[i].to_core, b.migrations[i].to_core);
    EXPECT_EQ(a.migrations[i].tenant_a, b.migrations[i].tenant_a);
    EXPECT_EQ(a.migrations[i].tenant_b, b.migrations[i].tenant_b);
    EXPECT_EQ(a.migrations[i].predicted_gain, b.migrations[i].predicted_gain);
    EXPECT_EQ(a.migrations[i].accepted, b.migrations[i].accepted);
    EXPECT_EQ(a.migrations[i].reason, b.migrations[i].reason);
  }
}

TEST(FleetHierarchy, ChurnAndCoordinatorCompose) {
  // Migrations and tenant churn in the same run: still repeatable, and
  // the churn RNG schedule stays a pure function of (seed, domain).
  FleetConfig cfg = fleet_cfg(2);
  cfg.params.run_cycles = 600'000;
  cfg.churn_slice = 100'000;
  cfg.churn_per_mille = 500;
  cfg.churn_catalog = {"mcf", "soplex"};
  cfg.coordinator_period = 2;
  const FleetResult a = run_fleet(cfg, pathological_mixes());
  const FleetResult b = run_fleet(cfg, pathological_mixes());
  EXPECT_EQ(a.merged, b.merged);
  EXPECT_EQ(a.total_churn_swaps(), b.total_churn_swaps());
  EXPECT_EQ(a.migrations.size(), b.migrations.size());
}

// ------------------------------------- service x coordinator ledger

TEST(ServiceLedger, SharedLedgerTightensAdmission) {
  service::ServiceConfig scfg;
  scfg.params.machine = sim::MachineConfig::scaled(32);
  scfg.params.warmup_cycles = 50'000;
  scfg.params.run_cycles = 150'000;
  scfg.params.epochs.execution_epoch = 20'000;
  scfg.params.epochs.sampling_interval = 2'000;
  scfg.admission_headroom = 0.5;

  // A private-ledger driver admits the first tenant onto the empty
  // machine.
  service::ServiceDriver alone(scfg, make_policy("cmm_a", scfg.params.detector()));
  const auto a = alone.attach({"povray", 0.0, 1});
  ASSERT_EQ(a.decision, service::AdmissionDecision::Admitted);
  EXPECT_GT(alone.ledger().projected(), 0.0);

  // The same driver drawing on a coordinator-shared ledger sees the
  // rest of the fleet's committed demand and queues instead.
  CoordinatorConfig ccfg;
  ccfg.domains = scfg.params.machine.num_llc_domains;
  ccfg.cores_per_domain = scfg.params.machine.num_cores;
  ccfg.domain_peak_gbs =
      scfg.params.machine.dram_peak_bytes_per_cycle * scfg.params.machine.freq_ghz;
  FleetCoordinator coord(ccfg);
  for (std::size_t slot = 1; slot < scfg.params.machine.num_cores; ++slot) {
    coord.ledger().commit(slot, 0, coord.ledger().domain_peak_gbs());  // fleet is saturated
  }
  service::ServiceConfig shared_cfg = scfg;
  shared_cfg.shared_ledger = &coord.ledger();
  service::ServiceDriver shared(shared_cfg, make_policy("cmm_a", scfg.params.detector()));
  const auto b = shared.attach({"povray", 0.0, 1});
  EXPECT_EQ(b.decision, service::AdmissionDecision::Queued);
  EXPECT_EQ(&shared.ledger(), &coord.ledger());
}

}  // namespace
}  // namespace cmm::analysis
