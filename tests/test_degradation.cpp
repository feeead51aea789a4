// The graceful-degradation ladder, asserted end to end through the
// EpochDriver with the fault-injecting HAL: which HealthLog rungs fire
// and what state the (sim) hardware is left in.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/run_harness.hpp"
#include "common/bitmask.hpp"
#include "core/epoch_driver.hpp"
#include "core/policy_cmm.hpp"
#include "hw/fault_injection.hpp"
#include "workloads/workload_mix.hpp"

namespace cmm::core {
namespace {

sim::MachineConfig cfg() { return sim::MachineConfig::scaled(16); }

EpochConfig epochs() {
  EpochConfig e;
  e.execution_epoch = 200'000;
  e.sampling_interval = 10'000;
  return e;
}

std::unique_ptr<sim::MulticoreSystem> make_system() {
  auto sys = std::make_unique<sim::MulticoreSystem>(cfg());
  const auto mixes =
      workloads::make_mixes(workloads::MixCategory::PrefAgg, 1, cfg().num_cores, 3);
  workloads::attach_mix(*sys, mixes.front(), 42);
  return sys;
}

std::unique_ptr<Policy> cmm_a(double freq_ghz) {
  CmmPolicy::Options o;
  o.detector.freq_ghz = freq_ghz;
  o.variant = CmmVariant::A;
  return std::make_unique<CmmPolicy>(o);
}

/// Driver plus the fault-injecting HAL stack it runs on.
struct FaultedRun {
  std::unique_ptr<sim::MulticoreSystem> sys;
  std::unique_ptr<Policy> policy;
  hw::SimMsrDevice sim_msr;
  hw::SimPmuReader sim_pmu;
  hw::SimCatController sim_cat;
  hw::SimMbaController sim_mba;
  hw::FaultInjector injector;
  hw::FaultInjectingMsrDevice msr;
  hw::FaultInjectingPmuReader pmu;
  hw::FaultInjectingCatController cat;
  EpochDriver driver;

  FaultedRun(const hw::FaultPlan& plan, std::unique_ptr<Policy> pol)
      : sys(make_system()),
        policy(std::move(pol)),
        sim_msr(*sys),
        sim_pmu(*sys),
        sim_cat(*sys),
        sim_mba(*sys),
        injector(plan),
        msr(sim_msr, injector),
        pmu(sim_pmu, injector),
        cat(sim_cat, injector),
        driver(*sys, *policy, msr, pmu, cat, sim_mba, epochs()) {}
};

/// Throws on every begin_profiling; the watchdog scenario.
class ThrowingPolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "throwing"; }
  ResourceConfig initial_config(unsigned cores, unsigned ways) override {
    // Deliberately non-baseline so the watchdog has something to undo.
    ResourceConfig c = ResourceConfig::baseline(cores, ways);
    c.prefetch_on[0] = false;
    for (auto& m : c.way_masks) m = contiguous_mask(0, ways / 2);
    return c;
  }
  void begin_profiling(const std::vector<sim::PmuCounters>&) override {
    throw std::runtime_error("injected policy fault");
  }
  std::optional<ResourceConfig> next_sample() override { return std::nullopt; }
  void report_sample(const SampleStats&) override {}
  ResourceConfig final_config() override { return {}; }
};

TEST(DegradationLadder, PersistentCatFaultFallsBackToPtOnly) {
  hw::FaultPlan plan;
  plan.cat_apply_fail_p = 1.0;
  plan.transient_fraction = 0.0;  // persistent on first touch

  FaultedRun run(plan, cmm_a(cfg().freq_ghz));
  run.driver.run(600'000);

  EXPECT_TRUE(run.driver.health().has(HealthEventKind::PtOnlyFallback));
  EXPECT_FALSE(run.driver.cat_available());
  EXPECT_TRUE(run.driver.prefetch_available());
  EXPECT_FALSE(run.driver.health().has(HealthEventKind::ManagementLost));

  // The fallback resets CAT (reset itself is healthy under this plan),
  // so no core is left stuck with a partial mask.
  const WayMask full = full_mask(run.sys->cat().llc_ways());
  for (CoreId c = 0; c < run.sys->num_cores(); ++c)
    EXPECT_EQ(run.sys->cat().core_mask(c), full);
}

TEST(DegradationLadder, AllCoresOfflineFallsBackToCpOnly) {
  hw::FaultPlan plan;
  for (CoreId c = 0; c < cfg().num_cores; ++c) plan.offline_cores.push_back(c);

  FaultedRun run(plan, cmm_a(cfg().freq_ghz));
  run.driver.run(600'000);

  EXPECT_EQ(run.driver.health().count(HealthEventKind::CorePrefetchOffline),
            static_cast<std::size_t>(cfg().num_cores));
  EXPECT_TRUE(run.driver.health().has(HealthEventKind::CpOnlyFallback));
  EXPECT_FALSE(run.driver.prefetch_available());
  EXPECT_TRUE(run.driver.cat_available());  // CAT ops are machine-wide, not per-core
}

TEST(DegradationLadder, SingleOfflineCoreDoesNotLoseTheMechanism) {
  hw::FaultPlan plan;
  plan.offline_cores = {3};

  FaultedRun run(plan, cmm_a(cfg().freq_ghz));
  run.driver.run(600'000);

  const auto& health = run.driver.health();
  EXPECT_EQ(health.count(HealthEventKind::CorePrefetchOffline), 1u);
  EXPECT_EQ(health.events().front().core, 3u);
  EXPECT_FALSE(health.has(HealthEventKind::CpOnlyFallback));
  EXPECT_TRUE(run.driver.prefetch_available());
}

TEST(DegradationLadder, PolicyThrowTriggersWatchdogBaselineRestore) {
  FaultedRun run(hw::FaultPlan{}, std::make_unique<ThrowingPolicy>());
  run.driver.run(600'000);

  const auto& health = run.driver.health();
  ASSERT_TRUE(health.has(HealthEventKind::WatchdogRestore));
  for (const auto& e : health.events()) {
    if (e.kind == HealthEventKind::WatchdogRestore) {
      EXPECT_EQ(e.detail, 1u);  // restore reached full baseline
    }
  }

  // Hardware state below the fault layer: everything back to reset.
  const WayMask full = full_mask(run.sys->cat().llc_ways());
  for (CoreId c = 0; c < run.sys->num_cores(); ++c) {
    EXPECT_EQ(run.sys->cat().core_mask(c), full);
    EXPECT_TRUE(run.sys->core(c).prefetch_msr().all_enabled());
  }
}

TEST(DegradationLadder, WrappedSamplesAreQuarantined) {
  hw::FaultPlan plan;
  plan.pmu_wrap_p = 1.0;    // every snapshot (and re-read) corrupts
  plan.pmu_wrap_bits = 16;  // wrap point 65536, crossed almost immediately

  FaultedRun run(plan, cmm_a(cfg().freq_ghz));
  run.driver.run(600'000);

  const auto& health = run.driver.health();
  EXPECT_TRUE(health.has(HealthEventKind::PmuSnapshotReread));
  EXPECT_TRUE(health.has(HealthEventKind::PmuWrapSaturated));
  EXPECT_TRUE(health.has(HealthEventKind::SampleQuarantined));
  // Measurement faults never escalate the resource ladder.
  EXPECT_TRUE(run.driver.prefetch_available());
  EXPECT_TRUE(run.driver.cat_available());
}

TEST(DegradationLadder, TransientStormCompletesAndStaysManaged) {
  const auto plan = hw::FaultPlan::transient_everywhere(0.10, 7);
  const auto mixes =
      workloads::make_mixes(workloads::MixCategory::PrefAgg, 1, cfg().num_cores, 3);

  analysis::RunParams params;
  params.machine = cfg();
  params.run_cycles = 600'000;
  params.epochs = epochs();

  auto policy = cmm_a(cfg().freq_ghz);
  const auto out = analysis::run_mix_with_faults(mixes.front(), *policy, params, plan);
  EXPECT_TRUE(out.completed) << out.error;
  EXPECT_GT(out.hm_ipc, 0.0);
}

TEST(DegradationLadder, ZeroRatePlanIsBitIdenticalToPlainRun) {
  const auto mixes =
      workloads::make_mixes(workloads::MixCategory::PrefAgg, 1, cfg().num_cores, 3);
  analysis::RunParams params;
  params.machine = cfg();
  params.run_cycles = 600'000;
  params.epochs = epochs();

  auto p1 = cmm_a(cfg().freq_ghz);
  auto p2 = cmm_a(cfg().freq_ghz);
  const auto plain = analysis::run_mix(mixes.front(), *p1, params);
  const auto faulted = analysis::run_mix_with_faults(mixes.front(), *p2, params, hw::FaultPlan{});
  EXPECT_TRUE(faulted.completed);
  EXPECT_TRUE(faulted.health.empty());
  EXPECT_EQ(faulted.result, plain);
}

// -------------------------------------------------------- MBA (BP) axis

/// Emits a fixed nonzero throttle ladder from the first epoch on;
/// exercises the MBA HAL without depending on the CMM search accepting
/// a level.
class ThrottlingStubPolicy final : public Policy {
 public:
  std::string_view name() const noexcept override { return "throttle_stub"; }
  ResourceConfig initial_config(unsigned cores, unsigned ways) override {
    cores_ = cores;
    ways_ = ways;
    return ResourceConfig::baseline(cores, ways);
  }
  void begin_profiling(const std::vector<sim::PmuCounters>&) override {}
  std::optional<ResourceConfig> next_sample() override { return std::nullopt; }
  void report_sample(const SampleStats&) override {}
  ResourceConfig final_config() override {
    ResourceConfig c = ResourceConfig::baseline(cores_, ways_);
    c.throttle_levels.assign(cores_, 0);
    c.throttle_levels[0] = 1;
    if (cores_ > 1) c.throttle_levels[1] = 2;
    return c;
  }

 private:
  unsigned cores_ = 0;
  unsigned ways_ = 0;
};

/// FaultedRun with the BP axis plugged in (three-axis driver ctor).
struct MbaFaultedRun {
  std::unique_ptr<sim::MulticoreSystem> sys;
  std::unique_ptr<Policy> policy;
  hw::SimMsrDevice sim_msr;
  hw::SimPmuReader sim_pmu;
  hw::SimCatController sim_cat;
  hw::SimMbaController sim_mba;
  hw::FaultInjector injector;
  hw::FaultInjectingMsrDevice msr;
  hw::FaultInjectingPmuReader pmu;
  hw::FaultInjectingCatController cat;
  hw::FaultInjectingMbaController mba;
  EpochDriver driver;

  MbaFaultedRun(const hw::FaultPlan& plan, std::unique_ptr<Policy> pol,
                const EpochConfig& e = epochs())
      : sys(make_system()),
        policy(std::move(pol)),
        sim_msr(*sys),
        sim_pmu(*sys),
        sim_cat(*sys),
        sim_mba(*sys),
        injector(plan),
        msr(sim_msr, injector),
        pmu(sim_pmu, injector),
        cat(sim_cat, injector),
        mba(sim_mba, injector),
        driver(*sys, *policy, msr, pmu, cat, mba, e) {}
};

TEST(DegradationLadder, PersistentMbaFaultDegradesToPtCp) {
  hw::FaultPlan plan;
  plan.mba_apply_fail_p = 1.0;
  plan.transient_fraction = 0.0;

  MbaFaultedRun run(plan, std::make_unique<ThrottlingStubPolicy>());
  run.driver.run(600'000);

  const auto& health = run.driver.health();
  EXPECT_TRUE(health.has(HealthEventKind::MbaOffline));
  EXPECT_FALSE(run.driver.mba_available());
  // Losing the bandwidth knob never takes down the other two axes.
  EXPECT_TRUE(run.driver.prefetch_available());
  EXPECT_TRUE(run.driver.cat_available());
  EXPECT_FALSE(health.has(HealthEventKind::ManagementLost));

  // The fallback's best-effort reset (healthy under this plan) plus the
  // fail-before-mutate decorator leave the sim unregulated.
  for (CoreId c = 0; c < run.sys->num_cores(); ++c) {
    EXPECT_EQ(run.sys->memory(run.sys->domain_of(c)).throttle_level(c), 0u);
  }
}

TEST(DegradationLadder, MbaFaultWithFailedResetStillLeavesSimUnthrottled) {
  hw::FaultPlan plan;
  plan.mba_apply_fail_p = 1.0;
  plan.mba_reset_fail_p = 1.0;
  plan.transient_fraction = 0.0;

  MbaFaultedRun run(plan, std::make_unique<ThrottlingStubPolicy>());
  run.driver.run(600'000);

  EXPECT_TRUE(run.driver.health().has(HealthEventKind::MbaOffline));
  // The decorator faults before forwarding, so no level ever reached
  // the sim; even with reset also failing nothing is stuck throttled.
  for (unsigned d = 0; d < cfg().num_llc_domains; ++d) {
    EXPECT_TRUE(run.sys->memory(d).unthrottled());
  }
}

TEST(DegradationLadder, LegacyPolicyNeverTouchesMba) {
  // A policy that never emits throttle levels must produce zero MBA HAL
  // calls — even a 100%-lethal MBA plan cannot fire, so the run is
  // indistinguishable from one without the BP axis.
  hw::FaultPlan plan;
  plan.mba_apply_fail_p = 1.0;
  plan.mba_reset_fail_p = 1.0;
  plan.transient_fraction = 0.0;

  MbaFaultedRun run(plan, cmm_a(cfg().freq_ghz));
  run.driver.run(600'000);

  EXPECT_FALSE(run.driver.health().has(HealthEventKind::MbaOffline));
  EXPECT_TRUE(run.driver.mba_available());
  EXPECT_TRUE(run.driver.health().empty());
}

TEST(DegradationLadder, SameSeedReproducesHealthLogAndResults) {
  hw::FaultPlan plan = hw::FaultPlan::transient_everywhere(0.10, 11);
  plan.transient_fraction = 0.7;  // mix of transient and persistent
  plan.pmu_wrap_p = 0.05;
  plan.pmu_garbage_p = 0.05;

  const auto mixes =
      workloads::make_mixes(workloads::MixCategory::PrefAgg, 1, cfg().num_cores, 3);
  analysis::RunParams params;
  params.machine = cfg();
  params.run_cycles = 600'000;
  params.epochs = epochs();

  auto p1 = cmm_a(cfg().freq_ghz);
  auto p2 = cmm_a(cfg().freq_ghz);
  const auto a = analysis::run_mix_with_faults(mixes.front(), *p1, params, plan);
  const auto b = analysis::run_mix_with_faults(mixes.front(), *p2, params, plan);
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.result, b.result);
  EXPECT_EQ(a.hm_ipc, b.hm_ipc);
}

}  // namespace
}  // namespace cmm::core
