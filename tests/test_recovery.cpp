// The bidirectional recovery ladder: probation re-probes of faulted
// axes, hysteresis against flapping, repair-window healing in the
// fault injector, and the HealthLog ring bound that keeps hour-scale
// soaks from growing without limit.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/run_harness.hpp"
#include "core/epoch_driver.hpp"
#include "core/policy_cmm.hpp"
#include "common/retry.hpp"
#include "hw/fault_injection.hpp"
#include "workloads/workload_mix.hpp"

namespace cmm::core {
namespace {

sim::MachineConfig cfg() { return sim::MachineConfig::scaled(16); }

EpochConfig probing_epochs() {
  EpochConfig e;
  e.execution_epoch = 200'000;
  e.sampling_interval = 10'000;
  e.probe_period_epochs = 1;
  e.probe_successes_required = 2;
  return e;
}

std::unique_ptr<sim::MulticoreSystem> make_system() {
  auto sys = std::make_unique<sim::MulticoreSystem>(cfg());
  const auto mixes =
      workloads::make_mixes(workloads::MixCategory::PrefAgg, 1, cfg().num_cores, 3);
  workloads::attach_mix(*sys, mixes.front(), 42);
  return sys;
}

std::unique_ptr<Policy> cmm_a() {
  CmmPolicy::Options o;
  o.detector.freq_ghz = cfg().freq_ghz;
  o.variant = CmmVariant::A;
  return std::make_unique<CmmPolicy>(o);
}

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

  FaultedRun(const hw::FaultPlan& plan, const EpochConfig& epochs)
      : sys(make_system()),
        policy(cmm_a()),
        sim_msr(*sys),
        sim_pmu(*sys),
        sim_cat(*sys),
        sim_mba(*sys),
        injector(plan),
        msr(sim_msr, injector),
        pmu(sim_pmu, injector),
        cat(sim_cat, injector),
        driver(*sys, *policy, msr, pmu, cat, sim_mba, epochs) {}
};

/// The sequence of down/up rungs for one axis, in log order.
std::vector<HealthEventKind> ladder_seq(const HealthLog& log, HealthEventKind down,
                                        HealthEventKind up) {
  std::vector<HealthEventKind> seq;
  for (const auto& e : log.events()) {
    if (e.kind == down || e.kind == up) seq.push_back(e.kind);
  }
  return seq;
}

/// Hysteresis contract: rungs strictly alternate starting with a
/// degrade — a cleared fault recovers the axis exactly once, and a
/// second recovery requires a fresh degrade in between.
void expect_alternating(const std::vector<HealthEventKind>& seq, HealthEventKind down,
                        HealthEventKind up) {
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i], i % 2 == 0 ? down : up) << "position " << i;
  }
}

std::size_t successful_probes(const HealthLog& log) {
  std::size_t n = 0;
  for (const auto& e : log.events()) {
    if (e.kind == HealthEventKind::RecoveryProbe && e.detail != 0) ++n;
  }
  return n;
}

// ------------------------------------------------ FaultInjector repair

TEST(FaultRepairWindow, PersistentFaultHealsAfterWindow) {
  hw::FaultPlan plan;
  plan.msr_write_fail_p = 1.0;
  plan.transient_fraction = 0.0;
  plan.repair_after_calls = 3;

  hw::FaultInjector inj(plan);
  EXPECT_THROW(inj.maybe_fault(hw::FaultOp::MsrWrite, 0), HwFault);  // inject
  // Reads carry no fault rate but advance the repair clock.
  for (int i = 0; i < 3; ++i) EXPECT_NO_THROW(inj.maybe_fault(hw::FaultOp::MsrRead, 0));
  EXPECT_EQ(inj.repaired_faults(), 0u);
  // The window has elapsed: the sticky fault heals. (With rate 1.0 the
  // probability path immediately re-injects, which is itself the
  // re-degrade case the ladder must survive.)
  EXPECT_THROW(inj.maybe_fault(hw::FaultOp::MsrWrite, 0), HwFault);
  EXPECT_EQ(inj.repaired_faults(), 1u);
}

TEST(FaultRepairWindow, HealedKnobWorksWhenRateAllows) {
  hw::FaultPlan plan;
  plan.cat_apply_fail_p = 1.0;
  plan.transient_fraction = 0.0;
  plan.repair_after_calls = 2;

  hw::FaultInjector inj(plan);
  EXPECT_THROW(inj.maybe_fault(hw::FaultOp::CatApply, kInvalidCore), HwFault);
  // A different op with rate 0 stays healthy while the clock advances.
  inj.maybe_fault(hw::FaultOp::MsrRead, 0);
  inj.maybe_fault(hw::FaultOp::MsrRead, 0);
  // CatReset has rate 0 in this plan and was never stuck: still fine.
  EXPECT_NO_THROW(inj.maybe_fault(hw::FaultOp::CatReset, kInvalidCore));
}

TEST(FaultRepairWindow, ZeroWindowNeverHeals) {
  hw::FaultPlan plan;
  plan.msr_write_fail_p = 1.0;
  plan.transient_fraction = 0.0;  // repair_after_calls stays 0

  hw::FaultInjector inj(plan);
  EXPECT_THROW(inj.maybe_fault(hw::FaultOp::MsrWrite, 0), HwFault);
  for (int i = 0; i < 50; ++i) inj.maybe_fault(hw::FaultOp::MsrRead, 0);
  EXPECT_THROW(inj.maybe_fault(hw::FaultOp::MsrWrite, 0), HwFault);
  EXPECT_EQ(inj.repaired_faults(), 0u);
}

TEST(FaultRepairWindow, OfflineCoresNeverHeal) {
  hw::FaultPlan plan;
  plan.offline_cores = {2};
  plan.repair_after_calls = 1;

  hw::FaultInjector inj(plan);
  for (int i = 0; i < 10; ++i) {
    EXPECT_THROW(inj.maybe_fault(hw::FaultOp::MsrWrite, 2), HwFault);
  }
  EXPECT_EQ(inj.repaired_faults(), 0u);
}

// -------------------------------------------------- recovery ladder

TEST(RecoveryLadder, CatHealsAndRecoversWithHysteresis) {
  hw::FaultPlan plan;
  plan.seed = 5;
  plan.cat_apply_fail_p = 0.5;
  plan.transient_fraction = 0.0;
  plan.repair_after_calls = 40;

  FaultedRun run(plan, probing_epochs());
  run.driver.run(3'000'000);

  const auto& health = run.driver.health();
  ASSERT_TRUE(health.has(HealthEventKind::PtOnlyFallback));
  ASSERT_TRUE(health.has(HealthEventKind::PtOnlyRecovered)) << health.summary_json();
  EXPECT_TRUE(health.has(HealthEventKind::RecoveryProbe));

  // Exactly one recovery per degrade: strict alternation of rungs.
  expect_alternating(
      ladder_seq(health, HealthEventKind::PtOnlyFallback, HealthEventKind::PtOnlyRecovered),
      HealthEventKind::PtOnlyFallback, HealthEventKind::PtOnlyRecovered);

  // Hysteresis: each recovery consumed a streak of >= 2 successful
  // probes, so successes are at least twice the recovery count.
  EXPECT_GE(successful_probes(health),
            2 * health.count(HealthEventKind::PtOnlyRecovered));
}

TEST(RecoveryLadder, PrefetchAxisHealsPerCoreThenLeavesCpOnly) {
  hw::FaultPlan plan;
  plan.seed = 9;
  plan.msr_write_fail_p = 0.35;
  plan.transient_fraction = 0.0;
  plan.repair_after_calls = 60;

  FaultedRun run(plan, probing_epochs());
  run.driver.run(3'000'000);

  const auto& health = run.driver.health();
  ASSERT_TRUE(health.has(HealthEventKind::CorePrefetchOffline));
  ASSERT_TRUE(health.has(HealthEventKind::CorePrefetchRestored)) << health.summary_json();

  // The machine-wide rung recovers only when every core is back, and
  // at most once per fallback.
  expect_alternating(
      ladder_seq(health, HealthEventKind::CpOnlyFallback, HealthEventKind::CpOnlyRecovered),
      HealthEventKind::CpOnlyFallback, HealthEventKind::CpOnlyRecovered);
  if (health.has(HealthEventKind::CpOnlyRecovered)) {
    EXPECT_GE(health.count(HealthEventKind::CpOnlyFallback),
              health.count(HealthEventKind::CpOnlyRecovered));
  }
}

TEST(RecoveryLadder, ProbesDisabledByDefaultKeepsBatchBehaviour) {
  hw::FaultPlan plan;
  plan.cat_apply_fail_p = 1.0;
  plan.transient_fraction = 0.0;
  plan.repair_after_calls = 10;  // would heal, but nothing probes

  EpochConfig e;
  e.execution_epoch = 200'000;
  e.sampling_interval = 10'000;  // probe_period_epochs stays 0

  FaultedRun run(plan, e);
  run.driver.run(1'000'000);

  const auto& health = run.driver.health();
  EXPECT_TRUE(health.has(HealthEventKind::PtOnlyFallback));
  EXPECT_FALSE(health.has(HealthEventKind::RecoveryProbe));
  EXPECT_FALSE(health.has(HealthEventKind::PtOnlyRecovered));
  EXPECT_FALSE(run.driver.cat_available());
}

TEST(RecoveryLadder, ZeroRatePlanWithProbesEnabledIsBitIdentical) {
  const auto mixes =
      workloads::make_mixes(workloads::MixCategory::PrefAgg, 1, cfg().num_cores, 3);
  analysis::RunParams params;
  params.machine = cfg();
  params.run_cycles = 600'000;
  params.epochs = probing_epochs();

  auto p1 = cmm_a();
  auto p2 = cmm_a();
  const auto plain = analysis::run_mix(mixes.front(), *p1, params);
  const auto faulted = analysis::run_mix_with_faults(mixes.front(), *p2, params, hw::FaultPlan{});
  EXPECT_TRUE(faulted.completed);
  EXPECT_TRUE(faulted.health.empty());  // nothing degraded, nothing probed
  EXPECT_EQ(faulted.result, plain);
}

TEST(RecoveryLadder, SameSeedReproducesRecoveryTraffic) {
  hw::FaultPlan plan;
  plan.seed = 5;
  plan.cat_apply_fail_p = 0.5;
  plan.transient_fraction = 0.0;
  plan.repair_after_calls = 40;

  FaultedRun a(plan, probing_epochs());
  FaultedRun b(plan, probing_epochs());
  a.driver.run(1'500'000);
  b.driver.run(1'500'000);
  EXPECT_EQ(a.driver.health(), b.driver.health());
  EXPECT_FALSE(a.driver.health().empty());
}

// ------------------------------------------------ MBA (BP) recovery

/// Emits a fixed nonzero throttle ladder each epoch so the MBA HAL is
/// exercised every epoch (the CMM search would only throttle when its
/// samples justify it, which makes fault timing workload-dependent).
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
    return c;
  }

 private:
  unsigned cores_ = 0;
  unsigned ways_ = 0;
};

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

  MbaFaultedRun(const hw::FaultPlan& plan, const EpochConfig& epochs)
      : sys(make_system()),
        policy(std::make_unique<ThrottlingStubPolicy>()),
        sim_msr(*sys),
        sim_pmu(*sys),
        sim_cat(*sys),
        sim_mba(*sys),
        injector(plan),
        msr(sim_msr, injector),
        pmu(sim_pmu, injector),
        cat(sim_cat, injector),
        mba(sim_mba, injector),
        driver(*sys, *policy, msr, pmu, cat, mba, epochs) {}
};

TEST(RecoveryLadder, MbaHealsAndRecoversWithHysteresis) {
  hw::FaultPlan plan;
  plan.seed = 5;
  plan.mba_apply_fail_p = 0.5;
  plan.transient_fraction = 0.0;
  plan.repair_after_calls = 40;

  MbaFaultedRun run(plan, probing_epochs());
  run.driver.run(3'000'000);

  const auto& health = run.driver.health();
  ASSERT_TRUE(health.has(HealthEventKind::MbaOffline));
  ASSERT_TRUE(health.has(HealthEventKind::MbaRestored)) << health.summary_json();

  // Same rung contract as the other axes: strict down/up alternation.
  expect_alternating(
      ladder_seq(health, HealthEventKind::MbaOffline, HealthEventKind::MbaRestored),
      HealthEventKind::MbaOffline, HealthEventKind::MbaRestored);

  // Probes of the MBA axis are tagged so traces can tell the axes apart.
  bool saw_mba_probe = false;
  for (const auto& e : health.events()) {
    if (e.kind == HealthEventKind::RecoveryProbe && e.note == "mba") saw_mba_probe = true;
  }
  EXPECT_TRUE(saw_mba_probe);

  // Availability at the end matches the rung parity.
  EXPECT_EQ(run.driver.mba_available(),
            health.count(HealthEventKind::MbaOffline) ==
                health.count(HealthEventKind::MbaRestored));
}

TEST(RecoveryLadder, MbaProbesDisabledByDefaultStaysDegraded) {
  hw::FaultPlan plan;
  plan.mba_apply_fail_p = 1.0;
  plan.transient_fraction = 0.0;
  plan.repair_after_calls = 10;  // would heal, but nothing probes

  EpochConfig e;
  e.execution_epoch = 200'000;
  e.sampling_interval = 10'000;  // probe_period_epochs stays 0

  MbaFaultedRun run(plan, e);
  run.driver.run(1'000'000);

  EXPECT_TRUE(run.driver.health().has(HealthEventKind::MbaOffline));
  EXPECT_FALSE(run.driver.health().has(HealthEventKind::MbaRestored));
  EXPECT_FALSE(run.driver.mba_available());
}

// ---------------------------------------------------- HealthLog ring

TEST(HealthLogRing, CapacityTrimsOldestButTotalsStayExact) {
  HealthLog log;
  log.set_capacity(3);
  for (std::uint64_t i = 0; i < 10; ++i) {
    log.record(HealthEventKind::HwRetry, /*time=*/i, /*core=*/0, /*detail=*/i);
  }
  EXPECT_EQ(log.events().size(), 3u);
  EXPECT_EQ(log.dropped(), 7u);
  EXPECT_EQ(log.count(HealthEventKind::HwRetry), 10u);  // includes trimmed
  EXPECT_TRUE(log.has(HealthEventKind::HwRetry));
  // The newest events survive, oldest-first order preserved.
  EXPECT_EQ(log.events().front().detail, 7u);
  EXPECT_EQ(log.events().back().detail, 9u);
  EXPECT_NE(log.summary_json().find("\"hw_retry\":10"), std::string::npos);
}

TEST(HealthLogRing, ShrinkingCapacityDropsImmediately) {
  HealthLog log;
  for (std::uint64_t i = 0; i < 5; ++i) log.record(HealthEventKind::SloBreach, i);
  EXPECT_EQ(log.events().size(), 5u);
  log.set_capacity(2);
  EXPECT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.dropped(), 3u);
  EXPECT_EQ(log.events().front().time, 3u);
  EXPECT_EQ(log.count(HealthEventKind::SloBreach), 5u);
}

TEST(HealthLogRing, ZeroCapacityIsUnbounded) {
  HealthLog log;
  for (std::uint64_t i = 0; i < 100; ++i) log.record(HealthEventKind::HwRetry, i);
  EXPECT_EQ(log.events().size(), 100u);
  EXPECT_EQ(log.dropped(), 0u);
}

}  // namespace
}  // namespace cmm::core
