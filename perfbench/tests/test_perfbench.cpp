// Self-tests of the benchmark's own helpers: the tail-percentile rule,
// span self time, and the transparency of the timing decorators.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "analysis/run_harness.hpp"
#include "core/epoch_driver.hpp"
#include "decorators.hpp"
#include "obs/jsonl_sink.hpp"
#include "sim/multicore_system.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads/workload_mix.hpp"

namespace perfbench {
namespace {

using namespace cmm;

// ------------------------------------------------------------ percentiles

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(highest_reportable_percentile(220), 95u);  // 11 samples beyond p95
  EXPECT_EQ(samples_beyond(220, 95), 11u);
  EXPECT_EQ(samples_beyond(220, 96), 8u);
  EXPECT_EQ(highest_reportable_percentile(100), 90u);  // exactly 10 beyond p90
  EXPECT_EQ(samples_beyond(100, 91), 9u);
  EXPECT_EQ(highest_reportable_percentile(11), 9u);
  EXPECT_EQ(highest_reportable_percentile(10), 0u);  // no percentile qualifies
  EXPECT_EQ(highest_reportable_percentile(0), 0u);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_EQ(percentile(v, 50), 50.0);
  EXPECT_EQ(percentile(v, 90), 90.0);
  EXPECT_EQ(percentile(v, 95), 95.0);
  EXPECT_EQ(percentile({7.0}, 95), 7.0);
  EXPECT_EQ(percentile({}, 50), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

// ---------------------------------------------------------------- spans

Span span(std::uint64_t id, std::uint64_t parent, std::int64_t start, std::int64_t end,
          Layer layer = Layer::Sim) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.layer = layer;
  s.name = "s";
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, NestedChildrenAreSubtracted) {
  const std::vector<Span> spans{span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 60),
                                span(4, 2, 15, 20)};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 70);
  EXPECT_EQ(self[1], 15);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 5);
  std::int64_t sum = 0;
  for (const auto s : self) sum += s;
  EXPECT_EQ(sum, 100);  // self times add up to the root's duration
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Two parallel jobs under one batch span: [10,60) and [40,90) cover
  // [10,90) of the batch, not 100 ns.
  const std::vector<Span> spans{span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 1, 40, 90),
                                span(4, 1, 85, 95)};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 15);  // [0,10) and [95,100)
  EXPECT_EQ(self[1], 50);
  EXPECT_EQ(self[2], 50);
}

TEST(SelfTime, ChildrenAreClippedAndAccumulatedSpansSubtracted) {
  Span acc;
  acc.id = 3;
  acc.parent = 1;
  acc.layer = Layer::Workloads;
  acc.end_ns = 25;
  acc.accumulated = true;
  const std::vector<Span> spans{span(1, 0, 100, 200), span(2, 1, 180, 260), acc};
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - 20 - 25);  // child clipped to [180,200)
  EXPECT_EQ(self[1], 80);
  EXPECT_EQ(self[2], 25);
}

TEST(SpanRecorder, NestsPerThreadAndFallsBackAcrossThreads) {
  SpanRecorder rec;
  std::uint64_t outer_id = 0;
  {
    SpanRecorder::Scope outer(rec, Layer::Analysis, "batch");
    outer_id = outer.id();
    { SpanRecorder::Scope inner(rec, Layer::Sim, "inner"); }
    std::thread worker([&] { SpanRecorder::Scope job(rec, Layer::Analysis, "job", outer_id); });
    worker.join();
  }
  const auto spans = rec.take();
  ASSERT_EQ(spans.size(), 3u);
  for (const auto& s : spans) {
    EXPECT_EQ(s.parent, s.name == "batch" ? 0u : outer_id) << s.name;
  }
}

// ----------------------------------------------------------- decorators

analysis::RunParams tiny_params() {
  analysis::RunParams p;
  p.machine = sim::MachineConfig::scaled(64);
  p.machine.num_cores = 4;
  p.warmup_cycles = 20'000;
  p.run_cycles = 400'000;
  p.epochs.execution_epoch = 100'000;
  p.epochs.sampling_interval = 5'000;
  return p;
}

workloads::WorkloadMix tiny_mix() {
  return {"tiny", workloads::MixCategory::PrefAgg, {"lbm", "libquantum", "mcf", "povray"}};
}

/// Counts detector verdicts, the events a policy (not the EpochDriver) emits.
class VerdictCounter final : public obs::TraceSink {
 public:
  void emit(const obs::DetectorVerdict&) override { ++verdicts; }
  int verdicts = 0;
};

TEST(Decorators, TransparentOnATinyRun) {
  const auto params = tiny_params();
  const auto mix = tiny_mix();
  const auto reference =
      analysis::run_mix(mix, *analysis::make_policy("cmm_c", params.detector()), params);
  VerdictCounter reference_sink;
  analysis::RunParams sink_params = params;
  sink_params.epochs.sink = &reference_sink;
  analysis::run_mix(mix, *analysis::make_policy("cmm_c", params.detector()), sink_params);
  ASSERT_GT(reference_sink.verdicts, 0);

  SpanRecorder rec;
  HalMeter hal;
  std::atomic<std::uint64_t> policy_calls{0};
  OpGenMeter opgen;
  VerdictCounter counter;
  TimedSink sink(counter, rec);

  sim::MulticoreSystem system(params.machine);
  workloads::attach_mix(system, mix, params.seed);
  for (CoreId c = 0; c < system.num_cores(); ++c) {
    system.set_op_source(c, std::make_shared<TimedOpSource>(system.export_tenant(c).source, opgen));
  }
  hw::SimMsrDevice msr(system);
  hw::SimPmuReader pmu(system);
  hw::SimCatController cat(system);
  hw::SimMbaController mba(system);
  TimedMsrDevice tmsr(msr, rec, hal);
  TimedPmuReader tpmu(pmu, rec, hal);
  TimedCatController tcat(cat, rec, hal);
  TimedMbaController tmba(mba, rec, hal);
  TimedPolicy policy(analysis::make_policy("cmm_c", params.detector()), rec, policy_calls);
  core::EpochConfig epochs = params.epochs;
  epochs.sink = &sink;
  core::EpochDriver driver(system, policy, tmsr, tpmu, tcat, tmba, epochs);
  driver.run(params.run_cycles);

  analysis::RunResult decorated;
  const auto& exec = driver.execution_counters();
  for (CoreId c = 0; c < exec.size(); ++c) {
    decorated.cores.push_back(
        analysis::make_core_stats(mix.benchmarks[c], exec[c], params.machine.freq_ghz));
    decorated.measured_cycles = std::max<Cycle>(decorated.measured_cycles, exec[c].cycles);
  }
  EXPECT_EQ(decorated, reference);
  // set_trace reached the wrapped policy: its verdicts are all there.
  EXPECT_EQ(counter.verdicts, reference_sink.verdicts);
  EXPECT_GT(policy_calls.load(), 0u);
  EXPECT_GT(hal.pmu_reads.load(), 0u);
  EXPECT_GT(hal.msr_writes.load(), 0u);
  EXPECT_GT(opgen.batches, 0u);
  EXPECT_GT(sink.events(), 0u);
}

/// Records which calls reached it.
class ProbePolicy final : public core::Policy {
 public:
  std::string_view name() const noexcept override { return "probe"; }
  core::ResourceConfig initial_config(unsigned cores, unsigned ways) override {
    return core::ResourceConfig::baseline(cores, ways);
  }
  void begin_profiling(const std::vector<sim::PmuCounters>&) override {}
  std::optional<core::ResourceConfig> next_sample() override { return std::nullopt; }
  void report_sample(const core::SampleStats&) override {}
  core::ResourceConfig final_config() override { return {}; }
  void notify_degraded(bool p, bool c) override { two_axis = p && !c; }
  void notify_degraded(bool p, bool c, bool m) override { three_axis = p && !c && m; }
  void notify_membership_change(const std::vector<CoreId>& cores) override {
    membership = cores.size();
  }
  bool trace_on() const noexcept { return trace_.on(); }
  bool two_axis = false;
  bool three_axis = false;
  std::size_t membership = 0;
};

TEST(Decorators, PolicyForwardsNotificationsAndTrace) {
  SpanRecorder rec;
  std::atomic<std::uint64_t> calls{0};
  auto inner = std::make_unique<ProbePolicy>();
  ProbePolicy& probe = *inner;
  TimedPolicy policy(std::move(inner), rec, calls);

  VerdictCounter sink;
  policy.set_trace(obs::Trace(&sink));
  policy.notify_degraded(true, false);
  EXPECT_TRUE(probe.two_axis);
  EXPECT_TRUE(probe.trace_on());
  policy.notify_degraded(true, false, true);
  EXPECT_TRUE(probe.three_axis);
  policy.notify_membership_change({1, 2, 3});
  EXPECT_EQ(probe.membership, 3u);
  EXPECT_EQ(calls.load(), 3u);
  EXPECT_EQ(rec.take().size(), 3u);
}

/// Counts how the stream is pulled.
class CountingSource final : public sim::OpSource {
 public:
  sim::Op next() override {
    ++singles;
    return sim::Op{1, false, {}};
  }
  sim::CoreTraits traits() const override { return {1.0, 1.0}; }
  void reset() override {}
  std::size_t next_batch(std::span<sim::Op> out) override {
    ++batches;
    for (auto& op : out) op = sim::Op{1, false, {}};
    return out.size();
  }
  int singles = 0;
  int batches = 0;
};

TEST(Decorators, OpSourceForwardsNextBatch) {
  auto inner = std::make_shared<CountingSource>();
  OpGenMeter meter;
  TimedOpSource source(inner, meter);
  std::array<sim::Op, 16> buf{};
  EXPECT_EQ(source.next_batch(buf), 16u);
  EXPECT_EQ(inner->batches, 1);
  EXPECT_EQ(inner->singles, 0);
  EXPECT_EQ(meter.ops, 16u);
  EXPECT_EQ(meter.batches, 1u);
}

}  // namespace
}  // namespace perfbench
