// Timing decorators over the system's public seams, used only by the
// traced run. Each forwards every call unchanged to the object it
// wraps and records a span around it, so a decorated run must produce
// bit-identical simulated results (the benchmark checks that it does).
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <utility>

#include "core/policy.hpp"
#include "hw/cat_controller.hpp"
#include "hw/mba_controller.hpp"
#include "hw/msr_device.hpp"
#include "hw/pmu_reader.hpp"
#include "obs/trace.hpp"
#include "sim/core_model.hpp"
#include "spans.hpp"

namespace perfbench {

// ------------------------------------------------------------ workloads

/// Op-generation totals of one job. Jobs run on one thread each, so
/// the counters are plain integers.
struct OpGenMeter {
  std::int64_t ns = 0;
  std::uint64_t ops = 0;
  std::uint64_t batches = 0;
};

/// Times op generation into a per-job meter instead of one span per
/// batch. Forwards next_batch itself: falling back to the base class's
/// per-op next() would change what is measured.
class TimedOpSource final : public cmm::sim::OpSource {
 public:
  TimedOpSource(std::shared_ptr<cmm::sim::OpSource> inner, OpGenMeter& meter)
      : inner_(std::move(inner)), meter_(meter) {}

  cmm::sim::Op next() override {
    const std::int64_t t0 = now_ns();
    const cmm::sim::Op op = inner_->next();
    meter_.ns += now_ns() - t0;
    ++meter_.ops;
    return op;
  }
  cmm::sim::CoreTraits traits() const override { return inner_->traits(); }
  void reset() override { inner_->reset(); }
  std::size_t next_batch(std::span<cmm::sim::Op> out) override {
    const std::int64_t t0 = now_ns();
    const std::size_t n = inner_->next_batch(out);
    meter_.ns += now_ns() - t0;
    meter_.ops += n;
    ++meter_.batches;
    return n;
  }

 private:
  std::shared_ptr<cmm::sim::OpSource> inner_;
  OpGenMeter& meter_;
};

// ----------------------------------------------------------------- core

class TimedPolicy final : public cmm::core::Policy {
 public:
  TimedPolicy(std::unique_ptr<cmm::core::Policy> inner, SpanRecorder& recorder,
              std::atomic<std::uint64_t>& calls)
      : inner_(std::move(inner)), recorder_(recorder), calls_(calls) {}

  std::string_view name() const noexcept override { return inner_->name(); }

  cmm::core::ResourceConfig initial_config(unsigned cores, unsigned ways) override {
    SpanRecorder::Scope s(recorder_, Layer::Core, "policy.initial_config");
    sync();
    return inner_->initial_config(cores, ways);
  }
  void begin_profiling(const std::vector<cmm::sim::PmuCounters>& epoch_delta) override {
    SpanRecorder::Scope s(recorder_, Layer::Core, "policy.begin_profiling");
    sync();
    inner_->begin_profiling(epoch_delta);
  }
  std::optional<cmm::core::ResourceConfig> next_sample() override {
    SpanRecorder::Scope s(recorder_, Layer::Core, "policy.next_sample");
    sync();
    return inner_->next_sample();
  }
  void report_sample(const cmm::core::SampleStats& stats) override {
    SpanRecorder::Scope s(recorder_, Layer::Core, "policy.report_sample");
    sync();
    inner_->report_sample(stats);
  }
  cmm::core::ResourceConfig final_config() override {
    SpanRecorder::Scope s(recorder_, Layer::Core, "policy.final_config");
    sync();
    return inner_->final_config();
  }
  void notify_degraded(bool prefetch_available, bool cat_available) override {
    SpanRecorder::Scope s(recorder_, Layer::Core, "policy.notify_degraded");
    sync();
    inner_->notify_degraded(prefetch_available, cat_available);
  }
  void notify_degraded(bool prefetch_available, bool cat_available,
                       bool mba_available) override {
    SpanRecorder::Scope s(recorder_, Layer::Core, "policy.notify_degraded");
    sync();
    inner_->notify_degraded(prefetch_available, cat_available, mba_available);
  }
  void notify_membership_change(const std::vector<cmm::CoreId>& cores) override {
    SpanRecorder::Scope s(recorder_, Layer::Core, "policy.notify_membership_change");
    sync();
    inner_->notify_membership_change(cores);
  }

 private:
  // set_trace() is not virtual: the EpochDriver hands its trace handle
  // to this wrapper, so it is passed on before every forwarded call, or
  // the wrapped policy's detector verdicts would vanish from the trace.
  void sync() {
    inner_->set_trace(trace_);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }

  std::unique_ptr<cmm::core::Policy> inner_;
  SpanRecorder& recorder_;
  std::atomic<std::uint64_t>& calls_;
};

// ------------------------------------------------------------------- hw

/// HAL call counts of one run (shared by the parallel jobs).
struct HalMeter {
  std::atomic<std::uint64_t> msr_writes{0};
  std::atomic<std::uint64_t> pmu_reads{0};
  std::atomic<std::uint64_t> cat_applies{0};
  std::atomic<std::uint64_t> mba_applies{0};
};

inline void bump(std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

class TimedMsrDevice final : public cmm::hw::MsrDevice {
 public:
  TimedMsrDevice(cmm::hw::MsrDevice& inner, SpanRecorder& recorder, HalMeter& meter)
      : inner_(inner), recorder_(recorder), meter_(meter) {}
  std::uint64_t read(cmm::CoreId core, std::uint32_t msr) const override {
    SpanRecorder::Scope s(recorder_, Layer::Hw, "hal.msr_read");
    return inner_.read(core, msr);
  }
  void write(cmm::CoreId core, std::uint32_t msr, std::uint64_t value) override {
    SpanRecorder::Scope s(recorder_, Layer::Hw, "hal.msr_write");
    bump(meter_.msr_writes);
    inner_.write(core, msr, value);
  }
  unsigned num_cores() const override { return inner_.num_cores(); }

 private:
  cmm::hw::MsrDevice& inner_;
  SpanRecorder& recorder_;
  HalMeter& meter_;
};

class TimedPmuReader final : public cmm::hw::PmuReader {
 public:
  TimedPmuReader(cmm::hw::PmuReader& inner, SpanRecorder& recorder, HalMeter& meter)
      : inner_(inner), recorder_(recorder), meter_(meter) {}
  std::vector<cmm::sim::PmuCounters> read_all() const override {
    SpanRecorder::Scope s(recorder_, Layer::Hw, "hal.pmu_read");
    bump(meter_.pmu_reads);
    return inner_.read_all();
  }
  unsigned num_cores() const override { return inner_.num_cores(); }

 private:
  cmm::hw::PmuReader& inner_;
  SpanRecorder& recorder_;
  HalMeter& meter_;
};

class TimedCatController final : public cmm::hw::CatController {
 public:
  TimedCatController(cmm::hw::CatController& inner, SpanRecorder& recorder, HalMeter& meter)
      : inner_(inner), recorder_(recorder), meter_(meter) {}
  void apply(const std::vector<cmm::WayMask>& per_core_masks) override {
    SpanRecorder::Scope s(recorder_, Layer::Hw, "hal.cat_apply");
    bump(meter_.cat_applies);
    inner_.apply(per_core_masks);
  }
  std::vector<cmm::WayMask> current() const override {
    SpanRecorder::Scope s(recorder_, Layer::Hw, "hal.cat_current");
    return inner_.current();
  }
  void reset() override {
    SpanRecorder::Scope s(recorder_, Layer::Hw, "hal.cat_reset");
    inner_.reset();
  }
  unsigned llc_ways() const override { return inner_.llc_ways(); }
  unsigned num_cores() const override { return inner_.num_cores(); }

 private:
  cmm::hw::CatController& inner_;
  SpanRecorder& recorder_;
  HalMeter& meter_;
};

class TimedMbaController final : public cmm::hw::MbaController {
 public:
  TimedMbaController(cmm::hw::MbaController& inner, SpanRecorder& recorder, HalMeter& meter)
      : inner_(inner), recorder_(recorder), meter_(meter) {}
  void apply(const std::vector<std::uint8_t>& per_core_levels) override {
    SpanRecorder::Scope s(recorder_, Layer::Hw, "hal.mba_apply");
    bump(meter_.mba_applies);
    inner_.apply(per_core_levels);
  }
  std::vector<std::uint8_t> current() const override {
    SpanRecorder::Scope s(recorder_, Layer::Hw, "hal.mba_current");
    return inner_.current();
  }
  void reset() override {
    SpanRecorder::Scope s(recorder_, Layer::Hw, "hal.mba_reset");
    inner_.reset();
  }
  unsigned num_levels() const override { return inner_.num_levels(); }
  unsigned num_cores() const override { return inner_.num_cores(); }

 private:
  cmm::hw::MbaController& inner_;
  SpanRecorder& recorder_;
  HalMeter& meter_;
};

// ------------------------------------------------------------------ obs

/// Times every event the wrapped sink receives. Safe to share across
/// the parallel jobs of a batch when the wrapped sink is (the JSONL
/// sink is). An emit on a thread with no open span hangs under
/// `fallback_parent`.
class TimedSink final : public cmm::obs::TraceSink {
 public:
  TimedSink(cmm::obs::TraceSink& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  void set_fallback_parent(std::uint64_t id) noexcept { fallback_parent_ = id; }
  std::uint64_t events() const noexcept { return events_.load(std::memory_order_relaxed); }

  bool enabled() const noexcept override { return inner_.enabled(); }
  void emit(const cmm::obs::EpochStart& e) override { timed(e); }
  void emit(const cmm::obs::DetectorVerdict& e) override { timed(e); }
  void emit(const cmm::obs::SampleResult& e) override { timed(e); }
  void emit(const cmm::obs::ConfigApplied& e) override { timed(e); }
  void emit(const cmm::obs::DegradationStep& e) override { timed(e); }
  void emit(const cmm::obs::FaultRetry& e) override { timed(e); }
  void emit(const cmm::obs::TenantAttach& e) override { timed(e); }
  void emit(const cmm::obs::TenantDetach& e) override { timed(e); }
  void emit(const cmm::obs::SloBreach& e) override { timed(e); }
  void emit(const cmm::obs::RecoveryProbe& e) override { timed(e); }
  void emit(const cmm::obs::TenantMigrated& e) override { timed(e); }
  void emit(const cmm::obs::MigrationRejected& e) override { timed(e); }
  void flush() override {
    SpanRecorder::Scope s(recorder_, Layer::Obs, "sink.flush", fallback_parent_);
    inner_.flush();
  }

 private:
  template <typename Event>
  void timed(const Event& e) {
    SpanRecorder::Scope s(recorder_, Layer::Obs, "sink.emit", fallback_parent_);
    events_.fetch_add(1, std::memory_order_relaxed);
    inner_.emit(e);
  }

  cmm::obs::TraceSink& inner_;
  SpanRecorder& recorder_;
  std::uint64_t fallback_parent_ = 0;
  std::atomic<std::uint64_t> events_{0};
};

}  // namespace perfbench
