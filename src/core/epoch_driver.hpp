// EpochDriver: the paper's Fig. 4 execution/sampling schedule, bound to
// the hardware-abstraction layer. Execution is divided into execution
// epochs, each followed by a profiling epoch made of short sampling
// intervals (paper defaults: 5 G-cycle epochs, 100 M-cycle samples, a
// 50:1 ratio — the simulator default keeps the ratio at a smaller
// scale, which the paper reports is equally effective).
//
// The driver is also the fault boundary of the controller: every HAL
// call is wrapped in a bounded RetryPolicy, and unrecoverable failures
// walk a graceful-degradation ladder instead of killing the loop:
//
//   implausible PMU delta (wrap/garbage)  -> quarantine + re-run the
//                                            sampling interval
//   prefetch MSR persistently dead (core) -> that core unmanaged; all
//                                            cores dead -> CP-only
//   CAT programming persistently dead     -> PT-only (masks pinned full)
//   any policy step throws                -> watchdog restores baseline
//                                            hardware state
//
// Every action is recorded in a deterministic HealthLog so tests and
// the fault-campaign bench can assert exactly which rung fired.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/retry.hpp"
#include "core/health.hpp"
#include "core/policy.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/trace.hpp"
#include "hw/cat_controller.hpp"
#include "hw/mba_controller.hpp"
#include "hw/msr_device.hpp"
#include "hw/pmu_reader.hpp"
#include "sim/multicore_system.hpp"

namespace cmm::core {

struct EpochConfig {
  Cycle execution_epoch = 2'000'000;
  Cycle sampling_interval = 40'000;
  unsigned max_samples_per_epoch = 24;  // enforced; overruns land in the HealthLog
  RetryPolicy retry{};                  // per-HAL-call retry budget

  // ---- Recovery ladder (probation / recovery transitions) ----

  /// Every this-many execution epochs, each axis parked on a
  /// degradation rung (CorePrefetchOffline / PtOnlyFallback) is
  /// re-probed with a single-attempt write of its current state. 0
  /// (the default) disables probing entirely — the PR-2 one-way-ladder
  /// behaviour, byte-identical logs and traces.
  unsigned probe_period_epochs = 0;

  /// Hysteresis: this many *consecutive* successful probes are needed
  /// before a rung is left (prevents a flapping knob from oscillating
  /// the policy between full-CMM and fallback modes).
  unsigned probe_successes_required = 2;

  /// After a failed probe the axis's probe interval is multiplied by
  /// this (capped at 32x the base period), backing off from a knob
  /// that stays dead; any successful probe resets it to the base.
  unsigned probe_backoff_multiplier = 2;

  /// Observability hooks, both borrowed and optional. Null (the
  /// default) keeps the hot path untouched: no event is ever built,
  /// every emission site is guarded by a single pointer test.
  obs::TraceSink* sink = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Point-in-time telemetry snapshot of one domain's control loop — the
/// signal the hierarchical fleet coordinator consumes between shard
/// slices. Everything here is a pure function of the (deterministic)
/// simulation, so coordinator decisions derived from it are
/// bit-identical at any thread count. Counters are cumulative; the
/// consumer diffs consecutive snapshots for per-slice rates.
struct DomainSummary {
  std::uint64_t epoch = 0;  // execution epochs completed
  Cycle now = 0;            // simulated time of the snapshot
  std::vector<sim::PmuCounters> exec_counters;  // per-core, execution epochs only
  std::vector<std::uint8_t> throttle_levels;    // BP levels on hardware (may be empty)
  bool prefetch_available = true;
  bool cat_available = true;
  bool mba_available = true;
};

/// One line of the Fig. 4 timeline, for tests and the fig04 bench.
struct EpochLogEntry {
  enum class Kind : std::uint8_t { Execution, Sample } kind = Kind::Execution;
  Cycle start = 0;
  Cycle length = 0;
  ResourceConfig config;
};

class EpochDriver {
 public:
  EpochDriver(sim::MulticoreSystem& system, Policy& policy, const EpochConfig& cfg = {});

  /// HAL-injection constructor: drive the given PT + CP + BP devices
  /// (which must outlive the driver) instead of sim-bound ones — the
  /// seam the fault-injecting decorators and a real-hardware port plug
  /// into.
  EpochDriver(sim::MulticoreSystem& system, Policy& policy, hw::MsrDevice& msr,
              hw::PmuReader& pmu, hw::CatController& cat, hw::MbaController& mba,
              const EpochConfig& cfg = {});

  /// Run `total_cycles` of simulated time under the schedule. Can be
  /// called repeatedly; state carries over.
  void run(Cycle total_cycles);

  const std::vector<EpochLogEntry>& log() const noexcept { return log_; }

  /// Counters accumulated over execution epochs only (the paper
  /// excludes profiling intervals from reported results; with a 50:1
  /// ratio the distinction is small but we keep it exact).
  const std::vector<sim::PmuCounters>& execution_counters() const noexcept { return exec_accum_; }

  /// Fault-handling record: retries, quarantines, ladder transitions,
  /// watchdog recoveries. Empty for a fault-free run.
  const HealthLog& health() const noexcept { return health_; }

  /// Degradation-ladder state: knobs still believed usable.
  bool prefetch_available() const noexcept { return prefetch_ok_; }
  bool cat_available() const noexcept { return cat_ok_; }
  bool mba_available() const noexcept { return mba_ok_; }
  bool core_prefetch_available(CoreId core) const { return core_prefetch_ok_.at(core); }

  /// Execution epochs completed so far (the trace epoch stamp).
  std::uint64_t epoch_index() const noexcept { return tctx_.epoch; }

  /// Configuration most recently applied to hardware.
  const ResourceConfig& current_config() const noexcept { return current_; }

  // ---- Service-mode hooks (used by service::ServiceDriver) ----

  /// Re-apply a configuration outside the normal schedule (tenant
  /// churn invalidates the partition the policy converged on). Emitted
  /// with apply-source "reseed".
  void reseed(const ResourceConfig& cfg) { apply(cfg, "reseed"); }

  /// Record a tenant-lifecycle / SLO event into this driver's
  /// HealthLog with the standard trace + metrics mirror.
  void record_service_event(HealthEventKind kind, CoreId core = kInvalidCore,
                            std::uint64_t detail = 0, std::string note = {}) {
    record_health(kind, core, detail, std::move(note));
  }

  /// Cap the HealthLog ring (see HealthLog::set_capacity).
  void set_health_capacity(std::size_t n) { health_.set_capacity(n); }

  // ---- Hierarchical-coordinator hooks ----

  /// Telemetry snapshot for the fleet coordinator (cumulative exec
  /// counters + BP levels + axis availability, stamped with sim time).
  DomainSummary domain_summary() const;

  /// The tenants on `cores` changed underneath the driver (live
  /// migration). Forwarded to the policy under the watchdog so a
  /// throwing policy degrades instead of killing the coordinator loop.
  void notify_membership_change(const std::vector<CoreId>& cores);

  /// Trace handle stamped with this driver's simulated time / epoch,
  /// for the service layer's typed tenant events.
  const obs::Trace& trace() const noexcept { return trace_; }

 private:
  /// One measured span: sanitized per-core deltas plus plausibility
  /// flags (implausible cores have their delta zeroed).
  struct SpanDelta {
    std::vector<sim::PmuCounters> per_core;
    bool any_implausible = false;
  };

  void init();
  RetryPolicy logging_retry(RetryPolicy base);

  /// HealthLog entry plus its observability mirror: a DegradationStep
  /// trace event and a `health.<kind>` counter. The HealthLog content
  /// stays byte-identical to the untraced build.
  void record_health(HealthEventKind kind, CoreId core = kInvalidCore,
                     std::uint64_t detail = 0, std::string note = {});

  void apply(const ResourceConfig& cfg, std::string_view source);
  SpanDelta run_span(Cycle span);
  std::vector<sim::PmuCounters> read_counters();
  bool plausible_snapshot(const std::vector<sim::PmuCounters>& snapshot) const;

  /// Run one policy step under the watchdog: on any exception, restore
  /// baseline hardware state, log, and return false.
  template <typename Step>
  bool guarded(Step&& step, std::string_view what) {
    try {
      step();
      return true;
    } catch (const std::exception& e) {
      watchdog_restore(std::string(what) + ": " + e.what());
      return false;
    } catch (...) {
      watchdog_restore(std::string(what) + ": unknown exception");
      return false;
    }
  }

  void watchdog_restore(const std::string& cause);
  void mark_core_prefetch_dead(CoreId core, const char* what);
  void mark_cat_dead(const char* what);
  void mark_mba_dead(const char* what);
  void check_management_lost();
  void notify_policy_degraded() noexcept;

  // ---- Recovery ladder ----

  /// Per-axis probation bookkeeping. Armed when the axis's rung is
  /// entered; `next_epoch`/`interval` implement the failure backoff,
  /// `streak` the consecutive-success hysteresis.
  struct ProbeState {
    unsigned streak = 0;
    std::uint64_t interval = 0;
    std::uint64_t next_epoch = 0;
  };

  void arm_probe(ProbeState& ps);
  void run_recovery_probes();

  sim::MulticoreSystem& system_;
  Policy& policy_;
  EpochConfig cfg_;

  // Owned sim-bound HAL (null when the injection constructor is used).
  std::unique_ptr<hw::SimMsrDevice> owned_msr_;
  std::unique_ptr<hw::SimCatController> owned_cat_;
  std::unique_ptr<hw::SimPmuReader> owned_pmu_;
  std::unique_ptr<hw::SimMbaController> owned_mba_;
  hw::MsrDevice* msr_;
  hw::CatController* cat_;
  hw::PmuReader* pmu_;
  hw::MbaController* mba_;
  RetryPolicy retry_;  // cfg_.retry with the HealthLog-recording hook
  hw::PrefetchControl prefetch_;
  hw::PrefetchControl probe_prefetch_;  // single-attempt: probes never burn retries

  // Observability: the context is the driver-owned stamp (sim time +
  // epoch index) every event carries; trace_ strips a disabled sink at
  // construction so emission guards cost one pointer compare.
  obs::TraceContext tctx_;
  obs::Trace trace_;
  obs::MetricsRegistry* metrics_ = nullptr;

  bool started_ = false;
  ResourceConfig current_;  // config most recently applied to hardware
  std::vector<EpochLogEntry> log_;
  std::vector<sim::PmuCounters> exec_accum_;

  HealthLog health_;
  bool prefetch_ok_ = true;
  bool cat_ok_ = true;
  bool mba_ok_ = true;
  bool management_lost_logged_ = false;
  std::vector<bool> core_prefetch_ok_;  // per-core prefetch MSR usable
  std::vector<bool> applied_prefetch_;  // prefetch state actually on hardware
  std::vector<std::uint8_t> applied_throttle_;  // MBA levels on hardware
  std::vector<sim::PmuCounters> last_snapshot_;  // last successful PMU read
  std::vector<ProbeState> prefetch_probe_;  // per-core probation clocks
  ProbeState cat_probe_;
  ProbeState mba_probe_;
};

}  // namespace cmm::core
