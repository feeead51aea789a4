#include "core/epoch_driver.hpp"

#include <algorithm>

#include "common/bitmask.hpp"
#include "core/metrics.hpp"

namespace cmm::core {

namespace {
obs::ConfigView view_of(const ResourceConfig& cfg) {
  return {&cfg.prefetch_on, &cfg.way_masks, &cfg.throttle_levels};
}

bool all_zero(const std::vector<std::uint8_t>& levels) {
  return std::all_of(levels.begin(), levels.end(),
                     [](std::uint8_t l) { return l == 0; });
}
}  // namespace

EpochDriver::EpochDriver(sim::MulticoreSystem& system, Policy& policy, const EpochConfig& cfg)
    : system_(system),
      policy_(policy),
      cfg_(cfg),
      owned_msr_(std::make_unique<hw::SimMsrDevice>(system)),
      owned_cat_(std::make_unique<hw::SimCatController>(system)),
      owned_pmu_(std::make_unique<hw::SimPmuReader>(system)),
      owned_mba_(std::make_unique<hw::SimMbaController>(system)),
      msr_(owned_msr_.get()),
      cat_(owned_cat_.get()),
      pmu_(owned_pmu_.get()),
      mba_(owned_mba_.get()),
      retry_(logging_retry(cfg.retry)),
      prefetch_(*msr_, retry_),
      probe_prefetch_(*msr_, RetryPolicy{.max_attempts = 1}) {
  init();
}

EpochDriver::EpochDriver(sim::MulticoreSystem& system, Policy& policy, hw::MsrDevice& msr,
                         hw::PmuReader& pmu, hw::CatController& cat, hw::MbaController& mba,
                         const EpochConfig& cfg)
    : system_(system),
      policy_(policy),
      cfg_(cfg),
      msr_(&msr),
      cat_(&cat),
      pmu_(&pmu),
      mba_(&mba),
      retry_(logging_retry(cfg.retry)),
      prefetch_(*msr_, retry_),
      probe_prefetch_(*msr_, RetryPolicy{.max_attempts = 1}) {
  init();
}

void EpochDriver::init() {
  const unsigned cores = system_.num_cores();
  exec_accum_.assign(cores, sim::PmuCounters{});
  core_prefetch_ok_.assign(cores, true);
  applied_prefetch_.assign(cores, true);  // hardware reset state: all enabled
  applied_throttle_.assign(cores, 0);     // hardware reset state: unregulated
  last_snapshot_.assign(cores, sim::PmuCounters{});
  prefetch_probe_.assign(cores, ProbeState{});

  tctx_.now = system_.now();
  trace_ = obs::Trace(cfg_.sink, &tctx_);
  metrics_ = cfg_.metrics;
  policy_.set_trace(trace_);
}

void EpochDriver::record_health(HealthEventKind kind, CoreId core, std::uint64_t detail,
                                std::string note) {
  if (trace_.on()) {
    switch (kind) {
      case HealthEventKind::RecoveryProbe:
        // Typed event: the note is the probed axis, the detail the outcome.
        trace_.emit(obs::RecoveryProbe{system_.now(), tctx_.epoch, note, core, detail != 0});
        break;
      case HealthEventKind::TenantAttach:
      case HealthEventKind::TenantDetach:
      case HealthEventKind::SloBreach:
        // The ServiceDriver emits the richer typed events for these
        // itself; a DegradationStep mirror here would double-log them.
        break;
      default:
        trace_.emit(obs::DegradationStep{system_.now(), tctx_.epoch, to_string(kind), core,
                                         detail, note});
        break;
    }
  }
  if (metrics_ != nullptr) metrics_->count("health." + std::string(to_string(kind)));
  health_.record(kind, system_.now(), core, detail, std::move(note));
}

RetryPolicy EpochDriver::logging_retry(RetryPolicy base) {
  base.on_retry = [this](const RetryEvent& ev) {
    if (trace_.on()) {
      trace_.emit(obs::FaultRetry{system_.now(), tctx_.epoch, ev.attempt, ev.backoff_units,
                                  ev.what});
    }
    if (metrics_ != nullptr) metrics_->count("health.hw_retry");
    health_.record(HealthEventKind::HwRetry, system_.now(), kInvalidCore, ev.attempt,
                   std::string(ev.what) + " (backoff " + std::to_string(ev.backoff_units) +
                       "u)");
  };
  return base;
}

void EpochDriver::notify_policy_degraded() noexcept {
  try {
    policy_.notify_degraded(prefetch_ok_, cat_ok_, mba_ok_);
  } catch (...) {
    // A notification must never take the control loop down.
  }
}

void EpochDriver::check_management_lost() {
  if (!prefetch_ok_ && !cat_ok_ && !management_lost_logged_) {
    management_lost_logged_ = true;
    record_health(HealthEventKind::ManagementLost);
  }
}

void EpochDriver::arm_probe(ProbeState& ps) {
  if (cfg_.probe_period_epochs == 0) return;
  ps.streak = 0;
  ps.interval = cfg_.probe_period_epochs;
  ps.next_epoch = tctx_.epoch + ps.interval;
}

void EpochDriver::run_recovery_probes() {
  if (cfg_.probe_period_epochs == 0) return;
  const std::uint64_t epoch = tctx_.epoch;
  const std::uint64_t max_interval =
      static_cast<std::uint64_t>(cfg_.probe_period_epochs) * 32;
  const unsigned needed = std::max(1u, cfg_.probe_successes_required);
  const unsigned backoff = std::max(1u, cfg_.probe_backoff_multiplier);

  const auto reschedule = [&](ProbeState& ps, bool ok) {
    if (ok) {
      ++ps.streak;
      ps.interval = cfg_.probe_period_epochs;
    } else {
      ps.streak = 0;
      ps.interval = std::min(ps.interval * backoff, max_interval);
    }
    ps.next_epoch = epoch + ps.interval;
  };

  // Per-core prefetch axis: re-write the state the hardware is believed
  // to hold. A success is a no-op write; `needed` consecutive successes
  // end the core's probation.
  for (CoreId c = 0; c < core_prefetch_ok_.size(); ++c) {
    if (core_prefetch_ok_[c]) continue;
    auto& ps = prefetch_probe_[c];
    if (epoch < ps.next_epoch) continue;
    bool ok = false;
    try {
      probe_prefetch_.set_core_prefetchers(c, applied_prefetch_[c]);
      ok = true;
    } catch (...) {
    }
    record_health(HealthEventKind::RecoveryProbe, c, ok ? 1 : 0, "prefetch");
    reschedule(ps, ok);
    if (ps.streak < needed) continue;
    core_prefetch_ok_[c] = true;
    ps = ProbeState{};
    record_health(HealthEventKind::CorePrefetchRestored, c);
    if (!prefetch_ok_) {
      // At least one core's prefetch knob is back: leave CP-only.
      prefetch_ok_ = true;
      management_lost_logged_ = false;
      record_health(HealthEventKind::CpOnlyRecovered);
      notify_policy_degraded();
    }
  }

  // MBA axis: re-apply the levels the hardware is believed to hold
  // (usually all-zero after the fallback's best-effort reset).
  if (!mba_ok_ && epoch >= mba_probe_.next_epoch) {
    bool ok = false;
    try {
      mba_->apply(applied_throttle_);
      ok = true;
    } catch (...) {
    }
    record_health(HealthEventKind::RecoveryProbe, kInvalidCore, ok ? 1 : 0, "mba");
    reschedule(mba_probe_, ok);
    if (mba_probe_.streak >= needed) {
      mba_ok_ = true;
      mba_probe_ = ProbeState{};
      applied_throttle_ = mba_->current();
      record_health(HealthEventKind::MbaRestored);
      notify_policy_degraded();
    }
  }

  // CAT axis: re-apply the masks the hardware currently holds.
  if (!cat_ok_ && epoch >= cat_probe_.next_epoch) {
    bool ok = false;
    try {
      cat_->apply(cat_->current());
      ok = true;
    } catch (...) {
    }
    record_health(HealthEventKind::RecoveryProbe, kInvalidCore, ok ? 1 : 0, "cat");
    reschedule(cat_probe_, ok);
    if (cat_probe_.streak >= needed) {
      cat_ok_ = true;
      cat_probe_ = ProbeState{};
      management_lost_logged_ = false;
      current_.way_masks = cat_->current();
      record_health(HealthEventKind::PtOnlyRecovered);
      notify_policy_degraded();
    }
  }
}

void EpochDriver::mark_core_prefetch_dead(CoreId core, const char* what) {
  core_prefetch_ok_[core] = false;
  arm_probe(prefetch_probe_[core]);
  record_health(HealthEventKind::CorePrefetchOffline, core, 0, what);
  if (std::none_of(core_prefetch_ok_.begin(), core_prefetch_ok_.end(),
                   [](bool ok) { return ok; })) {
    prefetch_ok_ = false;
    record_health(HealthEventKind::CpOnlyFallback);
    notify_policy_degraded();
  }
  check_management_lost();
}

void EpochDriver::mark_cat_dead(const char* what) {
  cat_ok_ = false;
  arm_probe(cat_probe_);
  // Best-effort: drop any stale partition so no core stays stuck with a
  // tiny mask the controller can no longer manage (success recorded in
  // the event's detail field).
  bool reset_ok = false;
  try {
    with_retry(retry_, [&] { cat_->reset(); });
    reset_ok = true;
  } catch (...) {
  }
  record_health(HealthEventKind::PtOnlyFallback, kInvalidCore, reset_ok ? 1 : 0, what);
  notify_policy_degraded();
  check_management_lost();
}

void EpochDriver::mark_mba_dead(const char* what) {
  mba_ok_ = false;
  arm_probe(mba_probe_);
  // Best-effort: lift any residual regulation so no core stays paced by
  // a ladder the controller can no longer manage (success recorded in
  // the event's detail field). PT+CP management continues unaffected.
  bool reset_ok = false;
  try {
    with_retry(retry_, [&] { mba_->reset(); });
    applied_throttle_.assign(applied_throttle_.size(), 0);
    reset_ok = true;
  } catch (...) {
  }
  record_health(HealthEventKind::MbaOffline, kInvalidCore, reset_ok ? 1 : 0, what);
  notify_policy_degraded();
}

void EpochDriver::apply(const ResourceConfig& cfg, std::string_view source) {
  // `effective` tracks what actually lands on hardware; with every knob
  // healthy it equals `cfg` bit for bit.
  ResourceConfig effective = cfg;

  for (CoreId c = 0; c < cfg.prefetch_on.size(); ++c) {
    if (!prefetch_ok_ || !core_prefetch_ok_[c]) {
      effective.prefetch_on[c] = applied_prefetch_[c];
      continue;
    }
    try {
      prefetch_.set_core_prefetchers(c, cfg.prefetch_on[c]);  // retries inside
      applied_prefetch_[c] = cfg.prefetch_on[c];
    } catch (const HwFault& f) {
      effective.prefetch_on[c] = applied_prefetch_[c];
      mark_core_prefetch_dead(c, f.what());
    }
  }

  if (cat_ok_) {
    try {
      with_retry(retry_, [&] { cat_->apply(cfg.way_masks); });
    } catch (const HwFault& f) {
      mark_cat_dead(f.what());
      effective.way_masks = cat_->current();  // whatever the hardware kept
    }
  } else {
    effective.way_masks = current_.way_masks;  // unchanged on hardware
  }

  // BP axis: touch the MBA HAL only when the desired ladder state
  // differs from what hardware already holds. An all-zero (or absent)
  // request on an unregulated machine therefore issues no HAL call at
  // all — the fault-injector call stream, and with it every rate-0 and
  // fault-campaign bit-identity invariant, is unchanged from pre-BP.
  std::vector<std::uint8_t> desired = cfg.throttle_levels;
  desired.resize(applied_throttle_.size(), 0);
  if (mba_ok_ && desired != applied_throttle_) {
    try {
      with_retry(retry_, [&] { mba_->apply(desired); });
      applied_throttle_ = desired;
    } catch (const HwFault& f) {
      mark_mba_dead(f.what());
    }
  }
  if (!cfg.throttle_levels.empty() || !all_zero(applied_throttle_)) {
    effective.throttle_levels = applied_throttle_;
  }

  current_ = effective;
  if (trace_.on()) {
    trace_.emit(obs::ConfigApplied{system_.now(), tctx_.epoch, source, view_of(current_)});
  }
}

bool EpochDriver::plausible_snapshot(const std::vector<sim::PmuCounters>& snapshot) const {
  // Two invariants a healthy snapshot cannot break: counters are
  // monotone (catches wrap) and the cycle counter tracks the global
  // clock (catches garbage, whose random values dwarf any real count).
  const double now = static_cast<double>(system_.now());
  for (CoreId c = 0; c < snapshot.size(); ++c) {
    if (static_cast<double>(snapshot[c].cycles) > now + 100'000.0) return false;
    if (snapshot[c].cycles < last_snapshot_[c].cycles) return false;
    if (snapshot[c].instructions < last_snapshot_[c].instructions) return false;
  }
  return true;
}

std::vector<sim::PmuCounters> EpochDriver::read_counters() {
  try {
    auto snapshot = with_retry(retry_, [&] { return pmu_->read_all(); });
    // Simulated time is paused between spans and counters are monotone,
    // so a fresh read supersedes a wrapped/garbage one: re-read a
    // bounded number of times rather than blind the whole span.
    for (unsigned attempt = 1;
         attempt < retry_.max_attempts && !plausible_snapshot(snapshot); ++attempt) {
      record_health(HealthEventKind::PmuSnapshotReread, kInvalidCore, attempt);
      snapshot = with_retry(retry_, [&] { return pmu_->read_all(); });
    }
    // A still-implausible snapshot is returned as-is (the span-level
    // plausibility check quarantines it) but never becomes the
    // monotonicity reference.
    if (plausible_snapshot(snapshot)) last_snapshot_ = snapshot;
    return snapshot;
  } catch (const HwFault& f) {
    // Persistent PMU failure: substitute the last good snapshot, which
    // turns this span's delta into zeros (downstream metrics define
    // 0/0 as 0, so a blind interval is harmless).
    record_health(HealthEventKind::PmuReadFailed, kInvalidCore, 0, f.what());
    return last_snapshot_;
  }
}

EpochDriver::SpanDelta EpochDriver::run_span(Cycle span) {
  const auto before = read_counters();
  system_.run(span);
  const auto after = read_counters();

  SpanDelta result;
  std::vector<bool> wrapped;
  result.per_core = hw::pmu_delta(after, before, &wrapped);
  for (CoreId c = 0; c < result.per_core.size(); ++c) {
    auto& d = result.per_core[c];
    // Plausibility: a span of `span` cycles cannot yield a per-core
    // cycle delta far beyond it, nor an instruction count beyond any
    // real issue width. Garbage snapshots are random 64-bit values, so
    // the slack can be generous without masking real measurements.
    const double cycles = static_cast<double>(d.cycles);
    const double instructions = static_cast<double>(d.instructions);
    const bool garbage = cycles > 2.0 * static_cast<double>(span) + 100'000.0 ||
                         instructions > 16.0 * cycles + 100'000.0;
    if (wrapped[c]) record_health(HealthEventKind::PmuWrapSaturated, c);
    if (garbage) record_health(HealthEventKind::PmuGarbageDetected, c, d.cycles);
    if (wrapped[c] || garbage) {
      d = sim::PmuCounters{};  // never let a corrupt core poison downstream math
      result.any_implausible = true;
    }
  }
  return result;
}

void EpochDriver::watchdog_restore(const std::string& cause) {
  // Put every knob we still control back to baseline: all prefetchers
  // on, full-mask COS everywhere.
  for (CoreId c = 0; c < core_prefetch_ok_.size(); ++c) {
    if (applied_prefetch_[c]) continue;
    if (!prefetch_ok_ || !core_prefetch_ok_[c]) continue;
    try {
      prefetch_.set_core_prefetchers(c, true);
      applied_prefetch_[c] = true;
    } catch (const HwFault& f) {
      mark_core_prefetch_dead(c, f.what());
    }
  }
  if (cat_ok_) {
    try {
      with_retry(retry_, [&] { cat_->reset(); });
    } catch (const HwFault& f) {
      mark_cat_dead(f.what());
    }
  }
  // BP axis: lift regulation, but only when some is actually applied —
  // an unregulated machine (every pre-BP run) must not grow a HAL call.
  if (mba_ok_ && !all_zero(applied_throttle_)) {
    try {
      with_retry(retry_, [&] { mba_->reset(); });
      applied_throttle_.assign(applied_throttle_.size(), 0);
    } catch (const HwFault& f) {
      mark_mba_dead(f.what());
    }
  }

  const auto masks = cat_->current();
  const WayMask full = full_mask(cat_->llc_ways());
  const bool baseline =
      std::all_of(masks.begin(), masks.end(), [full](WayMask m) { return m == full; }) &&
      std::all_of(applied_prefetch_.begin(), applied_prefetch_.end(),
                  [](bool on) { return on; }) &&
      all_zero(applied_throttle_);
  record_health(HealthEventKind::WatchdogRestore, kInvalidCore, baseline ? 1 : 0, cause);

  current_.prefetch_on = applied_prefetch_;
  current_.way_masks = masks;
  if (!current_.throttle_levels.empty() || !all_zero(applied_throttle_)) {
    current_.throttle_levels = applied_throttle_;
  }
  if (trace_.on()) {
    trace_.emit(obs::ConfigApplied{system_.now(), tctx_.epoch, "watchdog", view_of(current_)});
  }
}

void EpochDriver::run(Cycle total_cycles) {
  if (!started_) {
    ResourceConfig initial = ResourceConfig::baseline(system_.num_cores(), cat_->llc_ways());
    guarded(
        [&] { initial = policy_.initial_config(system_.num_cores(), cat_->llc_ways()); },
        "initial_config");
    apply(initial, "initial");
    started_ = true;
  }

  const Cycle end = system_.now() + total_cycles;
  while (system_.now() < end) {
    // ---- Execution epoch ----
    tctx_.now = system_.now();
    run_recovery_probes();
    const Cycle exec_len = std::min<Cycle>(cfg_.execution_epoch, end - system_.now());
    if (trace_.on()) {
      trace_.emit(obs::EpochStart{system_.now(), tctx_.epoch, exec_len, policy_.name(),
                                  view_of(current_)});
    }
    if (metrics_ != nullptr) {
      metrics_->count("driver.epochs");
      metrics_->observe("driver.epoch_cycles", static_cast<double>(exec_len),
                        {1e5, 5e5, 1e6, 2e6, 5e6, 1e7});
    }
    log_.push_back({EpochLogEntry::Kind::Execution, system_.now(), exec_len, current_});
    const SpanDelta epoch = run_span(exec_len);
    tctx_.now = system_.now();
    for (CoreId c = 0; c < epoch.per_core.size(); ++c) {
      auto& acc = exec_accum_[c];
      const auto& d = epoch.per_core[c];
      acc.cycles += d.cycles;
      acc.instructions += d.instructions;
      acc.l2_pref_req += d.l2_pref_req;
      acc.l2_pref_miss += d.l2_pref_miss;
      acc.l2_dm_req += d.l2_dm_req;
      acc.l2_dm_miss += d.l2_dm_miss;
      acc.l3_load_miss += d.l3_load_miss;
      acc.stalls_l2_pending += d.stalls_l2_pending;
      acc.dram_demand_bytes += d.dram_demand_bytes;
      acc.dram_prefetch_bytes += d.dram_prefetch_bytes;
    }
    if (system_.now() >= end) break;

    // ---- Profiling epoch ----
    if (!guarded([&] { policy_.begin_profiling(epoch.per_core); }, "begin_profiling")) {
      continue;  // watchdog restored baseline; try again next epoch
    }
    unsigned samples = 0;
    bool watchdog_fired = false;
    while (system_.now() < end) {
      std::optional<ResourceConfig> request;
      if (!guarded([&] { request = policy_.next_sample(); }, "next_sample")) {
        watchdog_fired = true;
        break;
      }
      if (!request.has_value()) break;
      if (samples >= cfg_.max_samples_per_epoch) {
        record_health(HealthEventKind::SampleCapTruncated, kInvalidCore, samples);
        break;
      }
      apply(*request, "sample");
      Cycle len = std::min<Cycle>(cfg_.sampling_interval, end - system_.now());
      log_.push_back({EpochLogEntry::Kind::Sample, system_.now(), len, current_});
      SpanDelta sample = run_span(len);
      if (sample.any_implausible && system_.now() < end) {
        // Quarantine: discard the interval and re-run it once; the
        // configuration under test is still applied to hardware.
        record_health(HealthEventKind::SampleQuarantined, kInvalidCore, samples);
        len = std::min<Cycle>(cfg_.sampling_interval, end - system_.now());
        log_.push_back({EpochLogEntry::Kind::Sample, system_.now(), len, current_});
        sample = run_span(len);
        if (sample.any_implausible) {
          // Still implausible: give up on the measurement (its corrupt
          // cores are already zeroed) rather than loop forever.
          record_health(HealthEventKind::SampleDiscarded, kInvalidCore, samples);
        }
      }
      tctx_.now = system_.now();
      if (len < cfg_.sampling_interval) {
        // End-of-run truncation: the partial interval's PMU delta is
        // not comparable to the full-interval samples the policy is
        // ranking by hm_ipc, so it must not reach report_sample().
        // Trace/metrics only — a HealthLog entry here would break the
        // fault campaign's bit-identity invariants. The run is over
        // (now == end), so nothing downstream sees the gap.
        if (metrics_ != nullptr) metrics_->count("driver.sample_partial_discarded");
        if (trace_.on()) {
          trace_.emit(obs::DegradationStep{system_.now(), tctx_.epoch,
                                           "sample_partial_discarded", kInvalidCore, len, {}});
        }
        break;
      }
      if (trace_.on()) {
        trace_.emit(obs::SampleResult{system_.now(), tctx_.epoch, samples,
                                      hm_ipc(sample.per_core), view_of(*request)});
      }
      if (metrics_ != nullptr) metrics_->count("driver.samples");
      SampleStats stats;
      stats.config = *request;
      stats.per_core = std::move(sample.per_core);
      if (!guarded([&] { policy_.report_sample(stats); }, "report_sample")) {
        watchdog_fired = true;
        break;
      }
      ++samples;
    }
    if (metrics_ != nullptr) {
      metrics_->observe("driver.samples_per_epoch", static_cast<double>(samples),
                        {0, 1, 2, 4, 8, 16, 32});
    }
    if (!watchdog_fired) {
      ResourceConfig final_cfg;
      if (guarded([&] { final_cfg = policy_.final_config(); }, "final_config")) {
        apply(final_cfg, "final");
      }
    }
    ++tctx_.epoch;
  }
}

DomainSummary EpochDriver::domain_summary() const {
  DomainSummary s;
  s.epoch = tctx_.epoch;
  s.now = system_.now();
  s.exec_counters = exec_accum_;
  s.throttle_levels = applied_throttle_;
  s.prefetch_available = prefetch_ok_;
  s.cat_available = cat_ok_;
  s.mba_available = mba_ok_;
  return s;
}

void EpochDriver::notify_membership_change(const std::vector<CoreId>& cores) {
  guarded([&] { policy_.notify_membership_change(cores); }, "notify_membership_change");
}

}  // namespace cmm::core
