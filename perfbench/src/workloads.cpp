#include "workloads.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <exception>

#include "analysis/fleet.hpp"
#include "analysis/run_harness.hpp"
#include "analysis/solo_cache.hpp"
#include "analysis/speedup_metrics.hpp"
#include "common/rng.hpp"
#include "core/epoch_driver.hpp"
#include "core/metrics.hpp"
#include "hw/fault_injection.hpp"
#include "service/service_driver.hpp"
#include "stats.hpp"
#include "workloads/benchmark_specs.hpp"
#include "workloads/workload_mix.hpp"

namespace perfbench {

using namespace cmm;

namespace {

double seconds_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-9; }

void add_result(Digest& d, const analysis::RunResult& r) {
  d.add(static_cast<std::uint64_t>(r.measured_cycles));
  for (const auto& c : r.cores) {
    d.add(c.benchmark).add(c.ipc).add(c.demand_gbs).add(c.prefetch_gbs);
    d.add(c.stalls_l2_pending);
    const auto& k = c.counters;
    for (const std::uint64_t v :
         {k.cycles, k.instructions, k.l2_pref_req, k.l2_pref_miss, k.l2_dm_req, k.l2_dm_miss,
          k.l3_load_miss, k.stalls_l2_pending, k.dram_demand_bytes, k.dram_prefetch_bytes,
          k.dram_writeback_bytes}) {
      d.add(v);
    }
  }
}

std::uint64_t solo_misses() { return analysis::SoloRunCache::global().misses(); }
std::uint64_t solo_hits() { return analysis::SoloRunCache::global().hits(); }

/// EpochDriver counts every workload reads from its metrics registry.
void read_driver_counts(const obs::MetricsRegistry& m, RepResult& r) {
  r.epochs = m.counter("driver.epochs");
  r.samples = m.counter("driver.samples");
  r.hw_retries = m.counter("health.hw_retry");
}

/// The HAL stack of a traced job: sim devices under timing decorators.
struct TimedHal {
  TimedHal(sim::MulticoreSystem& system, Tracing& t)
      : msr(system), pmu(system), cat(system), mba(system),
        tmsr(msr, t.spans, t.hal), tpmu(pmu, t.spans, t.hal), tcat(cat, t.spans, t.hal),
        tmba(mba, t.spans, t.hal) {}
  hw::SimMsrDevice msr;
  hw::SimPmuReader pmu;
  hw::SimCatController cat;
  hw::SimMbaController mba;
  TimedMsrDevice tmsr;
  TimedPmuReader tpmu;
  TimedCatController tcat;
  TimedMbaController tmba;
};

// ------------------------------------------------------------ paper_matrix
//
// Baseline plus the seven mechanisms on one mix of each of the paper's
// four categories, plus the alone-IPC solos HS needs: one fixed batch
// of 49 jobs. The mixes are the paper's evaluation set at its own mix
// seed; the workload seed drives every op stream (mix and solo runs).

class PaperMatrix final : public Workload {
 public:
  explicit PaperMatrix(std::uint64_t seed) {
    params_.machine = sim::MachineConfig::scaled(16);
    // Three execution epochs, each short enough that a run holds about
    // five repetitions for its medians.
    params_.warmup_cycles = 1'500'000;
    params_.run_cycles = 1'500'000;
    params_.epochs.execution_epoch = 500'000;
    params_.epochs.sampling_interval = 20'000;
    params_.seed = seed;
    mixes_ = workloads::paper_workloads(params_.machine.num_cores, kMixSeed, 1);
    policies_.push_back("baseline");
    for (auto& p : analysis::mechanism_names()) policies_.push_back(std::move(p));
    for (const auto& mix : mixes_) {
      for (const auto& b : mix.benchmarks) {
        if (std::find(solos_.begin(), solos_.end(), b) == solos_.end()) solos_.push_back(b);
      }
    }
  }

  // Two workers, not four: in back-to-back trials on a 4-vCPU host,
  // four spread the run-to-run wall time about three times wider.
  unsigned threads() const noexcept override { return 2; }

  double setup_once() override {
    const std::int64_t t0 = now_ns();
    for (const auto& mix : mixes_) {
      for (const auto& p : policies_) {
        sim::MulticoreSystem system(params_.machine);
        workloads::attach_mix(system, mix, params_.seed);
        const auto policy = analysis::make_policy(p, params_.detector());
      }
    }
    for (const auto& b : solos_) {
      sim::MulticoreSystem system(solo_machine());
      system.set_op_source(0, workloads::make_op_source(b, system.config(), 0, params_.seed));
    }
    return seconds_since(t0);
  }

  RepResult run(unsigned threads, Tracing* tracing) override {
    analysis::SoloRunCache::global().clear();
    const std::size_t n_mix = mixes_.size() * policies_.size();
    const std::size_t n = n_mix + solos_.size();
    std::vector<analysis::RunResult> results(n);
    std::vector<double> job_s(n, 0.0);
    std::atomic<std::uint64_t> failed{0};

    const auto job = [&](std::size_t i) {
      const std::int64_t t0 = now_ns();
      try {
        if (i < n_mix) {
          const auto& mix = mixes_[i / policies_.size()];
          const auto& policy = policies_[i % policies_.size()];
          results[i] = tracing != nullptr ? traced_mix(mix, policy, *tracing)
                                          : untraced_mix(mix, policy);
        } else {
          const auto& b = solos_[i - n_mix];
          results[i] = tracing != nullptr
                           ? traced_solo(b, *tracing)
                           : *analysis::run_solo_cached(b, params_, /*prefetch_on=*/true);
        }
      } catch (const std::exception&) {
        failed.fetch_add(1, std::memory_order_relaxed);
      }
      job_s[i] = seconds_since(t0);
    };

    RepResult r;
    analysis::BatchOptions opts;
    opts.threads = threads;
    const std::int64_t t0 = now_ns();
    analysis::BatchStats batch;
    if (tracing == nullptr) {
      batch = analysis::run_batch(n, job, opts);
    } else {
      SpanRecorder::Scope span(tracing->spans, Layer::Analysis, "batch");
      const std::uint64_t batch_id = span.id();
      batch = analysis::run_batch(
          n,
          [&](std::size_t i) {
            SpanRecorder::Scope js(tracing->spans, Layer::Analysis, "job", batch_id);
            job(i);
          },
          opts);
    }
    r.wall_s = seconds_since(t0);
    r.threads = batch.threads;
    r.jobs = batch.jobs;
    r.batch_wall_s = batch.wall_seconds;
    r.batch_job_s = batch.job_seconds;
    r.solo_hits = batch.cache_hits;
    r.solo_misses = batch.cache_misses;
    r.distinct_solos = tracing != nullptr ? 0 : solos_.size();  // traced solos bypass the cache
    r.job_s = job_s;
    r.attempted = n;
    r.failed = failed.load();
    for (std::size_t i = 0; i < n; ++i) {
      (i < n_mix ? r.tick_ms : r.attach_ms).push_back(job_s[i] * 1e3);
    }

    Digest digest;
    for (const auto& res : results) add_result(digest, res);
    r.digest = digest.hex();

    std::map<std::string, double> alone;
    for (std::size_t s = 0; s < solos_.size(); ++s) {
      const auto& cores = results[n_mix + s].cores;
      alone[solos_[s]] = cores.empty() ? 0.0 : cores.front().ipc;
    }
    const auto policy_index = [&](std::string_view p) {
      return static_cast<std::size_t>(
          std::find(policies_.begin(), policies_.end(), p) - policies_.begin());
    };
    const std::size_t base = policy_index("baseline");
    const std::size_t cmm_c = policy_index("cmm_c");
    double hs_sum = 0.0;
    std::vector<double> cmm_c_ipcs;
    Cycle sample_cycles = 0;
    for (std::size_t m = 0; m < mixes_.size(); ++m) {
      const auto hs_of = [&](std::size_t p) {
        const auto& res = results[m * policies_.size() + p];
        std::vector<double> solo;
        for (const auto& c : res.cores) solo.push_back(alone[c.benchmark]);
        const auto ipcs = res.ipcs();
        return analysis::harmonic_speedup(ipcs, solo);
      };
      const double hs_base = hs_of(base);
      hs_sum += hs_base > 0.0 ? hs_of(cmm_c) / hs_base : 0.0;
      for (const double ipc : results[m * policies_.size() + cmm_c].ipcs()) {
        cmm_c_ipcs.push_back(ipc);
      }
      for (std::size_t p = 0; p < policies_.size(); ++p) {
        sample_cycles += params_.run_cycles - results[m * policies_.size() + p].measured_cycles;
      }
    }
    r.hs_norm_cmm_c = hs_sum / static_cast<double>(mixes_.size());
    r.fleet_hm_ipc = analysis::harmonic_mean(cmm_c_ipcs);
    r.sampling_overhead_pct = 100.0 * static_cast<double>(sample_cycles) /
                              static_cast<double>(n_mix * params_.run_cycles);
    const Cycle solo_cycles = params_.warmup_cycles + params_.run_cycles;
    r.core_cycles = static_cast<double>(n_mix * params_.machine.num_cores * params_.run_cycles +
                                        solos_.size() * solo_cycles);
    if (tracing != nullptr) read_driver_counts(tracing->metrics, r);
    return r;
  }

 private:
  static constexpr std::uint64_t kMixSeed = 42;

  sim::MachineConfig solo_machine() const {
    sim::MachineConfig m = params_.machine;
    m.num_cores = 1;
    m.num_llc_domains = 1;
    return m;
  }

  analysis::RunResult untraced_mix(const workloads::WorkloadMix& mix, const std::string& p) const {
    const auto policy = analysis::make_policy(p, params_.detector());
    return analysis::run_mix(mix, *policy, params_);
  }

  /// run_mix with every seam decorated: the same machine, streams,
  /// driver and result extraction, so the result must be bit-identical.
  analysis::RunResult traced_mix(const workloads::WorkloadMix& mix, const std::string& p,
                                 Tracing& t) const {
    OpGenMeter opgen;
    obs::MetricsRegistry metrics;
    sim::MulticoreSystem system(params_.machine);
    workloads::attach_mix(system, mix, params_.seed);
    for (CoreId c = 0; c < system.num_cores(); ++c) {
      system.set_op_source(c,
                           std::make_shared<TimedOpSource>(system.export_tenant(c).source, opgen));
    }
    TimedHal hal(system, t);
    TimedPolicy policy(analysis::make_policy(p, params_.detector()), t.spans, t.policy_calls);
    core::EpochConfig epochs = params_.epochs;
    epochs.sink = &t.sink;
    epochs.metrics = &metrics;
    core::EpochDriver driver(system, policy, hal.tmsr, hal.tpmu, hal.tcat, hal.tmba, epochs);
    std::uint64_t run_id = 0;
    {
      SpanRecorder::Scope span(t.spans, Layer::Sim, "driver.run");
      run_id = span.id();
      driver.run(params_.run_cycles);
    }
    t.spans.add_accumulated(Layer::Workloads, "opgen", run_id, opgen.ns);

    analysis::RunResult result;
    const auto& exec = driver.execution_counters();
    for (CoreId c = 0; c < exec.size(); ++c) {
      result.cores.push_back(
          analysis::make_core_stats(mix.benchmarks[c], exec[c], params_.machine.freq_ghz));
      result.measured_cycles = std::max<Cycle>(result.measured_cycles, exec[c].cycles);
    }
    SimCounters sim;
    sim.add_system(system);
    t.merge_job(opgen, sim, metrics);
    return result;
  }

  /// run_solo (all ways, prefetchers on) with its op stream decorated;
  /// checked bit-identical against the memoized run_solo of the timed run.
  analysis::RunResult traced_solo(const std::string& benchmark, Tracing& t) const {
    OpGenMeter opgen;
    const sim::MachineConfig machine = solo_machine();
    sim::MulticoreSystem system(machine);
    system.core(0).prefetch_msr().set_all(true);
    system.set_op_source(0, std::make_shared<TimedOpSource>(
                                workloads::make_op_source(benchmark, machine, 0, params_.seed),
                                opgen));
    sim::PmuCounters delta;
    std::uint64_t run_id = 0;
    {
      SpanRecorder::Scope span(t.spans, Layer::Sim, "solo.run");
      run_id = span.id();
      system.run(params_.warmup_cycles);
      const auto before = system.pmu().snapshot();
      system.run(params_.run_cycles);
      delta = system.pmu().snapshot()[0].delta_since(before[0]);
    }
    t.spans.add_accumulated(Layer::Workloads, "opgen", run_id, opgen.ns);

    analysis::RunResult result;
    result.measured_cycles = params_.run_cycles;
    result.cores.push_back(analysis::make_core_stats(benchmark, delta, machine.freq_ghz));
    SimCounters sim;
    sim.add_system(system);
    t.merge_job(opgen, sim, obs::MetricsRegistry{});
    return result;
  }

  analysis::RunParams params_;
  std::vector<workloads::WorkloadMix> mixes_;
  std::vector<std::string> policies_;
  std::vector<std::string> solos_;
};

// ------------------------------------------------------------ service_soak
//
// One closed-loop client on one thread driving the soak_churn schedule:
// per tick a Bernoulli arrival (attach) and departure (detach), then
// tick(). The run is soak_churn's, seeds included, whatever the
// workload seed: its SLO breach ratio counts about 30 breaches, and
// letting the seed reach the tenant streams, the chaos schedule or the
// churn schedule spread it by 0.23, 0.35 and 2.7 (IQR / median over
// ten seeds), more than any bound the gate allows.

class ServiceSoak final : public Workload {
 public:
  ServiceSoak() {
    auto& p = cfg_.params;
    p.machine = sim::MachineConfig::scaled(32);
    p.warmup_cycles = 200'000;
    p.run_cycles = 600'000;
    p.epochs.execution_epoch = 60'000;
    p.epochs.sampling_interval = 4'000;
    p.epochs.probe_period_epochs = 3;
    cfg_.health_capacity = 256;
    faults_.seed = kChurnSeed;
    faults_.msr_write_fail_p = 0.02;
    faults_.transient_fraction = 0.0;
    faults_.repair_after_calls = 300;
    for (const auto& spec : workloads::benchmark_suite()) names_.push_back(spec.name);
  }

  unsigned threads() const noexcept override { return 1; }

  double setup_once() override {
    const std::int64_t t0 = now_ns();
    service::ServiceDriver svc(cfg_, analysis::make_policy("cmm_c", cfg_.params.detector()),
                               faults_);
    return seconds_since(t0);
  }

  RepResult run(unsigned /*threads*/, Tracing* tracing) override {
    analysis::SoloRunCache::global().clear();
    const std::uint64_t hits0 = solo_hits();
    const std::uint64_t misses0 = solo_misses();
    RepResult r;
    obs::MetricsRegistry metrics;
    const std::int64_t t0 = now_ns();
    std::optional<SpanRecorder::Scope> job;
    if (tracing != nullptr) job.emplace(tracing->spans, Layer::Analysis, "job");

    std::unique_ptr<core::Policy> policy =
        analysis::make_policy("cmm_c", cfg_.params.detector());
    if (tracing != nullptr) {
      policy = std::make_unique<TimedPolicy>(std::move(policy), tracing->spans,
                                             tracing->policy_calls);
    }
    service::ServiceDriver svc(cfg_, std::move(policy), faults_,
                               tracing != nullptr ? &tracing->sink : nullptr, &metrics);

    // A call into the service, timed; spans only in the traced run.
    const auto timed = [&](std::string_view span_name, std::vector<double>* samples,
                           double& total_s, const auto& call) {
      std::optional<SpanRecorder::Scope> span;
      if (tracing != nullptr) span.emplace(tracing->spans, Layer::Service, span_name);
      const std::int64_t c0 = now_ns();
      try {
        call();
      } catch (const std::exception&) {
        ++r.failed;
      }
      const double s = seconds_since(c0);
      total_s += s;
      if (samples != nullptr) samples->push_back(s * 1e3);
      ++r.attempted;
    };

    Rng churn(kChurnSeed);
    std::size_t next_name = 0;
    std::uint64_t arrival_no = 0;
    std::uint64_t served = 0;
    for (std::uint64_t t = 0; t < kTicks; ++t) {
      const bool arrive = churn.next_bool(0.45);
      const bool depart = churn.next_bool(0.20);
      if (arrive) {
        service::TenantSpec spec;
        spec.benchmark = names_[next_name++ % names_.size()];
        spec.slo = 0.20;
        spec.seed = kChurnSeed + 100 + arrival_no++;
        timed("service.attach", &r.attach_ms, r.attach_s, [&] {
          switch (svc.attach(spec).decision) {
            case service::AdmissionDecision::Admitted: ++r.admitted; break;
            case service::AdmissionDecision::Queued: ++r.queued; break;
            case service::AdmissionDecision::Rejected: ++r.rejected; break;
          }
        });
      }
      if (depart && svc.active_tenants() > 0) {
        std::vector<CoreId> occupied;
        for (CoreId c = 0; c < svc.tenants().size(); ++c) {
          if (svc.tenants()[c].has_value()) occupied.push_back(c);
        }
        const CoreId victim = occupied[churn.next_below(occupied.size())];
        timed("service.detach", nullptr, r.detach_s, [&] { svc.detach(victim); });
      }
      r.max_queue_depth = std::max<std::uint64_t>(r.max_queue_depth, svc.queue_depth());
      served += svc.active_tenants();
      timed("service.tick", &r.tick_ms, r.tick_s, [&] { svc.tick(); });
      r.max_queue_depth = std::max<std::uint64_t>(r.max_queue_depth, svc.queue_depth());
    }
    job.reset();
    r.wall_s = seconds_since(t0);
    r.ticks = svc.ticks();
    r.solo_hits = solo_hits() - hits0;
    r.solo_misses = solo_misses() - misses0;

    const auto& health = svc.health();
    Digest digest;
    digest.add(svc.ticks()).add(svc.driver().epoch_index()).add(svc.attaches());
    digest.add(svc.detaches()).add(svc.rejections()).add(svc.queued_total());
    digest.add(svc.slo_breaches()).add(static_cast<std::uint64_t>(svc.active_tenants()));
    digest.add(static_cast<std::uint64_t>(svc.queue_depth()));
    digest.add(static_cast<std::uint64_t>(svc.all_tenants_within_slo())).add(served);
    digest.add(health.summary_json());
    digest.add(svc.injector() != nullptr ? svc.injector()->injected_faults() : 0);
    r.digest = digest.hex();

    r.slo_breach_ratio =
        served > 0 ? static_cast<double>(svc.slo_breaches()) / static_cast<double>(served) : 0.0;
    r.fleet_hm_ipc = core::hm_ipc(svc.driver().execution_counters());
    Cycle sampled = 0;
    Cycle total = 0;
    for (const auto& e : svc.driver().log()) {
      total += e.length;
      if (e.kind == core::EpochLogEntry::Kind::Sample) sampled += e.length;
    }
    r.sampling_overhead_pct =
        total > 0 ? 100.0 * static_cast<double>(sampled) / static_cast<double>(total) : 0.0;
    r.core_cycles = static_cast<double>(svc.system().now()) * svc.num_cores() +
                    static_cast<double>(r.solo_misses) *
                        static_cast<double>(cfg_.params.warmup_cycles + cfg_.params.run_cycles);
    read_driver_counts(metrics, r);
    if (tracing != nullptr) {
      SimCounters sim;
      sim.add_system(svc.system());
      std::lock_guard<std::mutex> lock(tracing->mu);
      tracing->sim.add(sim);
    }
    return r;
  }


 private:
  static constexpr std::uint64_t kTicks = 220;
  static constexpr std::uint64_t kChurnSeed = 7;

  service::ServiceConfig cfg_;
  hw::FaultPlan faults_;
  std::vector<std::string> names_;
};

// ------------------------------------------------------------------ fleets

class Fleet final : public Workload {
 public:
  /// fleet_flat: ROADMAP's 64-core rung, 8 domains x 8 cores with
  /// RoundRobin placement and tenant churn every run/5 cycles, no
  /// coordinator. fleet_coord: the fleet_migrate setup, 8 x 4 cores on
  /// the pathological placement with a coordinator round every slice.
  /// The workload seed drives the op streams; the churn schedule keeps
  /// fleet_scale's seed, since seeding it moves fleet hm_ipc by a
  /// fifth between seeds.
  Fleet(bool coordinated, std::uint64_t seed) : coordinated_(coordinated) {
    auto& p = cfg_.params;
    p.machine = sim::MachineConfig::fleet(8, coordinated ? 4 : 8, 32);
    p.warmup_cycles = 100'000;
    p.run_cycles = coordinated ? 900'000 : 600'000;
    p.epochs.execution_epoch = 100'000;
    p.epochs.sampling_interval = 10'000;
    p.seed = seed;
    if (coordinated) {
      cfg_.coordinator_period = 1;
      cfg_.migration_budget = 2;
      const std::vector<std::string> heavy{"lbm", "libquantum", "milc", "bwaves"};
      const std::vector<std::string> light{"povray", "calculix", "gobmk", "namd"};
      const unsigned domains = p.machine.num_llc_domains;
      const unsigned cpd = p.machine.cores_per_domain();
      mixes_.resize(domains);
      for (unsigned d = 0; d < domains; ++d) {
        mixes_[d].name = "fleet_d" + std::to_string(d);
        const auto& pool = d < domains / 2 ? heavy : light;
        for (unsigned c = 0; c < cpd; ++c) mixes_[d].benchmarks.push_back(pool[c % pool.size()]);
      }
    } else {
      cfg_.churn_slice = p.run_cycles / 5;
      cfg_.churn_per_mille = 700;
      cfg_.churn_catalog = {"libquantum", "namd", "gobmk"};
      const std::vector<std::string> pool{"lbm", "mcf", "milc", "povray", "soplex", "bwaves"};
      for (unsigned c = 0; c < p.machine.num_cores; ++c) tenants_.push_back(pool[c % pool.size()]);
    }
  }

  // Two workers, as on paper_matrix: four spread the run-to-run wall
  // time wider.
  unsigned threads() const noexcept override { return 2; }
  bool parallel_spans() const noexcept override { return true; }

  double setup_once() override {
    const std::int64_t t0 = now_ns();
    const auto mixes = placement();
    const auto& machine = cfg_.params.machine;
    for (unsigned d = 0; d < machine.num_llc_domains; ++d) {
      sim::MulticoreSystem system(machine.domain_config(d));
      workloads::attach_mix(system, mixes[d], cfg_.params.seed);
      const auto policy = analysis::make_policy(cfg_.policy, cfg_.params.detector());
    }
    return seconds_since(t0);
  }

  RepResult run(unsigned threads, Tracing* tracing) override {
    analysis::SoloRunCache::global().clear();
    RepResult r;
    analysis::FleetConfig cfg = cfg_;
    analysis::BatchOptions opts;
    opts.threads = threads;
    const std::int64_t t0 = now_ns();
    std::optional<SpanRecorder::Scope> job;
    if (tracing != nullptr) job.emplace(tracing->spans, Layer::Analysis, "job");
    const auto mixes = placement();
    analysis::FleetResult fleet;
    bool ok = true;
    {
      std::optional<SpanRecorder::Scope> span;
      if (tracing != nullptr) {
        span.emplace(tracing->spans, Layer::Analysis, "fleet.run");
        tracing->sink.set_fallback_parent(span->id());
        cfg.params.epochs.sink = &tracing->sink;
        cfg.coordinator_sink = &tracing->sink;
      }
      const std::int64_t c0 = now_ns();
      try {
        fleet = analysis::run_fleet(cfg, mixes, opts);
      } catch (const std::exception&) {
        ok = false;
      }
      r.outer_call_s = seconds_since(c0);
    }
    job.reset();
    r.wall_s = seconds_since(t0);
    r.attempted = 1;
    r.failed = ok ? 0 : 1;
    r.tick_ms.push_back(r.outer_call_s * 1e3);
    r.attach_ms.push_back(r.outer_call_s * 1e3);

    const auto& p = cfg_.params;
    const unsigned domains = p.machine.num_llc_domains;
    // Slices per domain, derived from the schedule: on the coordinated
    // path FleetResult::batch.jobs holds only the last slice's job count.
    const Cycle slice_len = cfg_.churn_slice != 0
                                ? cfg_.churn_slice
                                : p.epochs.execution_epoch + 8 * p.epochs.sampling_interval;
    r.fleet_slices = (p.run_cycles + slice_len - 1) / slice_len;
    r.jobs = coordinated_ ? r.fleet_slices * domains : domains;
    r.fleet_barriers = coordinated_;
    r.threads = fleet.batch.threads;
    r.batch_wall_s = fleet.batch.wall_seconds;
    r.batch_job_s = fleet.batch.job_seconds;
    r.churn_swaps = fleet.total_churn_swaps();
    r.migrations_accepted = fleet.accepted_migrations();
    r.migrations_rejected = fleet.migrations.size() - r.migrations_accepted;

    Digest digest;
    add_result(digest, fleet.merged);
    digest.add(fleet.metrics.json());
    r.digest = digest.hex();
    r.fleet_hm_ipc = fleet.hm_ipc;
    Cycle exec = 0;
    for (const auto& d : fleet.domains) exec += d.result.measured_cycles;
    const double total = static_cast<double>(p.run_cycles) * domains;
    r.sampling_overhead_pct = 100.0 * (1.0 - static_cast<double>(exec) / total);
    r.core_cycles = static_cast<double>(p.machine.num_cores) * static_cast<double>(p.run_cycles);
    read_driver_counts(fleet.metrics, r);
    if (tracing != nullptr) {
      SimCounters sim;
      for (const auto& c : fleet.merged.cores) sim.add_pmu(c.counters);
      std::lock_guard<std::mutex> lock(tracing->mu);
      tracing->sim.add(sim);
    }
    return r;
  }


 private:
  std::vector<workloads::WorkloadMix> placement() const {
    if (coordinated_) return mixes_;
    return analysis::plan_placement(tenants_, analysis::PlacementMode::RoundRobin, cfg_.params);
  }

  bool coordinated_;
  analysis::FleetConfig cfg_;
  std::vector<workloads::WorkloadMix> mixes_;  // fleet_coord's fixed placement
  std::vector<std::string> tenants_;           // fleet_flat's tenants, global core order
};

}  // namespace

void SimCounters::add_system(const sim::MulticoreSystem& system) {
  for (CoreId c = 0; c < system.num_cores(); ++c) {
    const auto& core = system.core(c);
    const auto& l1 = core.l1().stats();
    const auto& l2 = core.l2().stats();
    l1_accesses += l1.demand_accesses;
    l1_hits += l1.demand_hits;
    l2_accesses += l2.demand_accesses;
    l2_hits += l2.demand_hits;
    l2_prefetched_used += l2.prefetched_lines_used;
    l2_prefetched_unused += l2.prefetched_lines_evicted_unused;
    for (const auto& engine : core.prefetchers()) prefetches_issued += engine->issued();
  }
  for (unsigned d = 0; d < system.num_domains(); ++d) {
    const auto& llc = system.llc(d).stats();
    llc_accesses += llc.demand_accesses;
    llc_hits += llc.demand_hits;
    llc_evictions += llc.evictions;
    const auto& mem = system.memory(d).total_traffic();
    demand_bytes += mem.demand_bytes;
    prefetch_bytes += mem.prefetch_bytes;
    writeback_bytes += mem.writeback_bytes;
  }
  for (const auto& k : system.pmu().snapshot()) {
    core_cycles += k.cycles;
    stalls_l2_pending += k.stalls_l2_pending;
  }
}

void SimCounters::add_pmu(const sim::PmuCounters& k) {
  l2_accesses += k.l2_dm_req;
  l2_hits += k.l2_dm_req - std::min(k.l2_dm_req, k.l2_dm_miss);
  llc_accesses += k.l2_dm_miss;
  llc_hits += k.l2_dm_miss - std::min(k.l2_dm_miss, k.l3_load_miss);
  demand_bytes += k.dram_demand_bytes;
  prefetch_bytes += k.dram_prefetch_bytes;
  writeback_bytes += k.dram_writeback_bytes;
  core_cycles += k.cycles;
  stalls_l2_pending += k.stalls_l2_pending;
}

void SimCounters::add(const SimCounters& o) {
  l1_accesses += o.l1_accesses;
  l1_hits += o.l1_hits;
  l2_accesses += o.l2_accesses;
  l2_hits += o.l2_hits;
  llc_accesses += o.llc_accesses;
  llc_hits += o.llc_hits;
  llc_evictions += o.llc_evictions;
  l2_prefetched_used += o.l2_prefetched_used;
  l2_prefetched_unused += o.l2_prefetched_unused;
  prefetches_issued += o.prefetches_issued;
  demand_bytes += o.demand_bytes;
  prefetch_bytes += o.prefetch_bytes;
  writeback_bytes += o.writeback_bytes;
  core_cycles += o.core_cycles;
  stalls_l2_pending += o.stalls_l2_pending;
}

void Tracing::merge_job(const OpGenMeter& o, const SimCounters& s,
                        const obs::MetricsRegistry& m) {
  std::lock_guard<std::mutex> lock(mu);
  opgen.ns += o.ns;
  opgen.ops += o.ops;
  opgen.batches += o.batches;
  sim.add(s);
  metrics.merge(m);
}

std::string pinned_digest(std::string_view workload, std::uint64_t seed) {
  // Digests of the simulated outputs on this repo's model. A change
  // meant to alter the model re-pins them; a speed-only change must
  // leave them as they are. service_soak does not depend on the seed.
  struct Pin {
    std::string_view workload;
    std::uint64_t seed;
    std::string_view digest;
  };
  static constexpr Pin kPins[] = {
      {"paper_matrix", kDefaultSeed, "21c9fe42202596fc"},
      {"paper_matrix", kHeldOutSeed, "9858cd5c1190d109"},
      {"service_soak", kDefaultSeed, "4077038c0f6ed471"},
      {"service_soak", kHeldOutSeed, "4077038c0f6ed471"},
      {"fleet_flat", kDefaultSeed, "fa27ebba414aa127"},
      {"fleet_flat", kHeldOutSeed, "39d8adf26e16fcad"},
      {"fleet_coord", kDefaultSeed, "df8378e196f3bf8b"},
      {"fleet_coord", kHeldOutSeed, "3ce552e999c3b5ad"},
  };
  for (const auto& pin : kPins) {
    if (pin.workload == workload && pin.seed == seed) return std::string(pin.digest);
  }
  return {};
}

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "paper_matrix") return std::make_unique<PaperMatrix>(seed);
  if (name == "service_soak") return std::make_unique<ServiceSoak>();
  if (name == "fleet_flat") return std::make_unique<Fleet>(false, seed);
  if (name == "fleet_coord") return std::make_unique<Fleet>(true, seed);
  return nullptr;
}

}  // namespace perfbench
