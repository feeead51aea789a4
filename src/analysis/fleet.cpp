#include "analysis/fleet.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "analysis/speedup_metrics.hpp"
#include "common/rng.hpp"
#include "core/epoch_driver.hpp"
#include "sim/multicore_system.hpp"
#include "workloads/benchmark_specs.hpp"
#include "workloads/workload_mix.hpp"

namespace cmm::analysis {

namespace {

std::string shard_name(std::uint32_t d) { return "fleet_d" + std::to_string(d); }

/// The machine + params one shard simulates: the domain's single-LLC
/// slice of the fleet machine, same cycles/seed/epoch schedule.
RunParams shard_params(const RunParams& fleet, std::uint32_t d) {
  RunParams p = fleet;
  p.machine = fleet.machine.domain_config(d);
  return p;
}

}  // namespace

std::uint64_t FleetResult::total_churn_swaps() const noexcept {
  std::uint64_t n = 0;
  for (const auto& d : domains) n += d.churn_swaps;
  return n;
}

std::uint64_t FleetResult::accepted_migrations() const noexcept {
  std::uint64_t n = 0;
  for (const auto& m : migrations) n += m.accepted ? 1 : 0;
  return n;
}

std::vector<std::size_t> placement_order(const std::vector<std::string>& benchmarks,
                                         const std::vector<double>& bandwidth) {
  if (benchmarks.size() != bandwidth.size())
    throw std::invalid_argument("placement_order: one bandwidth per benchmark required");
  std::vector<std::size_t> order(benchmarks.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    // Heaviest first; equal-bandwidth tenants order by benchmark name,
    // then original index — a total order, so the result is a pure
    // function of the inputs (not of sort stability or internals).
    if (bandwidth[a] != bandwidth[b]) return bandwidth[a] > bandwidth[b];
    if (benchmarks[a] != benchmarks[b]) return benchmarks[a] < benchmarks[b];
    return a < b;
  });
  return order;
}

std::vector<workloads::WorkloadMix> plan_placement(const std::vector<std::string>& benchmarks,
                                                   PlacementMode mode, const RunParams& params,
                                                   const BatchOptions& opts) {
  const sim::MachineConfig& m = params.machine;
  if (benchmarks.size() != m.num_cores)
    throw std::invalid_argument("plan_placement: one benchmark per fleet core required");
  const std::uint32_t domains = m.num_llc_domains;
  const std::uint32_t cpd = m.cores_per_domain();

  std::vector<workloads::WorkloadMix> mixes(domains);
  for (std::uint32_t d = 0; d < domains; ++d) {
    mixes[d].name = shard_name(d);
    mixes[d].benchmarks.reserve(cpd);
  }

  if (mode == PlacementMode::RoundRobin) {
    for (std::size_t i = 0; i < benchmarks.size(); ++i) {
      mixes[i % domains].benchmarks.push_back(benchmarks[i]);
    }
    return mixes;
  }

  // BandwidthBalanced: memoized solo demand bandwidth per distinct
  // benchmark (one parallel batch), then greedy heaviest-first onto the
  // least-loaded domain. Ties break by benchmark name then index (see
  // placement_order), so the placement is a pure function of
  // (benchmarks, params).
  std::vector<std::string> distinct;
  for (const auto& b : benchmarks) {
    if (std::find(distinct.begin(), distinct.end(), b) == distinct.end()) distinct.push_back(b);
  }
  std::vector<SoloQuery> queries;
  queries.reserve(distinct.size());
  for (const auto& b : distinct) queries.push_back({b, /*prefetch_on=*/true, 0});
  // Solo characterisation on the *domain* machine: that is the box the
  // tenant will actually run on (and the key the solo memo cache keys).
  const RunParams solo_params = shard_params(params, 0);
  const auto solos = run_solo_batch(queries, solo_params, opts);

  std::vector<double> bw(benchmarks.size(), 0.0);
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    const auto it = std::find(distinct.begin(), distinct.end(), benchmarks[i]);
    bw[i] = solos[static_cast<std::size_t>(it - distinct.begin())].cores.front().total_gbs();
  }

  std::vector<double> load(domains, 0.0);
  for (const std::size_t i : placement_order(benchmarks, bw)) {
    std::uint32_t best = 0;
    for (std::uint32_t d = 1; d < domains; ++d) {
      // Full domains can take no more tenants; otherwise least load
      // wins, lowest domain id on ties.
      if (mixes[d].benchmarks.size() < cpd &&
          (mixes[best].benchmarks.size() >= cpd || load[d] < load[best])) {
        best = d;
      }
    }
    mixes[best].benchmarks.push_back(benchmarks[i]);
    load[best] += bw[i];
  }
  return mixes;
}

namespace {

/// One domain's simulation state. It persists across segments so the
/// coordinator can move tenants between shards; inside a segment only
/// that domain's job touches it.
struct Shard {
  RunParams params;
  std::unique_ptr<sim::MulticoreSystem> system;
  std::unique_ptr<core::Policy> policy;
  std::unique_ptr<core::EpochDriver> driver;
  Rng churn;
  std::vector<std::string> running;
  std::uint64_t attach_serial = 0;
};

}  // namespace

FleetResult run_fleet(const FleetConfig& cfg,
                      const std::vector<workloads::WorkloadMix>& shard_mixes,
                      const BatchOptions& opts) {
  const sim::MachineConfig& m = cfg.params.machine;
  if (!m.valid()) throw std::invalid_argument("run_fleet: invalid fleet MachineConfig");
  if (shard_mixes.size() != m.num_llc_domains)
    throw std::invalid_argument("run_fleet: one shard mix per LLC domain required");
  const std::uint32_t cpd = m.cores_per_domain();
  for (const auto& mix : shard_mixes) {
    if (mix.benchmarks.size() != cpd)
      throw std::invalid_argument("run_fleet: shard mix size != cores_per_domain");
  }
  const std::size_t nd = shard_mixes.size();

  FleetResult fleet;
  fleet.domains.resize(nd);
  std::vector<obs::MetricsRegistry> job_metrics(nd);
  std::vector<Shard> shards(nd);
  for (std::size_t d = 0; d < nd; ++d) {
    Shard& s = shards[d];
    s.params = shard_params(cfg.params, static_cast<std::uint32_t>(d));
    s.params.epochs.metrics = &job_metrics[d];
    s.system = std::make_unique<sim::MulticoreSystem>(s.params.machine);
    workloads::attach_mix(*s.system, shard_mixes[d], s.params.seed);
    s.policy = make_policy(cfg.policy, s.params.detector());
    s.driver = std::make_unique<core::EpochDriver>(*s.system, *s.policy, s.params.epochs);
    // The churn RNG is a pure function of (churn_seed, domain), so the
    // swap schedule is thread-count independent.
    s.churn = Rng(cfg.churn_seed ^ (0x9E3779B97F4A7C15ULL * (d + 1)));
    s.running = shard_mixes[d].benchmarks;
  }

  CoordinatorConfig ccfg;
  ccfg.domains = static_cast<std::uint32_t>(nd);
  ccfg.cores_per_domain = cpd;
  ccfg.domain_peak_gbs = m.dram_peak_bytes_per_cycle * m.freq_ghz;
  ccfg.freq_ghz = m.freq_ghz;
  ccfg.migration_budget = cfg.migration_budget;
  ccfg.min_gain = cfg.migration_min_gain;
  ccfg.cooldown_rounds = cfg.migration_cooldown;
  ccfg.bandwidth_headroom = cfg.migration_headroom;
  ccfg.sink = cfg.coordinator_sink;
  FleetCoordinator coordinator(ccfg);

  // EpochDriver::run truncates its epoch schedule at the span end, so
  // the slice length is part of the output: a steady-state run without
  // a coordinator is one span, exactly like run_mix.
  const Cycle run_cycles = cfg.params.run_cycles;
  const bool churning = cfg.churn_slice != 0 && !cfg.churn_catalog.empty();
  const Cycle tick_len =
      cfg.churn_slice != 0
          ? cfg.churn_slice
          : cfg.params.epochs.execution_epoch + 8 * cfg.params.epochs.sampling_interval;
  const Cycle slice_len = cfg.coordinator_period == 0 && !churning ? run_cycles : tick_len;
  const std::uint64_t slices = run_cycles == 0 ? 0 : (run_cycles + slice_len - 1) / slice_len;
  // One segment is one batch (one barrier): every slice without a
  // coordinator, one coordinator period with one.
  const std::uint64_t segment = cfg.coordinator_period == 0 ? slices : cfg.coordinator_period;

  for (std::uint64_t first = 0; first < slices; first += segment) {
    const std::uint64_t end = std::min(slices, first + segment);
    const BatchStats bs = run_batch(
        nd,
        [&](std::size_t d) {
          Shard& s = shards[d];
          for (std::uint64_t i = first; i < end; ++i) {
            s.driver->run(std::min(slice_len, run_cycles - i * slice_len));
            // Tenant churn between slices, the service-mode pattern:
            // detach + attach a replacement + reseed the partition to
            // baseline (churn invalidates what the policy converged on).
            // The final slice draws nothing.
            if (!churning || i + 1 == slices) continue;
            if (s.churn.next_below(1000) >= cfg.churn_per_mille) continue;
            const auto core = static_cast<CoreId>(s.churn.next_below(cpd));
            const auto& next = cfg.churn_catalog[s.churn.next_below(cfg.churn_catalog.size())];
            s.system->detach_core(core);
            s.system->attach_core(
                core, workloads::make_op_source(
                          next, s.params.machine, core,
                          s.params.seed + 0x1000ULL * core + 0x517D00ULL * (++s.attach_serial)));
            s.running[core] = next;
            s.driver->reseed(core::ResourceConfig::baseline(cpd, s.system->cat().llc_ways()));
            ++fleet.domains[d].churn_swaps;
          }
        },
        opts);
    fleet.batch.jobs += bs.jobs;  // one job per domain per segment
    fleet.batch.threads = bs.threads;
    fleet.batch.wall_seconds += bs.wall_seconds;
    fleet.batch.job_seconds += bs.job_seconds;
    fleet.batch.cache_hits += bs.cache_hits;
    fleet.batch.cache_misses += bs.cache_misses;
    if (end == slices) break;

    // ---- Coordinator round (serial, between segments) ----
    std::vector<DomainTelemetry> telemetry(nd);
    for (std::size_t d = 0; d < nd; ++d) {
      telemetry[d].summary = shards[d].driver->domain_summary();
      telemetry[d].running = shards[d].running;
    }
    for (MigrationRecord& rec : coordinator.plan_round(telemetry)) {
      if (rec.accepted) {
        const std::uint32_t d1 = rec.from_core / cpd;
        const std::uint32_t d2 = rec.to_core / cpd;
        const auto l1 = static_cast<CoreId>(rec.from_core % cpd);
        const auto l2 = static_cast<CoreId>(rec.to_core % cpd);
        // Cross-system swap, stream-preserving: both tenants continue
        // their programs on cold cores in their new domains.
        sim::OpStreamState sa = shards[d1].system->export_tenant(l1);
        sim::OpStreamState sb = shards[d2].system->export_tenant(l2);
        shards[d1].system->attach_core_stream(l1, std::move(sb));
        shards[d2].system->attach_core_stream(l2, std::move(sa));
        std::swap(shards[d1].running[l1], shards[d2].running[l2]);
        for (const auto& [dd, ll] : {std::pair{d1, l1}, std::pair{d2, l2}}) {
          shards[dd].driver->reseed(
              core::ResourceConfig::baseline(cpd, shards[dd].system->cat().llc_ways()));
          shards[dd].driver->notify_membership_change({ll});
        }
      }
      fleet.migrations.push_back(std::move(rec));
    }
  }

  // Result assembly and merge, serial in domain order — deterministic
  // at any thread count.
  for (std::size_t d = 0; d < nd; ++d) {
    DomainShardResult& shard = fleet.domains[d];
    const auto& exec = shards[d].driver->execution_counters();
    for (CoreId c = 0; c < exec.size(); ++c) {
      shard.result.cores.push_back(
          make_core_stats(shards[d].running[c], exec[c], shards[d].params.machine.freq_ghz));
      shard.result.measured_cycles = std::max<Cycle>(shard.result.measured_cycles, exec[c].cycles);
    }
    shard.hm_ipc = harmonic_mean(shard.result.ipcs());
    shard.epochs_completed = shards[d].driver->epoch_index();

    fleet.metrics.merge(job_metrics[d]);
    for (const auto& core : shard.result.cores) fleet.merged.cores.push_back(core);
    fleet.merged.measured_cycles =
        std::max(fleet.merged.measured_cycles, shard.result.measured_cycles);
    fleet.metrics.count("fleet.domains");
    if (shard.churn_swaps > 0) fleet.metrics.count("fleet.churn_swaps", shard.churn_swaps);
  }
  if (coordinator.rounds() > 0) fleet.metrics.count("fleet.coordinator_rounds", coordinator.rounds());
  if (coordinator.accepted() > 0) fleet.metrics.count("fleet.migrations", coordinator.accepted());
  if (coordinator.rejected() > 0)
    fleet.metrics.count("fleet.migrations_rejected", coordinator.rejected());
  fleet.hm_ipc = harmonic_mean(fleet.merged.ipcs());
  return fleet;
}

FleetResult run_fleet(const FleetConfig& cfg, const std::vector<std::string>& benchmarks,
                      PlacementMode mode, const BatchOptions& opts) {
  return run_fleet(cfg, plan_placement(benchmarks, mode, cfg.params, opts), opts);
}

}  // namespace cmm::analysis
