// Hierarchical-CMM migration smoke: runs the two-level fleet (per-
// domain EpochDriver shards + FleetCoordinator every K slices) on a
// deliberately pathological initial placement — every bandwidth-heavy
// stream packed onto the low-numbered domains, every compute-bound
// tenant on the high ones — and gates on the properties the control
// plane promises:
//
//   - K=0 compatibility: with the coordinator disabled, run_fleet is
//     byte-identical regardless of the migration knobs;
//   - the coordinator accepts at least one migration on the
//     pathological rung, and every accepted record crosses domains;
//   - migration pays: fleet hm_ipc is no worse than freezing the
//     pathological placement for the whole run;
//   - determinism: repeat runs and CMM_THREADS=1 vs a wide pool agree
//     bit-for-bit on results, metrics, migration records, and the
//     coordinator's JSONL trace bytes.
//
// Knobs (environment):
//   CMM_FLEET_DOMAINS          domain count               (default 8)
//   CMM_FLEET_CORES_PER_DOMAIN cores per LLC domain       (default 4)
//   CMM_FLEET_SCALE            capacity divisor per domain (default 32)
//   CMM_FLEET_CYCLES           measured cycles per run    (default 900000)
//   CMM_FLEET_PERIOD           coordinator period K       (default 1)
//   CMM_FLEET_BUDGET           migrations per round       (default 2)
//   CMM_FLEET_TRACE            path for the coordinator JSONL trace
//   CMM_FLEET_JSON             path for BENCH_fleet_migration.json
//   CMM_THREADS                harness worker threads (results invariant)
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/fleet.hpp"
#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/simd.hpp"
#include "obs/jsonl_sink.hpp"
#include "workloads/workload_mix.hpp"

int main() {
  using namespace cmm;
  using bench::env_u64;
  using bench::gate;
  using analysis::FleetConfig;
  using analysis::FleetResult;

  const auto domains = static_cast<unsigned>(env_u64("CMM_FLEET_DOMAINS", 8));
  const auto cpd = static_cast<unsigned>(env_u64("CMM_FLEET_CORES_PER_DOMAIN", 4));
  const auto scale = static_cast<unsigned>(env_u64("CMM_FLEET_SCALE", 32));
  const Cycle cycles = env_u64("CMM_FLEET_CYCLES", 900'000);
  const auto period = static_cast<unsigned>(env_u64("CMM_FLEET_PERIOD", 1));
  const auto budget = static_cast<unsigned>(env_u64("CMM_FLEET_BUDGET", 2));

  FleetConfig cfg;
  cfg.params.machine = sim::MachineConfig::fleet(domains, cpd, scale);
  cfg.params.warmup_cycles = 100'000;
  cfg.params.run_cycles = cycles;
  cfg.params.epochs.execution_epoch = 100'000;
  cfg.params.epochs.sampling_interval = 10'000;
  cfg.params.seed = 42;
  cfg.coordinator_period = period;
  cfg.migration_budget = budget;

  // Pathological placement: the heavy half of the pool packed onto the
  // first domains, the light half onto the rest — exactly the skew the
  // BandwidthBalanced planner would avoid and the coordinator must
  // unwind at runtime.
  const std::vector<std::string> heavy{"lbm", "libquantum", "milc", "bwaves"};
  const std::vector<std::string> light{"povray", "calculix", "gobmk", "namd"};
  std::vector<workloads::WorkloadMix> mixes(domains);
  for (unsigned d = 0; d < domains; ++d) {
    mixes[d].name = "fleet_d" + std::to_string(d);
    const auto& pool = d < domains / 2 ? heavy : light;
    for (unsigned c = 0; c < cpd; ++c) mixes[d].benchmarks.push_back(pool[c % pool.size()]);
  }

  std::cout << "== fleet_migrate: hierarchical CMM cross-domain migration ==\n"
            << domains << "x" << cpd << " | scale " << scale << ", cycles " << cycles
            << ", K " << period << ", budget " << budget << ", threads "
            << resolve_threads(0) << "\n\n";

  bool ok = true;

  // --- Gate 1: K=0 runs byte for byte alike with every migration
  // knob at a non-default value.
  {
    FleetConfig flat = cfg;
    flat.coordinator_period = 0;
    FleetConfig flat_knobs = flat;
    flat_knobs.migration_budget = 7;
    flat_knobs.migration_min_gain = 0.5;
    flat_knobs.migration_cooldown = 9;
    flat_knobs.migration_headroom = 0.1;
    const FleetResult a = run_fleet(flat, mixes);
    const FleetResult b = run_fleet(flat_knobs, mixes);
    ok &= gate(a.merged == b.merged && a.metrics.json() == b.metrics.json() &&
                   b.migrations.empty(),
               "K=0 byte-identical to flat runner (knobs inert)");
  }

  // --- Hierarchical runs: wide pool + serial + repeat, each with its
  // own coordinator trace.
  auto run_traced = [&](const analysis::BatchOptions& opts, std::string& trace_out) {
    std::ostringstream trace;
    {
      obs::JsonlTraceSink sink(trace);
      FleetConfig traced = cfg;
      traced.coordinator_sink = &sink;
      const FleetResult r = run_fleet(traced, mixes, opts);
      sink.flush();
      trace_out = trace.str();
      return r;
    }
  };

  analysis::BatchOptions wide;
  analysis::BatchOptions serial;
  serial.threads = 1;
  std::string trace_a, trace_b, trace_serial;
  const FleetResult hier = run_traced(wide, trace_a);
  const FleetResult hier_repeat = run_traced(wide, trace_b);
  const FleetResult hier_serial = run_traced(serial, trace_serial);

  const FleetConfig frozen = [&] {
    FleetConfig f = cfg;
    f.coordinator_period = 0;
    return f;
  }();
  const FleetResult baseline = run_fleet(frozen, mixes);

  // --- Gate 2: the pathological placement triggers real migrations.
  bool crosses = hier.accepted_migrations() >= 1;
  for (const auto& rec : hier.migrations) {
    if (rec.accepted && rec.from_core / cpd == rec.to_core / cpd) crosses = false;
  }
  ok &= gate(crosses, "coordinator accepted >= 1 cross-domain migration");

  // --- Gate 3: migration pays against the frozen placement.
  ok &= gate(hier.hm_ipc >= baseline.hm_ipc,
             "fleet hm_ipc >= frozen-placement baseline");

  // --- Gate 4: determinism (repeat + thread invariance), including
  // the coordinator's event bytes.
  ok &= gate(hier.merged == hier_repeat.merged && trace_a == trace_b,
             "repeat run bit-identical (results + trace)");
  ok &= gate(hier.merged == hier_serial.merged &&
                 hier.metrics.json() == hier_serial.metrics.json() && trace_a == trace_serial,
             "invariant vs CMM_THREADS=1 (results + metrics + trace)");
  ok &= gate(!trace_a.empty(), "coordinator trace captured migration events");

  const double gain = baseline.hm_ipc > 0.0 ? (hier.hm_ipc / baseline.hm_ipc - 1.0) * 100.0 : 0.0;
  std::ostringstream rec;
  rec << "{\"fleet_migration\":{\"domains\":" << domains << ",\"cores_per_domain\":" << cpd
      << ",\"cores\":" << domains * cpd << ",\"policy\":\"" << cfg.policy << "\",\"simd\":\""
      << simd::backend_name(simd::active_backend()) << "\",\"period\":" << period
      << ",\"budget\":" << budget << ",\"migrations\":" << hier.accepted_migrations()
      << ",\"rejected\":" << hier.migrations.size() - hier.accepted_migrations()
      << ",\"hm_ipc\":" << std::setprecision(6) << hier.hm_ipc
      << ",\"hm_ipc_frozen\":" << baseline.hm_ipc << ",\"gain_pct\":" << gain
      << ",\"wall_s\":" << hier.batch.wall_seconds << ",\"threads\":" << hier.batch.threads
      << "}}";
  std::cout << "\n" << rec.str() << "\n";

  const char* trace_path = std::getenv("CMM_FLEET_TRACE");
  if (trace_path != nullptr && *trace_path != '\0') {
    std::ofstream out(trace_path, std::ios::binary);
    out << trace_a;
    std::cout << "trace: " << trace_path << " (" << trace_a.size() << " bytes)\n";
  }
  const char* json_path = std::getenv("CMM_FLEET_JSON");
  if (json_path != nullptr && *json_path != '\0') {
    std::ofstream out(json_path, std::ios::binary);
    out << rec.str() << "\n";
    std::cout << "snapshot: " << json_path << "\n";
  }
  return ok ? 0 : 1;
}
