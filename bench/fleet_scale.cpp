// Sharded multi-LLC fleet scale-out bench: runs a tenant-churn fleet
// across a ladder of domain counts (one EpochDriver shard per LLC
// domain on the parallel harness) and gates on the properties the
// fleet layer promises:
//
//   - repeat determinism: two identical runs are bit-identical
//     (merged per-core results and merged metrics JSON);
//   - thread invariance: CMM_THREADS=1 and a wide pool produce the
//     same bytes;
//   - the churn schedule actually fires (swaps > 0) and every shard
//     completes its execution epochs.
//
// Knobs (environment):
//   CMM_FLEET_DOMAINS          csv ladder of domain counts (default "2,4,8")
//   CMM_FLEET_CORES_PER_DOMAIN cores per LLC domain          (default 8)
//   CMM_FLEET_SCALE            capacity divisor per domain   (default 32)
//   CMM_FLEET_CYCLES           measured cycles per run       (default 600000)
//   CMM_FLEET_JSON             path for the machine-readable BENCH_fleet.json
//   CMM_THREADS                harness worker threads (results invariant)
//
// The default ladder tops out at 8 domains x 8 cores = 64 fleet cores,
// the CI smoke configuration.
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

namespace {

std::vector<unsigned> env_csv(const char* name, std::vector<unsigned> fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  std::vector<unsigned> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(static_cast<unsigned>(cmm::bench::parse_u64(name, item)));
  }
  return out.empty() ? fallback : out;
}

}  // namespace

int main() {
  using namespace cmm;
  using bench::env_u64;
  using bench::gate;
  using analysis::FleetConfig;
  using analysis::FleetResult;

  const auto domains_ladder = env_csv("CMM_FLEET_DOMAINS", {2, 4, 8});
  const auto cpd = static_cast<unsigned>(env_u64("CMM_FLEET_CORES_PER_DOMAIN", 8));
  const auto scale = static_cast<unsigned>(env_u64("CMM_FLEET_SCALE", 32));
  const Cycle cycles = env_u64("CMM_FLEET_CYCLES", 600'000);

  // One tenant per fleet core, drawn round-robin from a mixed-pressure
  // pool (streaming, latency-bound, cache-friendly).
  const std::vector<std::string> pool{"lbm", "mcf", "milc", "povray", "soplex", "bwaves"};

  std::cout << "== fleet_scale: sharded multi-LLC fleet scale-out ==\n"
            << "ladder ";
  for (const unsigned d : domains_ladder) std::cout << d << "x" << cpd << " ";
  std::cout << "| scale " << scale << ", cycles " << cycles << ", threads "
            << resolve_threads(0) << "\n\n";

  bool ok = true;
  std::ostringstream records;
  for (std::size_t i = 0; i < domains_ladder.size(); ++i) {
    const unsigned domains = domains_ladder[i];
    FleetConfig cfg;
    cfg.params.machine = sim::MachineConfig::fleet(domains, cpd, scale);
    cfg.params.warmup_cycles = 100'000;
    cfg.params.run_cycles = cycles;
    cfg.params.epochs.execution_epoch = 100'000;
    cfg.params.epochs.sampling_interval = 10'000;
    cfg.params.seed = 42;
    cfg.churn_slice = cycles / 5;
    cfg.churn_per_mille = 700;
    cfg.churn_seed = 99;
    cfg.churn_catalog = {"libquantum", "namd", "gobmk"};

    const unsigned cores = cfg.params.machine.num_cores;
    std::vector<std::string> tenants;
    for (unsigned c = 0; c < cores; ++c) tenants.push_back(pool[c % pool.size()]);
    const auto mixes = analysis::plan_placement(tenants, analysis::PlacementMode::RoundRobin,
                                                cfg.params);

    analysis::BatchOptions serial;
    serial.threads = 1;
    const FleetResult a = run_fleet(cfg, mixes);
    const FleetResult b = run_fleet(cfg, mixes);
    const FleetResult c = run_fleet(cfg, mixes, serial);

    const std::string tag = std::to_string(domains) + "x" + std::to_string(cpd);
    ok &= gate(a.merged == b.merged && a.metrics.json() == b.metrics.json(),
               tag + " repeat run bit-identical");
    ok &= gate(a.merged == c.merged && a.metrics.json() == c.metrics.json(),
               tag + " invariant vs CMM_THREADS=1");
    ok &= gate(a.total_churn_swaps() > 0, tag + " churn schedule fired");
    bool epochs_ok = true;
    for (const auto& shard : a.domains) epochs_ok &= shard.epochs_completed > 0;
    ok &= gate(epochs_ok, tag + " every shard completed execution epochs");

    // Throughput metric for the perf trajectory: simulated core-cycles
    // per wall second across the whole fleet run (higher is better;
    // near-linear in domains when the shards parallelize cleanly).
    const double mcycles_per_s =
        a.batch.wall_seconds > 0.0
            ? static_cast<double>(cores) * static_cast<double>(cycles) / a.batch.wall_seconds / 1e6
            : 0.0;
    std::ostringstream rec;
    rec << "{\"fleet\":{\"domains\":" << domains << ",\"cores_per_domain\":" << cpd
        << ",\"cores\":" << cores << ",\"policy\":\"" << cfg.policy << "\",\"simd\":\""
        << simd::backend_name(simd::active_backend())
        << "\",\"churn_swaps\":" << a.total_churn_swaps() << ",\"hm_ipc\":" << std::setprecision(6)
        << a.hm_ipc << ",\"mcycles_per_s\":" << mcycles_per_s
        << ",\"wall_s\":" << a.batch.wall_seconds << ",\"threads\":" << a.batch.threads << "}}";
    records << rec.str() << "\n";
    std::cout << rec.str() << "\n\n";
  }

  const char* json_path = std::getenv("CMM_FLEET_JSON");
  if (json_path != nullptr && *json_path != '\0') {
    std::ofstream out(json_path, std::ios::binary);
    out << records.str();
    std::cout << "snapshot: " << json_path << "\n";
  }
  return ok ? 0 : 1;
}
