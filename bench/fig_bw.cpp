// fig_bw: bandwidth-bound mixes exercising the BP axis (MBA-style
// per-core memory-bandwidth regulation). Plain CMM manages only the
// prefetch-throttle and cache-partition knobs; when a mix is saturated
// by streaming hogs the shared DRAM queue, not the LLC, is the
// bottleneck and PT+CP leave performance on the table. CMM-BP adds a
// coordinate-descent pass over per-core throttle levels for the
// heaviest DRAM consumers, keeping a level only when it improves the
// sampled harmonic-mean-IPC objective.
//
// Gates (exit code 1 on any FAIL):
//   - transparency: a CmmPolicy with the BP pass neutered
//     (bp_max_level = 0) is bit-identical to plain cmm_a on every mix;
//   - improvement: mean hm_ipc of cmm_bp over the bandwidth-bound
//     mixes is >= plain cmm_a's (per-mix values are reported);
//   - determinism: the parallel batch (CMM_THREADS workers) and a
//     serial re-run produce bit-identical results and throttle levels.
//
// Knobs (environment):
//   CMM_BENCH_SCALE / CMM_BENCH_CYCLES / CMM_BENCH_SEED  as elsewhere
//   CMM_THREADS   harness worker threads (results invariant)
//   CMM_BW_JSON   path for the machine-readable BENCH_bw.json
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "analysis/speedup_metrics.hpp"
#include "common/parallel.hpp"
#include "core/policy_cmm.hpp"

namespace {

using cmm::analysis::RunResult;
using cmm::workloads::WorkloadMix;

/// Hog-heavy 8-core mixes: streaming benchmarks that saturate the DRAM
/// window plus a couple of latency-bound victims that suffer from the
/// queue delay the hogs induce.
std::vector<WorkloadMix> bandwidth_mixes(unsigned num_cores) {
  const std::vector<std::vector<std::string>> pools = {
      {"lbm", "milc", "bwaves", "libquantum", "leslie3d", "GemsFDTD", "mcf", "omnetpp"},
      {"lbm", "lbm", "milc", "bwaves", "rand_access", "scatter_gather", "mcf", "xalancbmk"},
      {"libquantum", "leslie3d", "zeusmp", "wrf", "sphinx3", "milc", "soplex", "astar"},
  };
  std::vector<WorkloadMix> mixes;
  for (std::size_t i = 0; i < pools.size(); ++i) {
    WorkloadMix mix;
    mix.name = "bw_bound_" + std::to_string(i);
    mix.category = cmm::workloads::MixCategory::PrefAgg;
    for (unsigned c = 0; c < num_cores; ++c) mix.benchmarks.push_back(pools[i][c % pools[i].size()]);
    mixes.push_back(std::move(mix));
  }
  return mixes;
}

struct MixOut {
  RunResult cmm;       // plain cmm_a
  RunResult bp;        // cmm_bp
  RunResult bp_off;    // cmm_bp with the BP pass neutered
  std::vector<std::uint8_t> levels;  // BP levels accepted in the last epoch
};

MixOut run_one(const WorkloadMix& mix, const cmm::analysis::RunParams& params) {
  using cmm::core::CmmPolicy;
  MixOut out;

  CmmPolicy::Options base;
  base.detector = params.detector();
  base.variant = cmm::core::CmmVariant::A;

  CmmPolicy plain(base);
  out.cmm = cmm::analysis::run_mix(mix, plain, params);

  CmmPolicy::Options with_bp = base;
  with_bp.bp_enabled = true;
  CmmPolicy bp(with_bp);
  out.bp = cmm::analysis::run_mix(mix, bp, params);
  out.levels = bp.bp_levels();

  CmmPolicy::Options neutered = with_bp;
  neutered.bp_max_level = 0;  // BP pass can never start
  CmmPolicy off(neutered);
  out.bp_off = cmm::analysis::run_mix(mix, off, params);
  return out;
}

double hm(const RunResult& r) {
  const auto ipcs = r.ipcs();
  return cmm::analysis::harmonic_mean(ipcs);
}

}  // namespace

int main() {
  using namespace cmm;
  using bench::gate;

  bench::BenchEnv env = bench::BenchEnv::from_env();
  const auto mixes = bandwidth_mixes(env.params.machine.num_cores);

  std::cout << "== fig_bw: BP axis on bandwidth-bound mixes ==\n"
            << "mixes " << mixes.size() << ", cores " << env.params.machine.num_cores
            << ", cycles " << env.params.run_cycles << ", threads " << resolve_threads(0)
            << "\n\n";

  // Parallel batch (one job per mix), then a serial re-run for the
  // determinism / thread-invariance gate.
  std::vector<MixOut> par(mixes.size());
  analysis::run_batch(mixes.size(), [&](std::size_t i) { par[i] = run_one(mixes[i], env.params); });
  std::vector<MixOut> ser(mixes.size());
  analysis::BatchOptions serial;
  serial.threads = 1;
  analysis::run_batch(
      mixes.size(), [&](std::size_t i) { ser[i] = run_one(mixes[i], env.params); }, serial);

  bool ok = true;
  double sum_cmm = 0.0;
  double sum_bp = 0.0;
  std::ostringstream records;
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const MixOut& o = par[i];
    const MixOut& s = ser[i];
    ok &= gate(o.cmm == s.cmm && o.bp == s.bp && o.bp_off == s.bp_off && o.levels == s.levels,
               mixes[i].name + " deterministic vs CMM_THREADS=1 re-run");
    ok &= gate(o.bp_off == o.cmm, mixes[i].name + " BP-neutered run bit-identical to cmm_a");

    const double h_cmm = hm(o.cmm);
    const double h_bp = hm(o.bp);
    sum_cmm += h_cmm;
    sum_bp += h_bp;
    unsigned throttled = 0;
    for (const std::uint8_t lvl : o.levels) throttled += lvl != 0 ? 1 : 0;

    std::ostringstream rec;
    rec << "{\"bw\":{\"mix\":\"" << mixes[i].name << "\",\"hm_cmm\":" << std::setprecision(6)
        << h_cmm << ",\"hm_bp\":" << h_bp << ",\"gain_pct\":"
        << (h_cmm > 0.0 ? (h_bp / h_cmm - 1.0) * 100.0 : 0.0)
        << ",\"throttled_cores\":" << throttled << "}}";
    records << rec.str() << "\n";
    std::cout << rec.str() << "\n";
  }
  std::cout << "\n";

  const double mean_cmm = sum_cmm / static_cast<double>(mixes.size());
  const double mean_bp = sum_bp / static_cast<double>(mixes.size());
  {
    std::ostringstream rec;
    rec << "{\"bw_summary\":{\"mean_hm_cmm\":" << std::setprecision(6) << mean_cmm
        << ",\"mean_hm_bp\":" << mean_bp << ",\"gain_pct\":"
        << (mean_cmm > 0.0 ? (mean_bp / mean_cmm - 1.0) * 100.0 : 0.0) << "}}";
    records << rec.str() << "\n";
    std::cout << rec.str() << "\n";
  }
  ok &= gate(mean_bp >= mean_cmm, "mean hm_ipc: cmm_bp >= cmm_a");

  const char* json_path = std::getenv("CMM_BW_JSON");
  if (json_path != nullptr && *json_path != '\0') {
    std::ofstream out(json_path, std::ios::binary);
    out << records.str();
    std::cout << "snapshot: " << json_path << "\n";
  }
  return ok ? 0 : 1;
}
