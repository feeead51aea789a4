// Wall-clock demonstration of the parallel experiment layer: a batch of
// independent (mix, policy) simulations run serially and then in
// parallel must produce bit-identical results; on an N-core host the
// parallel pass approaches min(N, jobs)× the serial rate. Prints one
// JSON line for the BENCH_*.json capture and exits nonzero if the
// parallel results diverge from the serial ones.
//
// Env: CMM_THREADS (parallel worker count, default all cores) and the
// usual CMM_BENCH_SCALE / CMM_BENCH_CYCLES / CMM_BENCH_SEED knobs.
#include <iostream>

#include "analysis/run_harness.hpp"
#include "analysis/solo_cache.hpp"
#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "workloads/workload_mix.hpp"

int main() {
  using namespace cmm;
  using bench::env_u64;

  analysis::RunParams params;
  params.machine = sim::MachineConfig::scaled(
      static_cast<unsigned>(env_u64("CMM_BENCH_SCALE", 32)));
  params.warmup_cycles = 200'000;
  params.run_cycles = env_u64("CMM_BENCH_CYCLES", 1'000'000);
  params.seed = env_u64("CMM_BENCH_SEED", 42);
  params.epochs.execution_epoch = 200'000;
  params.epochs.sampling_interval = 10'000;

  // 4 categories x 1 mix x 3 policies = 12 independent jobs.
  const auto mixes = workloads::paper_workloads(params.machine.num_cores, params.seed, 1);
  const std::vector<std::string> policies{"baseline", "pt", "cmm_a"};

  analysis::BatchStats serial_stats;
  analysis::BatchStats parallel_stats;
  const auto serial =
      analysis::for_each_mix(mixes, policies, params, {.threads = 1}, &serial_stats);
  const auto parallel = analysis::for_each_mix(mixes, policies, params, {}, &parallel_stats);

  const bool identical = serial == parallel;
  const double speedup = parallel_stats.wall_seconds > 0.0
                             ? serial_stats.wall_seconds / parallel_stats.wall_seconds
                             : 0.0;

  std::cout.setf(std::ios::fixed);
  std::cout.precision(3);
  std::cout << "{\"bench\":\"parallel_harness_perf\",\"jobs\":" << serial.size()
            << ",\"threads\":" << parallel_stats.threads
            << ",\"serial_s\":" << serial_stats.wall_seconds
            << ",\"parallel_s\":" << parallel_stats.wall_seconds << ",\"speedup\":" << speedup
            << ",\"identical\":" << (identical ? "true" : "false") << "}\n";

  if (!identical) {
    std::cerr << "FAIL: parallel batch diverged from the serial reference\n";
    return 1;
  }
  return 0;
}
