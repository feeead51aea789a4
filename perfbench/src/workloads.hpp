// The benchmark's four workloads. Each runs one repetition of its body
// either untraced (end-to-end metrics) or traced (per-layer metrics,
// with the timing decorators of decorators.hpp on every public seam the
// workload can reach).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "decorators.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/multicore_system.hpp"
#include "spans.hpp"

namespace perfbench {

/// Cache, prefetch and memory statistics summed over simulated machines.
struct SimCounters {
  std::uint64_t l1_accesses = 0, l1_hits = 0;
  std::uint64_t l2_accesses = 0, l2_hits = 0;
  std::uint64_t llc_accesses = 0, llc_hits = 0, llc_evictions = 0;
  std::uint64_t l2_prefetched_used = 0, l2_prefetched_unused = 0;
  std::uint64_t prefetches_issued = 0;
  std::uint64_t demand_bytes = 0, prefetch_bytes = 0, writeback_bytes = 0;
  std::uint64_t core_cycles = 0, stalls_l2_pending = 0;

  /// Everything a simulated machine counted since it was built.
  void add_system(const cmm::sim::MulticoreSystem& system);
  /// The subset the PMU counters of a run result carry (used where the
  /// machines themselves are out of the benchmark's reach).
  void add_pmu(const cmm::sim::PmuCounters& c);
  void add(const SimCounters& o);
};

/// Instrumentation of one traced repetition. Shared by the parallel
/// jobs of a batch; the fields under `mu` are merged as jobs finish.
struct Tracing {
  SpanRecorder spans;
  HalMeter hal;
  std::atomic<std::uint64_t> policy_calls{0};
  std::ostringstream trace_bytes;
  cmm::obs::JsonlTraceSink jsonl{trace_bytes};
  TimedSink sink{jsonl, spans};

  std::mutex mu;
  OpGenMeter opgen;                  // guarded by mu
  SimCounters sim;                   // guarded by mu
  cmm::obs::MetricsRegistry metrics; // guarded by mu

  void merge_job(const OpGenMeter& o, const SimCounters& s, const cmm::obs::MetricsRegistry& m);
};

/// Outcome of one repetition.
struct RepResult {
  double wall_s = 0.0;
  double core_cycles = 0.0;  // simulated core-cycles, samples and solos included
  unsigned threads = 1;
  std::vector<double> tick_ms;    // latency of each tick-class call
  std::vector<double> attach_ms;  // latency of each attach-class call
  std::vector<double> job_s;      // per-job wall times of a batch
  std::string digest;             // digest of every simulated output
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t solo_hits = 0, solo_misses = 0;
  std::uint64_t distinct_solos = 0;  // misses a cold cache must show; 0: not known

  // Simulated end-to-end metrics; 1 where the workload has no such
  // quantity (see perfbench/README.md).
  double hs_norm_cmm_c = 1.0;
  double slo_breach_ratio = 1.0;
  double fleet_hm_ipc = 0.0;
  double sampling_overhead_pct = 0.0;

  // Batch accounting.
  double batch_wall_s = 0.0;   // summed run_batch walls
  double batch_job_s = 0.0;    // summed job seconds
  double outer_call_s = 0.0;   // run_fleet wall (fleets)
  std::uint64_t jobs = 0;
  bool fleet_barriers = false;  // one run_batch per slice (coordinated fleet)
  std::uint64_t fleet_slices = 0, churn_swaps = 0, migrations_accepted = 0,
                migrations_rejected = 0;

  // Service accounting.
  std::uint64_t ticks = 0, admitted = 0, queued = 0, rejected = 0, max_queue_depth = 0;
  double attach_s = 0.0, detach_s = 0.0, tick_s = 0.0;

  // Counts from the EpochDriver's metrics registry (all workloads).
  std::uint64_t epochs = 0, samples = 0, hw_retries = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Worker threads of the timed run.
  virtual unsigned threads() const noexcept = 0;
  /// Build everything a repetition builds before its first simulated
  /// cycle (machines, op streams, policies), then tear it down; returns
  /// the seconds that took.
  virtual double setup_once() = 0;
  /// One repetition; `tracing` null runs untraced.
  virtual RepResult run(unsigned threads, Tracing* tracing) = 0;
  /// True when spans of one job overlap in time (parallel shards
  /// inside one call), so self times do not add up to the job time.
  virtual bool parallel_spans() const noexcept { return false; }
};

/// Digest of the simulated outputs pinned for (workload, seed), or
/// empty when none is pinned.
std::string pinned_digest(std::string_view workload, std::uint64_t seed);

/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed);

/// Workload seeds with pinned digests: the default seed, and a held-out
/// seed kept for re-checking a claimed gain on inputs it was not tuned on.
inline constexpr std::uint64_t kDefaultSeed = 42;
inline constexpr std::uint64_t kHeldOutSeed = 1009;

}  // namespace perfbench
