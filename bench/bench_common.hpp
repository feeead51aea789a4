// Shared machinery for the bench binaries: environment-controlled run
// parameters, the evaluation workloads, and the standard output
// framing (preamble, PASS/FAIL gate lines and batch summary).
//
// Environment knobs (all optional):
//   CMM_BENCH_SCALE   LLC capacity divisor for the simulated machine
//                     (default 16; 1 = the paper's full 20 MB LLC)
//   CMM_BENCH_CYCLES  simulated cycles per workload run (default 8000000)
//   CMM_BENCH_MIXES   workloads per category (default 3; paper uses 10)
//   CMM_BENCH_SEED    workload/mix RNG seed (default 42)
//   CMM_THREADS       worker threads for the parallel batch layer
//                     (default: hardware_concurrency). Results are
//                     bit-identical at any thread count.
// A knob that is set but malformed ("8e6", "three") is an error, not a
// silent misparse: the binary names it and exits 2 before simulating.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/run_harness.hpp"
#include "analysis/speedup_metrics.hpp"
#include "analysis/table.hpp"
#include "workloads/workload_mix.hpp"

namespace cmm::bench {

/// `text` as an unsigned decimal integer. Anything else (empty, a sign,
/// a fraction or exponent, trailing characters, out of range) prints
/// `name` and the text to stderr and exits 2.
std::uint64_t parse_u64(const char* name, std::string_view text);

/// Environment variable `name` parsed with parse_u64, or `fallback`
/// when it is unset or empty.
std::uint64_t env_u64(const char* name, std::uint64_t fallback);

/// Environment variable `name` as a decimal floating-point number, or
/// `fallback` when it is unset or empty; malformed values exit 2.
double env_double(const char* name, double fallback);

struct BenchEnv {
  analysis::RunParams params;
  unsigned mixes_per_category = 3;

  static BenchEnv from_env();

  /// The evaluation workloads in paper presentation order (Fri, Agg,
  /// Unfri, NoAgg).
  std::vector<workloads::WorkloadMix> workloads() const;
};

/// Print the standard figure preamble (machine + parameters).
void print_preamble(const BenchEnv& env, const std::string& figure, const std::string& what);

/// Print "PASS  what" or "FAIL  what" on its own line and return `ok`,
/// so a bench folds its gates with `ok &= gate(...)`.
bool gate(bool ok, const std::string& what);

/// Print the one-line JSON batch summary (jobs, threads, cache traffic,
/// wall time, speedup) that the BENCH_*.json capture parses.
void print_batch_summary(const analysis::BatchStats& stats);

}  // namespace cmm::bench
