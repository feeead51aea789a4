#include "bench_common.hpp"

#include <cstdlib>
#include <iostream>

#include "common/parse.hpp"

namespace cmm::bench {

namespace {

template <typename T>
T parse(const char* name, std::string_view text, const char* expected) {
  const auto value = parse_number<T>(text);
  if (!value) {
    std::cerr << name << "=\"" << text << "\" is not " << expected << "\n";
    std::exit(2);
  }
  return *value;
}

}  // namespace

std::uint64_t parse_u64(const char* name, std::string_view text) {
  return parse<std::uint64_t>(name, text, "an unsigned decimal integer");
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  return value == nullptr || *value == '\0' ? fallback : parse_u64(name, value);
}

double env_double(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value == nullptr || *value == '\0' ? fallback
                                             : parse<double>(name, value, "a decimal number");
}

BenchEnv BenchEnv::from_env() {
  BenchEnv env;
  const auto scale = static_cast<unsigned>(env_u64("CMM_BENCH_SCALE", 16));
  env.params.machine =
      scale <= 1 ? sim::MachineConfig::broadwell_ep() : sim::MachineConfig::scaled(scale);
  env.params.run_cycles = env_u64("CMM_BENCH_CYCLES", 8'000'000);
  env.params.warmup_cycles = 3'000'000;
  env.params.seed = env_u64("CMM_BENCH_SEED", 42);
  env.params.epochs.execution_epoch = 1'500'000;
  env.params.epochs.sampling_interval = 40'000;
  env.mixes_per_category = static_cast<unsigned>(env_u64("CMM_BENCH_MIXES", 3));
  return env;
}

std::vector<workloads::WorkloadMix> BenchEnv::workloads() const {
  return workloads::paper_workloads(params.machine.num_cores, params.seed, mixes_per_category);
}

void print_preamble(const BenchEnv& env, const std::string& figure, const std::string& what) {
  const auto& m = env.params.machine;
  std::cout << "== " << figure << ": " << what << " ==\n"
            << "machine: " << m.num_cores << " cores, LLC " << m.llc.size_bytes / 1024 << " KB/"
            << m.llc.ways << "w, L2 " << m.l2.size_bytes / 1024 << " KB, L1 "
            << m.l1d.size_bytes / 1024 << " KB | run " << env.params.run_cycles << " cycles, "
            << env.mixes_per_category << " mixes/category, seed " << env.params.seed << "\n"
            << "(scale with CMM_BENCH_SCALE / CMM_BENCH_CYCLES / CMM_BENCH_MIXES / "
               "CMM_THREADS)\n\n";
}

bool gate(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS" : "FAIL") << "  " << what << "\n";
  return ok;
}

void print_batch_summary(const analysis::BatchStats& stats) {
  std::cout << "\n" << stats.json() << "\n";
}

}  // namespace cmm::bench
