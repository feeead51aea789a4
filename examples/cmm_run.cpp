// cmm_run: command-line driver for the library — run any workload under
// any mechanism and print per-application results, optionally compared
// against the baseline, as a table or CSV.
//
//   cmm_run [options]
//     --policy NAME       baseline|pt|dunn|pref_cp|pref_cp2|cmm_a|cmm_b|cmm_c
//                         (default cmm_a)
//     --mix CAT[:INDEX]   pref_fri|pref_agg|pref_unfri|pref_no_agg, e.g.
//                         --mix pref_agg:3 (default pref_agg:0)
//     --benchmarks a,b,.. explicit per-core benchmark list (overrides --mix)
//     --cycles N          simulated cycles (default 8000000)
//     --scale N           LLC capacity divisor, 1 = full 20 MB (default 16)
//     --seed N            workload seed (default 42)
//     --compare           also run the baseline and report HS/WS/worst-case
//     --csv               machine-readable output
//     --list              list benchmarks and mechanisms, then exit
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#include "analysis/run_harness.hpp"
#include "analysis/speedup_metrics.hpp"
#include "analysis/table.hpp"
#include "common/parse.hpp"

namespace {

using namespace cmm;

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "cmm_run: " << message << " (--help for usage)\n";
  std::exit(2);
}

/// `text` as an unsigned decimal T, or a usage error naming `what`.
template <typename T>
T parse_flag(const std::string& what, const std::string& text) {
  const auto value = parse_number<T>(text);
  if (!value) usage_error(what + " '" + text + "' is not an unsigned decimal integer");
  return *value;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::istringstream in(s);
  std::string item;
  while (std::getline(in, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

workloads::MixCategory parse_category(const std::string& name) {
  if (name == "pref_fri") return workloads::MixCategory::PrefFri;
  if (name == "pref_agg") return workloads::MixCategory::PrefAgg;
  if (name == "pref_unfri") return workloads::MixCategory::PrefUnfri;
  if (name == "pref_no_agg") return workloads::MixCategory::PrefNoAgg;
  usage_error("unknown mix category '" + name + "'");
}

void list_everything() {
  std::cout << "mechanisms: baseline";
  for (const auto& m : analysis::mechanism_names()) std::cout << " " << m;
  std::cout << "\nbenchmarks:\n";
  for (const auto& spec : workloads::benchmark_suite()) {
    std::cout << "  " << spec.name;
    if (spec.expect_prefetch_aggressive)
      std::cout << (spec.expect_prefetch_friendly ? "  [aggressive, friendly]"
                                                  : "  [aggressive, unfriendly]");
    if (spec.expect_llc_sensitive) std::cout << "  [LLC sensitive]";
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string policy_name = "cmm_a";
  std::string mix_arg = "pref_agg:0";
  std::string benchmarks_arg;
  Cycle cycles = 8'000'000;
  unsigned scale = 16;
  std::uint64_t seed = 42;
  bool compare = false;
  bool csv = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--policy") {
      policy_name = value();
    } else if (arg == "--mix") {
      mix_arg = value();
    } else if (arg == "--benchmarks") {
      benchmarks_arg = value();
    } else if (arg == "--cycles") {
      cycles = parse_flag<Cycle>(arg, value());
    } else if (arg == "--scale") {
      scale = parse_flag<unsigned>(arg, value());
    } else if (arg == "--seed") {
      seed = parse_flag<std::uint64_t>(arg, value());
    } else if (arg == "--compare") {
      compare = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--list") {
      list_everything();
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "see the header of examples/cmm_run.cpp for options\n";
      return 0;
    } else {
      usage_error("unknown option '" + arg + "'");
    }
  }

  analysis::RunParams params;
  params.machine = scale <= 1 ? sim::MachineConfig::broadwell_ep() : sim::MachineConfig::scaled(scale);
  params.run_cycles = cycles;
  params.seed = seed;
  params.epochs.execution_epoch = 1'500'000;
  params.epochs.sampling_interval = 40'000;

  workloads::WorkloadMix mix;
  if (!benchmarks_arg.empty()) {
    mix.name = "custom";
    mix.benchmarks = split(benchmarks_arg, ',');
    if (mix.benchmarks.size() != params.machine.num_cores) {
      usage_error("need exactly " + std::to_string(params.machine.num_cores) +
                  " benchmarks, got " + std::to_string(mix.benchmarks.size()));
    }
  } else {
    const auto parts = split(mix_arg, ':');
    const auto category = parse_category(parts.at(0));
    const unsigned index = parts.size() > 1 ? parse_flag<unsigned>("--mix index", parts[1]) : 0;
    const auto mixes = workloads::make_mixes(category, index + 1, params.machine.num_cores, seed);
    mix = mixes.at(index);
  }

  std::unique_ptr<core::Policy> policy;
  try {
    policy = analysis::make_policy(policy_name, params.detector());
  } catch (const std::invalid_argument& e) {
    usage_error(e.what());
  }

  const auto result = analysis::run_mix(mix, *policy, params);

  analysis::RunResult baseline;
  if (compare && policy_name != "baseline") {
    auto base_pol = analysis::make_policy("baseline", params.detector());
    baseline = analysis::run_mix(mix, *base_pol, params);
  }

  analysis::Table table(compare && !baseline.cores.empty()
                            ? std::vector<std::string>{"core", "benchmark", "ipc", "GB/s",
                                                       "ipc vs baseline"}
                            : std::vector<std::string>{"core", "benchmark", "ipc", "GB/s"});
  for (std::size_t c = 0; c < result.cores.size(); ++c) {
    const auto& core = result.cores[c];
    std::vector<std::string> row{std::to_string(c), core.benchmark,
                                 analysis::Table::fmt(core.ipc),
                                 analysis::Table::fmt(core.total_gbs(), 2)};
    if (compare && !baseline.cores.empty()) {
      const double base_ipc = baseline.cores[c].ipc;
      row.push_back(analysis::Table::fmt(base_ipc > 0 ? core.ipc / base_ipc : 0, 3));
    }
    table.add_row(std::move(row));
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    std::cout << "workload " << mix.name << " under " << policy_name << " ("
              << params.machine.num_cores << " cores, " << cycles << " cycles)\n\n";
    table.print(std::cout);
  }

  if (compare && !baseline.cores.empty()) {
    const double ws = analysis::weighted_speedup(result.ipcs(), baseline.ipcs());
    const double wc = analysis::worst_case_speedup(result.ipcs(), baseline.ipcs());
    const auto alone = analysis::compute_alone_ipcs(mix.benchmarks, params);
    std::vector<double> alone_v;
    for (const auto& b : mix.benchmarks) alone_v.push_back(alone.at(b));
    const double hs = analysis::harmonic_speedup(result.ipcs(), alone_v);
    const double hs_base = analysis::harmonic_speedup(baseline.ipcs(), alone_v);
    if (csv) {
      std::cout << "summary,ws," << ws << "\nsummary,worst_case," << wc << "\nsummary,hs_ratio,"
                << (hs_base > 0 ? hs / hs_base : 0) << "\n";
    } else {
      std::cout << "\nWS vs baseline " << analysis::Table::fmt(ws) << "   worst-case "
                << analysis::Table::fmt(wc) << "   HS/HS_base "
                << analysis::Table::fmt(hs_base > 0 ? hs / hs_base : 0) << "\n";
    }
  }
  return 0;
}
