// Figs. 7-15: every view of the paper's one evaluation experiment, the
// same workload mixes under the baseline and the seven mechanisms (PT,
// Dunn, Pref-CP, Pref-CP2, CMM-a/b/c). The whole (mix, policy) matrix
// and the alone-IPC solos are simulated once, as one parallel batch;
// each figure's section is then a set of lookups.
//
// Paper shapes:
//   Fig 7   PT: Pref Unfri gains most, then Pref Agg; Pref No Agg nothing.
//   Fig 8   PT: at least one application loses >20 % in ~80 % of
//           workloads (the cost of throttling prefetch-friendly programs).
//   Fig 9   the prefetch-aware partitioners beat prefetch-blind Dunn.
//   Fig 10  Pref-CP / Pref-CP2 have a higher worst case than Dunn.
//   Fig 11  CMM-a and c beat b on Pref Agg / Pref Unfri (CMM-b leaves
//           unfriendly cores the whole LLC, so their interference stays).
//   Fig 12  every workload keeps >= 0.8 under CMM, most >= 0.9.
//   Fig 13  Pref Agg and Pref Unfri benefit most; CMM-a/c lead overall.
//   Fig 14  PT consumes the least bandwidth (it disables prefetchers); CP
//           alone does not cut prefetch traffic; CMM-a/c sit between.
//   Fig 15  STALLS_L2_PENDING, the isolation indicator: CMM-a/c lowest.
#include <algorithm>
#include <iostream>
#include <map>

#include "analysis/solo_cache.hpp"
#include "bench_common.hpp"

namespace {

using namespace cmm;
using workloads::MixCategory;
using workloads::WorkloadMix;

/// The evaluation matrix: every (mix, policy) run, the "baseline" run
/// included, plus the alone IPC of every benchmark in the mixes.
class MixEvaluator {
 public:
  MixEvaluator(const analysis::RunParams& params, const std::vector<WorkloadMix>& mixes,
               std::vector<std::string> policies);

  const analysis::BatchStats& batch_stats() const noexcept { return batch_; }

  /// HS(policy) / HS(baseline) for one mix.
  double normalized_hs(const WorkloadMix& mix, const std::string& policy) const {
    const double base = hs(run(mix, "baseline"));
    return base > 0.0 ? hs(run(mix, policy)) / base : 0.0;
  }

  /// Normalized weighted speedup over the baseline run.
  double normalized_ws(const WorkloadMix& mix, const std::string& policy) const {
    return analysis::weighted_speedup(run(mix, policy).ipcs(), run(mix, "baseline").ipcs());
  }

  /// Worst per-application speedup vs baseline.
  double worst_case(const WorkloadMix& mix, const std::string& policy) const {
    return analysis::worst_case_speedup(run(mix, policy).ipcs(), run(mix, "baseline").ipcs());
  }

  /// Total DRAM bandwidth relative to baseline.
  double normalized_bw(const WorkloadMix& mix, const std::string& policy) const {
    const double base = run(mix, "baseline").total_gbs();
    return base > 0.0 ? run(mix, policy).total_gbs() / base : 0.0;
  }

  /// Sum of per-core STALLS_L2_PENDING relative to baseline.
  double normalized_stalls(const WorkloadMix& mix, const std::string& policy) const {
    const auto base = static_cast<double>(run(mix, "baseline").total_stalls());
    return base > 0.0 ? static_cast<double>(run(mix, policy).total_stalls()) / base : 0.0;
  }

 private:
  const analysis::RunResult& run(const WorkloadMix& mix, const std::string& policy) const {
    return runs_.at(mix.name + "/" + policy);
  }

  double hs(const analysis::RunResult& result) const {
    std::vector<double> together;
    std::vector<double> alone;
    for (const auto& core : result.cores) {
      together.push_back(core.ipc);
      alone.push_back(alone_.at(core.benchmark));
    }
    return analysis::harmonic_speedup(together, alone);
  }

  analysis::BatchStats batch_{};
  std::map<std::string, analysis::RunResult> runs_;
  std::map<std::string, double> alone_;
};

MixEvaluator::MixEvaluator(const analysis::RunParams& params,
                           const std::vector<WorkloadMix>& mixes,
                           std::vector<std::string> policies) {
  policies.insert(policies.begin(), "baseline");
  struct MixJob {
    const WorkloadMix* mix;
    const std::string* policy;
  };
  std::vector<MixJob> mix_jobs;
  std::vector<std::string> solos;
  for (const auto& mix : mixes) {
    for (const auto& policy : policies) mix_jobs.push_back({&mix, &policy});
    for (const auto& b : mix.benchmarks) {
      if (std::find(solos.begin(), solos.end(), b) == solos.end()) solos.push_back(b);
    }
  }

  // Every job owns its own system and policy instance, so the results
  // are bit-identical at any thread count; the maps are filled serially.
  std::vector<analysis::RunResult> mix_results(mix_jobs.size());
  std::vector<double> solo_ipcs(solos.size());
  batch_ = analysis::run_batch(mix_jobs.size() + solos.size(), [&](std::size_t i) {
    if (i < mix_jobs.size()) {
      const auto policy = analysis::make_policy(*mix_jobs[i].policy, params.detector());
      mix_results[i] = analysis::run_mix(*mix_jobs[i].mix, *policy, params);
    } else {
      solo_ipcs[i - mix_jobs.size()] =
          analysis::run_solo_cached(solos[i - mix_jobs.size()], params, /*prefetch_on=*/true)
              ->cores.front()
              .ipc;
    }
  });
  for (std::size_t i = 0; i < mix_jobs.size(); ++i) {
    runs_.emplace(mix_jobs[i].mix->name + "/" + *mix_jobs[i].policy, std::move(mix_results[i]));
  }
  for (std::size_t i = 0; i < solos.size(); ++i) alone_.emplace(solos[i], solo_ipcs[i]);
}

using Metric = double (MixEvaluator::*)(const WorkloadMix&, const std::string&) const;

constexpr MixCategory kCategories[] = {MixCategory::PrefFri, MixCategory::PrefAgg,
                                       MixCategory::PrefUnfri, MixCategory::PrefNoAgg};

/// Mean of a metric over the mixes of one category.
double category_mean(const MixEvaluator& eval, const std::vector<WorkloadMix>& mixes,
                     MixCategory category, const std::string& policy, Metric metric) {
  std::vector<double> values;
  for (const auto& mix : mixes) {
    if (mix.category == category) values.push_back((eval.*metric)(mix, policy));
  }
  return analysis::mean(values);
}

/// One row per mix: its name, then every metric for every policy.
void print_mix_table(const MixEvaluator& eval, const std::vector<WorkloadMix>& mixes,
                     std::vector<std::string> headers, const std::vector<std::string>& policies,
                     std::initializer_list<Metric> metrics) {
  analysis::Table table(std::move(headers));
  for (const auto& mix : mixes) {
    std::vector<std::string> row{mix.name};
    for (const auto metric : metrics) {
      for (const auto& p : policies) row.push_back(analysis::Table::fmt((eval.*metric)(mix, p)));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

/// One row per category: its name, then every metric's category mean
/// for every policy.
void print_category_table(const MixEvaluator& eval, const std::vector<WorkloadMix>& mixes,
                          std::vector<std::string> headers,
                          const std::vector<std::string>& policies,
                          std::initializer_list<Metric> metrics) {
  analysis::Table table(std::move(headers));
  for (const auto category : kCategories) {
    std::vector<std::string> row{std::string(workloads::to_string(category))};
    for (const auto metric : metrics) {
      for (const auto& p : policies) {
        row.push_back(analysis::Table::fmt(category_mean(eval, mixes, category, p, metric)));
      }
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  const auto env = bench::BenchEnv::from_env();
  const auto mixes = env.workloads();
  const auto mechanisms = analysis::mechanism_names();
  const MixEvaluator eval(env.params, mixes, mechanisms);

  const std::vector<std::string> pt{"pt"};
  const std::vector<std::string> cp{"dunn", "pref_cp", "pref_cp2"};
  const std::vector<std::string> cmm{"cmm_a", "cmm_b", "cmm_c"};
  const auto hs = &MixEvaluator::normalized_hs;
  const auto ws = &MixEvaluator::normalized_ws;
  const auto wc = &MixEvaluator::worst_case;
  const auto with = [](std::string first, const std::vector<std::string>& rest) {
    std::vector<std::string> headers{std::move(first)};
    headers.insert(headers.end(), rest.begin(), rest.end());
    return headers;
  };
  // Figures are separated by one blank line; print_batch_summary() opens
  // with the last one.
  bool first = true;
  const auto section = [&](const std::string& figure, const std::string& what) {
    if (!first) std::cout << "\n";
    first = false;
    bench::print_preamble(env, figure, what);
  };

  section("Fig 7", "normalized HS and WS of PT");
  print_mix_table(eval, mixes, {"workload", "HS/HS_base", "WS"}, pt, {hs, ws});
  std::cout << "\ncategory means:\n";
  print_category_table(eval, mixes, {"category", "HS/HS_base", "WS"}, pt, {hs, ws});

  section("Fig 8", "lowest normalized IPC per workload under PT");
  print_mix_table(eval, mixes, {"workload", "worst-case speedup"}, pt, {wc});
  const auto degraded = std::count_if(mixes.begin(), mixes.end(), [&](const auto& mix) {
    return eval.worst_case(mix, "pt") < 0.8;
  });
  std::cout << "\nworkloads with an application degraded >20%: " << degraded << "/" << mixes.size()
            << "\n";

  section("Fig 9", "normalized HS and WS: Dunn vs Pref-CP vs Pref-CP2");
  print_mix_table(eval, mixes,
                  {"workload", "dunn HS", "pref_cp HS", "pref_cp2 HS", "dunn WS", "pref_cp WS",
                   "pref_cp2 WS"},
                  cp, {hs, ws});
  std::cout << "\ncategory mean HS/HS_base:\n";
  print_category_table(eval, mixes, with("category", cp), cp, {hs});

  section("Fig 10", "worst-case speedup: Dunn vs Pref-CP vs Pref-CP2");
  print_mix_table(eval, mixes, with("workload", cp), cp, {wc});

  section("Fig 11", "normalized HS and WS: CMM-a/b/c");
  print_mix_table(eval, mixes,
                  {"workload", "cmm_a HS", "cmm_b HS", "cmm_c HS", "cmm_a WS", "cmm_b WS",
                   "cmm_c WS"},
                  cmm, {hs, ws});
  std::cout << "\ncategory mean HS/HS_base:\n";
  print_category_table(eval, mixes, with("category", cmm), cmm, {hs});

  section("Fig 12", "worst-case speedup: CMM-a/b/c");
  print_mix_table(eval, mixes, with("workload", cmm), cmm, {wc});
  unsigned above80 = 0;
  unsigned above90 = 0;
  for (const auto& mix : mixes) {
    double lo = eval.worst_case(mix, cmm.front());
    for (const auto& p : cmm) lo = std::min(lo, eval.worst_case(mix, p));
    if (lo >= 0.8) ++above80;
    if (lo >= 0.9) ++above90;
  }
  std::cout << "\nworkloads with worst-case >= 0.8 under all variants: " << above80 << "/"
            << mixes.size() << "  (>= 0.9: " << above90 << ")\n";

  section("Fig 13", "category mean normalized HS, all 7 mechanisms");
  print_category_table(eval, mixes, with("category", mechanisms), mechanisms, {hs});
  std::cout << "\ncategory mean normalized WS:\n";
  print_category_table(eval, mixes, with("category", mechanisms), mechanisms, {ws});

  section("Fig 14", "normalized memory bandwidth, all 7 mechanisms");
  print_mix_table(eval, mixes, with("workload", mechanisms), mechanisms,
                  {&MixEvaluator::normalized_bw});
  std::cout << "\ncategory means:\n";
  print_category_table(eval, mixes, with("category", mechanisms), mechanisms,
                       {&MixEvaluator::normalized_bw});

  section("Fig 15", "normalized L2-pending stalls, all 7 mechanisms");
  print_mix_table(eval, mixes, with("workload", mechanisms), mechanisms,
                  {&MixEvaluator::normalized_stalls});
  std::cout << "\ncategory means:\n";
  print_category_table(eval, mixes, with("category", mechanisms), mechanisms,
                       {&MixEvaluator::normalized_stalls});

  bench::print_batch_summary(eval.batch_stats());
  return 0;
}
