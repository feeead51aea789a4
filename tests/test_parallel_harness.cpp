// The parallel experiment layer's core contract: batch results are
// bit-identical to the serial path at every thread count, because each
// job owns its own MulticoreSystem, policy, and RNG stream.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/run_harness.hpp"
#include "common/parallel.hpp"
#include "workloads/workload_mix.hpp"

namespace cmm::analysis {
namespace {

RunParams fast_params() {
  RunParams p;
  p.machine = sim::MachineConfig::scaled(32);
  p.warmup_cycles = 100'000;
  p.run_cycles = 300'000;
  p.epochs.execution_epoch = 100'000;
  p.epochs.sampling_interval = 10'000;
  return p;
}

TEST(ResolveThreads, RequestWinsOverEnvironment) {
  ::setenv("CMM_THREADS", "3", 1);
  EXPECT_EQ(resolve_threads(2), 2u);
  EXPECT_EQ(resolve_threads(0), 3u);
  ::unsetenv("CMM_THREADS");
  EXPECT_GE(resolve_threads(0), 1u);
  ::setenv("CMM_THREADS", "0", 1);
  EXPECT_GE(resolve_threads(0), 1u);

  // Malformed values are errors, not misparses; a request still wins
  // without reading the variable.
  for (const char* bad : {"abc", "2x", "-1", "+2", "8e6", "1.5", " 2", "99999999999"}) {
    SCOPED_TRACE(bad);
    ::setenv("CMM_THREADS", bad, 1);
    EXPECT_THROW(resolve_threads(0), std::invalid_argument);
    EXPECT_EQ(resolve_threads(2), 2u);
  }
  ::unsetenv("CMM_THREADS");
}

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::atomic<int> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 10; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum.fetch_add(i); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 55);
}

TEST(ThreadPool, FuturePropagatesException) {
  ThreadPool pool(1);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 257;
  std::vector<std::atomic<int>> counts(kN);
  parallel_for(kN, 4, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
}

TEST(ParallelFor, SingleThreadRunsInlineInOrder) {
  std::vector<std::size_t> order;
  parallel_for(5, 1, [&](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, RethrowsFirstJobException) {
  EXPECT_THROW(parallel_for(64, 4,
                            [&](std::size_t i) {
                              if (i == 7) throw std::invalid_argument("job 7");
                            }),
               std::invalid_argument);
}

TEST(Determinism, RunSoloRepeatable) {
  const auto params = fast_params();
  const auto a = run_solo("libquantum", params, /*prefetch_on=*/true);
  const auto b = run_solo("libquantum", params, /*prefetch_on=*/true);
  EXPECT_EQ(a, b);
}

TEST(Determinism, RunMixRepeatable) {
  const auto params = fast_params();
  const auto mixes =
      workloads::make_mixes(workloads::MixCategory::PrefAgg, 1, params.machine.num_cores, 7);
  const auto pol_a = make_policy("cmm_a", params.detector());
  const auto pol_b = make_policy("cmm_a", params.detector());
  const auto a = run_mix(mixes.front(), *pol_a, params);
  const auto b = run_mix(mixes.front(), *pol_b, params);
  EXPECT_EQ(a, b);
}

TEST(Determinism, BatchBitIdenticalAcrossThreadCounts) {
  const auto params = fast_params();
  const auto mixes = workloads::paper_workloads(params.machine.num_cores, params.seed, 1);
  const std::vector<std::string> policies{"baseline", "pt", "cmm_a"};

  const auto serial = for_each_mix(mixes, policies, params, {.threads = 1});
  const auto four = for_each_mix(mixes, policies, params, {.threads = 4});
  const auto hw = for_each_mix(mixes, policies, params,
                               {.threads = std::thread::hardware_concurrency()});

  ASSERT_EQ(serial.size(), mixes.size() * policies.size());
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, hw);

  // And the serial batch path matches hand-rolled run_mix calls.
  for (std::size_t m = 0; m < mixes.size(); ++m) {
    for (std::size_t p = 0; p < policies.size(); ++p) {
      const auto policy = make_policy(policies[p], params.detector());
      EXPECT_EQ(serial[m * policies.size() + p], run_mix(mixes[m], *policy, params));
    }
  }
}

TEST(Determinism, SoloBatchMatchesDirectCalls) {
  const auto params = fast_params();
  const std::vector<SoloQuery> queries{
      {"libquantum", true, 0}, {"libquantum", false, 0}, {"soplex", true, 2}};
  const auto parallel = run_solo_batch(queries, params, {.threads = 4});
  ASSERT_EQ(parallel.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(parallel[i],
              run_solo(queries[i].benchmark, params, queries[i].prefetch_on, queries[i].ways));
  }
}

TEST(BatchStats, AccountsJobsAndJson) {
  BatchStats stats = run_batch(6, [](std::size_t) {}, {.threads = 2});
  EXPECT_EQ(stats.jobs, 6u);
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_GE(stats.wall_seconds, 0.0);
  const std::string json = stats.json();
  EXPECT_NE(json.find("\"jobs\":6"), std::string::npos);
  EXPECT_NE(json.find("\"threads\":2"), std::string::npos);
  EXPECT_NE(json.find("\"speedup\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_hits\""), std::string::npos);
}

TEST(ComputeAloneIpcs, ParallelMatchesSerial) {
  const auto params = fast_params();
  const std::vector<std::string> names{"povray", "gobmk", "povray", "libquantum"};
  const auto serial = compute_alone_ipcs(names, params, {.threads = 1});
  const auto parallel = compute_alone_ipcs(names, params, {.threads = 4});
  EXPECT_EQ(serial.size(), 3u);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace cmm::analysis
