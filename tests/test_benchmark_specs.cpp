#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "workloads/benchmark_specs.hpp"

namespace cmm::workloads {
namespace {

TEST(BenchmarkSuite, NonEmptyAndUniqueNames) {
  const auto& suite = benchmark_suite();
  EXPECT_GE(suite.size(), 20u);
  std::set<std::string> names;
  for (const auto& s : suite) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
    EXPECT_FALSE(s.patterns.empty()) << s.name;
    EXPECT_GT(s.inst_per_mem, 0.0);
    EXPECT_GT(s.base_cpi, 0.0);
    EXPECT_GE(s.mlp, 1.0);
  }
}

TEST(BenchmarkSuite, ClassListsPartitionTheSuite) {
  const auto friendly = prefetch_friendly_names();
  const auto unfriendly = prefetch_unfriendly_names();
  const auto non_agg = non_aggressive_names();
  EXPECT_EQ(friendly.size() + unfriendly.size() + non_agg.size(), benchmark_suite().size());

  // The paper's classes: friendly implies aggressive; unfriendly ditto.
  for (const auto& n : friendly) {
    EXPECT_TRUE(spec_by_name(n).expect_prefetch_aggressive);
    EXPECT_TRUE(spec_by_name(n).expect_prefetch_friendly);
  }
  for (const auto& n : unfriendly) {
    EXPECT_TRUE(spec_by_name(n).expect_prefetch_aggressive);
    EXPECT_FALSE(spec_by_name(n).expect_prefetch_friendly);
  }
}

TEST(BenchmarkSuite, ClassSizesSupportMixConstruction) {
  EXPECT_GE(prefetch_friendly_names().size(), 4u);
  EXPECT_GE(prefetch_unfriendly_names().size(), 4u);
  EXPECT_GE(llc_sensitive_names().size(), 2u);
  EXPECT_GE(non_aggressive_names().size(), 4u);
  // Rand Access — the paper's hand-written micro-benchmark — exists.
  EXPECT_NO_THROW(spec_by_name("rand_access"));
}

TEST(BenchmarkSuite, LookupUnknownThrows) {
  EXPECT_THROW(spec_by_name("no_such_benchmark"), std::out_of_range);
}

TEST(SpecOpSource, InstructionRatePreserved) {
  const auto machine = sim::MachineConfig::scaled(16);
  SpecOpSource src(spec_by_name("mcf"), machine, 0, 42);  // inst_per_mem 4.0
  std::uint64_t insts = 0;
  constexpr int kOps = 10000;
  for (int i = 0; i < kOps; ++i) {
    const sim::Op op = src.next();
    EXPECT_TRUE(op.has_mem);
    insts += op.instructions;
  }
  EXPECT_NEAR(static_cast<double>(insts) / kOps, spec_by_name("mcf").inst_per_mem, 0.01);
}

TEST(SpecOpSource, StoreFractionRespected) {
  const auto machine = sim::MachineConfig::scaled(16);
  const auto& spec = spec_by_name("lbm");  // store_fraction 0.35
  SpecOpSource src(spec, machine, 0, 42);
  int stores = 0;
  constexpr int kOps = 20000;
  for (int i = 0; i < kOps; ++i) {
    if (src.next().mem.is_store) ++stores;
  }
  EXPECT_NEAR(static_cast<double>(stores) / kOps, spec.store_fraction, 0.02);
}

TEST(SpecOpSource, CorePrivateRegions) {
  const auto machine = sim::MachineConfig::scaled(16);
  SpecOpSource a(spec_by_name("libquantum"), machine, 0, 42);
  SpecOpSource b(spec_by_name("libquantum"), machine, 1, 42);
  // Different cores must never alias addresses.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(a.next().mem.addr >> 40, b.next().mem.addr >> 40);
  }
}

TEST(SpecOpSource, DeterministicPerSeed) {
  const auto machine = sim::MachineConfig::scaled(16);
  SpecOpSource a(spec_by_name("wrf"), machine, 0, 7);
  SpecOpSource b(spec_by_name("wrf"), machine, 0, 7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next().mem.addr, b.next().mem.addr);
  }
}

TEST(SpecOpSource, WorkingSetScalesWithMachine) {
  // The same spec on a machine with a smaller LLC must touch a
  // proportionally smaller region (ws anchored to cache sizes).
  const auto big = sim::MachineConfig::scaled(8);
  const auto small = sim::MachineConfig::scaled(32);
  auto span = [](const sim::MachineConfig& m) {
    SpecOpSource src(spec_by_name("omnetpp"), m, 0, 3);
    Addr lo = ~Addr{0};
    Addr hi = 0;
    for (int i = 0; i < 50000; ++i) {
      const Addr a = src.next().mem.addr;
      lo = std::min(lo, a);
      hi = std::max(hi, a);
    }
    return hi - lo;
  };
  EXPECT_GT(span(big), span(small) * 2);
}

TEST(MakeOpSource, ByNameEquivalent) {
  const auto machine = sim::MachineConfig::scaled(16);
  auto by_name = make_op_source("astar", machine, 0, 5);
  auto by_spec = make_op_source(spec_by_name("astar"), machine, 0, 5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(by_name->next().mem.addr, by_spec->next().mem.addr);
  }
}

// Op-for-op equality, every field the core model reads.
bool same_op(const sim::Op& a, const sim::Op& b) {
  return a.instructions == b.instructions && a.has_mem == b.has_mem &&
         a.mem.addr == b.mem.addr && a.mem.ip == b.mem.ip && a.mem.is_store == b.mem.is_store;
}

// next() and next_batch() must yield one op sequence whatever the span
// size: the batched generator fills each field in its own pass, and the
// core model mixes both entry points (a migration refill, a batch).
TEST(SpecOpSource, NextAndBatchesYieldTheSameStream) {
  const auto machine = sim::MachineConfig::scaled(16);
  constexpr std::size_t kOps = 10'000;
  for (const auto& spec : benchmark_suite()) {
    SpecOpSource single(spec, machine, 1, 77);
    std::vector<sim::Op> want(kOps);
    for (auto& op : want) op = single.next();

    for (const std::size_t span : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      SpecOpSource batched(spec, machine, 1, 77);
      std::vector<sim::Op> got;
      std::vector<sim::Op> buf(span);
      while (got.size() < kOps) {
        const std::size_t n = batched.next_batch(std::span<sim::Op>(buf));
        ASSERT_EQ(n, span) << spec.name;
        got.insert(got.end(), buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n));
      }
      for (std::size_t i = 0; i < kOps; ++i) {
        ASSERT_TRUE(same_op(got[i], want[i]))
            << spec.name << " span " << span << " diverged at op " << i;
      }
    }
  }
}

}  // namespace
}  // namespace cmm::workloads
