#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "sim/multicore_system.hpp"
#include "workloads/phased.hpp"

namespace cmm::workloads {
namespace {

const sim::MachineConfig kMachine = sim::MachineConfig::scaled(16);

// ------------------------------------------------------------- phased

TEST(Phased, SwitchesAfterInstructionBudget) {
  PhasedOpSource src({{"povray", 1000}, {"libquantum", 1000}}, kMachine, 0, 42);
  EXPECT_EQ(src.current_benchmark(), "povray");
  std::uint64_t executed = 0;
  while (executed < 1000) executed += src.next().instructions;
  src.next();  // first op of the new phase
  EXPECT_EQ(src.current_benchmark(), "libquantum");
}

TEST(Phased, CyclesThroughPhases) {
  PhasedOpSource src({{"povray", 500}, {"gobmk", 500}}, kMachine, 0, 42);
  std::uint64_t executed = 0;
  while (executed < 2300) executed += src.next().instructions;
  // 0-500 povray, 500-1000 gobmk, 1000-1500 povray, ...
  EXPECT_EQ(src.current_phase(), (executed % 1000) < 500 ? 0u : 1u);
}

TEST(Phased, TraitsFollowPhase) {
  PhasedOpSource src({{"povray", 100}, {"mcf", 100}}, kMachine, 0, 42);
  const double cpi_first = src.traits().base_cpi;
  std::uint64_t executed = 0;
  while (executed < 100) executed += src.next().instructions;
  src.next();
  EXPECT_NE(src.traits().base_cpi, cpi_first);
}

TEST(Phased, RejectsBadPhases) {
  EXPECT_THROW(PhasedOpSource({}, kMachine, 0, 1), std::invalid_argument);
  EXPECT_THROW(PhasedOpSource({{"povray", 0}}, kMachine, 0, 1), std::invalid_argument);
  EXPECT_THROW(PhasedOpSource({{"nonsense", 10}}, kMachine, 0, 1), std::out_of_range);
}

TEST(Phased, ResetRestartsPhaseZero) {
  PhasedOpSource src({{"povray", 200}, {"gobmk", 200}}, kMachine, 0, 42);
  std::uint64_t executed = 0;
  while (executed < 250) executed += src.next().instructions;
  src.reset();
  EXPECT_EQ(src.current_phase(), 0u);
  EXPECT_EQ(src.current_benchmark(), "povray");
}

// next() and next_batch() at any span size yield the same ops, and a
// batch never crosses a phase boundary (its ops share one traits()).
TEST(Phased, NextAndBatchesYieldTheSameStreamAcrossPhases) {
  const std::vector<PhasedOpSource::Phase> phases{{"povray", 3000}, {"libquantum", 2000}};
  constexpr std::size_t kOps = 10'000;
  PhasedOpSource single(phases, kMachine, 0, 42);
  std::vector<sim::Op> want(kOps);
  std::vector<std::size_t> want_phase(kOps);
  for (std::size_t i = 0; i < kOps; ++i) {
    want[i] = single.next();
    want_phase[i] = single.current_phase();
  }
  ASSERT_NE(want_phase.front(), want_phase.back());  // the run crosses phases

  for (const std::size_t span : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    PhasedOpSource batched(phases, kMachine, 0, 42);
    std::vector<sim::Op> buf(span);
    std::size_t i = 0;
    while (i < kOps) {
      const std::size_t n = batched.next_batch(std::span<sim::Op>(buf));
      ASSERT_GE(n, 1u);
      ASSERT_LE(n, span);
      for (std::size_t k = 0; k < n && i < kOps; ++k, ++i) {
        const sim::Op& a = buf[k];
        const sim::Op& b = want[i];
        ASSERT_TRUE(a.instructions == b.instructions && a.has_mem == b.has_mem &&
                    a.mem.addr == b.mem.addr && a.mem.ip == b.mem.ip &&
                    a.mem.is_store == b.mem.is_store)
            << "span " << span << " diverged at op " << i;
        ASSERT_EQ(batched.current_phase(), want_phase[i]) << "span " << span << " op " << i;
      }
    }
  }
}

TEST(Phased, RunsOnACore) {
  sim::MulticoreSystem sys([] {
    auto c = kMachine;
    c.num_cores = 1;
    return c;
  }());
  sys.set_op_source(0, std::make_shared<PhasedOpSource>(
                           std::vector<PhasedOpSource::Phase>{{"povray", 50'000},
                                                              {"libquantum", 50'000}},
                           sys.config(), 0, 42));
  sys.run(400'000);
  EXPECT_GT(sys.pmu().core(0).instructions, 100'000u);
  EXPECT_GT(sys.pmu().core(0).l2_pref_req, 0u);  // the stream phase prefetched
}

}  // namespace
}  // namespace cmm::workloads
