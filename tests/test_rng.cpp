#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace cmm {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.next_below(1), 0u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextDoubleRoughlyUniform) {
  Rng rng(9);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, BernoulliEdges) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(13);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.split();
  // The child must not replay the parent's sequence.
  Rng parent2(42);
  parent2.next();  // advance past the split draw
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.next() == parent2.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// Exact outputs of the generator, recorded before its draw functions
// moved header-inline. Every simulated op stream is built from these
// draws, so any change here changes every golden downstream.
TEST(Rng, GoldenNext) {
  Rng rng(0x5EED);
  const std::uint64_t want[] = {0xEF33F17055244B74ULL, 0xE1F591112FB5051BULL,
                                0xD8AB05640214863AULL, 0xF985E1F2FB897B03ULL,
                                0xAF87A5F7E6CE1408ULL, 0x86F28E3A0746FF9EULL,
                                0x4E1ACB1DBE288CACULL, 0x6C13FD25A3155716ULL};
  for (const std::uint64_t w : want) EXPECT_EQ(rng.next(), w);
}

TEST(Rng, GoldenNextBelow) {
  Rng rng(0x5EED);
  const std::uint64_t want[] = {934, 882, 846, 974, 685, 527, 305, 422};
  for (const std::uint64_t w : want) EXPECT_EQ(rng.next_below(1000), w);
}

TEST(Rng, GoldenNextDouble) {
  Rng rng(0x5EED);
  const double want[] = {0x1.de67e2e0aa489p-1, 0x1.c3eb22225f6ap-1, 0x1.b1560ac80429p-1,
                         0x1.f30bc3e5f712fp-1};
  for (const double w : want) EXPECT_EQ(rng.next_double(), w);
}

TEST(Rng, GoldenNextBool) {
  // p = 0 and p = 1 answer without drawing: the stream is untouched.
  for (const double p : {0.0, 1.0}) {
    Rng rng(0x5EED);
    for (int i = 0; i < 64; ++i) EXPECT_EQ(rng.next_bool(p), p == 1.0);
    EXPECT_EQ(rng.next(), 0xEF33F17055244B74ULL) << "p=" << p;
  }
  // 0 < p < 1 draws once per call.
  Rng rng(0x5EED);
  std::uint64_t bits = 0;
  for (int i = 0; i < 64; ++i) {
    if (rng.next_bool(0.1)) bits |= std::uint64_t{1} << i;
  }
  EXPECT_EQ(bits, 0x0403000001400000ULL);
  EXPECT_EQ(rng.next(), 0x7ACFE2654072CF18ULL);
}

TEST(Rng, SplitMix64KnownValue) {
  // Reference value of splitmix64 for state 0 (widely published).
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xE220A8397B1DCDAFULL);
}

}  // namespace
}  // namespace cmm
