// Small statistics and digest helpers for the benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median (mean of the middle pair for an even count); 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least p % of
/// the samples at or below it. 0 when empty.
double percentile(std::vector<double> values, unsigned p);

/// Samples lying beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, unsigned p);

/// The reporting rule for a timing's tail: the highest whole percentile
/// (1..99) with at least `min_beyond` samples beyond it; 0 when no
/// percentile qualifies. 220 samples give 95, 100 give 90.
unsigned highest_reportable_percentile(std::size_t n, std::size_t min_beyond = 10);

/// Order-sensitive FNV-1a digest of simulated outputs. Doubles are fed
/// as their bit patterns, so two digests agree only when every value
/// is bit-identical.
class Digest {
 public:
  Digest& add(std::uint64_t v);
  Digest& add(double v);
  Digest& add(std::string_view s);
  std::uint64_t value() const noexcept { return h_; }
  std::string hex() const;

 private:
  void byte(unsigned char b) noexcept;
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

}  // namespace perfbench
