#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, unsigned p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  // Rank ceil(p n / 100) in integers, clamped to [1, n].
  std::size_t rank = (static_cast<std::size_t>(p) * n + 99) / 100;
  rank = std::clamp<std::size_t>(rank, 1, n);
  return values[rank - 1];
}

std::size_t samples_beyond(std::size_t n, unsigned p) {
  const std::size_t rank = std::min(n, (static_cast<std::size_t>(p) * n + 99) / 100);
  return n - rank;
}

unsigned highest_reportable_percentile(std::size_t n, std::size_t min_beyond) {
  for (unsigned p = 99; p >= 1; --p) {
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return 0;
}

void Digest::byte(unsigned char b) noexcept {
  h_ ^= b;
  h_ *= 0x100000001b3ULL;
}

Digest& Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  return *this;
}

Digest& Digest::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return add(bits);
}

Digest& Digest::add(std::string_view s) {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) byte(static_cast<unsigned char>(c));
  return *this;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace perfbench
