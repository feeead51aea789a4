// The synthetic benchmark suite: named SPEC-CPU2006-like proxies plus
// the paper's "Rand Access" micro-benchmark. Each spec composes address
// patterns with execution traits and carries its *expected*
// classification (the paper's Sec. IV-B classes), which integration
// tests verify against measured behaviour (Figs 1-3 reproduction).
//
// Working-set sizes are expressed relative to a cache level of the
// machine being simulated, so the suite scales with MachineConfig and
// the paper's capacity ratios are preserved on the fast scaled machine.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/core_model.hpp"
#include "sim/machine_config.hpp"
#include "workloads/address_stream.hpp"

namespace cmm::workloads {

enum class WsAnchor : std::uint8_t { L1, L2, Llc };

struct PatternSpec {
  enum class Kind : std::uint8_t { Stream, Strided, Random, BurstRandom, Chase };

  Kind kind = Kind::Stream;
  double weight = 1.0;          // share within the benchmark's mixture
  double ws_multiple = 1.0;     // working set = multiple x anchor size
  WsAnchor anchor = WsAnchor::Llc;
  std::uint64_t element = 8;    // Stream: bytes between accesses
  std::uint64_t stride_bytes = 256;  // Strided
  unsigned burst_min = 3;       // BurstRandom
  unsigned burst_max = 6;
  unsigned lines_per_node = 1;  // Chase: consecutive lines per node
  unsigned node_stride_lines = 0;  // Chase: node spacing (0 = packed)
  unsigned random_stride_lines = 1;  // Random: candidate-line spacing
};

struct BenchmarkSpec {
  std::string name;

  // Execution traits.
  double base_cpi = 0.5;
  double mlp = 4.0;
  double inst_per_mem = 4.0;   // instructions per memory reference
  double store_fraction = 0.1;

  std::vector<PatternSpec> patterns;

  // Expected classification per the paper's criteria (Sec. IV-B):
  //  aggressive: solo demand BW > threshold AND prefetch BW gain > 50 %
  //  friendly:   solo IPC speedup from prefetching > 30 %
  //  llc_sensitive: needs >= 8/20 of the ways for 80 % of peak IPC
  bool expect_prefetch_aggressive = false;
  bool expect_prefetch_friendly = false;
  bool expect_llc_sensitive = false;
};

/// The full suite, fixed order (deterministic mix construction).
const std::vector<BenchmarkSpec>& benchmark_suite();

/// Lookup by name; throws std::out_of_range for unknown names.
const BenchmarkSpec& spec_by_name(const std::string& name);

/// Names of all suite members in a class.
std::vector<std::string> prefetch_friendly_names();
std::vector<std::string> prefetch_unfriendly_names();  // aggressive & !friendly
std::vector<std::string> non_aggressive_names();
std::vector<std::string> llc_sensitive_names();

/// Instantiate the address stream of `spec` for one core of `machine`.
/// The stream lives in a core-private region (no sharing across cores).
std::unique_ptr<AddressStream> make_address_stream(const BenchmarkSpec& spec,
                                                   const sim::MachineConfig& machine,
                                                   CoreId core, std::uint64_t seed);

/// OpSource adapter: emits `inst_per_mem` instructions per memory
/// reference (dithered to preserve the exact rate), drawing addresses
/// from the spec's pattern mixture.
class SpecOpSource final : public sim::OpSource {
 public:
  SpecOpSource(const BenchmarkSpec& spec, const sim::MachineConfig& machine, CoreId core,
               std::uint64_t seed);

  /// A one-op batch: next() and next_batch() yield the same sequence
  /// however the calls are interleaved.
  sim::Op next() override;
  /// Buffer refill without per-op virtual dispatch (traits are fixed).
  std::size_t next_batch(std::span<sim::Op> out) override;
  sim::CoreTraits traits() const override { return traits_; }
  void reset() override;

  const std::string& benchmark_name() const noexcept { return name_; }

 private:
  std::string name_;
  sim::CoreTraits traits_;
  double inst_per_mem_;
  double store_fraction_;
  std::unique_ptr<AddressStream> stream_;
  Rng rng_;
  double carry_ = 0.0;
};

/// Convenience: build a ready-to-attach op source.
std::shared_ptr<sim::OpSource> make_op_source(const BenchmarkSpec& spec,
                                              const sim::MachineConfig& machine, CoreId core,
                                              std::uint64_t seed);
std::shared_ptr<sim::OpSource> make_op_source(const std::string& benchmark,
                                              const sim::MachineConfig& machine, CoreId core,
                                              std::uint64_t seed);

}  // namespace cmm::workloads
