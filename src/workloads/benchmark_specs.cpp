#include "workloads/benchmark_specs.hpp"

#include <stdexcept>

namespace cmm::workloads {

namespace {

using Kind = PatternSpec::Kind;

PatternSpec stream(double ws_llc, std::uint64_t element = 8) {
  PatternSpec p;
  p.kind = Kind::Stream;
  p.ws_multiple = ws_llc;
  p.anchor = WsAnchor::Llc;
  p.element = element;
  return p;
}

PatternSpec strided(double ws_llc, std::uint64_t stride) {
  PatternSpec p;
  p.kind = Kind::Strided;
  p.ws_multiple = ws_llc;
  p.anchor = WsAnchor::Llc;
  p.stride_bytes = stride;
  return p;
}

PatternSpec random_over(double ws, WsAnchor anchor, unsigned stride_lines = 1) {
  PatternSpec p;
  p.kind = Kind::Random;
  p.ws_multiple = ws;
  p.anchor = anchor;
  p.random_stride_lines = stride_lines;
  return p;
}

PatternSpec burst(double ws_llc, unsigned bmin, unsigned bmax) {
  PatternSpec p;
  p.kind = Kind::BurstRandom;
  p.ws_multiple = ws_llc;
  p.anchor = WsAnchor::Llc;
  p.burst_min = bmin;
  p.burst_max = bmax;
  return p;
}

PatternSpec chase(double ws, WsAnchor anchor, unsigned lines_per_node = 1,
                  unsigned node_stride_lines = 0) {
  PatternSpec p;
  p.kind = Kind::Chase;
  p.ws_multiple = ws;
  p.anchor = anchor;
  p.lines_per_node = lines_per_node;
  p.node_stride_lines = node_stride_lines;
  return p;
}

PatternSpec weighted(PatternSpec p, double w) {
  p.weight = w;
  return p;
}

std::vector<BenchmarkSpec> build_suite() {
  std::vector<BenchmarkSpec> s;

  auto add = [&s](BenchmarkSpec spec) { s.push_back(std::move(spec)); };

  // ---- Prefetch friendly (and aggressive): large sequential/strided
  // working sets far beyond the LLC; the streamer hides DRAM latency.
  {
    BenchmarkSpec b;
    b.name = "libquantum";
    b.base_cpi = 0.45;
    b.mlp = 6.0;
    b.inst_per_mem = 4.0;
    b.store_fraction = 0.05;
    b.patterns = {stream(4.0, 8)};
    b.expect_prefetch_aggressive = true;
    b.expect_prefetch_friendly = true;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "bwaves";
    b.base_cpi = 0.5;
    b.mlp = 6.0;
    b.inst_per_mem = 3.5;
    b.patterns = {weighted(stream(4.0, 8), 0.8), weighted(strided(2.0, 256), 0.2)};
    b.expect_prefetch_aggressive = true;
    b.expect_prefetch_friendly = true;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "leslie3d";
    b.base_cpi = 0.5;
    b.mlp = 5.0;
    b.inst_per_mem = 3.5;
    b.patterns = {weighted(stream(3.0, 8), 0.5), weighted(stream(3.0, 16), 0.3),
                  weighted(strided(2.0, 128), 0.2)};
    b.expect_prefetch_aggressive = true;
    b.expect_prefetch_friendly = true;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "GemsFDTD";
    b.base_cpi = 0.55;
    b.mlp = 5.0;
    b.inst_per_mem = 3.5;
    b.patterns = {weighted(stream(4.0, 8), 0.7), weighted(strided(3.0, 128), 0.3)};
    b.expect_prefetch_aggressive = true;
    b.expect_prefetch_friendly = true;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "wrf";
    b.base_cpi = 0.5;
    b.mlp = 4.5;
    b.inst_per_mem = 2.4;
    b.patterns = {weighted(stream(2.0, 8), 0.88), weighted(random_over(2.0, WsAnchor::L2), 0.12)};
    b.expect_prefetch_aggressive = true;
    b.expect_prefetch_friendly = true;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "milc";
    b.base_cpi = 0.5;
    b.mlp = 4.5;
    b.inst_per_mem = 4.5;
    b.patterns = {weighted(stream(3.0, 16), 0.6), weighted(strided(3.0, 128), 0.4)};
    b.expect_prefetch_aggressive = true;
    b.expect_prefetch_friendly = true;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "lbm";
    b.base_cpi = 0.5;
    b.mlp = 6.0;
    b.inst_per_mem = 3.0;
    b.store_fraction = 0.35;
    b.patterns = {stream(4.0, 16)};
    b.expect_prefetch_aggressive = true;
    b.expect_prefetch_friendly = true;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "sphinx3";
    b.base_cpi = 0.45;
    b.mlp = 4.5;
    b.inst_per_mem = 2.1;
    b.patterns = {weighted(stream(2.0, 8), 0.9), weighted(random_over(3.0, WsAnchor::L2), 0.1)};
    b.expect_prefetch_aggressive = true;
    b.expect_prefetch_friendly = true;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "zeusmp";
    b.base_cpi = 0.55;
    b.mlp = 4.5;
    b.inst_per_mem = 4.5;
    b.patterns = {weighted(strided(2.5, 128), 0.7), weighted(stream(2.0, 8), 0.3)};
    b.expect_prefetch_aggressive = true;
    b.expect_prefetch_friendly = true;
    add(b);
  }

  // ---- Prefetch unfriendly (aggressive, not friendly): the paper's
  // "Rand Access" micro-benchmark and variants. Short sequential bursts
  // at random locations train the streamer, then abandon the page: many
  // prefetches, almost all useless.
  {
    BenchmarkSpec b;
    b.name = "rand_access";
    b.base_cpi = 0.4;
    b.mlp = 5.0;
    b.inst_per_mem = 3.0;
    b.patterns = {burst(8.0, 3, 6)};
    b.expect_prefetch_aggressive = true;
    b.expect_prefetch_friendly = false;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "rand_access_b";
    b.base_cpi = 0.45;
    b.mlp = 5.0;
    b.inst_per_mem = 3.5;
    b.patterns = {burst(6.0, 2, 4)};
    b.expect_prefetch_aggressive = true;
    b.expect_prefetch_friendly = false;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "scatter_gather";
    b.base_cpi = 0.45;
    b.mlp = 4.5;
    b.inst_per_mem = 3.5;
    b.patterns = {weighted(burst(6.0, 3, 5), 0.7), weighted(random_over(4.0, WsAnchor::Llc), 0.3)};
    b.expect_prefetch_aggressive = true;
    b.expect_prefetch_friendly = false;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "hash_probe";
    b.base_cpi = 0.4;
    b.mlp = 4.5;
    b.inst_per_mem = 3.0;
    b.patterns = {burst(8.0, 2, 5)};
    b.expect_prefetch_aggressive = true;
    b.expect_prefetch_friendly = false;
    add(b);
  }

  // ---- Non prefetch aggressive, LLC sensitive: pointer-heavy working
  // sets comparable to the LLC; performance tracks allocated ways.
  {
    BenchmarkSpec b;
    b.name = "omnetpp";
    b.base_cpi = 0.6;
    b.mlp = 1.6;
    b.inst_per_mem = 5.0;
    // Sparse random with reuse: adjacent-line prefetches land on holes
    // (pure pollution) and LRU degrades gracefully with allocated ways.
    b.patterns = {random_over(0.45, WsAnchor::Llc, 2)};
    b.expect_llc_sensitive = true;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "xalancbmk";
    b.base_cpi = 0.6;
    b.mlp = 1.8;
    b.inst_per_mem = 6.0;
    b.patterns = {random_over(0.35, WsAnchor::Llc)};
    b.expect_llc_sensitive = true;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "mcf";
    b.base_cpi = 0.65;
    b.mlp = 2.2;
    b.inst_per_mem = 4.0;
    b.patterns = {weighted(random_over(0.35, WsAnchor::Llc), 0.7),
                  weighted(chase(0.15, WsAnchor::Llc, /*lines_per_node=*/2), 0.3)};
    b.expect_llc_sensitive = true;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "astar";
    b.base_cpi = 0.6;
    b.mlp = 1.5;
    b.inst_per_mem = 7.0;
    b.patterns = {random_over(0.35, WsAnchor::Llc)};
    b.expect_llc_sensitive = true;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "soplex";
    b.base_cpi = 0.55;
    b.mlp = 2.5;
    b.inst_per_mem = 5.0;
    b.patterns = {weighted(random_over(0.35, WsAnchor::Llc), 0.8),
                  weighted(stream(0.05, 8), 0.2)};
    b.expect_llc_sensitive = true;
    add(b);
  }

  // ---- Non prefetch aggressive, compute bound: small working sets.
  {
    BenchmarkSpec b;
    b.name = "povray";
    b.base_cpi = 0.35;
    b.mlp = 3.0;
    b.inst_per_mem = 10.0;
    b.patterns = {random_over(0.5, WsAnchor::L2)};
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "namd";
    b.base_cpi = 0.4;
    b.mlp = 4.0;
    b.inst_per_mem = 8.0;
    // Streams within an L2-resident set: generates prefetch requests
    // with high L2 locality — the case the front-end's L2-PMR filter
    // (M-5) exists to exclude.
    b.patterns = {stream(0.9, 8)};
    b.patterns.front().anchor = WsAnchor::L2;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "gobmk";
    b.base_cpi = 0.45;
    b.mlp = 2.5;
    b.inst_per_mem = 9.0;
    b.patterns = {random_over(2.0, WsAnchor::L1)};
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "h264ref";
    b.base_cpi = 0.4;
    b.mlp = 3.5;
    b.inst_per_mem = 7.0;
    b.patterns = {weighted(strided(0.5, 64), 0.6), weighted(random_over(0.4, WsAnchor::L2), 0.4)};
    b.patterns.front().anchor = WsAnchor::L2;
    add(b);
  }
  {
    BenchmarkSpec b;
    b.name = "calculix";
    b.base_cpi = 0.3;
    b.mlp = 3.0;
    b.inst_per_mem = 15.0;
    b.patterns = {random_over(1.0, WsAnchor::L1)};
    add(b);
  }

  return s;
}

}  // namespace

const std::vector<BenchmarkSpec>& benchmark_suite() {
  static const std::vector<BenchmarkSpec> suite = build_suite();
  return suite;
}

const BenchmarkSpec& spec_by_name(const std::string& name) {
  for (const auto& spec : benchmark_suite()) {
    if (spec.name == name) return spec;
  }
  throw std::out_of_range("unknown benchmark: " + name);
}

std::vector<std::string> prefetch_friendly_names() {
  std::vector<std::string> names;
  for (const auto& s : benchmark_suite()) {
    if (s.expect_prefetch_aggressive && s.expect_prefetch_friendly) names.push_back(s.name);
  }
  return names;
}

std::vector<std::string> prefetch_unfriendly_names() {
  std::vector<std::string> names;
  for (const auto& s : benchmark_suite()) {
    if (s.expect_prefetch_aggressive && !s.expect_prefetch_friendly) names.push_back(s.name);
  }
  return names;
}

std::vector<std::string> non_aggressive_names() {
  std::vector<std::string> names;
  for (const auto& s : benchmark_suite()) {
    if (!s.expect_prefetch_aggressive) names.push_back(s.name);
  }
  return names;
}

std::vector<std::string> llc_sensitive_names() {
  std::vector<std::string> names;
  for (const auto& s : benchmark_suite()) {
    if (s.expect_llc_sensitive) names.push_back(s.name);
  }
  return names;
}

SpecOpSource::SpecOpSource(const BenchmarkSpec& spec, const sim::MachineConfig& machine,
                           CoreId core, std::uint64_t seed)
    : name_(spec.name),
      traits_{spec.base_cpi, spec.mlp},
      inst_per_mem_(spec.inst_per_mem < 1.0 ? 1.0 : spec.inst_per_mem),
      store_fraction_(spec.store_fraction),
      stream_(make_address_stream(spec, machine, core, seed)),
      rng_(seed ^ 0xABCDEF0123456789ULL) {}

sim::Op SpecOpSource::next() {
  sim::Op op;
  next_batch(std::span<sim::Op>(&op, 1));
  return op;
}

std::size_t SpecOpSource::next_batch(std::span<sim::Op> out) {
  // One fused pass: the carry chain, the pattern stream and the store
  // RNG are independent dependency chains, which the CPU overlaps
  // within an iteration. (Splitting them into one pass per field
  // measured slower: each pass then waits on its own chain.)
  for (auto& op : out) {
    carry_ += inst_per_mem_;
    op.instructions = static_cast<std::uint32_t>(carry_);
    carry_ -= op.instructions;
    if (op.instructions == 0) op.instructions = 1;
    op.has_mem = true;
    op.mem = stream_->next();
    op.mem.is_store = rng_.next_bool(store_fraction_);
  }
  return out.size();
}

void SpecOpSource::reset() {
  stream_->reset();
  carry_ = 0.0;
}

std::shared_ptr<sim::OpSource> make_op_source(const BenchmarkSpec& spec,
                                              const sim::MachineConfig& machine, CoreId core,
                                              std::uint64_t seed) {
  return std::make_shared<SpecOpSource>(spec, machine, core, seed);
}

std::shared_ptr<sim::OpSource> make_op_source(const std::string& benchmark,
                                              const sim::MachineConfig& machine, CoreId core,
                                              std::uint64_t seed) {
  return make_op_source(spec_by_name(benchmark), machine, core, seed);
}

}  // namespace cmm::workloads
