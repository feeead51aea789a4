// Per-core timing model: a simple interval model. Instructions retire
// at a workload-specific base CPI; a memory reference adds the portion
// of the hierarchy latency not hidden by the L1 (scaled down by the
// workload's memory-level parallelism). This is intentionally not
// cycle-accurate — the paper's phenomena (prefetch hiding DRAM latency,
// LLC pollution, bandwidth contention) live entirely in the relative
// miss costs, which this model carries.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "sim/cache.hpp"
#include "sim/cat.hpp"
#include "sim/machine_config.hpp"
#include "sim/memory_controller.hpp"
#include "sim/pmu.hpp"
#include "sim/prefetch_msr.hpp"
#include "sim/prefetcher.hpp"

namespace cmm::sim {

/// One memory reference produced by a workload.
struct MemRef {
  Addr addr = 0;  // byte address
  IpId ip = 0;
  bool is_store = false;
};

/// One unit of work: `instructions` retired instructions, the last of
/// which is `mem` when `has_mem` is set.
struct Op {
  std::uint32_t instructions = 1;
  bool has_mem = false;
  MemRef mem{};
};

/// Static execution characteristics of the program on this core.
struct CoreTraits {
  double base_cpi = 0.5;  // CPI of non-memory work
  double mlp = 4.0;       // average overlap factor for miss latency
};

/// Source of the core's dynamic instruction stream (implemented by
/// workloads::AddressStream adapters).
class OpSource {
 public:
  virtual ~OpSource() = default;
  virtual Op next() = 0;
  virtual CoreTraits traits() const = 0;
  virtual void reset() = 0;

  /// Fill `out` with the next ops of the stream; returns how many were
  /// produced (>= 1 for a non-empty span). Batching contract: every op
  /// placed in the batch must be produced under one `traits()` value,
  /// and `traits()` must report that value immediately after the call —
  /// sources whose traits change over time (phased workloads) cut the
  /// batch at the change boundary and return a short count. The default
  /// forwards to `next()` across the whole span, which is correct for
  /// any constant-traits source; hot sources override it to refill the
  /// buffer without per-op virtual dispatch.
  virtual std::size_t next_batch(std::span<Op> out) {
    for (auto& op : out) op = next();
    return out.size();
  }
};

/// Capacity of the per-core op-stream batch buffer (advance_to refills
/// it via OpSource::next_batch so the inner loop runs without per-op
/// virtual dispatch; OpStreamState transports it whole on migration).
inline constexpr std::size_t kOpBatch = 64;

/// Portable execution state of one tenant's op stream: the source plus
/// the core-side consumption state — buffered-but-unconsumed ops, the
/// traits they were produced under, and the sub-cycle accumulator.
/// Live migration transplants this state whole: re-pointing only the
/// source (set_op_source) drops up to kOpBatch-1 already-fetched ops,
/// silently skipping that much of the tenant's program.
struct OpStreamState {
  std::shared_ptr<OpSource> source;
  std::array<Op, kOpBatch> batch{};
  std::size_t pos = 0;
  std::size_t len = 0;
  CoreTraits traits{};
  double frac = 0.0;  // sub-cycle accumulator at export time
};

class CoreModel {
 public:
  CoreModel(CoreId id, const MachineConfig& cfg, SetAssocCache& llc, const CatModel& cat,
            MemoryController& mem, Pmu& pmu);

  // Not copyable/movable: holds references and is stored via unique_ptr.
  CoreModel(const CoreModel&) = delete;
  CoreModel& operator=(const CoreModel&) = delete;

  void set_op_source(std::shared_ptr<OpSource> source);

  /// Snapshot the op stream (source + buffered ops + sub-cycle phase)
  /// without disturbing it — the exportable half of a live migration.
  OpStreamState export_stream() const;

  /// Install a previously exported stream, continuing it exactly where
  /// export_stream left off (unlike set_op_source, which restarts
  /// consumption at the source's next op and drops the buffer).
  void import_stream(OpStreamState state);

  /// Invoked after each LLC eviction of a valid line (line address,
  /// owning core). MulticoreSystem installs a back-invalidation hook
  /// here when the machine models an inclusive LLC.
  using EvictionListener = std::function<void(Addr, CoreId)>;
  void set_eviction_listener(EvictionListener listener) {
    eviction_listener_ = std::move(listener);
  }

  /// The core's L2 streamer, if its engine set includes one
  /// (hardware-level controllers such as the FDP baseline tune its
  /// aggressiveness). Null for cores configured without a streamer.
  StreamerPrefetcher* find_streamer() noexcept { return streamer_; }

  /// Every prefetcher engine this core instantiated, in config order
  /// (diagnostics and the differential test harness read issued()
  /// odometers and per-engine state through this).
  const std::vector<std::unique_ptr<Prefetcher>>& prefetchers() const noexcept {
    return engines_;
  }

  /// Run ops until the local clock reaches `target` cycles.
  void advance_to(Cycle target);

  Cycle now() const noexcept { return now_; }
  CoreId id() const noexcept { return id_; }

  PrefetchMsr& prefetch_msr() noexcept { return msr_; }
  const PrefetchMsr& prefetch_msr() const noexcept { return msr_; }

  const SetAssocCache& l1() const noexcept { return l1_; }
  const SetAssocCache& l2() const noexcept { return l2_; }
  SetAssocCache& l1() noexcept { return l1_; }
  SetAssocCache& l2() noexcept { return l2_; }

  /// Flush private caches + prefetcher state (used between runs).
  void reset_microarch();

 private:
  /// Execute one demand reference; returns its added latency (cycles).
  /// `mlp` is the batch's memory-level-parallelism trait, hoisted out
  /// of the per-op path by advance_to.
  double demand_access(const MemRef& ref, double mlp);

  /// Issue an L1-prefetcher candidate down the hierarchy.
  void issue_l1_prefetch(Addr line);

  /// Issue an L2-prefetcher candidate (counts the Table-I PMU events).
  void issue_l2_prefetch(Addr line);

  /// Residual wait if the line's fill completes after `arrival`.
  static double residual(Cycle ready_at, double arrival) noexcept {
    const auto a = static_cast<double>(ready_at);
    return a > arrival ? a - arrival : 0.0;
  }

  /// Install `line`, which the caller has just missed on, in the shared
  /// LLC under this core's CAT mask, handling writebacks of dirty
  /// victims and inclusive back-invalidation.
  void fill_llc(Addr line, AccessType type, Cycle ready_at);

  CoreId id_;
  const MachineConfig& cfg_;
  Addr line_shift_;

  SetAssocCache l1_;
  SetAssocCache l2_;
  SetAssocCache& llc_;
  const CatModel& cat_;
  MemoryController& mem_;
  Pmu& pmu_;

  /// Deliver a fill notification to every engine in `observers`.
  static void notify_fill(const std::vector<Prefetcher*>& observers, Addr line,
                          bool prefetch_fill) {
    for (Prefetcher* p : observers) p->cache_fill(line, prefetch_fill);
  }

  PrefetchMsr msr_;

  // Prefetcher engines, built from cfg.prefetchers_for(id) via the
  // registry. The per-level lists preserve config order (the default
  // set reproduces the historical call order: streamer, adjacent at
  // L2; next-line, IP-stride at L1). The observer lists are the
  // opted-in subsets so the hot path skips empty fan-outs — all empty
  // for the default Intel set. Observing lists carry each engine's kind
  // so the per-reference MSR check makes no virtual call.
  struct Engine {
    Prefetcher* engine;
    PrefetcherKind kind;
  };
  std::vector<std::unique_ptr<Prefetcher>> engines_;
  std::vector<Engine> l1_engines_;
  std::vector<Engine> l2_engines_;
  std::vector<Engine> l2_pf_traffic_engines_;  // observes_prefetch_traffic()
  std::vector<Prefetcher*> l1_fill_observers_;      // wants_cache_fill()
  std::vector<Prefetcher*> l2_fill_observers_;
  StreamerPrefetcher* streamer_ = nullptr;

  std::shared_ptr<OpSource> source_;
  EvictionListener eviction_listener_;
  Cycle now_ = 0;
  double now_frac_ = 0.0;  // sub-cycle accumulator

  // Op-stream batch buffer: unconsumed ops carry over across
  // advance_to calls (ops are time-independent, so prefetching them is
  // behaviour-preserving) and across migrations (via OpStreamState).
  std::array<Op, kOpBatch> op_batch_{};
  std::size_t batch_pos_ = 0;
  std::size_t batch_len_ = 0;
  CoreTraits batch_traits_{};  // traits of every op in the current batch

  std::vector<Addr> l1_cands_;
  std::vector<Addr> l2_cands_;
  std::vector<Addr> l2_cands_from_l1_;  // L2-prefetcher reactions to L1 prefetches
};

}  // namespace cmm::sim
