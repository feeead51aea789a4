// The simulated machine: N CoreModels grouped into LLC domains, each
// domain owning a private LLC, CAT instance, and memory controller
// (num_llc_domains == 1 — the default — is the paper's single socket
// and behaves exactly as before). Cores are advanced round-robin in
// fixed cycle quanta so that contention on the shared structures
// interleaves at fine grain without event-queue overhead. Domains
// share nothing, so a multi-domain machine is observationally
// equivalent to its per-domain shards (see DESIGN.md, fleet runner).
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/cache.hpp"
#include "sim/cat.hpp"
#include "sim/core_model.hpp"
#include "sim/machine_config.hpp"
#include "sim/memory_controller.hpp"
#include "sim/pmu.hpp"

namespace cmm::sim {

/// Op stream of a hotplugged-out core: single-instruction ops with no
/// memory reference at a fixed CPI. Because the idle loop never touches
/// the memory hierarchy, its IPC is configuration-independent — it adds
/// a constant term to hm_ipc that preserves the relative ranking of
/// sampled configurations — and it leaves no cache or bandwidth
/// footprint a later tenant could inherit.
class IdleOpSource final : public OpSource {
 public:
  explicit IdleOpSource(double cpi) : traits_{cpi, 1.0} {}

  Op next() override { return Op{1, false, {}}; }
  CoreTraits traits() const override { return traits_; }
  void reset() override {}
  std::size_t next_batch(std::span<Op> out) override {
    for (auto& op : out) op = Op{1, false, {}};
    return out.size();
  }

 private:
  CoreTraits traits_;
};

class MulticoreSystem {
 public:
  explicit MulticoreSystem(const MachineConfig& cfg);

  MulticoreSystem(const MulticoreSystem&) = delete;
  MulticoreSystem& operator=(const MulticoreSystem&) = delete;

  const MachineConfig& config() const noexcept { return cfg_; }
  unsigned num_cores() const noexcept { return cfg_.num_cores; }

  CoreModel& core(CoreId id) { return *cores_.at(id); }
  const CoreModel& core(CoreId id) const { return *cores_.at(id); }

  // Per-domain shared structures. The argument defaults to domain 0 so
  // every pre-domain call site (and every single-domain machine, where
  // domain 0 is the only one) keeps working unchanged. CatModel and
  // MemoryController are constructed with the GLOBAL core count, so
  // global core ids index any domain's instance directly — no id
  // remapping anywhere in the stack.
  unsigned num_domains() const noexcept { return cfg_.num_llc_domains; }
  std::uint32_t domain_of(CoreId id) const noexcept { return cfg_.domain_of(id); }

  SetAssocCache& llc(unsigned d = 0) { return domains_.at(d)->llc; }
  const SetAssocCache& llc(unsigned d = 0) const { return domains_.at(d)->llc; }

  CatModel& cat(unsigned d = 0) { return domains_.at(d)->cat; }
  const CatModel& cat(unsigned d = 0) const { return domains_.at(d)->cat; }

  MemoryController& memory(unsigned d = 0) { return domains_.at(d)->mem; }
  const MemoryController& memory(unsigned d = 0) const { return domains_.at(d)->mem; }

  Pmu& pmu() noexcept { return pmu_; }
  const Pmu& pmu() const noexcept { return pmu_; }

  Cycle now() const noexcept { return global_cycle_; }

  /// Attach the program each core runs.
  void set_op_source(CoreId id, std::shared_ptr<OpSource> source);

  // ---- Service-mode core hotplug ----
  //
  // attach_core/detach_core reconfigure one core between runs of the
  // interleaved driver (never mid-run). Both flush the core's private
  // caches + prefetcher state and drop its LLC footprint, so a tenant
  // always starts cold and deterministically — nothing of the previous
  // occupant's microarchitectural state leaks across the hotplug
  // boundary. PMU counters are deliberately NOT reset: the EpochDriver
  // requires monotone counters, and per-tenant accounting is done with
  // attach-time snapshots one level up.

  /// Install a tenant on `id`. Returns the number of LLC lines the
  /// previous occupant left behind (now invalidated).
  std::size_t attach_core(CoreId id, std::shared_ptr<OpSource> source);

  /// Remove the tenant from `id`; the core runs the idle loop
  /// (MachineConfig::idle_cpi) until the next attach_core.
  std::size_t detach_core(CoreId id);

  // ---- Live tenant migration (hierarchical fleet coordinator) ----
  //
  // A migration moves a *stream*, not a core: the tenant's op source
  // and its in-flight consumption state (OpStreamState: buffered ops,
  // batch traits, sub-cycle phase) are transplanted onto the
  // destination core, which starts microarchitecturally cold in its
  // own domain — exactly like a hotplug attach, except the program
  // continues where it left off instead of restarting. As with
  // attach/detach, PMU counters are NOT reset (EpochDriver requires
  // monotone counters); per-tenant accounting uses snapshots one level
  // up. Only ever called between runs of the interleaved driver.

  /// Snapshot the stream running on `id` (tenant or idle loop) without
  /// disturbing it.
  OpStreamState export_tenant(CoreId id) const;

  /// Install a previously exported stream on `id`: cold-start the
  /// core's microarchitectural state (reset + LLC footprint reclaim,
  /// like attach_core), then continue the stream at its exported
  /// position. Returns the number of LLC lines invalidated.
  std::size_t attach_core_stream(CoreId id, OpStreamState state);

  /// True when `id` currently runs the hotplug idle loop.
  bool core_idle(CoreId id) const { return idle_.at(id); }
  unsigned num_idle_cores() const noexcept;

  /// Advance all cores by `cycles` in interleaved quanta.
  void run(Cycle cycles);

  /// Flush all caches and prefetcher state; keeps PMU/CAT/MSR settings.
  void reset_microarch();

 private:
  /// One LLC/bandwidth domain: a private LLC + CAT + memory controller
  /// shared only by the domain's core block.
  struct LlcDomain {
    LlcDomain(const MachineConfig& cfg)
        : llc(cfg.llc), cat(cfg.num_cores, cfg.llc.ways), mem(cfg, cfg.num_cores) {}
    SetAssocCache llc;
    CatModel cat;
    MemoryController mem;
  };

  MachineConfig cfg_;
  std::vector<std::unique_ptr<LlcDomain>> domains_;
  Pmu pmu_;  // global: per-core slots indexed by global core id
  std::vector<std::unique_ptr<CoreModel>> cores_;
  std::vector<bool> idle_;  // core runs the hotplug idle loop
  Cycle global_cycle_ = 0;
};

}  // namespace cmm::sim
