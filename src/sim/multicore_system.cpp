#include "sim/multicore_system.hpp"

#include <stdexcept>

namespace cmm::sim {

MulticoreSystem::MulticoreSystem(const MachineConfig& cfg) : cfg_(cfg), pmu_(cfg.num_cores) {
  if (!cfg.valid()) throw std::invalid_argument("MulticoreSystem: invalid MachineConfig");
  domains_.reserve(cfg.num_llc_domains);
  for (std::uint32_t d = 0; d < cfg.num_llc_domains; ++d) {
    domains_.push_back(std::make_unique<LlcDomain>(cfg_));
  }
  cores_.reserve(cfg.num_cores);
  for (CoreId id = 0; id < cfg.num_cores; ++id) {
    LlcDomain& dom = *domains_[cfg_.domain_of(id)];
    cores_.push_back(std::make_unique<CoreModel>(id, cfg_, dom.llc, dom.cat, dom.mem, pmu_));
  }
  idle_.assign(cfg.num_cores, false);
  if (cfg_.inclusive_llc) {
    // Back-invalidation only ever targets a core of the evicting
    // domain: owners are recorded at fill time, and only the domain's
    // own cores fill its LLC.
    for (auto& core : cores_) {
      core->set_eviction_listener([this](Addr line, CoreId owner) {
        if (owner >= cores_.size()) return;
        cores_[owner]->l1().invalidate(line);
        cores_[owner]->l2().invalidate(line);
      });
    }
  }
}

void MulticoreSystem::set_op_source(CoreId id, std::shared_ptr<OpSource> source) {
  cores_.at(id)->set_op_source(std::move(source));
}

std::size_t MulticoreSystem::attach_core(CoreId id, std::shared_ptr<OpSource> source) {
  auto& core = *cores_.at(id);
  // Cold deterministic start: drop whatever the previous occupant (or
  // the idle loop) left in the private caches and prefetcher engines,
  // then reclaim its LLC footprint.
  core.reset_microarch();
  const std::size_t dropped = llc(cfg_.domain_of(id)).invalidate_owner(id);
  core.set_op_source(std::move(source));
  idle_.at(id) = false;
  return dropped;
}

std::size_t MulticoreSystem::detach_core(CoreId id) {
  auto& core = *cores_.at(id);
  core.reset_microarch();
  const std::size_t dropped = llc(cfg_.domain_of(id)).invalidate_owner(id);
  core.set_op_source(std::make_shared<IdleOpSource>(cfg_.idle_cpi));
  idle_.at(id) = true;
  return dropped;
}

OpStreamState MulticoreSystem::export_tenant(CoreId id) const {
  return cores_.at(id)->export_stream();
}

std::size_t MulticoreSystem::attach_core_stream(CoreId id, OpStreamState state) {
  auto& core = *cores_.at(id);
  core.reset_microarch();
  const std::size_t dropped = llc(cfg_.domain_of(id)).invalidate_owner(id);
  core.import_stream(std::move(state));
  idle_.at(id) = false;
  return dropped;
}

unsigned MulticoreSystem::num_idle_cores() const noexcept {
  unsigned n = 0;
  for (const bool b : idle_) n += b ? 1u : 0u;
  return n;
}

void MulticoreSystem::run(Cycle cycles) {
  const Cycle target = global_cycle_ + cycles;
  while (global_cycle_ < target) {
    const Cycle step = std::min(cfg_.quantum, target - global_cycle_);
    const Cycle quantum_end = global_cycle_ + step;
    for (auto& core : cores_) core->advance_to(quantum_end);
    global_cycle_ = quantum_end;
  }
}

void MulticoreSystem::reset_microarch() {
  for (auto& dom : domains_) dom->llc.flush();
  for (auto& core : cores_) core->reset_microarch();
}

}  // namespace cmm::sim
