#include "sim/core_model.hpp"

#include <cassert>

#include "sim/prefetcher_registry.hpp"

namespace cmm::sim {

CoreModel::CoreModel(CoreId id, const MachineConfig& cfg, SetAssocCache& llc, const CatModel& cat,
                     MemoryController& mem, Pmu& pmu)
    : id_(id),
      cfg_(cfg),
      line_shift_(std::countr_zero(static_cast<std::uint64_t>(cfg.l1d.line_size))),
      l1_(cfg.l1d),
      l2_(cfg.l2),
      llc_(llc),
      cat_(cat),
      mem_(mem),
      pmu_(pmu) {
  for (const PrefetcherKind kind : cfg.prefetchers_for(id)) {
    engines_.push_back(make_prefetcher(kind));
    Prefetcher* p = engines_.back().get();
    const bool at_l1 = level_of(kind) == PrefetchLevel::L1;
    (at_l1 ? l1_engines_ : l2_engines_).push_back({p, kind});
    if (!at_l1 && p->observes_prefetch_traffic()) l2_pf_traffic_engines_.push_back({p, kind});
    if (p->wants_cache_fill()) (at_l1 ? l1_fill_observers_ : l2_fill_observers_).push_back(p);
    if (kind == PrefetcherKind::L2Streamer) streamer_ = static_cast<StreamerPrefetcher*>(p);
  }
}

void CoreModel::set_op_source(std::shared_ptr<OpSource> source) {
  source_ = std::move(source);
  batch_pos_ = batch_len_ = 0;  // drop ops buffered from the old source
}

OpStreamState CoreModel::export_stream() const {
  return OpStreamState{source_, op_batch_, batch_pos_, batch_len_, batch_traits_, now_frac_};
}

void CoreModel::import_stream(OpStreamState state) {
  source_ = std::move(state.source);
  op_batch_ = state.batch;
  batch_pos_ = state.pos;
  batch_len_ = state.len;
  batch_traits_ = state.traits;
  now_frac_ = state.frac;
}

void CoreModel::reset_microarch() {
  l1_.flush();
  l2_.flush();
  for (auto& p : engines_) p->reset();
}

void CoreModel::advance_to(Cycle target) {
  assert(source_ != nullptr && "core has no op source");
  PmuCounters& ctr = pmu_.core(id_);

  while (now_ < target) {
    if (batch_pos_ == batch_len_) {
      batch_len_ = source_->next_batch(std::span<Op>(op_batch_));
      batch_pos_ = 0;
      if (batch_len_ == 0) {  // defensive: contract requires >= 1
        op_batch_[0] = source_->next();
        batch_len_ = 1;
      }
      batch_traits_ = source_->traits();
    }
    // Traits are constant across the batch (next_batch contract), so
    // the per-op virtual traits() call of the old loop is hoisted here.
    const double base_cpi = batch_traits_.base_cpi;
    const double mlp = batch_traits_.mlp;

    while (now_ < target && batch_pos_ < batch_len_) {
      const Op& op = op_batch_[batch_pos_++];

      double cost = static_cast<double>(op.instructions) * base_cpi;
      if (op.has_mem) cost += demand_access(op.mem, mlp);

      ctr.instructions += op.instructions;

      now_frac_ += cost;
      const auto whole = static_cast<Cycle>(now_frac_);
      now_frac_ -= static_cast<double>(whole);
      now_ += (whole > 0 ? whole : 1);  // every op advances time
    }
  }
  ctr.cycles = now_;
}

double CoreModel::demand_access(const MemRef& ref, double mlp) {
  const Addr line = ref.addr >> line_shift_;
  const AccessType type = ref.is_store ? AccessType::DemandStore : AccessType::DemandLoad;
  PmuCounters& ctr = pmu_.core(id_);

  l1_cands_.clear();
  l2_cands_.clear();

  // ---- L1 ----
  const LookupResult l1r = l1_.access(line, type, now_);
  const PrefetchObservation l1_obs{line, ref.ip, !l1r.hit};
  for (const Engine& e : l1_engines_) {
    if (msr_.enabled(e.kind)) e.engine->observe(l1_obs, l1_cands_);
  }

  // `extra` accumulates latency beyond the (pipelined) L1 hit latency:
  // the level-to-level path cost plus any in-flight prefetch residual.
  // A demand waiter absorbs a line's in-flight latency exactly once
  // (SetAssocCache::access resets ready_at on demand hits), and demand
  // fills are installed resident, because the penalty charged here
  // advances this core's clock past the wait.
  double extra = 0.0;
  // Portion of `extra` spent waiting on an outstanding sub-L2 fill —
  // what CYCLE_ACTIVITY.STALLS_L2_PENDING counts: it includes demand
  // hits that wait on in-flight (prefetch) misses, not only demand
  // misses themselves.
  double l2_pending = 0.0;

  if (l1r.hit) {
    extra = residual(l1r.ready_at, static_cast<double>(now_ + cfg_.l1_latency));
    l2_pending = extra;
  } else {
    // ---- L2 (demand) ----
    ++ctr.l2_dm_req;
    const LookupResult l2r = l2_.access(line, type, now_);
    const PrefetchObservation l2_obs{line, ref.ip, !l2r.hit};
    for (const Engine& e : l2_engines_) {
      if (msr_.enabled(e.kind)) e.engine->observe(l2_obs, l2_cands_);
    }

    if (l2r.hit) {
      const double wait = residual(l2r.ready_at, static_cast<double>(now_ + cfg_.l2_latency));
      extra = static_cast<double>(cfg_.l2_latency - cfg_.l1_latency) + wait;
      l2_pending = wait;
      l1_.install(line, type, now_, ~WayMask{0});
      notify_fill(l1_fill_observers_, line, false);
    } else {
      ++ctr.l2_dm_miss;

      // ---- LLC (demand) ----
      const LookupResult l3r = llc_.access(line, type, now_);
      if (l3r.hit) {
        extra = static_cast<double>(cfg_.llc_latency - cfg_.l1_latency) +
                residual(l3r.ready_at, static_cast<double>(now_ + cfg_.llc_latency));
        l2_pending = extra;
      } else {
        if (!ref.is_store) ++ctr.l3_load_miss;
        const Cycle dram = mem_.request(id_, type, now_);
        ctr.dram_demand_bytes += cfg_.llc.line_size;
        extra = static_cast<double>(cfg_.llc_latency + dram - cfg_.l1_latency);
        l2_pending = extra;
        fill_llc(line, type, now_);
      }
      l2_.install(line, type, now_, ~WayMask{0});
      l1_.install(line, type, now_, ~WayMask{0});
      notify_fill(l2_fill_observers_, line, false);
      notify_fill(l1_fill_observers_, line, false);
    }
  }

  // Prefetch issue is asynchronous: no cost added to the demand path.
  for (const Addr cand : l1_cands_) issue_l1_prefetch(cand);
  for (const Addr cand : l2_cands_) issue_l2_prefetch(cand);

  // De-rate by the workload's memory-level parallelism. (Kept as a
  // division — not a cached reciprocal — so results stay bit-identical
  // with the pre-batching model.)
  const double penalty = extra / mlp;
  ctr.stalls_l2_pending += static_cast<std::uint64_t>(l2_pending / mlp);
  return penalty;
}

void CoreModel::fill_llc(Addr line, AccessType type, Cycle ready_at) {
  const FillResult r = llc_.install(line, type, ready_at, cat_.core_mask(id_), id_);
  if (!r.evicted_valid) return;
  if (cfg_.model_writebacks && r.evicted_dirty) {
    const CoreId payer = r.evicted_owner != kInvalidCore ? r.evicted_owner : id_;
    mem_.writeback(payer, now_);
    if (payer < pmu_.num_cores()) pmu_.core(payer).dram_writeback_bytes += cfg_.llc.line_size;
  }
  if (cfg_.inclusive_llc && eviction_listener_ && r.evicted_owner != kInvalidCore) {
    eviction_listener_(r.evicted_line, r.evicted_owner);
  }
}

void CoreModel::issue_l1_prefetch(Addr line) {
  if (l1_.contains(line)) return;

  // L1 prefetch requests travel to L2. They are *not* counted in the
  // L2-prefetcher PMU events (those count only streamer/adjacent, per
  // the paper's event definitions), but — as the paper's background
  // section describes — "requests arriving at L2 will trigger L2's
  // prefetchers", so they train the streamer/adjacent prefetchers.
  const LookupResult l2r = l2_.access(line, AccessType::Prefetch, now_);
  // Only engines reporting observes_prefetch_traffic() (the streamer)
  // train on prefetch-triggered requests; letting e.g. the adjacent
  // prefetcher chain off them would cascade prefetch-on-prefetch
  // indefinitely.
  const PrefetchObservation l2_obs{line, 0, !l2r.hit};
  l2_cands_from_l1_.clear();
  for (const Engine& e : l2_pf_traffic_engines_) {
    if (msr_.enabled(e.kind)) e.engine->observe(l2_obs, l2_cands_from_l1_);
  }
  for (const Addr cand : l2_cands_from_l1_) issue_l2_prefetch(cand);
  Cycle ready;
  if (l2r.hit) {
    ready = std::max(now_ + cfg_.l2_latency, l2r.ready_at);
  } else {
    const LookupResult l3r = llc_.access(line, AccessType::Prefetch, now_);
    if (l3r.hit) {
      ready = std::max(now_ + cfg_.llc_latency, l3r.ready_at);
    } else {
      const Cycle dram = mem_.request(id_, AccessType::Prefetch, now_);
      pmu_.core(id_).dram_prefetch_bytes += cfg_.llc.line_size;
      ready = cfg_.instant_prefetch_fills ? now_ : now_ + cfg_.llc_latency + dram;
      fill_llc(line, AccessType::Prefetch, ready);
    }
    // Probing fill: a streamer reaction above may have prefetched this
    // very line into L2 since the miss.
    l2_.fill(line, AccessType::Prefetch, now_, ready, ~WayMask{0});
    notify_fill(l2_fill_observers_, line, true);
  }
  l1_.install(line, AccessType::Prefetch, ready, ~WayMask{0});
  notify_fill(l1_fill_observers_, line, true);
}

void CoreModel::issue_l2_prefetch(Addr line) {
  PmuCounters& ctr = pmu_.core(id_);
  ++ctr.l2_pref_req;

  const LookupResult l2r = l2_.access(line, AccessType::Prefetch, now_);
  if (l2r.hit) return;  // prefetch filtered at L2

  ++ctr.l2_pref_miss;
  const LookupResult l3r = llc_.access(line, AccessType::Prefetch, now_);
  Cycle ready;
  if (l3r.hit) {
    ready = std::max(now_ + cfg_.llc_latency, l3r.ready_at);
  } else {
    const Cycle dram = mem_.request(id_, AccessType::Prefetch, now_);
    ctr.dram_prefetch_bytes += cfg_.llc.line_size;
    ready = cfg_.instant_prefetch_fills ? now_ : now_ + cfg_.llc_latency + dram;
    fill_llc(line, AccessType::Prefetch, ready);
  }
  l2_.install(line, AccessType::Prefetch, ready, ~WayMask{0});
  notify_fill(l2_fill_observers_, line, true);
}

}  // namespace cmm::sim
