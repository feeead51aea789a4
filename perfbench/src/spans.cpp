#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

struct ThreadSpans {
  std::vector<std::uint64_t> open;  // ids of open spans, innermost last
  std::vector<Span> done;           // finished, not yet handed over
};

thread_local ThreadSpans t_spans;

}  // namespace

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::Workloads: return "workloads";
    case Layer::Sim: return "sim";
    case Layer::Core: return "core";
    case Layer::Hw: return "hw";
    case Layer::Obs: return "obs";
    case Layer::Analysis: return "analysis";
    case Layer::Service: return "service";
  }
  return "?";
}

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == 0) continue;
    const auto it = index.find(spans[i].parent);
    if (it != index.end()) children[it->second].push_back(i);
  }

  std::vector<std::int64_t> self(spans.size(), 0);
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::int64_t covered = 0;
    intervals.clear();
    for (const std::size_t c : children[i]) {
      const Span& k = spans[c];
      if (k.accumulated) {
        covered += k.duration_ns();
        continue;
      }
      const std::int64_t lo = std::max(k.start_ns, s.start_ns);
      const std::int64_t hi = std::min(k.end_ns, s.end_ns);
      if (hi > lo) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t run_lo = 0;
    std::int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = std::max<std::int64_t>(0, s.duration_ns() - covered);
  }
  return self;
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, Layer layer, std::string_view name,
                           std::uint64_t fallback_parent)
    : recorder_(recorder) {
  span_.id = recorder_.next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.parent = t_spans.open.empty() ? fallback_parent : t_spans.open.back();
  span_.layer = layer;
  span_.name = name;
  t_spans.open.push_back(span_.id);
  span_.start_ns = now_ns();
}

SpanRecorder::Scope::~Scope() {
  span_.end_ns = now_ns();
  t_spans.open.pop_back();
  recorder_.finish(span_, t_spans.open.empty());
}

void SpanRecorder::add_accumulated(Layer layer, std::string_view name, std::uint64_t parent,
                                   std::int64_t duration_ns) {
  Span span;
  span.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent;
  span.layer = layer;
  span.name = name;
  span.end_ns = duration_ns;
  span.accumulated = true;
  finish(span, t_spans.open.empty());
}

void SpanRecorder::finish(const Span& span, bool outermost) {
  t_spans.done.push_back(span);
  if (!outermost) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), t_spans.done.begin(), t_spans.done.end());
  t_spans.done.clear();
}

std::vector<Span> SpanRecorder::take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(spans_, {});
}

}  // namespace perfbench
