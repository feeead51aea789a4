// In-memory span recorder for the traced benchmark run.
//
// A span is one call across a layer boundary: its layer, a static name,
// start and end on the steady clock, and the span that caused it. Spans
// nest per thread (a thread-local stack of open spans gives the
// parent); a span opened on a thread with no open span takes an
// explicit parent instead, which is how a batch job running on a pool
// worker hangs under the batch span of the thread that submitted it.
//
// Op generation is too fine-grained for one span per call, so it is
// accumulated per job and recorded once as a duration-only span.
//
// Finished spans go to a thread-local buffer that is handed to the
// recorder whenever the thread's outermost span closes, so recording
// costs two clock reads and a vector append; the lock is taken once per
// outermost span. Spans are only written out after the run.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

namespace perfbench {

/// Layers of the system, named after its modules.
enum class Layer : std::uint8_t { Workloads, Sim, Core, Hw, Obs, Analysis, Service };
inline constexpr std::size_t kNumLayers = 7;
const char* layer_name(Layer layer) noexcept;

/// Monotonic nanoseconds (steady clock).
std::int64_t now_ns() noexcept;

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: a root span
  Layer layer = Layer::Analysis;
  std::string_view name;  // static storage
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Duration-only span (accumulated work spread over its parent's
  /// interval); start_ns is 0 and end_ns holds the duration.
  bool accumulated = false;

  std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// Self time of every span, index-aligned with `spans`: the span's
/// duration minus the part of its interval covered by the union of its
/// interval children, minus its accumulated children's durations
/// (which are disjoint from the interval children by construction),
/// floored at zero. Children may overlap one another (parallel jobs
/// under one batch span); overlapping time is subtracted once.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  SpanRecorder() = default;
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// RAII span. `fallback_parent` is used only when the calling thread
  /// has no open span.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, Layer layer, std::string_view name,
          std::uint64_t fallback_parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::uint64_t id() const noexcept { return span_.id; }

   private:
    SpanRecorder& recorder_;
    Span span_;
  };

  /// Record a duration-only span under `parent`.
  void add_accumulated(Layer layer, std::string_view name, std::uint64_t parent,
                       std::int64_t duration_ns);

  /// Every finished span so far, in completion order per thread. Call
  /// only when no span is open.
  std::vector<Span> take();

 private:
  void finish(const Span& span, bool outermost);

  std::atomic<std::uint64_t> next_id_{1};
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench
