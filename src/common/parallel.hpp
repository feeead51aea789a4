// Minimal threaded executor for embarrassingly-parallel experiment
// batches. Each job must own all of its mutable state (system, policy,
// RNG stream); the pool only distributes indices, so results are
// bit-identical to the serial path at any thread count.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace cmm {

/// Worker count to use: `requested` if nonzero, else the CMM_THREADS
/// environment variable, else std::thread::hardware_concurrency()
/// (minimum 1). CMM_THREADS=0 also means hardware_concurrency(); a
/// value that is not an unsigned decimal integer throws
/// std::invalid_argument naming the variable.
unsigned resolve_threads(unsigned requested = 0);

/// Fixed-size pool of workers draining a shared FIFO task queue.
class ThreadPool {
 public:
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Enqueue a task; the future reports completion and rethrows the
  /// task's exception, if any.
  std::future<void> submit(std::function<void()> task);

 private:
  void worker();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// Run job(0..n-1), each index exactly once, on up to `threads` workers
/// pulling indices from a shared counter. threads <= 1 (or n <= 1)
/// executes inline in index order — the serial reference path. The
/// first job exception aborts the remaining indices and is rethrown
/// after all workers have drained.
void parallel_for(std::size_t n, unsigned threads, const std::function<void(std::size_t)>& job);

}  // namespace cmm
