#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/parse.hpp"

namespace cmm {

unsigned resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("CMM_THREADS"); env != nullptr && *env != '\0') {
    const auto parsed = parse_number<unsigned>(env);
    if (!parsed) {
      throw std::invalid_argument("CMM_THREADS=\"" + std::string(env) +
                                  "\" is not an unsigned decimal integer");
    }
    if (*parsed > 0) return *parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) workers_.emplace_back([this] { worker(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> wrapped(std::move(task));
  auto future = wrapped.get_future();
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(wrapped));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop requested and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // packaged_task stores exceptions in the future
  }
}

void parallel_for(std::size_t n, unsigned threads, const std::function<void(std::size_t)>& job) {
  const std::size_t workers = std::min<std::size_t>(threads == 0 ? 1 : threads, n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) job(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;

  const auto drain = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        job(i);
      } catch (...) {
        {
          std::lock_guard lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        next.store(n, std::memory_order_relaxed);  // abort remaining indices
        return;
      }
    }
  };

  {
    ThreadPool pool(static_cast<unsigned>(workers));
    std::vector<std::future<void>> done;
    done.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) done.push_back(pool.submit(drain));
    for (auto& f : done) f.get();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace cmm
