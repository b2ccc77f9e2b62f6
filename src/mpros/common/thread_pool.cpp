#include "mpros/common/thread_pool.hpp"

#include <algorithm>

#include "mpros/common/assert.hpp"

namespace mpros {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  if (threads == 1) return;  // the caller is the one worker
  workers_.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  workers_.clear();  // join before the condvars go away
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::unique_lock lock(mu_);
  MPROS_EXPECTS(pending_ == 0);  // not reentrant
  // fn is read by reference: the wait below outlives every block.
  fn_ = &fn;
  n_ = n;
  blocks_ = std::min(n, workers_.size());
  pending_ = blocks_;
  ++fork_;
  work_cv_.notify_all();
  done_cv_.wait(lock, [&] { return pending_ == 0; });
  fn_ = nullptr;
}

void ThreadPool::worker_loop(std::size_t worker) {
  std::uint64_t seen = 0;
  std::unique_lock lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || fork_ != seen; });
    if (stop_) return;
    seen = fork_;
    if (worker >= blocks_) continue;  // fewer indices than workers
    const std::function<void(std::size_t)>& fn = *fn_;
    const std::size_t base = n_ / blocks_;
    const std::size_t extra = n_ % blocks_;
    const std::size_t start = worker * base + std::min(worker, extra);
    const std::size_t end = start + base + (worker < extra ? 1 : 0);
    lock.unlock();
    for (std::size_t i = start; i < end; ++i) fn(i);
    lock.lock();
    MPROS_ASSERT(pending_ > 0);
    // Notify under the lock: the caller may return and destroy the pool as
    // soon as it sees zero.
    if (--pending_ == 0) done_cv_.notify_one();
  }
}

}  // namespace mpros
