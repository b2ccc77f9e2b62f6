#pragma once
// Fixed-size fork/join pool for the ship simulation.
//
// The paper's deployment runs one embedded processor per Data Concentrator;
// the simulator maps each DC's duty cycle onto pool workers. parallel_for()
// is the only entry point: it forks one contiguous block of indices per
// worker and joins before returning (OpenMP-style fork/join from the guides,
// built on std::jthread).
//
// A one-worker pool is the calling thread. It spawns nothing and runs every
// index inline, so a hull stepped by a driver that already waits on it pays
// for no idle thread, no per-thread DSP arena and no malloc arena.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mpros {

class ThreadPool {
 public:
  /// `threads` workers (0 = hardware concurrency, at least 1). One worker
  /// is the caller; more than one spawns that many threads and the caller
  /// waits on them.
  explicit ThreadPool(std::size_t threads = 0);

  /// Stops and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Run fn(i) for i in [0, n), then barrier. Worker w runs the w-th of
  /// min(n, workers) contiguous blocks; the first n % blocks blocks take one
  /// extra index. `fn` must not throw on a worker thread. Call from one
  /// thread at a time.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop(std::size_t worker);

  std::mutex mu_;
  std::condition_variable work_cv_;  // a new fork, or stop
  std::condition_variable done_cv_;  // the last block of a fork finished
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::size_t blocks_ = 0;
  std::size_t pending_ = 0;  // blocks of the current fork still running
  std::uint64_t fork_ = 0;   // bumped once per parallel_for
  bool stop_ = false;
  std::vector<std::jthread> workers_;  // empty for a one-worker pool
};

}  // namespace mpros
