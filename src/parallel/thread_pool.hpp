// Fixed-size thread pool.
//
// The outer level of the paper's two-level scheme: search::EvalService runs
// its candidate evaluations on one of these, standing in for Python's
// `multiprocessing.Pool`. N workers pull independent tasks from a shared
// FIFO queue. The worker count is an explicit constructor argument because
// the Fig. 5 experiment sweeps it past the physical core count.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <vector>

#include "common/annotations.hpp"
#include "parallel/thread.hpp"

namespace qarch::parallel {

/// A fixed pool of worker threads that runs tasks in submission order.
class ThreadPool {
 public:
  /// Spawns `workers` threads (defaults to hardware concurrency, min 1).
  explicit ThreadPool(std::size_t workers = 0);

  /// Joins all workers; pending tasks are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const { return threads_.size(); }

  /// Submits a callable; returns a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      LockGuard lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

  /// Blocks until the queue is empty and all in-flight tasks finished.
  void wait_idle() QARCH_EXCLUDES(mutex_);

 private:
  void worker_loop() QARCH_EXCLUDES(mutex_);

  std::vector<Thread> threads_;
  Mutex mutex_{70, "pool.queue"};
  std::deque<std::function<void()>> queue_ QARCH_GUARDED_BY(mutex_);
  CondVar cv_;
  CondVar idle_cv_;
  std::size_t active_ QARCH_GUARDED_BY(mutex_) = 0;
  bool stop_ QARCH_GUARDED_BY(mutex_) = false;
};

}  // namespace qarch::parallel
