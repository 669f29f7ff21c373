#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <thread>

namespace qarch::parallel {

ThreadPool::ThreadPool(std::size_t workers) {
  if (workers == 0)
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  threads_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::wait_idle() {
  UniqueLock lock(mutex_);
  while (!queue_.empty() || active_ != 0) idle_cv_.wait(lock);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      UniqueLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_.wait(lock);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      LockGuard lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace qarch::parallel
