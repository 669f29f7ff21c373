// The repo's single thread-spawn point.
//
// `tools/qarch_lint.py` forbids `std::thread` outside src/parallel/ so every
// thread in the system is created through one audited surface: this wrapper,
// which ThreadPool's workers and the helpers of parallel_for's per-thread
// inner team are built on (the daemon's acceptor and IO threads and the
// dataset search's client threads use it directly). Thread is deliberately
// narrower than std::thread:
//
//   * no detach() — every qarch thread has an owner that joins it, so
//     shutdown is deterministic and sanitizer reports carry full stacks;
//   * join-on-destroy — destroying a still-running Thread joins instead of
//     calling std::terminate, making early-return error paths safe.
#pragma once

#include <thread>
#include <utility>

namespace qarch {
namespace parallel {

class Thread {
 public:
  Thread() = default;
  template <typename Fn, typename... Args>
  explicit Thread(Fn&& fn, Args&&... args)
      : t_(std::forward<Fn>(fn), std::forward<Args>(args)...) {}
  Thread(Thread&&) = default;
  Thread& operator=(Thread&& other) {
    if (this != &other) {
      if (t_.joinable()) t_.join();
      t_ = std::move(other.t_);
    }
    return *this;
  }
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;
  ~Thread() {
    if (t_.joinable()) t_.join();
  }

  bool joinable() const { return t_.joinable(); }
  void join() { t_.join(); }

 private:
  std::thread t_;
};

}  // namespace parallel
}  // namespace qarch
