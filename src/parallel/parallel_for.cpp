// parallel_for and the persistent inner team it forks onto (see
// parallel_for.hpp for the contract).
#include "parallel/parallel_for.hpp"

#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>

#include "common/annotations.hpp"
#include "parallel/thread.hpp"

namespace qarch::parallel {
namespace {

/// Bumped in every fork()ed child. A team built in an earlier epoch belongs
/// to the parent process, whose helper threads the child did not inherit.
std::atomic<unsigned> g_fork_epoch{0};

/// True while this thread runs chunks of a fork: a parallel_for it issues
/// then runs inline.
thread_local bool t_in_fork_body = false;

/// One fork. It lives on the caller's stack; a helper touches it only while
/// the team counts that helper active.
struct Job {
  Job(const std::function<void(std::size_t)>& fn, std::size_t begin,
      std::size_t stop, std::size_t step)
      : body(fn), end(stop), chunk(step), next(begin) {}

  const std::function<void(std::size_t)>& body;
  const std::size_t end;
  const std::size_t chunk;
  std::atomic<std::size_t> next;
  // Leaf-tier lock (see lock_order.hpp): bodies may hold cache/scratch
  // locks when they throw, but those are released by unwinding before the
  // catch block runs.
  Mutex error_mutex{85, "parallel.errors"};
  std::exception_ptr first_error QARCH_GUARDED_BY(error_mutex);

  /// Takes chunks until none is left or a chunk this thread runs throws.
  void run() {
    t_in_fork_body = true;
    for (;;) {
      const std::size_t lo = next.fetch_add(chunk);
      if (lo >= end) break;
      const std::size_t hi = std::min(end, lo + chunk);
      try {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      } catch (...) {
        LockGuard lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        break;
      }
    }
    t_in_fork_body = false;
  }
};

/// The helper threads one owner thread forks onto. Helpers park on `wake_`
/// between forks; a fork publishes its Job and a number of open slots, and
/// each woken helper takes one slot and runs chunks beside the caller. Once
/// the caller's own share finds no chunk left it closes the job, so a helper
/// that wakes late finds nothing and parks again, and the caller waits only
/// for helpers that joined.
class InnerTeam {
 public:
  InnerTeam() = default;
  InnerTeam(const InnerTeam&) = delete;
  InnerTeam& operator=(const InnerTeam&) = delete;

  ~InnerTeam() {
    {
      LockGuard lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (Thread& h : helpers_) h.join();
  }

  /// The calling thread's team: built on first use, rebuilt in a forked
  /// child.
  static InnerTeam& of_this_thread() {
#if QARCH_LOCK_ORDER_CHECK
    // The team's destructor takes its ranked mutex at thread exit, so the
    // checker's per-thread state must be built before the team (thread-local
    // objects are destroyed in reverse order of construction).
    (void)lock_order::held_count();
#endif
    thread_local std::unique_ptr<InnerTeam> team;
    if (team && team->epoch_ != g_fork_epoch.load(std::memory_order_relaxed)) {
      // A forked child: the parent's helpers are not in this process, so the
      // team can be neither used nor joined. Keep it reachable, never freed.
      static auto* abandoned = new std::vector<InnerTeam*>();
      abandoned->push_back(team.release());
    }
    if (!team) {
      static const int registered = pthread_atfork(
          nullptr, nullptr,
          [] { g_fork_epoch.fetch_add(1, std::memory_order_relaxed); });
      (void)registered;
      team = std::make_unique<InnerTeam>();
    }
    return *team;
  }

  /// Runs `job` on the caller and up to `helpers` helpers. Returns once no
  /// helper can touch the job again.
  void run(Job& job, std::size_t helpers) {
    while (helpers_.size() < helpers)
      helpers_.emplace_back([this] { helper_loop(); });
    {
      UniqueLock lock(mutex_);
      // New helpers must be running before this call returns: one still
      // starting could hold a lock of the thread runtime (a sanitizer's
      // thread registry) across a fork() and leave the child unable to
      // start threads.
      while (started_ != helpers_.size()) idle_.wait(lock);
      job_ = &job;
      ++generation_;
      open_slots_ = helpers;
    }
    for (std::size_t h = 0; h < helpers; ++h) wake_.notify_one();
    job.run();
    UniqueLock lock(mutex_);
    job_ = nullptr;
    while (active_ != 0) idle_.wait(lock);
  }

 private:
  void helper_loop() {
    std::uint64_t seen = 0;
    UniqueLock lock(mutex_);
    ++started_;
    idle_.notify_one();
    for (;;) {
      while (!stop_ &&
             (job_ == nullptr || open_slots_ == 0 || generation_ == seen))
        wake_.wait(lock);
      if (stop_) return;
      seen = generation_;
      --open_slots_;
      ++active_;
      Job* job = job_;
      lock.unlock();
      job->run();
      lock.lock();
      if (--active_ == 0 && job_ == nullptr) idle_.notify_one();
    }
  }

  // Above every lock a caller may hold when it forks (lock_order.hpp).
  Mutex mutex_{87, "parallel.team"};
  CondVar wake_;  // helpers: a job was published, or stop_
  CondVar idle_;  // the owner: new helpers started, or the last active
                  // helper left a closed job
  Job* job_ QARCH_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t generation_ QARCH_GUARDED_BY(mutex_) = 0;
  std::size_t open_slots_ QARCH_GUARDED_BY(mutex_) = 0;
  std::size_t active_ QARCH_GUARDED_BY(mutex_) = 0;
  std::size_t started_ QARCH_GUARDED_BY(mutex_) = 0;
  bool stop_ QARCH_GUARDED_BY(mutex_) = false;
  const unsigned epoch_ = g_fork_epoch.load(std::memory_order_relaxed);
  std::vector<Thread> helpers_;  // touched by the owner thread only
};

}  // namespace

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t workers, std::size_t chunk) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (workers == 0)
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  if (chunk == 0) chunk = 1;
  workers = std::min(workers, (n + chunk - 1) / chunk);

  if (workers <= 1 || t_in_fork_body) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  Job job(body, begin, end, chunk);
  InnerTeam::of_this_thread().run(job, workers - 1);
  std::exception_ptr error;
  {
    LockGuard lock(job.error_mutex);
    error = job.first_error;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace qarch::parallel
