// Runtime lock-order checker (debug/sanitizer builds only).
//
// Every `qarch::Mutex` constructed with a (rank, name) pair participates in
// two checks on each acquisition, abseil DeadlockCheck-style:
//
//   1. **Rank check** — a thread may only acquire a mutex whose rank is
//      >= the highest rank it already holds. Acquiring downward through the
//      hierarchy aborts immediately with both lock names and the full held
//      stack, even if this particular interleaving would not have
//      deadlocked.
//   2. **Acquired-order graph** — every (held → acquired) name pair is
//      recorded in a global digraph; an edge that closes a cycle (i.e. the
//      opposite order was observed earlier, possibly on another thread or
//      through a chain of intermediates) aborts with both lock names and
//      the previously established path. This catches inversions between
//      equal-rank mutexes and across translation units that the static
//      `-Wthread-safety` pass cannot see.
//
// The checker is compiled out entirely in release builds (`NDEBUG`):
// `qarch::Mutex` is then layout-identical to `std::mutex` and `lock()` is a
// plain forwarding call — zero overhead, enforced by a static_assert in
// annotations.hpp. Define `QARCH_LOCK_ORDER_CHECK=1` explicitly to force it
// on in an optimized build.
//
// ## The lock hierarchy
//
// Ranks ascend from the outermost tier (acquired first) to the innermost
// leaves. A thread holding a lock may only acquire strictly deeper (or
// independent equal-rank) locks. Current tiers:
//
//   rank  name                 mutex
//   ----  -------------------  ------------------------------------------
//    10   server.wire          QarchServer::Impl::mutex (tenants, tickets,
//                              counters; held across EvalService calls)
//    12   server.connqueue     QarchServer::Impl::conn_mutex (accepted
//                              socket handoff to the IO threads)
//    20   service.io           ServiceState::io_mutex (checkpoint/cache
//                              file writes; taken BEFORE service.state)
//    30   service.state        ServiceState::mutex (guards the one
//                              search::Scheduler — queues, rotation,
//                              retries — plus stats, result cache index,
//                              checkpoints)
//    40   service.job          detail::EvalJob::mutex (per-job status /
//                              result / waiters; taken under service.state
//                              only where a worker ends a slice and by
//                              submit's done-cache path, never the other
//                              way round; the server tier polls tickets
//                              under server.wire)
//    50   cache.energyplans    EnergyEvaluator::PlanCache::mutex (the
//                              per-evaluator compiled-plan LRU)
//    52   cache.orders         qtensor::PlanCache::mutex_ (persistent
//                              elimination-order cache; taken under
//                              service.io during persistence)
//    55   cache.phasetables    sim::PhaseTableCache::mutex_ (a graph's
//                              shared statevector phase tables; taken
//                              only while a SimProgram compiles, a leaf)
//    60   cache.scratch        qtensor::ContractionProgram scratch pools
//                              (pool_mutex_; energies and queries alike)
//    70   pool.queue           parallel::ThreadPool::mutex_ (task queue;
//                              acquired under server.wire via submit())
//    80   fault.injector       search::FaultInjector::mutex_
//    85   parallel.errors      parallel_for / dataset error collection
//    87   parallel.team        parallel_for's per-thread InnerTeam (job
//                              hand-out and helper parking; taken by a
//                              forking caller above any lock it holds,
//                              never while a body runs)
//    90   log.write            common/log.cpp g_write_mutex (log lines are
//                              emitted under service.io on persist errors)
//
// **Adding a new mutex:** pick the tier that matches the outermost lock
// that can be held while yours is acquired, give it a rank strictly above
// that tier (leave gaps — they are cheap), register the tier both here and
// in the "Lock hierarchy" sections of src/search/README.md /
// src/server/README.md, and construct it as
// `qarch::Mutex{rank, "tier.name"}`. Unranked (default-constructed)
// mutexes are invisible to the checker; use them only for locals whose
// scope makes ordering trivially correct.
#pragma once

#if !defined(QARCH_LOCK_ORDER_CHECK)
#if !defined(NDEBUG)
#define QARCH_LOCK_ORDER_CHECK 1
#else
#define QARCH_LOCK_ORDER_CHECK 0
#endif
#endif

#if QARCH_LOCK_ORDER_CHECK

namespace qarch {
namespace lock_order {

inline constexpr int kUnranked = -1;

struct HeldEntry {
  const void* mutex = nullptr;
  int rank = kUnranked;
  const char* name = nullptr;
};

// Called immediately BEFORE blocking on the mutex, so an ordering violation
// aborts instead of deadlocking. No-op for unranked mutexes.
void on_acquire(const void* mutex, int rank, const char* name);

// Pops the mutex from this thread's held stack. Returns the popped entry so
// condition-variable waits can re-push it on wakeup ({.rank = kUnranked} if
// the mutex was not tracked).
HeldEntry on_release(const void* mutex);

// Aborts unless the calling thread's held stack contains `mutex`. Backs
// Mutex::assert_held at static-analysis aliasing sites.
void assert_held(const void* mutex, const char* name);

// Number of ranked locks the calling thread currently holds (test hook).
int held_count();

}  // namespace lock_order
}  // namespace qarch

#endif  // QARCH_LOCK_ORDER_CHECK
