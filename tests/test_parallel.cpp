// Tests for the parallel runtime: thread pool, parallel_for and the inner
// team it forks onto.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <latch>
#include <new>
#include <numeric>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread.hpp"
#include "parallel/thread_pool.hpp"
#include "qaoa/ansatz.hpp"
#include "sim/sim_program.hpp"

namespace {

// Heap allocations on any thread while armed, counted by the replaced
// global operator new below.
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace qarch;
using namespace qarch::parallel;

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  auto f1 = pool.submit([] { return 41 + 1; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, ExecutesManyTasksExactlyOnce) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 500; ++i)
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw Error("boom"); });
  EXPECT_THROW(f.get(), Error);
}

TEST(ThreadPool, WaitIdleDrainsQueue) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i)
    pool.submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
    });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 20);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::size_t i) { hits[i].fetch_add(1); }, 8);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndSingleRanges) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t) { ++calls; }, 4);
  EXPECT_EQ(calls, 0);
  parallel_for(7, 8, [&](std::size_t i) { EXPECT_EQ(i, 7u); ++calls; }, 4);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, SerialFallbackMatchesParallel) {
  std::vector<double> a(257), b(257);
  parallel_for(0, a.size(), [&](std::size_t i) { a[i] = i * 1.5; }, 1);
  parallel_for(0, b.size(), [&](std::size_t i) { b[i] = i * 1.5; }, 6, 16);
  EXPECT_EQ(a, b);
}

TEST(ParallelFor, RethrowsBodyException) {
  EXPECT_THROW(
      parallel_for(0, 100, [&](std::size_t i) {
        if (i == 37) throw Error("inner");
      }, 4),
      Error);
}

TEST(ParallelMap, PreservesOrder) {
  std::vector<int> in(100);
  std::iota(in.begin(), in.end(), 0);
  const auto out = parallel_map(in, [](int x) { return x * x; }, 8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(ThreadPool, DispatchesInSubmissionOrder) {
  ThreadPool pool(1);
  // Park the single worker so every subsequent submission queues; release
  // only after the whole batch is enqueued.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  auto blocker = pool.submit([opened] { opened.wait(); });

  std::vector<int> order;
  std::mutex order_mutex;
  std::vector<std::future<void>> tasks;
  const auto record = [&](int tag) {
    return [&, tag] {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
    };
  };
  for (const int tag : {3, 1, 4, 1, 5})
    tasks.push_back(pool.submit(record(tag)));

  gate.set_value();
  blocker.get();
  for (auto& t : tasks) t.get();
  EXPECT_EQ(order, (std::vector<int>{3, 1, 4, 1, 5}));
}

TEST(ParallelFor, ActuallyRunsConcurrently) {
  // Each of the four bodies waits until all four have arrived, which only
  // four threads running at once can pass: no sleep and no timing bound.
  std::latch all_arrived(4);
  std::atomic<int> passed{0};
  parallel_for(0, 4, [&](std::size_t) {
    all_arrived.arrive_and_wait();
    passed.fetch_add(1);
  }, 4);
  EXPECT_EQ(passed.load(), 4);
}

// Bumped by the share a helper runs; it lives as long as the helper's thread.
thread_local std::size_t t_helper_shares = 0;

TEST(InnerTeam, HelpersPersistAcrossCalls) {
  // A fresh owner thread, so its team holds exactly the one helper that
  // 2-worker calls ask for. Each call's two bodies meet at a rendezvous, so
  // both threads run one: a thread created per call would count from 0
  // every time.
  std::size_t last = 0;
  Thread owner([&] {
    const auto caller = std::this_thread::get_id();
    std::atomic<std::size_t> seen{0};
    for (int call = 0; call < 1000; ++call) {
      std::latch both(2);
      parallel_for(0, 2, [&](std::size_t) {
        both.arrive_and_wait();
        if (std::this_thread::get_id() != caller) seen = ++t_helper_shares;
      }, 2);
    }
    last = seen.load();
  });
  owner.join();
  EXPECT_EQ(last, 1000u);
}

TEST(InnerTeam, NestedCallRunsInlineOverItsWholeRange) {
  std::vector<std::atomic<int>> hits(4 * 100);
  std::atomic<int> foreign{0};
  parallel_for(0, 4, [&](std::size_t i) {
    const auto self = std::this_thread::get_id();
    parallel_for(0, 100, [&](std::size_t j) {
      if (std::this_thread::get_id() != self) foreign.fetch_add(1);
      hits[i * 100 + j].fetch_add(1);
    }, 4);
  }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(foreign.load(), 0);
}

/// Heap allocations per call of `call`, averaged over `calls` warm calls.
template <class Fn>
double allocations_per_call(const Fn& call, int calls = 200) {
  call();  // builds the team, if this thread has none yet
  g_allocations = 0;
  g_count_allocations = true;
  for (int i = 0; i < calls; ++i) call();
  g_count_allocations = false;
  return static_cast<double>(g_allocations.load()) / calls;
}

TEST(InnerTeam, WarmForksDoNotAllocate) {
  // Each wrapper hands parallel_for a lambda small enough for
  // std::function's local buffer, so a warm fork at 2 workers allocates
  // nothing; parallel_map allocates only its output vector.
  std::vector<double> data(1 << 12, 1.0);
  EXPECT_EQ(allocations_per_call([&] {
              parallel_for_blocks(0, data.size(), [&](std::size_t lo,
                                                      std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) data[i] *= 1.0;
              }, 2, 256);
            }),
            0.0);
  const std::vector<int> inputs{1, 2, 3, 4, 5, 6, 7, 8};
  int last = 0;
  EXPECT_EQ(allocations_per_call([&] {
              last = parallel_map(inputs, [](int x) { return 2 * x; }, 2)
                         .back();
            }),
            1.0);
  EXPECT_EQ(last, 16);
  EXPECT_EQ(allocations_per_call([&] {
              parallel_for(0, data.size(), [&](std::size_t i) {
                data[i] += 0.0;
              }, 2, 256);
            }),
            0.0);
}

TEST(InnerTeam, WarmReplaysDoNotAllocate) {
  // Every fork of a compiled statevector replay hands parallel_for a lambda
  // that fits std::function's local buffer, and the bind phase reuses its
  // per-thread slots, so a warm replay allocates nothing: blocked groups,
  // full-state sweeps and serial replays alike.
  Rng rng(16);
  const auto g = graph::random_regular(16, 3, rng);
  const auto c =
      qaoa::build_qaoa_circuit(g, 2, qaoa::MixerSpec::baseline());
  const std::vector<double> theta = {0.3, -0.7, 1.1, 0.4};
  sim::PlanOptions unblocked;
  unblocked.cache_blocking = false;
  const sim::SimProgram blocked_program(c);
  const sim::SimProgram unblocked_program(c, unblocked);
  // A 2^16-amplitude replay is slow under the sanitizers, and its count
  // repeats exactly from call to call, so 20 warm calls are enough.
  const auto per_replay = [&](const sim::SimProgram& program,
                              std::size_t inner) {
    return allocations_per_call(
        [&] { (void)program.replay_from_plus(theta, inner); }, 20);
  };
  EXPECT_EQ(per_replay(blocked_program, 2), 0.0);
  EXPECT_EQ(per_replay(unblocked_program, 2), 0.0);
  EXPECT_EQ(per_replay(blocked_program, 1), 0.0);
}

TEST(InnerTeam, HelperExceptionReachesCallerAndTeamRecovers) {
  const auto caller = std::this_thread::get_id();
  std::latch both(2);
  EXPECT_THROW(parallel_for(0, 2, [&](std::size_t) {
    both.arrive_and_wait();
    if (std::this_thread::get_id() != caller) throw Error("helper");
  }, 2), Error);
  std::vector<std::atomic<int>> hits(100);
  parallel_for(0, 100, [&](std::size_t i) { hits[i].fetch_add(1); }, 2);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
