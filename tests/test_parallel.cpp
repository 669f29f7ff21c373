// Tests for the parallel runtime: thread pool and parallel_for.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "common/error.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"

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
  // With 4 workers and 4 sleeping tasks, wall time should be well under the
  // serial 4x sleep. Generous margins keep this robust on loaded machines.
  const auto t0 = std::chrono::steady_clock::now();
  parallel_for(0, 4, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }, 4);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 0.35);
}

}  // namespace
